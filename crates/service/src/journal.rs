//! The durable write-ahead job journal.
//!
//! Every state transition the scheduler must not forget — an accepted
//! submission, a per-cell completion, a cancellation — is appended to
//! one journal file as a self-delimiting, FNV-checksummed JSON line
//! *before* the transition is acknowledged to the client. On restart
//! the server replays the journal: jobs come back under their original
//! ids, completed cells resolve through the content-addressed result
//! cache (zero re-simulation), and only genuinely unfinished cells are
//! re-enqueued. A `kill -9` mid-sweep therefore costs nothing but the
//! cells that were actually in flight.
//!
//! The journal is a [record log](unxpec_harness::log): one
//! checksummed JSON line per record, appended and flushed before the
//! write returns, so a killed *process* never loses an acknowledged
//! record. [`Journal::open`] salvages line by line — a torn tail or a
//! flipped bit costs only its own line, counted in
//! [`JournalRecovery::dropped`] — and then compacts the salvaged
//! records back atomically, so corruption never accumulates and a crash
//! mid-compaction leaves the previous journal intact.
//!
//! What is deliberately *not* journaled: trial outputs (they live in
//! the result cache under the cell digest — the journal only records
//! *that* a cell finished), and failed slots (a poisoned or timed-out
//! cell should get a fresh chance after a restart).

use std::fmt::Write as _;
use std::path::Path;

use unxpec_harness::log::{self, hex, hex_field, str_field, u64_field, Appender, Record, Salvage};
use unxpec_telemetry::json::{escape, Value};

use crate::error::ServiceError;

/// One durable scheduler transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A submission was accepted: job `job` (numeric part of `"j<n>"`)
    /// for `tenant`, with the spec exactly as the client sent it.
    Submit {
        /// Numeric job id (the `n` of `"j<n>"`).
        job: u64,
        /// Owning tenant.
        tenant: String,
        /// The submitted spec text, verbatim.
        spec_text: String,
    },
    /// Slot `slot` of job `job` completed with a result stored in the
    /// cache under `cell`.
    CellDone {
        /// Numeric job id.
        job: u64,
        /// Slot index within the job's enumeration order.
        slot: u64,
        /// The cell digest the output is cached under.
        cell: u64,
    },
    /// Job `job` was cancelled (pending slots skipped).
    Cancel {
        /// Numeric job id.
        job: u64,
    },
}

impl Record for JournalRecord {
    fn encode(&self, out: &mut String) {
        let _ = match self {
            JournalRecord::Submit {
                job,
                tenant,
                spec_text,
            } => write!(
                out,
                "\"type\": \"submit\", \"job\": {job}, \"tenant\": \"{}\", \"spec\": \"{}\"",
                escape(tenant),
                escape(spec_text)
            ),
            JournalRecord::CellDone { job, slot, cell } => write!(
                out,
                "\"type\": \"done\", \"job\": {job}, \"slot\": {slot}, \"cell\": \"{}\"",
                hex(*cell)
            ),
            JournalRecord::Cancel { job } => write!(out, "\"type\": \"cancel\", \"job\": {job}"),
        };
    }

    fn decode(line: &Value) -> Result<Self, String> {
        Ok(match str_field(line, "type")?.as_str() {
            "submit" => JournalRecord::Submit {
                job: u64_field(line, "job")?,
                tenant: str_field(line, "tenant")?,
                spec_text: str_field(line, "spec")?,
            },
            "done" => JournalRecord::CellDone {
                job: u64_field(line, "job")?,
                slot: u64_field(line, "slot")?,
                cell: hex_field(line, "cell")?,
            },
            "cancel" => JournalRecord::Cancel {
                job: u64_field(line, "job")?,
            },
            other => return Err(format!("unknown record type {other:?}")),
        })
    }
}

/// What loading an existing journal recovered: the records that
/// validated, in file order, and the count of lines dropped as damaged.
pub type JournalRecovery = Salvage<JournalRecord>;

/// The append handle over one journal file.
#[derive(Debug)]
pub struct Journal {
    log: Appender,
    records: u64,
}

impl Journal {
    /// Loads (leniently) whatever journal exists at `path`, compacts
    /// the salvaged records back atomically, and opens the file for
    /// appending. Returns the handle plus the recovery summary the
    /// server replays from.
    pub fn open(path: &Path) -> Result<(Journal, JournalRecovery), ServiceError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| {
                    ServiceError::Journal(format!("create {}: {e}", parent.display()))
                })?;
            }
        }
        let recovery = log::read(path)
            .map_err(ServiceError::Journal)?
            .unwrap_or_default();
        log::compact(path, &recovery.records).map_err(ServiceError::Journal)?;
        let log = Appender::open(path).map_err(ServiceError::Journal)?;
        Ok((
            Journal {
                log,
                records: recovery.records.len() as u64,
            },
            recovery,
        ))
    }

    /// Appends one record and flushes it to the OS. After this returns,
    /// a killed process cannot lose the record.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), ServiceError> {
        self.log.append(record).map_err(ServiceError::Journal)?;
        self.records += 1;
        Ok(())
    }

    /// Records appended or salvaged so far in this lifetime.
    pub fn len(&self) -> u64 {
        self.records
    }

    /// Whether the journal currently holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The journal file's path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods, clippy::disallowed_macros)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("unxpec-journal-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join("journal.log")
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Submit {
                job: 1,
                tenant: "tenant \"x\"".into(),
                spec_text: "experiments = a\n# comment with \\ and \"quotes\"\nseeds = 3\n".into(),
            },
            JournalRecord::CellDone {
                job: 1,
                slot: 0,
                cell: 0xdead_beef_cafe_f00d,
            },
            JournalRecord::Cancel { job: 1 },
        ]
    }

    #[test]
    fn records_round_trip_through_their_line_form() {
        for record in sample_records() {
            let line = log::render(&record);
            assert_eq!(line.matches('\n').count(), 1, "exactly one line");
            assert_eq!(log::parse::<JournalRecord>(line.trim_end()), Ok(record));
        }
    }

    #[test]
    fn open_append_reload_preserves_order() {
        let path = tmp("roundtrip");
        {
            let (mut journal, recovery) = Journal::open(&path).expect("open fresh");
            assert!(recovery.records.is_empty());
            assert!(journal.is_empty());
            for record in sample_records() {
                journal.append(&record).expect("append");
            }
            assert_eq!(journal.len(), 3);
        }
        let (journal, recovery) = Journal::open(&path).expect("reopen");
        assert_eq!(recovery.records, sample_records());
        assert_eq!(recovery.dropped, 0);
        assert_eq!(journal.len(), 3);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn torn_tail_is_salvaged_line_by_line_and_compacted_away() {
        let path = tmp("torn");
        {
            let (mut journal, _) = Journal::open(&path).expect("open");
            for record in sample_records() {
                journal.append(&record).expect("append");
            }
        }
        // Simulate a crash mid-append: a partial record at the tail.
        let mut text = std::fs::read_to_string(&path).expect("read");
        text.push_str("{\"v\": 3, \"type\": \"done\", \"job\": 9, \"slo");
        std::fs::write(&path, &text).expect("tear");

        let (_, recovery) = Journal::open(&path).expect("reopen");
        assert_eq!(recovery.records, sample_records(), "intact prefix kept");
        assert_eq!(recovery.dropped, 1, "torn tail counted, not fatal");

        // Compaction removed the torn line: a third open is clean.
        let (_, again) = Journal::open(&path).expect("third open");
        assert_eq!(again.dropped, 0, "compaction scrubbed the torn tail");
        assert_eq!(again.records.len(), 3);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
