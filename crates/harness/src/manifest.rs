//! The checkpoint/resume manifest: a [record log](crate::log) of every
//! trial a sweep has finished (or poisoned, timed out, quarantined),
//! keyed by trial identity.
//!
//! The file opens with a header record — the owning spec's digest and
//! root seed — followed by one record per trial outcome. The sweep
//! runner appends a record as each trial finishes, so a checkpoint
//! costs one line instead of a rewrite of the whole file, and a killed
//! run loses at most the line it was writing. Loading salvages the log
//! line by line ([`crate::log::salvage`]) and folds the records
//! last-record-wins by trial key: a trial poisoned in one run and
//! completed in the next reads as completed. The sweep compacts the
//! file once per run, right after loading it.
//!
//! On resume, trials whose key appears in `completed` are spliced back
//! into the report from their recorded rendered output and metrics —
//! byte for byte what the original run produced, because trial seeds
//! are identity-derived. A manifest is only valid for the spec that
//! produced it: [`Manifest::spec_digest`] must match
//! [`SweepSpec::digest`](crate::SweepSpec::digest). A file without a
//! header record — such as a version-1 or version-2 whole-document
//! manifest — is refused, never silently replaced.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use unxpec_telemetry::json::{escape, Value};

use crate::experiment::TrialOutput;
use crate::log::{
    self, decode_output, encode_output, hex, hex_field, str_field, u64_field, Record,
};

/// A finished trial's record.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTrial {
    /// Trial identity (`experiment/variant/s<seed_index>`).
    pub key: String,
    /// [`output_digest`](crate::output_digest) of the output.
    pub digest: u64,
    /// Attempts the trial needed.
    pub attempts: u32,
    /// The recorded output (rendered text + metrics + truncation flag).
    pub output: TrialOutput,
}

/// A trial that exhausted its retry budget.
#[derive(Debug, Clone, PartialEq)]
pub struct PoisonedTrial {
    /// Trial identity.
    pub key: String,
    /// The final panic message.
    pub error: String,
    /// Attempts made.
    pub attempts: u32,
    /// Runs (including resumed ones) in which this key has failed.
    pub failures: u32,
}

/// A trial that blew the per-trial wall-clock deadline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedOutTrial {
    /// Trial identity.
    pub key: String,
    /// What the deadline check observed.
    pub error: String,
    /// Attempts made before the deadline expired.
    pub attempts: u32,
    /// Runs (including resumed ones) in which this key has failed.
    pub failures: u32,
}

/// A trial cell failed often enough that resumed runs skip it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedTrial {
    /// Trial identity.
    pub key: String,
    /// The most recent failure's message.
    pub error: String,
    /// Failing runs accumulated before quarantine.
    pub failures: u32,
}

/// The on-disk checkpoint state of one sweep.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Manifest {
    /// Digest of the owning spec's canonical string.
    pub spec_digest: u64,
    /// The spec's root seed (informational; identity lives in the
    /// digest).
    pub root_seed: u64,
    /// Completed trials in completion order.
    pub completed: Vec<CompletedTrial>,
    /// Poisoned trials in completion order.
    pub poisoned: Vec<PoisonedTrial>,
    /// Deadline-exceeded trials in completion order.
    pub timed_out: Vec<TimedOutTrial>,
    /// Quarantined trial cells (skipped on resume).
    pub quarantined: Vec<QuarantinedTrial>,
}

/// The header record: which spec the log belongs to.
struct Header {
    spec_digest: u64,
    root_seed: u64,
}

impl Record for Header {
    fn encode(&self, out: &mut String) {
        let _ = write!(
            out,
            "\"type\": \"manifest\", \"spec_digest\": \"{}\", \"root_seed\": \"{}\"",
            hex(self.spec_digest),
            hex(self.root_seed)
        );
    }

    fn decode(line: &Value) -> Result<Self, String> {
        Ok(Header {
            spec_digest: hex_field(line, "spec_digest")?,
            root_seed: hex_field(line, "root_seed")?,
        })
    }
}

/// The members shared by the failure records.
fn encode_failure(
    out: &mut String,
    kind: &str,
    key: &str,
    error: &str,
    attempts: Option<u32>,
    failures: u32,
) {
    let _ = write!(
        out,
        "\"type\": \"{kind}\", \"key\": \"{}\", \"error\": \"{}\", ",
        escape(key),
        escape(error)
    );
    if let Some(attempts) = attempts {
        let _ = write!(out, "\"attempts\": {attempts}, ");
    }
    let _ = write!(out, "\"failures\": {failures}");
}

fn u32_field(line: &Value, name: &str) -> Result<u32, String> {
    let v = u64_field(line, name)?;
    u32::try_from(v).map_err(|_| format!("field {name:?} out of range: {v}"))
}

impl Record for CompletedTrial {
    fn encode(&self, out: &mut String) {
        let _ = write!(
            out,
            "\"type\": \"completed\", \"key\": \"{}\", \"digest\": \"{}\", \"attempts\": {}, ",
            escape(&self.key),
            hex(self.digest),
            self.attempts
        );
        encode_output(&self.output, out);
    }

    fn decode(line: &Value) -> Result<Self, String> {
        Ok(CompletedTrial {
            key: str_field(line, "key")?,
            digest: hex_field(line, "digest")?,
            attempts: u32_field(line, "attempts")?,
            output: decode_output(line)?,
        })
    }
}

impl Record for PoisonedTrial {
    fn encode(&self, out: &mut String) {
        encode_failure(
            out,
            "poisoned",
            &self.key,
            &self.error,
            Some(self.attempts),
            self.failures,
        );
    }

    fn decode(line: &Value) -> Result<Self, String> {
        Ok(PoisonedTrial {
            key: str_field(line, "key")?,
            error: str_field(line, "error")?,
            attempts: u32_field(line, "attempts")?,
            failures: u32_field(line, "failures")?,
        })
    }
}

impl Record for TimedOutTrial {
    fn encode(&self, out: &mut String) {
        encode_failure(
            out,
            "timed_out",
            &self.key,
            &self.error,
            Some(self.attempts),
            self.failures,
        );
    }

    fn decode(line: &Value) -> Result<Self, String> {
        Ok(TimedOutTrial {
            key: str_field(line, "key")?,
            error: str_field(line, "error")?,
            attempts: u32_field(line, "attempts")?,
            failures: u32_field(line, "failures")?,
        })
    }
}

impl Record for QuarantinedTrial {
    fn encode(&self, out: &mut String) {
        encode_failure(
            out,
            "quarantined",
            &self.key,
            &self.error,
            None,
            self.failures,
        );
    }

    fn decode(line: &Value) -> Result<Self, String> {
        Ok(QuarantinedTrial {
            key: str_field(line, "key")?,
            error: str_field(line, "error")?,
            failures: u32_field(line, "failures")?,
        })
    }
}

/// Any one line of a manifest log, told apart by its `type`.
enum Entry {
    Header(Header),
    Completed(CompletedTrial),
    Poisoned(PoisonedTrial),
    TimedOut(TimedOutTrial),
    Quarantined(QuarantinedTrial),
}

impl Entry {
    /// The trial key the record is about (`None` for the header).
    fn key(&self) -> Option<&str> {
        match self {
            Entry::Header(_) => None,
            Entry::Completed(t) => Some(&t.key),
            Entry::Poisoned(t) => Some(&t.key),
            Entry::TimedOut(t) => Some(&t.key),
            Entry::Quarantined(t) => Some(&t.key),
        }
    }
}

impl Record for Entry {
    fn encode(&self, out: &mut String) {
        match self {
            Entry::Header(h) => h.encode(out),
            Entry::Completed(t) => t.encode(out),
            Entry::Poisoned(t) => t.encode(out),
            Entry::TimedOut(t) => t.encode(out),
            Entry::Quarantined(t) => t.encode(out),
        }
    }

    fn decode(line: &Value) -> Result<Self, String> {
        Ok(match str_field(line, "type")?.as_str() {
            "manifest" => Entry::Header(Header::decode(line)?),
            "completed" => Entry::Completed(CompletedTrial::decode(line)?),
            "poisoned" => Entry::Poisoned(PoisonedTrial::decode(line)?),
            "timed_out" => Entry::TimedOut(TimedOutTrial::decode(line)?),
            "quarantined" => Entry::Quarantined(QuarantinedTrial::decode(line)?),
            other => return Err(format!("unknown manifest record type {other:?}")),
        })
    }
}

impl Manifest {
    /// An empty manifest for `spec_digest`/`root_seed`.
    pub fn new(spec_digest: u64, root_seed: u64) -> Self {
        Manifest {
            spec_digest,
            root_seed,
            ..Manifest::default()
        }
    }

    /// The manifest as a compact log: the header, then one record per
    /// trial.
    pub fn render(&self) -> String {
        let mut out = log::render(&Header {
            spec_digest: self.spec_digest,
            root_seed: self.root_seed,
        });
        out.extend(self.completed.iter().map(log::render));
        out.extend(self.poisoned.iter().map(log::render));
        out.extend(self.timed_out.iter().map(log::render));
        out.extend(self.quarantined.iter().map(log::render));
        out
    }

    /// Salvages a manifest log and folds its records last-record-wins
    /// by trial key. Returns the manifest and the number of damaged
    /// lines dropped. Only a log without a header record is an error.
    pub fn parse(text: &str) -> Result<(Self, u64), String> {
        Manifest::fold(log::salvage(text))
    }

    /// Loads the manifest log at `path` (see [`Manifest::parse`]).
    pub fn load(path: &Path) -> Result<(Self, u64), String> {
        let salvaged = log::read(path)?.ok_or_else(|| format!("{} not found", path.display()))?;
        Manifest::fold(salvaged).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn fold(salvaged: log::Salvage<Entry>) -> Result<(Self, u64), String> {
        let mut header = None;
        let mut trials: Vec<Entry> = Vec::new();
        let mut slot: HashMap<String, usize> = HashMap::new();
        for entry in salvaged.records {
            let Some(key) = entry.key().map(str::to_string) else {
                if let Entry::Header(h) = entry {
                    header.get_or_insert(h);
                }
                continue;
            };
            match slot.get(&key) {
                Some(&i) => trials[i] = entry,
                None => {
                    slot.insert(key, trials.len());
                    trials.push(entry);
                }
            }
        }
        let header = header.ok_or(
            "no manifest header record; version-1/2 whole-document manifests \
             are not record logs and are refused",
        )?;
        let mut manifest = Manifest::new(header.spec_digest, header.root_seed);
        for entry in trials {
            match entry {
                Entry::Header(_) => {}
                Entry::Completed(t) => manifest.completed.push(t),
                Entry::Poisoned(t) => manifest.poisoned.push(t),
                Entry::TimedOut(t) => manifest.timed_out.push(t),
                Entry::Quarantined(t) => manifest.quarantined.push(t),
            }
        }
        Ok((manifest, salvaged.dropped))
    }

    /// Compacts the manifest to `path` atomically (see
    /// [`log::write_atomic`]).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        log::write_atomic(path, self.render().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut output = TrialOutput::new("line1\nline2 \"quoted\"".to_string(), vec![]);
        output.metrics = vec![("diff".into(), 22.5), ("neg".into(), -0.125)];
        Manifest {
            spec_digest: 0xdead_beef_0bad_cafe,
            root_seed: 0x5eed,
            completed: vec![CompletedTrial {
                key: "rollback/es/s0".into(),
                digest: u64::MAX,
                attempts: 2,
                output,
            }],
            poisoned: vec![PoisonedTrial {
                key: "pdf/no-es/s1".into(),
                error: "index out of bounds: the len is 0".into(),
                attempts: 3,
                failures: 2,
            }],
            timed_out: vec![TimedOutTrial {
                key: "leakage/es/s0".into(),
                error: "deadline exceeded: ran 9.1 s against a budget of 2.0 s".into(),
                attempts: 1,
                failures: 1,
            }],
            quarantined: vec![QuarantinedTrial {
                key: "rate/default/s2".into(),
                error: "trial exploded".into(),
                failures: 3,
            }],
        }
    }

    fn temp(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("unxpec-manifest-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn log_round_trips_exactly_one_line_per_record() {
        let m = sample();
        let text = m.render();
        assert_eq!(text.lines().count(), 5, "header + four trial records");
        assert_eq!(Manifest::parse(&text).expect("parses"), (m, 0));
    }

    #[test]
    fn truncated_flag_round_trips() {
        let mut m = sample();
        m.completed[0].output.truncated = true;
        let text = m.render();
        assert!(text.contains("\"truncated\": true"));
        assert_eq!(Manifest::parse(&text).expect("parses").0, m);
    }

    #[test]
    fn digests_survive_full_u64_range() {
        let mut m = sample();
        m.spec_digest = u64::MAX;
        m.root_seed = u64::MAX - 1;
        let (back, _) = Manifest::parse(&m.render()).unwrap();
        assert_eq!(back.spec_digest, u64::MAX);
        assert_eq!(back.root_seed, u64::MAX - 1);
        assert_eq!(back.completed[0].digest, u64::MAX);
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = temp("save");
        let path = dir.join("manifest.json");
        let m = sample();
        m.save(&path).unwrap();
        assert_eq!(Manifest::load(&path).unwrap(), (m, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn later_records_win_by_trial_key() {
        let mut m = sample();
        let retried = CompletedTrial {
            key: "pdf/no-es/s1".into(),
            ..m.completed[0].clone()
        };
        let text = m.render() + &log::render(&retried);
        let (folded, dropped) = Manifest::parse(&text).unwrap();
        assert_eq!(dropped, 0);
        assert!(folded.poisoned.is_empty(), "the completion supersedes");
        assert_eq!(folded.completed.len(), 2);
        m.poisoned.clear();
        m.completed.push(retried);
        assert_eq!(folded, m);
    }

    #[test]
    fn garbage_and_headerless_logs_are_rejected_with_a_message() {
        assert!(Manifest::parse("{}").is_err());
        assert!(Manifest::parse("not json").is_err());
        let headerless: String = sample().completed.iter().map(log::render).collect();
        let err = Manifest::parse(&headerless).unwrap_err();
        assert!(err.contains("header"), "{err}");
    }

    #[test]
    fn whole_document_manifests_are_refused() {
        let v1 = concat!(
            "{\"version\": 1, \"spec_digest\": \"0xabc\", \"root_seed\": 7,\n",
            " \"completed\": [{\"key\": \"a/x/s0\", \"digest\": \"0x1\", \"attempts\": 1,",
            " \"metrics\": {\"m\": 2}, \"rendered\": \"ok\"}],\n",
            " \"poisoned\": []}\n"
        );
        let v2 = concat!(
            "{\n  \"version\": 2,\n  \"checksum\": \"0x1\",\n",
            "  \"spec_digest\": \"0xabc\",\n  \"root_seed\": 7,\n",
            "  \"completed\": [\n  ],\n  \"poisoned\": [\n  ]\n}\n"
        );
        for doc in [v1, v2] {
            let err = Manifest::parse(doc).unwrap_err();
            assert!(err.contains("refused"), "{err}");
        }
    }

    #[test]
    fn a_tampered_record_is_dropped_and_counted() {
        let text = sample().render();
        let tampered = text.replacen("\"attempts\": 2", "\"attempts\": 9", 1);
        assert_ne!(text, tampered, "tamper target must exist");
        let (m, dropped) = Manifest::parse(&tampered).unwrap();
        assert_eq!(dropped, 1);
        assert!(m.completed.is_empty(), "the tampered record is gone");
        assert_eq!(m.poisoned, sample().poisoned, "its neighbours survive");
    }

    #[test]
    fn a_torn_manifest_recovers_to_the_last_good_record() {
        let mut m = sample();
        let mut second = TrialOutput::new("fine".to_string(), vec![]);
        second.metrics = vec![("m".into(), 1.0)];
        m.completed.push(CompletedTrial {
            key: "rollback/es/s1".into(),
            digest: 42,
            attempts: 1,
            output: second,
        });
        let text = m.render();
        // Cut the file mid-way through the second completed record, as
        // a kill during an append would.
        let cut = text.find("rollback/es/s1").unwrap() + 20;
        let dir = temp("torn");
        let path = dir.join("manifest.json");
        std::fs::write(&path, &text[..cut]).unwrap();
        let (recovered, dropped) = Manifest::load(&path).unwrap();
        assert_eq!(dropped, 1, "the torn line is counted");
        assert_eq!(recovered.spec_digest, m.spec_digest);
        assert_eq!(recovered.root_seed, m.root_seed);
        assert_eq!(
            recovered.completed,
            m.completed[..1],
            "first record survives"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pure_garbage_is_unrecoverable() {
        let dir = temp("garbage");
        let path = dir.join("manifest.json");
        std::fs::write(&path, "\x00\x01 nothing json-like here").unwrap();
        assert!(Manifest::load(&path).is_err());
        assert!(Manifest::load(&dir.join("absent.json")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
