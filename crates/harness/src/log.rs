//! The durable record log: the workspace's one persistence format.
//!
//! A log is a text file of records, one `\n`-terminated JSON object per
//! line:
//!
//! ```text
//! {"v": 3, "type": "done", "job": 1, "slot": 0, "cell": "0x2a", "checksum": "0x1c0ffee0ddf00d42"}
//! ```
//!
//! `checksum` is [`fnv1a64`] over every byte of the line before
//! `, "checksum"`, so a flipped bit anywhere in a record — or a line
//! torn by a crash mid-write — fails validation on read. `v` is the
//! format [`VERSION`]; a line of any other version reads as damaged
//! instead of mis-parsing.
//!
//! Three stores sit on this format: the sweep checkpoint
//! ([`crate::manifest`]), the service's write-ahead job journal, and the
//! service's result-cache entries (one single-record file per cell).
//! The module owns what they share:
//!
//! * **Append + flush** — [`Appender::append`] writes a whole record
//!   line in one call and flushes it, so a killed process loses at most
//!   the record it was writing.
//! * **Lenient salvage** — [`salvage`] keeps every line that validates,
//!   in file order, and counts the rest in [`Salvage::dropped`]. It
//!   never fails and never panics; a torn tail costs one line.
//! * **Atomic compaction** — [`compact`] rewrites a log from its records
//!   through [`write_atomic`]: a `<file name>.tmp` sibling, then
//!   `rename`, so a crash mid-compaction leaves the previous file
//!   intact.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use unxpec::experiments::seeding::fnv1a64;
use unxpec_telemetry::json::{self, escape, Value};

use crate::experiment::TrialOutput;

/// Record-format version stamped on every line. Version 3 follows the
/// sweep manifest's whole-document versions 1 and 2; bump it on any
/// layout change so older lines read as damaged.
pub const VERSION: u64 = 3;

/// What precedes the checksum value on every line.
const CHECKSUM_SEP: &str = ", \"checksum\": \"";

/// A type stored as one log line.
pub trait Record: Sized {
    /// Appends the record's JSON members (`"name": value` pairs joined
    /// by `, `, no braces) to `out`.
    fn encode(&self, out: &mut String);

    /// Rebuilds the record from a line that passed the checksum.
    fn decode(line: &Value) -> Result<Self, String>;
}

/// What salvaging a log recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Salvage<R> {
    /// Records that validated, in file order.
    pub records: Vec<R>,
    /// Lines dropped as damaged: torn, bit-flipped, wrong version, or
    /// not a record of this type.
    pub dropped: u64,
}

impl<R> Default for Salvage<R> {
    fn default() -> Self {
        Salvage {
            records: Vec::new(),
            dropped: 0,
        }
    }
}

/// Renders `record` as its checksummed line, trailing `\n` included.
pub fn render<R: Record>(record: &R) -> String {
    let mut line = format!("{{\"v\": {VERSION}, ");
    record.encode(&mut line);
    let checksum = fnv1a64(&line);
    let _ = writeln!(line, "{CHECKSUM_SEP}{checksum:#018x}\"}}");
    line
}

/// Validates and decodes one line (without its `\n`).
pub fn parse<R: Record>(line: &str) -> Result<R, String> {
    let (body, tail) = line
        .rsplit_once(CHECKSUM_SEP)
        .ok_or("record has no checksum")?;
    let recorded = tail
        .strip_suffix("\"}")
        .and_then(|hex| hex.strip_prefix("0x"))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or("record checksum is malformed")?;
    if fnv1a64(body) != recorded {
        return Err("record checksum mismatch".to_string());
    }
    let doc = json::parse(line)?;
    match doc.get("v").and_then(Value::as_u64) {
        Some(VERSION) => R::decode(&doc),
        other => Err(format!("record version {other:?}, expected {VERSION}")),
    }
}

/// Lenient line-by-line recovery: keeps every `\n`-terminated line that
/// validates and counts every other non-blank line, including an
/// unterminated tail, into [`Salvage::dropped`].
pub fn salvage<R: Record>(text: &str) -> Salvage<R> {
    let mut out = Salvage::default();
    let mut rest = text;
    while let Some((line, tail)) = rest.split_once('\n') {
        rest = tail;
        if line.trim().is_empty() {
            continue;
        }
        match parse(line) {
            Ok(record) => out.records.push(record),
            Err(_) => out.dropped += 1,
        }
    }
    if !rest.trim().is_empty() {
        out.dropped += 1;
    }
    out
}

/// Reads and salvages the log at `path`; `Ok(None)` when no file
/// exists. Bytes that are not UTF-8 damage only the lines holding them.
pub fn read<R: Record>(path: &Path) -> Result<Option<Salvage<R>>, String> {
    match std::fs::read(path) {
        Ok(bytes) => Ok(Some(salvage(&String::from_utf8_lossy(&bytes)))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("read {}: {e}", path.display())),
    }
}

/// Writes `bytes` to `path` atomically: first to `<file name>.tmp` in
/// the same directory, then `rename` over `path`. The temp name keeps
/// the whole file name, so `state.tmp` stages in `state.tmp.tmp` rather
/// than on itself, and `run.json` and `run.log` never share one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let mut name = path
        .file_name()
        .ok_or_else(|| format!("{} names no file", path.display()))?
        .to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    std::fs::write(&tmp, bytes).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))
}

/// Rewrites the log at `path` to hold exactly `records`, atomically.
pub fn compact<R: Record>(path: &Path, records: &[R]) -> Result<(), String> {
    let text: String = records.iter().map(render).collect();
    write_atomic(path, text.as_bytes())
}

/// An open log, appended to one record at a time.
#[derive(Debug)]
pub struct Appender {
    path: PathBuf,
    file: std::fs::File,
}

impl Appender {
    /// Opens (creating if absent) the log at `path` for appending.
    pub fn open(path: &Path) -> Result<Self, String> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        Ok(Appender {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends `record` as one line and flushes it to the OS; once this
    /// returns, a killed process cannot lose the record.
    pub fn append<R: Record>(&mut self, record: &R) -> Result<(), String> {
        self.file
            .write_all(render(record).as_bytes())
            .and_then(|()| self.file.flush())
            .map_err(|e| format!("append {}: {e}", self.path.display()))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The `0x`-prefixed hex form 64-bit values are stored in (JSON numbers
/// are `f64`, exact only to 2^53).
pub fn hex(v: u64) -> String {
    format!("{v:#x}")
}

/// Field `name` of `line` as a string.
pub fn str_field(line: &Value, name: &str) -> Result<String, String> {
    line.get(name)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("record missing string field {name:?}"))
}

/// Field `name` of `line` as an integer.
pub fn u64_field(line: &Value, name: &str) -> Result<u64, String> {
    line.get(name)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("record missing numeric field {name:?}"))
}

/// Field `name` of `line` as a [`hex`] string.
pub fn hex_field(line: &Value, name: &str) -> Result<u64, String> {
    let s = str_field(line, name)?;
    s.strip_prefix("0x")
        .and_then(|raw| u64::from_str_radix(raw, 16).ok())
        .ok_or_else(|| format!("field {name:?} is not 0x-hex: {s:?}"))
}

/// Appends a trial output's members: `"truncated": true` when set, then
/// `"metrics"` (shortest round-trip `f64`s) and `"rendered"`.
/// Diagnostics are not stored; they describe how a trial ran, not what
/// it computed.
pub fn encode_output(output: &TrialOutput, out: &mut String) {
    if output.truncated {
        out.push_str("\"truncated\": true, ");
    }
    out.push_str("\"metrics\": {");
    for (i, (name, value)) in output.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", escape(name), value);
    }
    let _ = write!(out, "}}, \"rendered\": \"{}\"", escape(&output.rendered));
}

/// Reads back what [`encode_output`] wrote.
pub fn decode_output(line: &Value) -> Result<TrialOutput, String> {
    let Some(Value::Obj(members)) = line.get("metrics") else {
        return Err("record missing metrics{}".to_string());
    };
    let mut metrics = Vec::with_capacity(members.len());
    for (name, value) in members {
        let v = value
            .as_f64()
            .ok_or_else(|| format!("metric {name:?} is not a number"))?;
        metrics.push((name.clone(), v));
    }
    let truncated = matches!(line.get("truncated"), Some(Value::Bool(true)));
    let mut output =
        TrialOutput::new(str_field(line, "rendered")?, vec![]).with_truncated(truncated);
    output.metrics = metrics;
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Note(String);

    impl Record for Note {
        fn encode(&self, out: &mut String) {
            let _ = write!(out, "\"note\": \"{}\"", escape(&self.0));
        }
        fn decode(line: &Value) -> Result<Self, String> {
            str_field(line, "note").map(Note)
        }
    }

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("unxpec-log-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn lines_round_trip_and_stay_single_line() {
        let note = Note("two\nlines, \"quoted\" \\ and , \"checksum\": \"0x1\"}".into());
        let line = render(&note);
        assert!(line.ends_with('\n'));
        assert_eq!(line.matches('\n').count(), 1, "newlines are escaped");
        assert_eq!(parse::<Note>(line.trim_end()).unwrap(), note);
    }

    #[test]
    fn tampering_and_version_skew_are_rejected() {
        let line = render(&Note("alice".into()));
        let line = line.trim_end();
        let tampered = line.replacen("alice", "alicf", 1);
        assert!(parse::<Note>(&tampered).unwrap_err().contains("checksum"));
        let skewed = line.replacen("\"v\": 3", "\"v\": 2", 1);
        assert!(parse::<Note>(&skewed).is_err());
    }

    #[test]
    fn salvage_counts_a_torn_tail_and_skips_blank_lines() {
        let mut text = render(&Note("a".into())) + "\n" + &render(&Note("b".into()));
        text.push_str(&render(&Note("c".into()))[..10]);
        let s = salvage::<Note>(&text);
        assert_eq!(s.records, vec![Note("a".into()), Note("b".into())]);
        assert_eq!(s.dropped, 1);
        let whole = render(&Note("d".into()));
        let s = salvage::<Note>(whole.trim_end());
        assert!(s.records.is_empty(), "a record needs its terminator");
        assert_eq!(s.dropped, 1);
    }

    #[test]
    fn append_compact_and_read_back() {
        let dir = temp("append");
        let path = dir.join("notes.log");
        assert!(read::<Note>(&path).unwrap().is_none());
        compact(&path, &[Note("a".into())]).unwrap();
        let mut log = Appender::open(&path).unwrap();
        log.append(&Note("b".into())).unwrap();
        let s = read::<Note>(&path).unwrap().unwrap();
        assert_eq!(s.records, vec![Note("a".into()), Note("b".into())]);
        assert_eq!(s.dropped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A target that already ends in `.tmp` must not stage its atomic
    /// write on itself: until the rename, the live file is untouched,
    /// so a compaction that dies half way leaves it intact.
    #[test]
    fn atomic_writes_to_a_tmp_suffixed_target_stage_beside_it() {
        let dir = temp("tmp-suffix");
        let path = dir.join("state.tmp");
        compact(&path, &[Note("old".into())]).unwrap();
        let live = std::fs::read(&path).unwrap();
        // Make the staging write fail: the live log must not change.
        std::fs::create_dir(dir.join("state.tmp.tmp")).unwrap();
        assert!(compact(&path, &[Note("new".into())]).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), live, "live file intact");
        std::fs::remove_dir(dir.join("state.tmp.tmp")).unwrap();
        compact(&path, &[Note("new".into())]).unwrap();
        let s = read::<Note>(&path).unwrap().unwrap();
        assert_eq!(s.records, vec![Note("new".into())]);
        let names = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(names, 1, "the staging file was renamed into place");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn outputs_round_trip_through_the_codec() {
        let mut output = TrialOutput::new("x\n\"y\"".into(), vec![]).with_truncated(true);
        output.metrics = vec![("a".into(), 0.1), ("b".into(), -22.5)];
        let mut members = String::from("{");
        encode_output(&output, &mut members);
        members.push('}');
        let back = decode_output(&json::parse(&members).unwrap()).unwrap();
        assert_eq!(back, output);
    }
}
