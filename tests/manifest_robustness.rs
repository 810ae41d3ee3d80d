//! Salvage robustness of the one durable record log
//! (`unxpec_harness::log`), which the sweep manifest, the service job
//! journal and the result-cache entries all share
//! (see `docs/fault_injection.md`).
//!
//! No input — valid, truncated, bit-flipped, or random garbage — may
//! ever panic a loader. Damage surfaces as a counted drop (logs), an
//! `Err` (a manifest with no header), or a counted miss (cache
//! entries), and salvage never invents, alters or reorders a record.

use std::path::{Path, PathBuf};

use proptest::prelude::*;
use unxpec::experiments::seeding::fnv1a64;
use unxpec_harness::log;
use unxpec_harness::{
    output_digest, CompletedTrial, Manifest, PoisonedTrial, QuarantinedTrial, TimedOutTrial,
    TrialOutput,
};
use unxpec_service::{CacheConfig, JournalRecord, ResultCache};

/// A populated manifest exercising every record type.
fn sample_manifest() -> Manifest {
    let mut m = Manifest::new(0xdead_beef, 0x5eed);
    let mut out = TrialOutput::new("rendered body".into(), vec![]);
    out.metrics = vec![("metric_a".into(), 1.5), ("metric_b".into(), -0.25)];
    m.completed.push(CompletedTrial {
        key: "exp/var/s0".into(),
        digest: output_digest(&out),
        attempts: 1,
        output: out,
    });
    let mut truncated = TrialOutput::new("truncated body".into(), vec![]);
    truncated.truncated = true;
    m.completed.push(CompletedTrial {
        key: "exp/var/s1".into(),
        digest: output_digest(&truncated),
        attempts: 2,
        output: truncated,
    });
    m.poisoned.push(PoisonedTrial {
        key: "exp/var/s2".into(),
        error: "panicked at 'boom'".into(),
        attempts: 3,
        failures: 2,
    });
    m.timed_out.push(TimedOutTrial {
        key: "exp/var/s3".into(),
        error: "deadline exceeded".into(),
        attempts: 1,
        failures: 1,
    });
    m.quarantined.push(QuarantinedTrial {
        key: "exp/var/s4".into(),
        error: "panicked thrice".into(),
        failures: 3,
    });
    m
}

/// Journal content with every record type and escaping-hostile text.
/// ASCII-only, like the manifest sample, so any byte index is a char
/// boundary and the truncation property can slice anywhere.
fn sample_journal() -> Vec<JournalRecord> {
    vec![
        JournalRecord::Submit {
            job: 1,
            tenant: "alice".to_string(),
            spec_text: "experiments = count\nseeds = 4\n".to_string(),
        },
        JournalRecord::CellDone {
            job: 1,
            slot: 0,
            cell: 0xdead_beef,
        },
        JournalRecord::CellDone {
            job: 1,
            slot: 3,
            cell: 0x1234,
        },
        JournalRecord::Submit {
            job: 2,
            tenant: "bob \"the\" builder".to_string(),
            spec_text: "experiments = count\nseeds = 2\nroot-seed = 0xb0b".to_string(),
        },
        JournalRecord::Cancel { job: 2 },
        JournalRecord::CellDone {
            job: 1,
            slot: 7,
            cell: u64::MAX,
        },
    ]
}

fn journal_text() -> String {
    sample_journal().iter().map(log::render).collect()
}

/// Every trial record a manifest holds, as comparable strings.
fn trial_lines(m: &Manifest) -> Vec<String> {
    let mut lines: Vec<String> = m.completed.iter().map(log::render).collect();
    lines.extend(m.poisoned.iter().map(log::render));
    lines.extend(m.timed_out.iter().map(log::render));
    lines.extend(m.quarantined.iter().map(log::render));
    lines
}

/// Characters JSON structure is built from — input drawn here reaches
/// deeper parser layers than raw bytes do.
const JSONISH: &[char] = &[
    '{', '}', '[', ']', ',', ':', '"', '0', '1', '9', 'a', 'e', 'x', ' ', '\n', '.', '-', '\\',
];

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "unxpec-log-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    p
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = temp_path(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn seeded_entry(dir: &Path) -> (ResultCache, TrialOutput) {
    let config = CacheConfig {
        dir: dir.to_path_buf(),
        max_bytes: 0,
    };
    let mut cache = ResultCache::open(&config).expect("open");
    let mut output = TrialOutput::new("rendered line\nsecond line".into(), vec![]);
    output.metrics = vec![("diff".into(), 22.5), ("frac".into(), 0.1)];
    cache.put(0xfeed, &output).expect("put");
    (cache, output)
}

fn entry_path(dir: &Path) -> PathBuf {
    dir.join(format!("{:02x}", 0xfeedu64 & 0xff))
        .join(format!("{:016x}.json", 0xfeedu64))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes: every loader returns, never panics.
    #[test]
    fn parse_never_panics_on_arbitrary_input(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = Manifest::parse(&text);
        let salvaged = log::salvage::<JournalRecord>(&text);
        prop_assert!(salvaged.records.is_empty(), "random bytes passed a checksum");
    }

    /// JSON-looking input, bare and inside a line whose checksum is
    /// right, reaches the decoders and still must not panic.
    #[test]
    fn parse_never_panics_on_jsonish_input(
        indices in proptest::collection::vec(0usize..JSONISH.len(), 0..512),
    ) {
        let body: String = indices.iter().map(|&i| JSONISH[i]).collect();
        let _ = Manifest::parse(&format!("{{{body}}}"));
        let _ = Manifest::parse(&body);
        let head = format!("{{\"v\": 3, {body}");
        let line = format!("{head}, \"checksum\": \"{:#018x}\"}}\n", fnv1a64(&head));
        let _ = Manifest::parse(&line);
        let _ = log::salvage::<JournalRecord>(&line);
    }

    /// A torn tail (kill mid-append, power cut) keeps exactly the
    /// records whose whole line survives; the partial line is at most
    /// one counted drop. Holds for the manifest and the journal, and
    /// the manifest never invents a record.
    #[test]
    fn truncation_never_panics_and_recovery_is_sound(cut in 0usize..4096) {
        let manifest = sample_manifest();
        let text = manifest.render();
        let cut = cut % text.len();
        // The writer emits pure ASCII, so any byte index is a char
        // boundary.
        let prefix = text.get(..cut).expect("manifest log is ASCII");
        let intact = &prefix[..prefix.rfind('\n').map_or(0, |i| i + 1)];
        match Manifest::parse(prefix) {
            Ok((recovered, dropped)) => {
                prop_assert!(dropped <= 1, "at most the torn line drops");
                prop_assert_eq!(Manifest::parse(intact).map(|(m, _)| m), Ok(recovered.clone()));
                let original = trial_lines(&manifest);
                let got = trial_lines(&recovered);
                prop_assert_eq!(got.len() + 1, intact.lines().count());
                for line in &got {
                    prop_assert!(original.contains(line), "recovered a record never written");
                }
            }
            Err(_) => prop_assert!(intact.is_empty(), "an intact header must load"),
        }

        let records = sample_journal();
        let text = journal_text();
        let cut = cut % text.len();
        let salvaged = log::salvage::<JournalRecord>(&text[..cut]);
        let keep = text[..cut].matches('\n').count();
        prop_assert_eq!(salvaged.records.as_slice(), &records[..keep]);
        prop_assert!(salvaged.dropped <= 1, "at most the torn line drops");
    }

    /// Any single-byte corruption salvages line by line: what survives
    /// is an order-preserving subsequence of what was written (the
    /// checksum stops invented or altered records), anything missing
    /// is counted in `dropped`, and nothing panics — including bytes
    /// that are no longer UTF-8, read back from disk.
    #[test]
    fn bit_flips_never_panic(pos in 0usize..4096, flip in 1u8..=255) {
        let records = sample_journal();
        let mut bytes = journal_text().into_bytes();
        let at = pos % bytes.len();
        bytes[at] ^= flip;
        let salvaged = log::salvage::<JournalRecord>(&String::from_utf8_lossy(&bytes));
        let mut rest = records.iter();
        for got in &salvaged.records {
            prop_assert!(rest.any(|r| r == got), "salvage produced a record never written: {:?}", got);
        }
        if salvaged.records.len() < records.len() {
            prop_assert!(salvaged.dropped >= 1, "missing records must be counted as dropped");
        }

        let manifest = sample_manifest();
        let mut bytes = manifest.render().into_bytes();
        let at = pos % bytes.len();
        bytes[at] ^= flip;
        let path = temp_path("flip");
        std::fs::write(&path, &bytes).expect("write corrupt");
        let loaded = Manifest::load(&path);
        std::fs::remove_file(&path).ok();
        if let Ok((recovered, dropped)) = loaded {
            let original = trial_lines(&manifest);
            let got = trial_lines(&recovered);
            for line in &got {
                prop_assert!(original.contains(line), "recovered a record never written");
            }
            if got.len() < original.len() {
                prop_assert!(dropped >= 1, "missing records must be counted as dropped");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any single-byte corruption of a cache entry either leaves a
    /// byte-identical valid entry (flips that don't change the stored
    /// document, e.g. restoring the same byte) or falls back to a
    /// counted miss — never a panic, never a wrong result.
    #[test]
    fn bit_flipped_entries_fall_back_to_resimulation(pos in 0usize..4096, flip in 1u8..=255) {
        let dir = tmpdir(&format!("cache-flip-{pos}-{flip}"));
        let (mut cache, original) = seeded_entry(&dir);
        let path = entry_path(&dir);
        let mut bytes = std::fs::read(&path).expect("entry bytes");
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        std::fs::write(&path, &bytes).expect("tamper");
        match cache.get(0xfeed) {
            Some(served) => {
                // Only a semantically identical document may be served.
                prop_assert_eq!(served.rendered, original.rendered);
                prop_assert_eq!(served.metrics, original.metrics);
                prop_assert_eq!(cache.stats().corrupt, 0);
            }
            None => {
                prop_assert_eq!(cache.stats().corrupt, 1);
                prop_assert!(!path.exists(), "damaged entry must be deleted");
                // The recompute path repopulates the slot.
                cache.put(0xfeed, &original).expect("re-put");
                prop_assert!(cache.get(0xfeed).is_some());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating an entry at any point is detected the same way.
    #[test]
    fn truncated_entries_fall_back_to_resimulation(cut in 0usize..4096) {
        let dir = tmpdir(&format!("cache-cut-{cut}"));
        let (mut cache, original) = seeded_entry(&dir);
        let path = entry_path(&dir);
        let bytes = std::fs::read(&path).expect("entry bytes");
        let cut = cut % bytes.len(); // strictly shorter than the file
        std::fs::write(&path, &bytes[..cut]).expect("truncate");
        prop_assert!(cache.get(0xfeed).is_none(), "truncated entry must miss");
        prop_assert_eq!(cache.stats().corrupt, 1);
        cache.put(0xfeed, &original).expect("re-put");
        prop_assert!(cache.get(0xfeed).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn the_sample_manifest_round_trips_cleanly() {
    let manifest = sample_manifest();
    let (parsed, dropped) = Manifest::parse(&manifest.render()).expect("round trip");
    assert_eq!(dropped, 0);
    assert_eq!(parsed, manifest);
    let salvaged = log::salvage::<JournalRecord>(&journal_text());
    assert_eq!((salvaged.records, salvaged.dropped), (sample_journal(), 0));
}
