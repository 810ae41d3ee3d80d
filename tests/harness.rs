//! Integration tests for the sweep harness: parallel-equals-serial
//! determinism, checkpoint/resume from a manifest (including a
//! manifest torn by a kill mid-append), and panic containment with
//! bounded retry (`docs/harness.md`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use unxpec_harness::{
    run_sweep, FnExperiment, Manifest, Registry, SweepError, SweepOptions, SweepSpec, TrialOutput,
};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("unxpec-harness-it-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// jobs=1 and jobs=8 must produce identical results, aggregates, and
/// digests on real paper experiments — the acceptance property of the
/// whole harness.
#[test]
fn parallel_sweep_equals_serial_sweep_on_real_experiments() {
    let registry = Registry::builtin();
    let mut spec = SweepSpec::quick();
    // timeline is the cheapest seeded experiment with two variants.
    spec.experiments = vec!["timeline".into(), "secret-pattern".into()];
    spec.seeds = 3;

    let serial = run_sweep(
        &spec,
        &registry,
        &SweepOptions {
            jobs: 1,
            ..Default::default()
        },
    )
    .expect("serial sweep");
    let parallel = run_sweep(
        &spec,
        &registry,
        &SweepOptions {
            jobs: 8,
            ..Default::default()
        },
    )
    .expect("parallel sweep");

    assert_eq!(serial.aggregate_digest, parallel.aggregate_digest);
    assert_eq!(serial.aggregates, parallel.aggregates);
    assert_eq!(serial.results.len(), parallel.results.len());
    for (a, b) in serial.results.iter().zip(&parallel.results) {
        assert_eq!(a.trial.key, b.trial.key, "enumeration order differs");
        assert_eq!(a.trial.seed, b.trial.seed, "derived seed differs");
        assert_eq!(a.output, b.output, "trial {} output differs", a.trial.key);
        assert_eq!(a.digest, b.digest);
    }
    assert!(serial.poisoned.is_empty() && parallel.poisoned.is_empty());
}

fn counting_registry(runs: Arc<AtomicUsize>) -> Registry {
    let mut r = Registry::new();
    r.register(FnExperiment::new("count", &["default"], move |ctx| {
        runs.fetch_add(1, Ordering::Relaxed);
        TrialOutput::new(
            format!("seed {}", ctx.seed),
            vec![("seed_mod", (ctx.seed % 97) as f64)],
        )
    }));
    r
}

#[test]
fn resume_from_manifest_skips_completed_trials() {
    let dir = tmpdir("resume");
    let manifest = dir.join("manifest.json");
    let runs = Arc::new(AtomicUsize::new(0));
    let registry = counting_registry(runs.clone());
    let mut spec = SweepSpec::quick();
    spec.experiments = vec!["count".into()];
    spec.seeds = 5;
    let opts = SweepOptions {
        jobs: 2,
        retries: 0,
        manifest: Some(manifest.clone()),
        ..SweepOptions::default()
    };

    let first = run_sweep(&spec, &registry, &opts).expect("first run");
    assert_eq!(runs.load(Ordering::Relaxed), 5);
    assert_eq!(first.resumed, 0);
    assert!(manifest.exists(), "manifest checkpointed");

    // Second run: every trial comes from the manifest, nothing
    // executes, and the aggregates are byte-identical.
    let second = run_sweep(&spec, &registry, &opts).expect("resumed run");
    assert_eq!(runs.load(Ordering::Relaxed), 5, "no trial re-ran");
    assert_eq!(second.resumed, 5);
    assert_eq!(second.aggregate_digest, first.aggregate_digest);
    assert_eq!(second.aggregates, first.aggregates);

    // Growing the seed axis only runs the new trials.
    spec.seeds = 8;
    let third = run_sweep(&spec, &registry, &opts).expect("grown run");
    assert_eq!(runs.load(Ordering::Relaxed), 8, "only 3 new trials ran");
    assert_eq!(third.resumed, 5);
    assert_eq!(third.results.len(), 8);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_for_a_different_spec_is_rejected() {
    let dir = tmpdir("mismatch");
    let manifest = dir.join("manifest.json");
    let runs = Arc::new(AtomicUsize::new(0));
    let registry = counting_registry(runs);
    let mut spec = SweepSpec::quick();
    spec.experiments = vec!["count".into()];
    spec.seeds = 2;
    let opts = SweepOptions {
        jobs: 1,
        retries: 0,
        manifest: Some(manifest.clone()),
        ..SweepOptions::default()
    };
    run_sweep(&spec, &registry, &opts).expect("first run");

    spec.root_seed ^= 0xffff;
    match run_sweep(&spec, &registry, &opts) {
        Err(SweepError::ManifestMismatch { manifest, spec }) => assert_ne!(manifest, spec),
        other => panic!("expected ManifestMismatch, got {other:?}"),
    }

    // The manifest file itself still parses and belongs to run 1.
    let (m, _) = Manifest::load(&manifest).expect("manifest still valid");
    assert_eq!(m.completed.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_panic_is_contained_and_reported() {
    let mut registry = Registry::new();
    registry.register(FnExperiment::new("mixed", &["ok", "boom"], |ctx| {
        if ctx.variant == "boom" {
            panic!("injected failure for seed {}", ctx.seed);
        }
        TrialOutput::new("fine".into(), vec![("one", 1.0)])
    }));
    let mut spec = SweepSpec::quick();
    spec.experiments = vec!["mixed".into()];
    spec.seeds = 3;
    let report = run_sweep(
        &spec,
        &registry,
        &SweepOptions {
            jobs: 4,
            retries: 1,
            manifest: None,
            ..SweepOptions::default()
        },
    )
    .expect("sweep survives panicking trials");

    assert_eq!(report.results.len(), 3, "ok trials all completed");
    assert_eq!(report.poisoned.len(), 3, "boom trials all poisoned");
    for p in &report.poisoned {
        assert!(p.key.starts_with("mixed/boom/"), "key {}", p.key);
        assert!(p.error.contains("injected failure"), "error {}", p.error);
        assert_eq!(p.attempts, 2, "1 try + 1 retry");
    }
    assert_eq!(report.stats.panicked, 6);
    assert_eq!(report.stats.retried, 3);
    // The report renders the poisoned trials.
    let text = report.to_string();
    assert!(text.contains("POISONED mixed/boom/s0"));
}

/// Regression: a trial that panics once and then succeeds must be
/// counted exactly once everywhere — one attempt chain in the pool
/// counters (`retried == panicked == 1`), one manifest entry with the
/// attempt count, and no poisoned record.
#[test]
fn panic_once_then_succeed_is_not_double_counted() {
    let dir = tmpdir("flaky-accounting");
    let manifest = dir.join("manifest.json");
    let tries = Arc::new(AtomicUsize::new(0));
    let mut registry = Registry::new();
    let tries_in = tries.clone();
    registry.register(FnExperiment::new("once", &["default"], move |_| {
        if tries_in.fetch_add(1, Ordering::Relaxed) == 0 {
            panic!("first attempt dies");
        }
        TrialOutput::new("second attempt fine".into(), vec![("v", 1.0)])
    }));
    let mut spec = SweepSpec::quick();
    spec.experiments = vec!["once".into()];
    spec.seeds = 1;
    let report = run_sweep(
        &spec,
        &registry,
        &SweepOptions {
            jobs: 2,
            retries: 2,
            manifest: Some(manifest.clone()),
            ..SweepOptions::default()
        },
    )
    .expect("sweep");

    // Pool counters: one panicking attempt, one retry, nothing more.
    assert_eq!(report.stats.panicked, 1, "one attempt panicked");
    assert_eq!(report.stats.retried, 1, "one retry, not one per counter");
    assert_eq!(report.stats.executed, 1);
    assert!(report.poisoned.is_empty(), "the trial ultimately succeeded");
    assert_eq!(report.results.len(), 1);
    assert_eq!(report.results[0].attempts, 2, "1 panic + 1 success");

    // Metrics export mirrors the counters rather than re-deriving them.
    let metrics = report.metrics_registry();
    assert_eq!(metrics.counter("sweep.pool.retried"), 1);
    assert_eq!(metrics.counter("sweep.pool.panicked"), 1);
    assert_eq!(metrics.counter("sweep.trials_poisoned"), 0);
    assert_eq!(metrics.counter("sweep.trials_total"), 1);

    // Manifest: exactly one completed record (the retry must not
    // append a second one), carrying the final attempt count, and no
    // poisoned carcass.
    let (m, _) = Manifest::load(&manifest).expect("manifest");
    assert_eq!(m.completed.len(), 1, "one record for one trial");
    assert_eq!(m.completed[0].attempts, 2);
    assert!(m.poisoned.is_empty());

    // The trial span reports the full attempt chain once.
    assert_eq!(report.spans.len(), 1);
    assert_eq!(report.spans[0].args, vec![("attempts".to_string(), 2)]);

    // Per-worker throughput covers the one executed trial.
    let loads = report.worker_loads();
    assert_eq!(loads.iter().map(|l| l.trials).sum::<u64>(), 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn flaky_trial_recovers_within_the_retry_budget() {
    let tries = Arc::new(AtomicUsize::new(0));
    let mut registry = Registry::new();
    let tries_in = tries.clone();
    registry.register(FnExperiment::new("flaky", &["default"], move |_| {
        if tries_in.fetch_add(1, Ordering::Relaxed) < 2 {
            panic!("transient fault");
        }
        TrialOutput::new("recovered".into(), vec![])
    }));
    let mut spec = SweepSpec::quick();
    spec.experiments = vec!["flaky".into()];
    spec.seeds = 1;
    let report = run_sweep(
        &spec,
        &registry,
        &SweepOptions {
            jobs: 1,
            retries: 3,
            manifest: None,
            ..SweepOptions::default()
        },
    )
    .expect("sweep");
    assert!(report.poisoned.is_empty());
    assert_eq!(report.results[0].attempts, 3);
    assert_eq!(report.results[0].output.rendered, "recovered");
}

fn count_spec(seeds: u64) -> SweepSpec {
    let mut spec = SweepSpec::quick();
    spec.experiments = vec!["count".into()];
    spec.seeds = seeds;
    spec
}

fn checkpointed(manifest: &std::path::Path) -> SweepOptions {
    SweepOptions {
        jobs: 1,
        manifest: Some(manifest.to_path_buf()),
        ..SweepOptions::default()
    }
}

/// A fresh checkpointed sweep appends one line per trial after the
/// header record, instead of rewriting the whole file per trial.
#[test]
fn a_fresh_checkpointed_sweep_leaves_a_header_and_one_record_per_trial() {
    let dir = tmpdir("fresh-log");
    let manifest = dir.join("manifest.json");
    std::fs::remove_file(&manifest).ok();
    let registry = counting_registry(Arc::new(AtomicUsize::new(0)));
    run_sweep(&count_spec(5), &registry, &checkpointed(&manifest)).expect("sweep");
    let text = std::fs::read_to_string(&manifest).expect("manifest written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 1 + 5, "header plus one record per trial");
    assert!(lines[0].contains("\"type\": \"manifest\""), "{}", lines[0]);
    assert!(lines[1..]
        .iter()
        .all(|l| l.contains("\"type\": \"completed\"")));
    assert!(text.ends_with('\n'));
    std::fs::remove_dir_all(&dir).ok();
}

/// What `kill -9` mid-append leaves behind: a manifest whose last
/// record is torn. The resume salvages it with at most one dropped
/// line, runs only the trials the log no longer holds, and reproduces
/// the unchecked sweep's aggregate digest.
#[test]
fn a_manifest_torn_mid_record_resumes_only_the_missing_trials() {
    let dir = tmpdir("torn-log");
    let manifest = dir.join("manifest.json");
    std::fs::remove_file(&manifest).ok();
    let spec = count_spec(6);
    let unchecked = run_sweep(
        &spec,
        &counting_registry(Arc::new(AtomicUsize::new(0))),
        &SweepOptions::default(),
    )
    .expect("unchecked sweep");
    run_sweep(
        &spec,
        &counting_registry(Arc::new(AtomicUsize::new(0))),
        &checkpointed(&manifest),
    )
    .expect("checkpointed sweep");

    // Keep the header and three whole records, then half of the fourth.
    let text = std::fs::read_to_string(&manifest).expect("manifest");
    let ends: Vec<usize> = text.match_indices('\n').map(|(i, _)| i + 1).collect();
    let cut = ends[3] + (ends[4] - ends[3]) / 2;
    std::fs::write(&manifest, &text[..cut]).expect("tear");
    let (salvaged, dropped) = Manifest::load(&manifest).expect("salvage");
    assert!(dropped <= 1, "only the torn line drops, got {dropped}");
    assert_eq!(salvaged.completed.len(), 3);

    let runs = Arc::new(AtomicUsize::new(0));
    let resumed = run_sweep(
        &spec,
        &counting_registry(runs.clone()),
        &checkpointed(&manifest),
    )
    .expect("resumed sweep");
    assert_eq!(
        runs.load(Ordering::Relaxed),
        3,
        "only the missing trials ran"
    );
    assert_eq!(resumed.resumed, 3);
    assert_eq!(resumed.warnings.len(), 1, "the salvage is reported");
    assert_eq!(resumed.aggregate_digest, unchecked.aggregate_digest);
    let (healed, dropped) = Manifest::load(&manifest).expect("healed manifest");
    assert_eq!(
        (healed.completed.len(), dropped),
        (6, 0),
        "compacted, then appended"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A version-1/2 whole-document manifest is not a record log: the
/// sweep must refuse it rather than start fresh and overwrite it.
#[test]
fn whole_document_manifests_are_refused_not_overwritten() {
    let dir = tmpdir("old-manifest");
    let manifest = dir.join("manifest.json");
    let spec = count_spec(2);
    let old = format!(
        concat!(
            "{{\n  \"version\": 2,\n  \"checksum\": \"0x1\",\n",
            "  \"spec_digest\": \"{:#x}\",\n  \"root_seed\": {},\n",
            "  \"completed\": [\n  ],\n  \"poisoned\": [\n  ],\n",
            "  \"timed_out\": [\n  ],\n  \"quarantined\": [\n  ]\n}}\n"
        ),
        spec.digest(),
        spec.root_seed
    );
    std::fs::write(&manifest, &old).expect("write old manifest");
    let runs = Arc::new(AtomicUsize::new(0));
    match run_sweep(
        &spec,
        &counting_registry(runs.clone()),
        &checkpointed(&manifest),
    ) {
        Err(SweepError::Manifest(e)) => assert!(e.contains("refused"), "{e}"),
        other => panic!("expected a manifest error, got {other:?}"),
    }
    assert_eq!(runs.load(Ordering::Relaxed), 0, "nothing ran");
    assert_eq!(
        std::fs::read_to_string(&manifest).unwrap(),
        old,
        "file untouched"
    );
    std::fs::remove_dir_all(&dir).ok();
}
