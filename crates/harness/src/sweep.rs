//! The sweep runner: enumerate → (resume) → shard on the pool →
//! checkpoint → aggregate.
//!
//! [`run_sweep`] is the one entry point. It expands a [`SweepSpec`]
//! into trials, drops any trial already recorded in the manifest (when
//! resuming), runs the rest on the work-stealing pool with panic
//! containment, appends each outcome to the manifest log, and
//! finally aggregates each metric across the seed axis with
//! [`unxpec_stats::Summary`] — in *enumeration* order, which is what
//! makes the aggregates (and [`SweepReport::aggregate_digest`])
//! byte-identical regardless of worker count.

use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use unxpec_stats::Summary;
use unxpec_telemetry::{
    json::escape, spans_to_chrome_json, MetricsHub, MetricsRegistry, Span, SpanNode,
};

use crate::experiment::{output_digest, TrialOutput};
use crate::log::Appender;
use crate::manifest::{CompletedTrial, Manifest, PoisonedTrial, QuarantinedTrial, TimedOutTrial};
use crate::pool::{run_tasks_with, PoolStats, RunPolicy, TaskEvent, TaskOutcome};
use crate::profiler::SelfProfiler;
use crate::registry::Registry;
use crate::spec::{SpecError, SweepSpec, Trial};
use crate::TrialCtx;

/// Execution options — everything about *how* to run a spec that does
/// not change *what* it computes (and so stays out of the spec digest).
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 or 1 runs serially on the caller thread.
    pub jobs: usize,
    /// Retries per panicking trial before it is poisoned.
    pub retries: u32,
    /// Manifest path for checkpoint/resume. `None` disables both.
    pub manifest: Option<PathBuf>,
    /// Per-trial wall-clock deadline in milliseconds; 0 or `None`
    /// means unbounded. Checked cooperatively after each attempt (see
    /// [`RunPolicy::deadline`]).
    pub deadline_ms: Option<u64>,
    /// Base pause in milliseconds before the first panic retry; each
    /// further retry doubles it (bounded). 0 retries immediately.
    pub backoff_ms: u64,
    /// Quarantine a trial key once it has failed in this many runs
    /// (poisoned or timed out, accumulated across resumes via the
    /// manifest). Quarantined keys are skipped, recorded in the
    /// manifest, and reported — a repeatedly failing cell stops
    /// burning retries on every resume. 0 disables quarantine.
    pub quarantine_after: u32,
    /// Directory for per-failure diagnostics bundles: one JSON file
    /// per poisoned/timed-out/quarantined trial, carrying everything
    /// needed to reproduce it (trial identity, derived seed, root
    /// seed, scale, error, diagnostics lines). `None` disables.
    pub diagnostics_dir: Option<PathBuf>,
    /// Live metrics hub to stream progress into while the sweep runs
    /// (`sweep.progress.*`, per-worker throughput, per-experiment
    /// latency histograms). Updates happen only on the harness's
    /// bookkeeping path — never inside a trial — so attaching a hub
    /// (and scraping it) leaves results byte-identical. `None`
    /// disables.
    pub live: Option<MetricsHub>,
    /// Sampling interval in milliseconds for the wall-clock
    /// self-profiler ([`crate::profiler::SelfProfiler`]). `None`
    /// disables; the profile lands in [`SweepReport::self_profile`].
    pub self_profile_ms: Option<u64>,
}

/// One completed trial in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// The enumerated trial.
    pub trial: Trial,
    /// Its output.
    pub output: TrialOutput,
    /// Digest of the output.
    pub digest: u64,
    /// Attempts used (1 = first try).
    pub attempts: u32,
    /// Whether the result was spliced in from the manifest.
    pub resumed: bool,
}

/// A per-(experiment, variant, metric) summary across the seed axis.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Experiment name.
    pub experiment: String,
    /// Variant name.
    pub variant: String,
    /// Metric name.
    pub metric: String,
    /// Summary over the seed axis (completed trials only).
    pub summary: Summary,
}

/// Everything a sweep produced.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Digest of the spec that ran.
    pub spec_digest: u64,
    /// Completed trials in enumeration order.
    pub results: Vec<TrialResult>,
    /// Poisoned trials in enumeration order.
    pub poisoned: Vec<PoisonedTrial>,
    /// Timed-out trials in enumeration order — both pool-deadline
    /// blowouts and limit-truncated simulations (`RunResult::hit_limit`
    /// surfaced through [`TrialOutput::truncated`]). Excluded from the
    /// aggregates: a truncated number is not a measurement.
    pub timed_out: Vec<TimedOutTrial>,
    /// Quarantined trial keys skipped this run.
    pub quarantined: Vec<QuarantinedTrial>,
    /// Recoveries and other non-fatal conditions encountered while
    /// running (e.g. a corrupt manifest salvaged on resume).
    pub warnings: Vec<String>,
    /// Per-cell metric summaries in enumeration order.
    pub aggregates: Vec<Aggregate>,
    /// FNV-1a over every trial's digest (poisoned trials contribute
    /// their key + error) in enumeration order — one number that two
    /// runs match on iff they produced identical results.
    pub aggregate_digest: u64,
    /// How many results came from the manifest instead of running.
    pub resumed: usize,
    /// Pool counters (jobs, steals, retries, utilization…).
    pub stats: PoolStats,
    /// One wall-clock span per executed trial, on per-worker tracks.
    pub spans: Vec<Span>,
    /// Sampling self-profile of the pool (sample-count weights), when
    /// [`SweepOptions::self_profile_ms`] was set.
    pub self_profile: Option<SpanNode>,
}

/// Why a sweep could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The spec failed to enumerate.
    Spec(SpecError),
    /// The manifest exists but belongs to a different spec.
    ManifestMismatch {
        /// Digest recorded in the manifest.
        manifest: u64,
        /// Digest of the requested spec.
        spec: u64,
    },
    /// Manifest I/O or parse failure.
    Manifest(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Spec(e) => write!(f, "{e}"),
            SweepError::ManifestMismatch { manifest, spec } => write!(
                f,
                "manifest belongs to spec {manifest:#x}, not {spec:#x}; \
                 delete it or point --manifest elsewhere"
            ),
            SweepError::Manifest(e) => write!(f, "manifest: {e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<SpecError> for SweepError {
    fn from(e: SpecError) -> Self {
        SweepError::Spec(e)
    }
}

/// Runs `spec`'s trials from `registry` under `opts`.
pub fn run_sweep(
    spec: &SweepSpec,
    registry: &Registry,
    opts: &SweepOptions,
) -> Result<SweepReport, SweepError> {
    let spec_digest = spec.digest();
    let trials = spec.enumerate(registry)?;
    let mut warnings = Vec::new();

    // Resume: load the manifest if present and splice out done trials.
    // The load is lenient — a torn or corrupt checkpoint is salvaged
    // line by line with a warning instead of failing the whole sweep.
    let mut manifest = Manifest::new(spec_digest, spec.root_seed);
    if let Some(path) = &opts.manifest {
        if path.exists() {
            let (loaded, dropped) = Manifest::load(path).map_err(SweepError::Manifest)?;
            if loaded.spec_digest != spec_digest {
                return Err(SweepError::ManifestMismatch {
                    manifest: loaded.spec_digest,
                    spec: spec_digest,
                });
            }
            if dropped > 0 {
                warnings.push(format!(
                    "manifest {} was damaged; recovered {} record(s), dropped {dropped} \
                     damaged line(s)",
                    path.display(),
                    loaded.completed.len()
                        + loaded.poisoned.len()
                        + loaded.timed_out.len()
                        + loaded.quarantined.len()
                ));
            }
            manifest = loaded;
        }
    }
    // Failure history drives quarantine: keys that failed (poisoned or
    // timed out) in `failures` prior runs, plus keys already
    // quarantined. A resumed run retries failed keys unless
    // quarantined; their new outcome record supersedes the old one.
    let mut prior_failures: std::collections::HashMap<String, (u32, String)> = Default::default();
    for p in &manifest.poisoned {
        prior_failures.insert(p.key.clone(), (p.failures, p.error.clone()));
    }
    for t in &manifest.timed_out {
        let entry = prior_failures
            .entry(t.key.clone())
            .or_insert((0, t.error.clone()));
        entry.0 = entry.0.max(t.failures);
    }
    for q in &manifest.quarantined {
        prior_failures.insert(q.key.clone(), (q.failures, q.error.clone()));
    }
    let previously_quarantined: std::collections::HashSet<String> =
        manifest.quarantined.iter().map(|q| q.key.clone()).collect();
    let is_quarantined = |key: &str| {
        previously_quarantined.contains(key)
            || (opts.quarantine_after > 0
                && prior_failures
                    .get(key)
                    .is_some_and(|(n, _)| *n >= opts.quarantine_after))
    };
    let quarantine_record = |key: &str| {
        let (failures, error) = prior_failures
            .get(key)
            .cloned()
            .unwrap_or((opts.quarantine_after.max(1), String::new()));
        QuarantinedTrial {
            key: key.to_string(),
            error,
            failures,
        }
    };

    // Compact once per run: the folded records plus this run's new
    // quarantines, then append every outcome to the compacted log.
    let checkpoint = match &opts.manifest {
        Some(path) => {
            for trial in &trials {
                if is_quarantined(&trial.key) && !previously_quarantined.contains(&trial.key) {
                    manifest.poisoned.retain(|p| p.key != trial.key);
                    manifest.timed_out.retain(|t| t.key != trial.key);
                    manifest.quarantined.push(quarantine_record(&trial.key));
                }
            }
            manifest.save(path).map_err(SweepError::Manifest)?;
            let log = Appender::open(path).map_err(SweepError::Manifest)?;
            Some(Mutex::new((log, Ok(()))))
        }
        None => None,
    };

    let done: std::collections::HashMap<&str, &CompletedTrial> = manifest
        .completed
        .iter()
        .map(|t| (t.key.as_str(), t))
        .collect();
    let pending: Vec<&Trial> = trials
        .iter()
        .filter(|t| !done.contains_key(t.key.as_str()) && !is_quarantined(&t.key))
        .collect();
    let resumed =
        trials.len() - pending.len() - trials.iter().filter(|t| is_quarantined(&t.key)).count();

    // One more failing run for `key` than the manifest remembers.
    let bump_failures = |key: &str| -> u32 {
        prior_failures
            .get(key)
            .map_or(0, |(n, _)| *n)
            .saturating_add(1)
    };

    // Shard the pending trials on the pool. Each task owns exactly one
    // trial; the checkpoint callback appends its outcome record to the
    // manifest log under a lock.
    let policy = RunPolicy {
        retries: opts.retries,
        deadline: opts
            .deadline_ms
            .filter(|ms| *ms > 0)
            .map(Duration::from_millis),
        backoff_base: Duration::from_millis(opts.backoff_ms),
        ..RunPolicy::default()
    };
    // Live progress: seed the totals before the pool starts so a
    // scraper sees the denominator immediately. Everything written to
    // the hub happens on the bookkeeping path — results never read it.
    if let Some(hub) = &opts.live {
        let quarantined_now = trials.iter().filter(|t| is_quarantined(&t.key)).count();
        hub.update(|m| {
            m.set("sweep.progress.total", trials.len() as u64);
            m.set("sweep.progress.resumed", resumed as u64);
            m.set("sweep.progress.quarantined", quarantined_now as u64);
            m.set("sweep.progress.done", resumed as u64);
            m.set("sweep.progress.jobs", opts.jobs.max(1) as u64);
        });
    }
    let profiler = opts
        .self_profile_ms
        .map(|ms| SelfProfiler::start(opts.jobs.max(1), Duration::from_millis(ms.max(1))));

    let (outcomes, timings, stats) = run_tasks_with(
        opts.jobs,
        pending.len(),
        &policy,
        |i| {
            let trial = pending[i];
            let exp = registry
                .get(&trial.experiment)
                .expect("enumerate checked the registry");
            exp.run(&TrialCtx {
                seed: trial.seed,
                scale: spec.scale,
                variant: trial.variant.clone(),
                mode: spec.mode,
            })
        },
        |event| match event {
            TaskEvent::Started { index, worker } => {
                if let Some(p) = &profiler {
                    p.worker_started(worker, &pending[index].key);
                }
            }
            TaskEvent::Finished {
                index,
                worker,
                outcome,
                timing,
            } => {
                let trial = pending[index];
                if let Some(p) = &profiler {
                    p.worker_finished(worker);
                }
                if let Some(hub) = &opts.live {
                    hub.update(|m| {
                        m.inc("sweep.progress.done", 1);
                        match outcome {
                            TaskOutcome::Done { .. } => {}
                            TaskOutcome::Poisoned { .. } => m.inc("sweep.progress.poisoned", 1),
                            TaskOutcome::TimedOut { .. } => m.inc("sweep.progress.timed_out", 1),
                        }
                        m.inc(
                            "sweep.progress.retries",
                            u64::from(outcome.attempts().saturating_sub(1)),
                        );
                        m.inc(&format!("sweep.worker{worker}.trials"), 1);
                        m.inc(&format!("sweep.worker{worker}.busy_us"), timing.dur_us);
                        m.observe("sweep.trial_duration_us", timing.dur_us);
                        m.observe(
                            &format!("sweep.exp.{}.latency_us", trial.experiment),
                            timing.dur_us,
                        );
                    });
                }
                let Some(checkpoint) = &checkpoint else {
                    return;
                };
                let mut guard = checkpoint.lock().expect("checkpoint lock poisoned");
                let (log, status) = &mut *guard;
                let key = trial.key.clone();
                let appended = match outcome {
                    TaskOutcome::Done { value, attempts } => log.append(&CompletedTrial {
                        key,
                        digest: output_digest(value),
                        attempts: *attempts,
                        output: value.clone(),
                    }),
                    TaskOutcome::Poisoned { error, attempts } => log.append(&PoisonedTrial {
                        failures: bump_failures(&key),
                        key,
                        error: error.clone(),
                        attempts: *attempts,
                    }),
                    TaskOutcome::TimedOut { error, attempts } => log.append(&TimedOutTrial {
                        failures: bump_failures(&key),
                        key,
                        error: error.clone(),
                        attempts: *attempts,
                    }),
                };
                // A failed append must not kill the sweep mid-run; the
                // first such error fails it once the pool is done.
                if status.is_ok() {
                    *status = appended;
                }
            }
        },
    );
    let self_profile = profiler.map(SelfProfiler::stop);
    if let Some(checkpoint) = checkpoint {
        let (_, status) = checkpoint.into_inner().expect("checkpoint lock poisoned");
        status.map_err(SweepError::Manifest)?;
    }

    // Reassemble results in enumeration order: resumed trials from the
    // manifest, fresh trials from their pool slot. A completed trial
    // whose output is limit-truncated (`RunResult::hit_limit`) is
    // routed to the typed timed-out list rather than aggregated — it
    // still checkpoints as completed (rerunning it would deterministically
    // truncate again), but its numbers never enter a summary. Only
    // pool-level timeouts are recorded in the manifest for retry.
    let mut fresh: std::collections::HashMap<&str, (TrialOutput, u32)> = Default::default();
    let mut poisoned_fresh: std::collections::HashMap<&str, (String, u32)> = Default::default();
    let mut timed_out_fresh: std::collections::HashMap<&str, (String, u32)> = Default::default();
    for (i, outcome) in outcomes.into_iter().enumerate() {
        match outcome {
            TaskOutcome::Done { value, attempts } => {
                fresh.insert(pending[i].key.as_str(), (value, attempts));
            }
            TaskOutcome::Poisoned { error, attempts } => {
                poisoned_fresh.insert(pending[i].key.as_str(), (error, attempts));
            }
            TaskOutcome::TimedOut { error, attempts } => {
                timed_out_fresh.insert(pending[i].key.as_str(), (error, attempts));
            }
        }
    }
    let mut results = Vec::new();
    let mut poisoned = Vec::new();
    let mut timed_out: Vec<TimedOutTrial> = Vec::new();
    let mut quarantined: Vec<QuarantinedTrial> = Vec::new();
    // Diagnostics payloads for truncated completions, keyed for the
    // bundle writer below.
    let mut truncated_diag: std::collections::HashMap<String, Vec<String>> = Default::default();
    let truncation_error = "simulation truncated: run ended on its cycle/instruction limit \
                            (RunResult::hit_limit)";
    let mut route_completed = |trial: &Trial,
                               output: TrialOutput,
                               digest: u64,
                               attempts: u32,
                               was_resumed: bool,
                               results: &mut Vec<TrialResult>,
                               timed_out: &mut Vec<TimedOutTrial>| {
        if output.truncated {
            truncated_diag.insert(trial.key.clone(), output.diagnostics.clone());
            timed_out.push(TimedOutTrial {
                key: trial.key.clone(),
                error: truncation_error.to_string(),
                attempts,
                failures: 1,
            });
        } else {
            results.push(TrialResult {
                trial: trial.clone(),
                output,
                digest,
                attempts,
                resumed: was_resumed,
            });
        }
    };
    for trial in &trials {
        if is_quarantined(&trial.key) {
            quarantined.push(quarantine_record(&trial.key));
        } else if let Some(rec) = done.get(trial.key.as_str()) {
            route_completed(
                trial,
                rec.output.clone(),
                rec.digest,
                rec.attempts,
                true,
                &mut results,
                &mut timed_out,
            );
        } else if let Some((output, attempts)) = fresh.remove(trial.key.as_str()) {
            let digest = output_digest(&output);
            route_completed(
                trial,
                output,
                digest,
                attempts,
                false,
                &mut results,
                &mut timed_out,
            );
        } else if let Some((error, attempts)) = poisoned_fresh.remove(trial.key.as_str()) {
            poisoned.push(PoisonedTrial {
                key: trial.key.clone(),
                error,
                attempts,
                failures: bump_failures(&trial.key),
            });
        } else if let Some((error, attempts)) = timed_out_fresh.remove(trial.key.as_str()) {
            timed_out.push(TimedOutTrial {
                key: trial.key.clone(),
                error,
                attempts,
                failures: bump_failures(&trial.key),
            });
        }
    }

    // Per-failure diagnostics bundles: one JSON file per poisoned,
    // timed-out, or quarantined trial, self-contained enough to
    // reproduce the trial from the file alone.
    if let Some(dir) = &opts.diagnostics_dir {
        let by_key: std::collections::HashMap<&str, &Trial> =
            trials.iter().map(|t| (t.key.as_str(), t)).collect();
        if let Err(e) = std::fs::create_dir_all(dir) {
            warnings.push(format!("diagnostics dir {}: {e}", dir.display()));
        } else {
            let mut write =
                |key: &str, outcome: &str, error: &str, attempts: u32, failures: u32| {
                    let Some(trial) = by_key.get(key) else { return };
                    let diag = truncated_diag.get(key).map(Vec::as_slice).unwrap_or(&[]);
                    if let Err(e) = write_diagnostics_bundle(
                        dir, spec, trial, outcome, error, attempts, failures, diag,
                    ) {
                        warnings.push(e);
                    }
                };
            for p in &poisoned {
                write(&p.key, "poisoned", &p.error, p.attempts, p.failures);
            }
            for t in &timed_out {
                let kind = if truncated_diag.contains_key(&t.key) {
                    "truncated"
                } else {
                    "timed_out"
                };
                write(&t.key, kind, &t.error, t.attempts, t.failures);
            }
            for q in &quarantined {
                write(&q.key, "quarantined", &q.error, 0, q.failures);
            }
        }
    }

    let aggregates = aggregate(&results);
    let aggregate_digest = digest_run(&results, &poisoned, &timed_out, &quarantined);
    let spans = timings
        .iter()
        .map(|t| Span {
            name: pending[t.index].key.clone(),
            track: t.worker as u64,
            start_us: t.start_us,
            dur_us: t.dur_us,
            args: vec![("attempts".to_string(), u64::from(t.attempts))],
        })
        .collect();

    Ok(SweepReport {
        spec_digest,
        results,
        poisoned,
        timed_out,
        quarantined,
        warnings,
        aggregates,
        aggregate_digest,
        resumed,
        stats,
        spans,
        self_profile,
    })
}

/// Writes one trial's diagnostics bundle:
/// `<dir>/<key with '/' -> '_'>.json` carrying the trial identity, the
/// derived and root seeds, the scale identity, the outcome, and any
/// diagnostics lines the trial recorded (fault schedule, trailing
/// telemetry events). Everything needed to reproduce the trial lives
/// in this one file.
#[allow(clippy::too_many_arguments)]
fn write_diagnostics_bundle(
    dir: &Path,
    spec: &SweepSpec,
    trial: &Trial,
    outcome: &str,
    error: &str,
    attempts: u32,
    failures: u32,
    diagnostics: &[String],
) -> Result<(), String> {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"key\": \"{}\",\n", escape(&trial.key)));
    out.push_str(&format!(
        "  \"experiment\": \"{}\",\n  \"variant\": \"{}\",\n  \"seed_index\": {},\n",
        escape(&trial.experiment),
        escape(&trial.variant),
        trial.seed_index
    ));
    out.push_str(&format!(
        "  \"seed\": \"{:#x}\",\n  \"root_seed\": \"{:#x}\",\n  \"spec_digest\": \"{:#x}\",\n",
        trial.seed,
        spec.root_seed,
        spec.digest()
    ));
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n  \"config\": \"{}\",\n",
        escape(&spec.scale_name),
        escape(&spec.canonical_string())
    ));
    out.push_str(&format!(
        "  \"outcome\": \"{}\",\n  \"error\": \"{}\",\n  \"attempts\": {},\n  \"failures\": {},\n",
        escape(outcome),
        escape(error),
        attempts,
        failures
    ));
    out.push_str("  \"diagnostics\": [");
    for (i, line) in diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{}\"", escape(line)));
    }
    out.push_str("\n  ]\n}\n");
    let path = dir.join(format!("{}.json", trial.key.replace('/', "_")));
    std::fs::write(&path, out).map_err(|e| format!("bundle {}: {e}", path.display()))
}

/// Groups completed trials by (experiment, variant) and summarizes
/// each metric across the seed axis, all in enumeration order. Public
/// because the sweep service aggregates per-job results the same way —
/// a cache-served job must render exactly like a freshly computed one.
pub fn aggregate(results: &[TrialResult]) -> Vec<Aggregate> {
    let mut cells: Vec<(String, String)> = Vec::new();
    for r in results {
        let cell = (r.trial.experiment.clone(), r.trial.variant.clone());
        if !cells.contains(&cell) {
            cells.push(cell);
        }
    }
    let mut out = Vec::new();
    for (experiment, variant) in cells {
        let in_cell: Vec<&TrialResult> = results
            .iter()
            .filter(|r| r.trial.experiment == experiment && r.trial.variant == variant)
            .collect();
        // The first trial fixes the metric row order for the cell.
        let Some(first) = in_cell.first() else {
            continue;
        };
        for (metric, _) in &first.output.metrics {
            let values: Vec<f64> = in_cell
                .iter()
                .filter_map(|r| {
                    r.output
                        .metrics
                        .iter()
                        .find(|(name, _)| name == metric)
                        .map(|(_, v)| *v)
                })
                .collect();
            if values.is_empty() {
                continue;
            }
            out.push(Aggregate {
                experiment: experiment.clone(),
                variant: variant.clone(),
                metric: metric.clone(),
                summary: Summary::of(&values),
            });
        }
    }
    out
}

/// FNV-1a chain over every trial outcome in enumeration order.
fn digest_run(
    results: &[TrialResult],
    poisoned: &[PoisonedTrial],
    timed_out: &[TimedOutTrial],
    quarantined: &[QuarantinedTrial],
) -> u64 {
    use unxpec::experiments::seeding::{fnv1a64, fnv_mix, FNV_OFFSET};
    let mut h = FNV_OFFSET;
    let mut mix = |v: u64| h = fnv_mix(h, v);
    for r in results {
        mix(fnv1a64(&r.trial.key));
        mix(r.digest);
    }
    for p in poisoned {
        mix(fnv1a64(&p.key));
        mix(fnv1a64(&p.error));
    }
    for t in timed_out {
        mix(fnv1a64(&t.key));
        mix(fnv1a64(&t.error));
    }
    for q in quarantined {
        mix(fnv1a64(&q.key));
        mix(u64::from(q.failures));
    }
    h
}

/// One worker's share of a sweep, derived from the trial spans: which
/// worker ran how many trials and for how long. This is what a
/// `--jobs N` run reports as per-worker throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerLoad {
    /// Worker index (the span track).
    pub worker: u64,
    /// Trials whose final attempt ran on this worker.
    pub trials: u64,
    /// Microseconds this worker spent inside trials.
    pub busy_us: u64,
}

impl WorkerLoad {
    /// Completed trials per second of busy time.
    pub fn trials_per_sec(&self) -> f64 {
        if self.busy_us == 0 {
            return 0.0;
        }
        self.trials as f64 * 1e6 / self.busy_us as f64
    }
}

impl SweepReport {
    /// Per-worker throughput, sorted by worker index.
    pub fn worker_loads(&self) -> Vec<WorkerLoad> {
        let mut loads: Vec<WorkerLoad> = Vec::new();
        for s in &self.spans {
            match loads.iter_mut().find(|l| l.worker == s.track) {
                Some(l) => {
                    l.trials += 1;
                    l.busy_us += s.dur_us;
                }
                None => loads.push(WorkerLoad {
                    worker: s.track,
                    trials: 1,
                    busy_us: s.dur_us,
                }),
            }
        }
        loads.sort_by_key(|l| l.worker);
        loads
    }

    /// The report's Chrome/Perfetto trace document (one track per
    /// worker).
    pub fn chrome_trace(&self) -> String {
        let mut tracks: Vec<(u64, String)> = Vec::new();
        for s in &self.spans {
            if !tracks.iter().any(|(t, _)| *t == s.track) {
                tracks.push((s.track, format!("worker-{}", s.track)));
            }
        }
        tracks.sort_by_key(|(t, _)| *t);
        spans_to_chrome_json("unxpec-sweep", &tracks, &self.spans)
    }

    /// The report's counters and trial-duration histogram as a
    /// [`MetricsRegistry`] (for `--metrics-out`).
    pub fn metrics_registry(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.inc(
            "sweep.trials_total",
            self.results.len() as u64 + self.poisoned.len() as u64,
        );
        m.inc("sweep.trials_resumed", self.resumed as u64);
        m.inc("sweep.trials_poisoned", self.poisoned.len() as u64);
        m.inc("sweep.trials_timed_out", self.timed_out.len() as u64);
        m.inc("sweep.trials_quarantined", self.quarantined.len() as u64);
        m.inc("sweep.pool.jobs", self.stats.jobs as u64);
        m.inc("sweep.pool.executed", self.stats.executed);
        m.inc("sweep.pool.stolen", self.stats.stolen);
        m.inc("sweep.pool.retried", self.stats.retried);
        m.inc("sweep.pool.panicked", self.stats.panicked);
        m.inc("sweep.pool.timed_out", self.stats.timed_out);
        m.inc("sweep.pool.max_queue_depth", self.stats.max_queue_depth);
        m.inc("sweep.pool.busy_us", self.stats.busy_us);
        m.inc("sweep.pool.wall_us", self.stats.wall_us);
        m.inc(
            "sweep.pool.utilization_millipct",
            (self.stats.utilization() * 100_000.0) as u64,
        );
        for t in &self.spans {
            m.observe("sweep.trial_duration_us", t.dur_us);
        }
        for l in self.worker_loads() {
            m.inc(&format!("sweep.worker{}.trials", l.worker), l.trials);
            m.inc(&format!("sweep.worker{}.busy_us", l.worker), l.busy_us);
        }
        m
    }
}

impl std::fmt::Display for SweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for w in &self.warnings {
            writeln!(f, "WARNING {w}")?;
        }
        writeln!(
            f,
            "sweep {:#018x} — {} trial(s), {} resumed, {} poisoned, {} timed out, {} quarantined",
            self.spec_digest,
            self.results.len()
                + self.poisoned.len()
                + self.timed_out.len()
                + self.quarantined.len(),
            self.resumed,
            self.poisoned.len(),
            self.timed_out.len(),
            self.quarantined.len()
        )?;
        writeln!(
            f,
            "pool: {} job(s), {} stolen, {} retried, utilization {:.0}%, wall {:.1} ms",
            self.stats.jobs,
            self.stats.stolen,
            self.stats.retried,
            self.stats.utilization() * 100.0,
            self.stats.wall_us as f64 / 1000.0
        )?;
        for l in self.worker_loads() {
            writeln!(
                f,
                "  worker {}: {} trial(s), busy {:.1} ms, {:.1} trials/s",
                l.worker,
                l.trials,
                l.busy_us as f64 / 1000.0,
                l.trials_per_sec()
            )?;
        }
        let mut cell = (String::new(), String::new());
        for a in &self.aggregates {
            if (a.experiment.clone(), a.variant.clone()) != cell {
                cell = (a.experiment.clone(), a.variant.clone());
                writeln!(f, "{}/{}:", a.experiment, a.variant)?;
            }
            writeln!(
                f,
                "  {:<28} mean {:>12.4}  std {:>10.4}  min {:>12.4}  max {:>12.4}  n {}",
                a.metric,
                a.summary.mean,
                a.summary.std_dev,
                a.summary.min,
                a.summary.max,
                a.summary.n
            )?;
        }
        for p in &self.poisoned {
            writeln!(
                f,
                "POISONED {} after {} attempt(s): {}",
                p.key, p.attempts, p.error
            )?;
        }
        for t in &self.timed_out {
            writeln!(
                f,
                "TIMEOUT {} after {} attempt(s): {}",
                t.key, t.attempts, t.error
            )?;
        }
        for q in &self.quarantined {
            writeln!(
                f,
                "QUARANTINED {} after {} failing run(s): {}",
                q.key, q.failures, q.error
            )?;
        }
        writeln!(f, "aggregate digest {:#018x}", self.aggregate_digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::FnExperiment;

    fn toy_registry() -> Registry {
        let mut r = Registry::new();
        r.register(FnExperiment::new("mul", &["x2", "x3"], |ctx| {
            let factor = if ctx.variant == "x2" { 2 } else { 3 };
            let v = (ctx.seed % 1000) * factor;
            TrialOutput::new(format!("v={v}"), vec![("v", v as f64)])
        }));
        r
    }

    fn toy_spec() -> SweepSpec {
        let mut spec = SweepSpec::quick();
        spec.experiments = vec!["mul".into()];
        spec.seeds = 4;
        spec
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let spec = toy_spec();
        let reg = toy_registry();
        let serial = run_sweep(
            &spec,
            &reg,
            &SweepOptions {
                jobs: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let parallel = run_sweep(
            &spec,
            &reg,
            &SweepOptions {
                jobs: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(serial.aggregate_digest, parallel.aggregate_digest);
        assert_eq!(serial.aggregates, parallel.aggregates);
        assert_eq!(serial.results.len(), parallel.results.len());
        for (a, b) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(a.trial.key, b.trial.key);
            assert_eq!(a.output, b.output);
        }
    }

    #[test]
    fn aggregates_summarize_the_seed_axis() {
        let report = run_sweep(&toy_spec(), &toy_registry(), &SweepOptions::default()).unwrap();
        assert_eq!(report.aggregates.len(), 2); // one metric x two variants
        let a = &report.aggregates[0];
        assert_eq!((a.experiment.as_str(), a.variant.as_str()), ("mul", "x2"));
        assert_eq!(a.summary.n, 4);
        // The mean is exactly what the identity-derived seeds predict.
        let expected: Vec<f64> = (0..4)
            .map(|i| {
                let seed = unxpec::experiments::seeding::indexed(toy_spec().root_seed, "mul/x2", i);
                (seed % 1000) as f64 * 2.0
            })
            .collect();
        assert_eq!(a.summary, Summary::of(&expected));
    }

    #[test]
    fn report_renders_and_exports() {
        let report = run_sweep(&toy_spec(), &toy_registry(), &SweepOptions::default()).unwrap();
        let text = report.to_string();
        assert!(text.contains("mul/x2:"));
        assert!(text.contains("aggregate digest"));
        unxpec_telemetry::json::validate(&report.chrome_trace()).expect("trace JSON");
        let metrics = report.metrics_registry().to_json();
        assert!(metrics.contains("sweep.pool.executed"));
    }

    #[test]
    fn unknown_experiment_is_a_spec_error() {
        let mut spec = toy_spec();
        spec.experiments = vec!["ghost".into()];
        match run_sweep(&spec, &toy_registry(), &SweepOptions::default()) {
            Err(SweepError::Spec(SpecError::UnknownExperiment(name))) => {
                assert_eq!(name, "ghost")
            }
            other => panic!("expected UnknownExperiment, got {other:?}"),
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("unxpec-sweep-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// One variant always panics, the other computes.
    fn flaky_registry() -> Registry {
        let mut r = Registry::new();
        r.register(FnExperiment::new("flaky", &["good", "bad"], |ctx| {
            assert!(ctx.variant != "bad", "cell is broken");
            TrialOutput::new("ok".into(), vec![("v", 1.0)])
        }));
        r
    }

    fn flaky_spec() -> SweepSpec {
        let mut spec = SweepSpec::quick();
        spec.experiments = vec!["flaky".into()];
        spec.seeds = 1;
        spec
    }

    #[test]
    fn truncated_outputs_become_typed_timeouts_not_aggregates() {
        let mut r = Registry::new();
        r.register(FnExperiment::new("limit", &["clean", "hit"], |ctx| {
            TrialOutput::new("partial".into(), vec![("v", 1.0)])
                .with_truncated(ctx.variant == "hit")
                .with_diagnostics(vec!["fault fill_wedge @ cycle 100".into()])
        }));
        let mut spec = SweepSpec::quick();
        spec.experiments = vec!["limit".into()];
        spec.seeds = 2;
        let report = run_sweep(&spec, &r, &SweepOptions::default()).unwrap();
        assert_eq!(report.results.len(), 2, "only clean trials aggregate");
        assert_eq!(
            report.timed_out.len(),
            2,
            "truncated trials are typed timeouts"
        );
        assert!(report.timed_out[0].error.contains("hit_limit"));
        assert!(
            report.aggregates.iter().all(|a| a.variant == "clean"),
            "no truncated cell in aggregates"
        );
        let text = report.to_string();
        assert!(text.contains("TIMEOUT limit/hit/s0"), "{text}");
    }

    #[test]
    fn truncated_trials_checkpoint_and_stay_timeouts_on_resume() {
        let dir = temp_dir("truncated-resume");
        let manifest_path = dir.join("manifest.json");
        let mk = || {
            let mut r = Registry::new();
            r.register(FnExperiment::new("limit", &["hit"], |_| {
                TrialOutput::new("partial".into(), vec![("v", 1.0)]).with_truncated(true)
            }));
            r
        };
        let mut spec = SweepSpec::quick();
        spec.experiments = vec!["limit".into()];
        spec.seeds = 1;
        let opts = SweepOptions {
            manifest: Some(manifest_path.clone()),
            ..Default::default()
        };
        let first = run_sweep(&spec, &mk(), &opts).unwrap();
        assert_eq!(first.timed_out.len(), 1);
        let (saved, _) = Manifest::load(&manifest_path).unwrap();
        assert_eq!(saved.completed.len(), 1, "truncated trials checkpoint");
        assert!(saved.completed[0].output.truncated);
        assert!(saved.timed_out.is_empty(), "not a retryable pool timeout");
        let second = run_sweep(&spec, &mk(), &opts).unwrap();
        assert_eq!(second.resumed, 1, "resumed from the checkpoint");
        assert_eq!(second.timed_out.len(), 1, "still surfaced as a timeout");
        assert_eq!(first.aggregate_digest, second.aggregate_digest);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_failures_are_quarantined_with_diagnostics_bundles() {
        let dir = temp_dir("quarantine");
        let manifest_path = dir.join("manifest.json");
        let bundles = dir.join("diag");
        let opts = SweepOptions {
            manifest: Some(manifest_path.clone()),
            quarantine_after: 2,
            diagnostics_dir: Some(bundles.clone()),
            ..Default::default()
        };
        // Run 1 and 2: the bad cell poisons (failures 1, then 2).
        let r1 = run_sweep(&flaky_spec(), &flaky_registry(), &opts).unwrap();
        assert_eq!(r1.poisoned.len(), 1);
        assert_eq!(r1.poisoned[0].failures, 1);
        assert!(r1.quarantined.is_empty());
        let r2 = run_sweep(&flaky_spec(), &flaky_registry(), &opts).unwrap();
        assert_eq!(r2.poisoned[0].failures, 2);
        // Run 3: the cell has hit the quarantine threshold — skipped,
        // recorded, reported.
        let r3 = run_sweep(&flaky_spec(), &flaky_registry(), &opts).unwrap();
        assert!(r3.poisoned.is_empty(), "quarantined cell must not run");
        assert_eq!(r3.quarantined.len(), 1);
        assert_eq!(r3.quarantined[0].key, "flaky/bad/s0");
        assert_eq!(r3.quarantined[0].failures, 2);
        let (saved, _) = Manifest::load(&manifest_path).unwrap();
        assert_eq!(saved.quarantined.len(), 1);
        // Run 4: quarantine persists via the manifest.
        let r4 = run_sweep(&flaky_spec(), &flaky_registry(), &opts).unwrap();
        assert_eq!(r4.quarantined.len(), 1);
        // Each failure wrote a reproducible diagnostics bundle.
        let bundle = bundles.join("flaky_bad_s0.json");
        let text = std::fs::read_to_string(&bundle).unwrap();
        unxpec_telemetry::json::validate(&text).expect("bundle is valid JSON");
        let doc = unxpec_telemetry::json::parse(&text).unwrap();
        assert_eq!(
            doc.get("key").and_then(|v| v.as_str()),
            Some("flaky/bad/s0")
        );
        assert_eq!(
            doc.get("outcome").and_then(|v| v.as_str()),
            Some("quarantined")
        );
        assert!(doc.get("seed").is_some());
        assert!(doc.get("config").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_corrupt_manifest_recovers_with_a_warning_instead_of_failing() {
        let dir = temp_dir("recover");
        let manifest_path = dir.join("manifest.json");
        let opts = SweepOptions {
            manifest: Some(manifest_path.clone()),
            ..Default::default()
        };
        let first = run_sweep(&toy_spec(), &toy_registry(), &opts).unwrap();
        assert!(first.warnings.is_empty());
        // Tear the file mid-record, as a crash during a plain write
        // would.
        let text = std::fs::read_to_string(&manifest_path).unwrap();
        let cut = text.len() * 2 / 3;
        std::fs::write(&manifest_path, &text[..cut]).unwrap();
        let second = run_sweep(&toy_spec(), &toy_registry(), &opts).unwrap();
        assert_eq!(second.warnings.len(), 1, "recovery must warn");
        assert!(
            second.warnings[0].contains("recovered"),
            "{}",
            second.warnings[0]
        );
        assert!(second.resumed > 0, "salvaged records are reused");
        assert_eq!(
            first.aggregate_digest, second.aggregate_digest,
            "recovery plus rerun reproduces the run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pool_deadline_timeouts_reach_the_manifest_and_are_retried_on_resume() {
        let dir = temp_dir("deadline");
        let manifest_path = dir.join("manifest.json");
        let mk_slow = || {
            let mut r = Registry::new();
            r.register(FnExperiment::new("slow", &["default"], |_| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                TrialOutput::new("late".into(), vec![])
            }));
            r
        };
        let mut spec = SweepSpec::quick();
        spec.experiments = vec!["slow".into()];
        spec.seeds = 1;
        let strict = SweepOptions {
            manifest: Some(manifest_path.clone()),
            deadline_ms: Some(1),
            ..Default::default()
        };
        let report = run_sweep(&spec, &mk_slow(), &strict).unwrap();
        assert_eq!(report.timed_out.len(), 1);
        assert_eq!(report.stats.timed_out, 1);
        let (saved, _) = Manifest::load(&manifest_path).unwrap();
        assert_eq!(
            saved.timed_out.len(),
            1,
            "pool timeouts checkpoint for retry"
        );
        // Resume with a sane deadline: the trial reruns and completes.
        let relaxed = SweepOptions {
            manifest: Some(manifest_path.clone()),
            deadline_ms: Some(60_000),
            ..Default::default()
        };
        let report = run_sweep(&spec, &mk_slow(), &relaxed).unwrap();
        assert!(report.timed_out.is_empty());
        assert_eq!(report.results.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
