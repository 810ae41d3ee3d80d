//! The traced per-layer run.
//!
//! `perfbench-probe layers --seed N --specs DIR --out DIR` times calls
//! into each crate's public functions, wrapping every call in a span,
//! and prints one JSON line: `ok`, `errors`, `attempted`, `failed` and
//! `metrics` (name -> value and unit). Spans and per-layer self times go
//! to `DIR/spans.json`. Counts depend only on the seed and the spec
//! files, so two runs at one seed print identical counts.

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use unxpec::attack::{AttackConfig, MultiLevelChannel, UnxpecChannel};
use unxpec::cache::{CacheHierarchy, FaultKind, HierarchyConfig};
use unxpec::cpu::{Core, Defense, ExecMode, RunStats, UnsafeBaseline};
use unxpec::defense::{CleanupSpec, ConstantTimeRollback};
use unxpec::experiments::chaos::{self, ChaosMode};
use unxpec::experiments::seeding::{splitmix64, stream};
use unxpec::experiments::{
    ablations, defense_costs, leakage, overhead, pdf, rate, resolution, robustness, rollback,
    scorecard, secret_pattern, table1, timeline, trace, triggers, votes, workload_profile, Scale,
};
use unxpec::mem::LineAddr;
use unxpec::telemetry::{Event, Telemetry};
use unxpec::workloads::{spec2017_like_suite, DefenseFactory, Workload};
use unxpec_harness::{
    run_sweep, run_tasks, CompletedTrial, Manifest, Registry, SweepOptions, SweepReport, SweepSpec,
};
use unxpec_service::{
    CacheConfig, Client, Journal, JournalRecord, ResultCache, Service, ServiceConfig, TcpFront,
};

use crate::client::{self, json_str, Leg};
use crate::spans::Tracer;

/// An experiment driver call, timed as one span.
type Driver<'a> = Box<dyn Fn() + 'a>;

/// Worker threads everywhere: the benchmark machine has two CPUs.
const JOBS: usize = 2;
/// Timed passes over the workload suite; each cell reports its median.
const SUITE_PASSES: usize = 3;

struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {value:e}, \"unit\": \"{unit}\"}}",
                    json_str(name)
                )
            })
            .collect();
        let errors: Vec<String> = self.errors.iter().map(|e| json_str(e)).collect();
        format!(
            "{{\"ok\": {}, \"errors\": [{}], \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.errors.is_empty(),
            errors.join(", "),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn percentile(mut v: Vec<f64>, p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn load_spec(dir: &Path, name: &str) -> Result<SweepSpec, String> {
    let path = dir.join(format!("{name}.spec"));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    SweepSpec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn sweep(
    spec: &SweepSpec,
    manifest: Option<&Path>,
    report: &mut Report,
) -> Result<SweepReport, String> {
    let opts = SweepOptions {
        jobs: JOBS,
        retries: 1,
        manifest: manifest.map(Path::to_path_buf),
        ..SweepOptions::default()
    };
    let r = run_sweep(spec, &Registry::builtin(), &opts).map_err(|e| format!("sweep: {e}"))?;
    let failed = (r.poisoned.len() + r.timed_out.len() + r.quarantined.len()) as u64;
    report.attempted += r.results.len() as u64 + failed;
    report.failed += failed;
    Ok(r)
}

/// One suite cell's counts and host time.
struct Cell {
    stats: RunStats,
    /// (accesses, misses) of the L1D and the L2.
    l1: (u64, u64),
    l2: (u64, u64),
    host: Duration,
}

/// Runs one suite cell: a fresh Table-I core under `defense`, the
/// kernel installed, then warmup and measure under the timer.
fn run_cell(w: &Workload, defense: Box<dyn Defense>, scale: &Scale) -> Cell {
    let mut core = Core::table_i();
    core.set_defense(defense);
    core.set_mode(ExecMode::Detailed);
    w.install(&mut core);
    let start = Instant::now();
    let r = core.run_with_milestone(
        w.program(),
        Some(scale.workload_warmup),
        scale.workload_warmup + scale.workload_measure,
    );
    let host = start.elapsed();
    let (l1, l2) = (core.hierarchy().l1_stats(), core.hierarchy().l2_stats());
    Cell {
        stats: r.stats,
        l1: (l1.accesses(), l1.misses),
        l2: (l2.accesses(), l2.misses),
        host,
    }
}

/// `cpu`, `defense` and the cache miss ratios: the Fig. 12 suite (its
/// table seeds salted by the workload seed) under the unsafe baseline,
/// CleanupSpec and constant-time rollback at 25 and 65 cycles.
fn cpu_and_defense(seed: u64, tracer: &mut Tracer, report: &mut Report) {
    tracer.begin_trace("cpu");
    let scale = Scale::paper();
    let suite: Vec<Workload> = spec2017_like_suite()
        .iter()
        .map(|w| {
            let mut spec = *w.spec();
            spec.seed ^= seed;
            Workload::new(spec)
        })
        .collect();
    let schemes: [(&str, DefenseFactory<'_>); 4] = [
        ("unsafe", &|| Box::new(UnsafeBaseline)),
        ("cleanupspec", &|| Box::new(CleanupSpec::new())),
        ("const25", &|| Box::new(ConstantTimeRollback::new(25))),
        ("const65", &|| Box::new(ConstantTimeRollback::new(65))),
    ];
    // host[scheme][workload] collects one time per pass; cells[scheme]
    // keeps the first pass, which every later pass must repeat exactly.
    let mut host = vec![vec![Vec::new(); suite.len()]; schemes.len()];
    let mut cells: Vec<Vec<Cell>> = schemes.iter().map(|_| Vec::new()).collect();
    for pass in 0..SUITE_PASSES {
        for (wi, w) in suite.iter().enumerate() {
            for (si, (name, factory)) in schemes.iter().enumerate() {
                let layer = if si == 0 { "cpu" } else { "defense" };
                tracer.enter(
                    layer,
                    &format!("Core::run_with_milestone {} {name}", w.name()),
                );
                let cell = run_cell(w, factory(), &scale);
                tracer.exit();
                host[si][wi].push(secs(cell.host));
                report.attempted += 1;
                if pass == 0 {
                    cells[si].push(cell);
                } else {
                    let first = &cells[si][wi].stats;
                    report.check(
                        first.cycles == cell.stats.cycles
                            && first.committed_insts == cell.stats.committed_insts,
                        || format!("{} under {name} is not deterministic", w.name()),
                    );
                }
            }
        }
    }
    let total = |si: usize| -> f64 { host[si].iter().map(|t| median(t.clone())).sum() };
    let (t_unsafe, t_cleanup) = (total(0), total(1));
    let (t_c25, t_c65) = (total(2), total(3));
    let (unsafe_cells, cleanup_cells) = (&cells[0], &cells[1]);
    let cycles: u64 = unsafe_cells.iter().map(|c| c.stats.cycles).sum();
    let insts: u64 = unsafe_cells.iter().map(|c| c.stats.committed_insts).sum();
    report.put("cpu.sim_cycles_per_s", cycles as f64 / t_unsafe, "cycles/s");
    report.put("cpu.ns_per_inst", t_unsafe * 1e9 / insts as f64, "ns");
    report.put("cpu.sim_cycles", cycles as f64, "cycles");
    report.put("cpu.committed_insts", insts as f64, "count");
    let squashes: usize = cleanup_cells.iter().map(|c| c.stats.squashes.len()).sum();
    let stall: u64 = cleanup_cells
        .iter()
        .map(|c| c.stats.cleanup_stall_cycles)
        .sum();
    report.put(
        "defense.cleanupspec.host_ratio",
        t_cleanup / t_unsafe,
        "ratio",
    );
    report.put(
        "defense.const_time.host_ratio",
        (t_c25 + t_c65) / (2.0 * t_unsafe),
        "ratio",
    );
    report.put(
        "defense.host_ns_per_squash",
        (t_cleanup - t_unsafe) * 1e9 / squashes.max(1) as f64,
        "ns",
    );
    report.put("defense.squashes", squashes as f64, "count");
    report.put("defense.cleanup_stall_cycles", stall as f64, "cycles");
    let miss_ratio = |level: fn(&Cell) -> (u64, u64)| {
        let (accesses, misses) = unsafe_cells
            .iter()
            .map(level)
            .fold((0, 0), |(a, m), (x, y)| (a + x, m + y));
        misses as f64 / accesses.max(1) as f64
    };
    report.put("cache.l1_miss_ratio", miss_ratio(|c| c.l1), "ratio");
    report.put("cache.l2_miss_ratio", miss_ratio(|c| c.l2), "ratio");
}

/// `cache`: host ns per `CacheHierarchy::access_data` on an L1-resident
/// stream and on a stream four times the L2's size.
fn cache_access(tracer: &mut Tracer, report: &mut Report) {
    tracer.begin_trace("cache");
    let cfg = HierarchyConfig::table_i();
    let l2_lines = (cfg.l2.sets * cfg.l2.ways) as u64;
    let mut h = CacheHierarchy::new(cfg, 1);
    let hot = 128u64;
    let mut cycle = 0;
    for line in 0..hot {
        h.access_data(LineAddr::new(line), cycle, None);
        cycle += 400;
    }
    let n_hit = 2_000_000u64;
    let (_, t) = tracer.time("cache", "CacheHierarchy::access_data hit", || {
        for i in 0..n_hit {
            black_box(h.access_data(LineAddr::new(i % hot), cycle, None));
            cycle += 4;
        }
    });
    report.put("cache.hit_ns", secs(t) * 1e9 / n_hit as f64, "ns");
    // Spaced so the MSHRs drain between misses: each access allocates,
    // fills L2 and L1, and evicts.
    let n_miss = 8 * l2_lines;
    let base = 1u64 << 30;
    let (_, t) = tracer.time("cache", "CacheHierarchy::access_data miss", || {
        for i in 0..n_miss {
            black_box(h.access_data(LineAddr::new(base + i % (4 * l2_lines)), cycle, None));
            cycle += 400;
        }
    });
    report.put("cache.miss_ns", secs(t) * 1e9 / n_miss as f64, "ns");
}

/// `telemetry`: host ns per `Telemetry::emit` into a ring and with
/// telemetry disabled.
fn telemetry_emit(tracer: &mut Tracer, report: &mut Report) {
    tracer.begin_trace("telemetry");
    for (name, telemetry, n) in [
        ("telemetry.emit_ns", Telemetry::ring(4096), 2_000_000u64),
        (
            "telemetry.off_emit_ns",
            Telemetry::disabled(),
            20_000_000u64,
        ),
    ] {
        let telemetry = black_box(telemetry);
        let (_, t) = tracer.time("telemetry", &format!("Telemetry::emit {name}"), || {
            for i in 0..n {
                telemetry.emit(black_box(Event::Issue {
                    cycle: i,
                    seq: i,
                    pc: (i & 63) as usize,
                }));
            }
        });
        report.put(name, secs(t) * 1e9 / n as f64, "ns");
    }
}

/// `attack`: host µs per rollback sample of the covert channel against
/// CleanupSpec, one sample per bit.
fn attack_round(seed: u64, tracer: &mut Tracer, report: &mut Report) {
    tracer.begin_trace("attack");
    let bits = 20_000usize;
    let mut state = seed;
    let secrets: Vec<bool> = (0..bits)
        .map(|_| {
            state = splitmix64(state);
            state & 1 == 1
        })
        .collect();
    let mut chan = UnxpecChannel::new(AttackConfig::paper_no_es(), Box::new(CleanupSpec::new()));
    chan.calibrate(20);
    let (out, t) = tracer.time("attack", "UnxpecChannel::leak", || chan.leak(&secrets));
    report.check(out.guesses.len() == bits, || {
        "leak returned a short guess list".into()
    });
    report.put("attack.round_us", secs(t) * 1e6 / bits as f64, "us");
    report.attempted += 1;
}

/// `core`: one call to each experiment driver of `experiments all` at
/// paper scale, the three heaviest timed alone and the rest together.
fn experiment_drivers(seed: u64, tracer: &mut Tracer, report: &mut Report) {
    tracer.begin_trace("experiments");
    let scale = Scale::paper();
    let (w, m) = (scale.workload_warmup, scale.workload_measure);
    let ts = scale.timing_samples;
    let s = |name: &str| stream(seed, name);
    let (_, t) = tracer.time("core", "overhead::run", || black_box(overhead::run(w, m)));
    report.put("experiments.fig12_s", secs(t), "s");
    let (_, t) = tracer.time("core", "defense_costs::run", || {
        black_box(defense_costs::run(w, m))
    });
    report.put("experiments.defense_costs_s", secs(t), "s");
    let (card, t) = tracer.time("core", "scorecard::run", || {
        scorecard::run(false, s("scorecard"))
    });
    report.put("experiments.scorecard_s", secs(t), "s");
    let passed = card.checks.iter().filter(|c| c.pass).count();
    report.check(card.all_pass(), || {
        format!("scorecard: {passed} of {} checks pass", card.checks.len())
    });
    report.attempted += 3;

    tracer.enter("core", "rest");
    let rest: Vec<(&str, Driver<'_>)> = vec![
        (
            "table1::run",
            Box::new(|| {
                black_box(table1::run());
            }),
        ),
        (
            "resolution::run",
            Box::new(|| {
                black_box(resolution::run(ts.min(20), s("fig2")));
            }),
        ),
        (
            "rollback::run",
            Box::new(|| {
                black_box(rollback::run(false, 8, ts, s("fig3")));
            }),
        ),
        (
            "rollback::run es",
            Box::new(|| {
                black_box(rollback::run(true, 8, ts, s("fig6")));
            }),
        ),
        (
            "pdf::run",
            Box::new(|| {
                black_box(pdf::run(false, scale.pdf_samples, s("fig7")));
            }),
        ),
        (
            "pdf::run es",
            Box::new(|| {
                black_box(pdf::run(true, scale.pdf_samples, s("fig8")));
            }),
        ),
        (
            "secret_pattern::run",
            Box::new(|| {
                black_box(secret_pattern::run(scale.leak_bits, s("fig9")));
            }),
        ),
        (
            "leakage::run",
            Box::new(|| {
                black_box(leakage::run(false, scale.leak_bits, s("fig10")));
            }),
        ),
        (
            "leakage::run es",
            Box::new(|| {
                black_box(leakage::run(true, scale.leak_bits, s("fig11")));
            }),
        ),
        (
            "rate::run",
            Box::new(|| {
                black_box(rate::run(ts.max(40), s("rate")));
            }),
        ),
        (
            "resolution::run_host_like",
            Box::new(|| {
                black_box(resolution::run_host_like(ts.min(20), s("fig13")));
            }),
        ),
        (
            "votes::run",
            Box::new(|| {
                black_box(votes::run(false, scale.leak_bits / 2, s("votes")));
            }),
        ),
        (
            "robustness::run",
            Box::new(|| {
                black_box(robustness::run(10, 40, 300, s("robustness")));
            }),
        ),
        (
            "timeline::run",
            Box::new(|| {
                black_box(timeline::run(false, s("timeline")));
                black_box(timeline::run(true, s("timeline")));
            }),
        ),
        (
            "trace::run",
            Box::new(|| {
                black_box(trace::run(false, 1 << 15, s("trace")));
            }),
        ),
        (
            "triggers::run",
            Box::new(|| {
                black_box(triggers::run(ts.min(30), s("triggers")));
            }),
        ),
        (
            "workload_profile::run",
            Box::new(|| {
                black_box(workload_profile::run(w, m));
            }),
        ),
        (
            "ablations",
            Box::new(|| {
                let seed = s("ablations");
                black_box(ablations::defense_matrix(40, seed));
                black_box(ablations::fuzzy_evaluation(60, 200, 7, seed));
                black_box(ablations::mistrain_sweep(40, seed));
                black_box(ablations::fence_ablation(40, seed));
                let mut ml = MultiLevelChannel::new(8);
                black_box(ml.calibrate(40));
                let symbols: Vec<u8> = (0..64).map(|i| (i % 4) as u8).collect();
                black_box(ml.leak(&symbols));
            }),
        ),
        (
            "chaos::run",
            Box::new(|| {
                for mode in [
                    ChaosMode::Control,
                    ChaosMode::Mixed,
                    ChaosMode::Single(FaultKind::WedgeFill),
                    ChaosMode::Sabotage,
                ] {
                    black_box(chaos::run(mode, 100, s("chaos")));
                }
            }),
        ),
    ];
    for (name, run) in &rest {
        tracer.time("core", name, run);
    }
    report.attempted += rest.len() as u64;
    let t = tracer.exit();
    report.put("experiments.rest_s", secs(t), "s");
}

/// `harness`: the sweep-ckpt grid with and without a manifest, the
/// manifest rewritten after every trial, a resume against the finished
/// manifest, and the pool over no-op tasks. Returns the unchecked
/// sweep's report for the service micro-benchmarks.
fn harness_layer(
    specs: &Path,
    out: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<SweepReport, String> {
    tracer.begin_trace("harness");
    let spec = load_spec(specs, "grid")?;
    let manifest = out.join("ckpt-manifest.json");
    let _ = std::fs::remove_file(&manifest);
    tracer.enter("harness", "run_sweep manifest");
    let ckpt = sweep(&spec, Some(&manifest), report)?;
    tracer.exit();
    tracer.enter("harness", "run_sweep");
    let plain = sweep(&spec, None, report)?;
    tracer.exit();
    report.put(
        "harness.ckpt_utilization",
        ckpt.stats.utilization(),
        "ratio",
    );
    report.put("harness.utilization", plain.stats.utilization(), "ratio");
    report.check(ckpt.aggregate_digest == plain.aggregate_digest, || {
        "checkpointed and unchecked sweeps disagree on the aggregate digest".into()
    });
    let trial_ms: Vec<f64> = plain.spans.iter().map(|s| s.dur_us as f64 / 1e3).collect();
    report.put(
        "harness.trial_ms.p50",
        percentile(trial_ms.clone(), 0.50),
        "ms",
    );
    report.put("harness.trial_ms.p99", percentile(trial_ms, 0.99), "ms");

    let replay = out.join("replay-manifest.json");
    let mut m = Manifest::new(spec.digest(), spec.root_seed);
    let mut written = 0u64;
    tracer.enter("harness", "Manifest::save per trial");
    for r in &plain.results {
        m.completed.push(CompletedTrial {
            key: r.trial.key.clone(),
            digest: r.digest,
            attempts: r.attempts,
            output: r.output.clone(),
        });
        m.save(&replay)?;
        written += std::fs::metadata(&replay).map_err(|e| e.to_string())?.len();
    }
    let t = tracer.exit();
    let final_bytes = std::fs::metadata(&replay).map_err(|e| e.to_string())?.len();
    report.put("harness.manifest.replay_s", secs(t), "s");
    report.put("harness.manifest.bytes_written", written as f64, "bytes");
    report.put("harness.manifest.final_bytes", final_bytes as f64, "bytes");

    tracer.enter("harness", "run_sweep resume");
    let resumed = sweep(&spec, Some(&manifest), report)?;
    let t = tracer.exit();
    report.put("harness.manifest.resume_ms", secs(t) * 1e3, "ms");
    report.check(
        resumed.resumed == plain.results.len() && resumed.stats.executed == 0,
        || format!("resume executed {} trial(s)", resumed.stats.executed),
    );
    report.check(resumed.aggregate_digest == plain.aggregate_digest, || {
        "resumed sweep changed the aggregate digest".into()
    });

    let tasks = 20_000usize;
    let ((outcomes, _, _), t) = tracer.time("harness", "run_tasks no-op", || {
        run_tasks(JOBS, tasks, 0, black_box, |_, _| {})
    });
    report.check(outcomes.len() == tasks, || "run_tasks lost tasks".into());
    report.put("harness.pool.task_us", secs(t) * 1e6 / tasks as f64, "us");
    Ok(plain)
}

fn start_service(cache: &Path, journal: &Path) -> Result<(Arc<Service>, TcpFront), String> {
    let config = ServiceConfig {
        jobs: JOBS,
        cache: Some(CacheConfig {
            dir: cache.to_path_buf(),
            max_bytes: 0,
        }),
        journal: Some(journal.to_path_buf()),
        ..ServiceConfig::default()
    };
    let mut service = Service::new(Registry::builtin(), config).map_err(|e| e.to_string())?;
    service.start_worker();
    let service = Arc::new(service);
    let front = TcpFront::start(Arc::clone(&service), "127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok((service, front))
}

fn leg_or_error(
    addr: &str,
    specs: &[String],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Leg, String> {
    let leg = client::run_leg(addr, specs, tracer).map_err(|e| format!("service leg: {e}"))?;
    report.attempted += leg.trials.iter().sum::<u64>();
    report.failed += leg.failed;
    Ok(leg)
}

/// `service`: the service workload's cold and warm legs in process,
/// `Client::status` round trips on a second connection during the cold
/// leg, and the cache and journal alone.
fn service_layer(
    specs_dir: &Path,
    out: &Path,
    outputs: &SweepReport,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    tracer.begin_trace("service");
    let specs = client::read_specs(specs_dir)?;
    let dir = out.join("service");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let cache = dir.join("cache");
    let cold_journal = dir.join("cold.journal");

    let (service, mut front) = start_service(&cache, &cold_journal)?;
    let addr = front.addr().to_string();
    let (cold, rpc_us) = std::thread::scope(|scope| {
        let prober = scope.spawn(|| -> Result<Vec<f64>, String> {
            let mut c = Client::connect(&addr).map_err(|e| e.to_string())?;
            let mut samples = Vec::new();
            while samples.len() < 1000 {
                let start = Instant::now();
                match c.status("j1") {
                    Ok(_) => samples.push(secs(start.elapsed()) * 1e6),
                    // The first job is not submitted yet.
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
            Ok(samples)
        });
        let cold = leg_or_error(&addr, &specs, tracer, report);
        let rpc = prober
            .join()
            .unwrap_or_else(|_| Err("status prober panicked".to_string()));
        (cold, rpc)
    });
    let (cold, rpc_us) = (cold?, rpc_us?);
    front.shutdown();
    drop(front);
    drop(service);
    report.put("service.rpc_us.p50", percentile(rpc_us.clone(), 0.50), "us");
    report.put("service.rpc_us.p99", percentile(rpc_us, 0.99), "us");
    report.put("service.queue_wait_ms", secs(cold.queue_wait) * 1e3, "ms");
    let coalesced = cold.cached[0] + cold.cached[1];
    report.put("service.coalesced", coalesced as f64, "count");
    report.check(coalesced == cold.trials[1], || {
        format!(
            "cold leg coalesced {coalesced} trials, a1 submitted {}",
            cold.trials[1]
        )
    });
    report.check(cold.cached[2] + cold.cached[3] == 0, || {
        "b tenants' distinct cells were served without running".into()
    });

    let distinct: Vec<SweepSpec> = ["a0", "b0", "b1"]
        .iter()
        .map(|n| load_spec(specs_dir, n))
        .collect::<Result<_, _>>()?;
    tracer.enter("harness", "run_sweep cold cells");
    for spec in &distinct {
        sweep(spec, None, report)?;
    }
    let sim = tracer.exit();
    report.put(
        "service.cold.sim_share",
        secs(sim) / secs(cold.wall),
        "ratio",
    );

    let (service, mut front) = start_service(&cache, &dir.join("warm.journal"))?;
    let warm = leg_or_error(&front.addr().to_string(), &specs, tracer, report);
    front.shutdown();
    drop(front);
    drop(service);
    let warm = warm?;
    let hits: u64 = warm.cached.iter().sum();
    let misses: u64 = warm.trials.iter().sum::<u64>() - hits;
    report.put("service.warm_hits", hits as f64, "count");
    report.put("service.warm_misses", misses as f64, "count");
    report.check(misses == 0, || {
        format!("{misses} warm trial(s) missed the cache")
    });
    for e in client::doc_mismatches(&warm, Some(&cold)) {
        report.errors.push(e);
    }

    let mut open_ms = Vec::new();
    for _ in 0..3 {
        let (opened, t) = tracer.time("service", "ResultCache::open", || {
            ResultCache::open(&CacheConfig {
                dir: cache.clone(),
                max_bytes: 0,
            })
        });
        opened.map_err(|e| e.to_string())?;
        open_ms.push(secs(t) * 1e3);
    }
    report.put("service.cache.open_ms", median(open_ms), "ms");
    let mut open_ms = Vec::new();
    for _ in 0..3 {
        let (opened, t) = tracer.time("service", "Journal::open", || Journal::open(&cold_journal));
        opened.map_err(|e| e.to_string())?;
        open_ms.push(secs(t) * 1e3);
    }
    report.put("service.journal.open_ms", median(open_ms), "ms");

    let mut micro = ResultCache::open(&CacheConfig {
        dir: dir.join("micro-cache"),
        max_bytes: 0,
    })
    .map_err(|e| e.to_string())?;
    let n = outputs.results.len();
    let key = |i: usize| splitmix64(i as u64 + 1);
    tracer.enter("service", "ResultCache::put");
    for (i, r) in outputs.results.iter().enumerate() {
        micro.put(key(i), &r.output).map_err(|e| e.to_string())?;
    }
    let put = tracer.exit();
    tracer.enter("service", "ResultCache::get");
    let mut found = 0;
    for i in 0..n {
        found += usize::from(black_box(micro.get(key(i))).is_some());
    }
    let get = tracer.exit();
    report.check(found == n, || {
        format!("cache returned {found} of {n} entries")
    });
    report.put("service.cache.put_us", secs(put) * 1e6 / n as f64, "us");
    report.put("service.cache.get_us", secs(get) * 1e6 / n as f64, "us");

    let (mut journal, _) = Journal::open(&dir.join("micro.journal")).map_err(|e| e.to_string())?;
    let records = 5000u64;
    tracer.enter("service", "Journal::append");
    for slot in 0..records {
        journal
            .append(&JournalRecord::CellDone {
                job: 1,
                slot,
                cell: splitmix64(slot),
            })
            .map_err(|e| e.to_string())?;
    }
    let t = tracer.exit();
    report.put(
        "service.journal.append_us",
        secs(t) * 1e6 / records as f64,
        "us",
    );
    Ok(())
}

pub fn main(seed: u64, specs: &Path, out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("create {}: {e}", out.display()))?;
    let mut tracer = Tracer::new();
    let mut report = Report {
        metrics: Vec::new(),
        errors: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    cpu_and_defense(stream(seed, "kernels"), &mut tracer, &mut report);
    cache_access(&mut tracer, &mut report);
    telemetry_emit(&mut tracer, &mut report);
    attack_round(stream(seed, "attack"), &mut tracer, &mut report);
    experiment_drivers(stream(seed, "experiments"), &mut tracer, &mut report);
    let outputs = harness_layer(specs, out, &mut tracer, &mut report)?;
    service_layer(specs, out, &outputs, &mut tracer, &mut report)?;
    tracer
        .write(&out.join("spans.json"))
        .map_err(|e| format!("write spans: {e}"))?;
    println!("{}", report.json());
    Ok(())
}
