#!/usr/bin/env python3
"""The repository benchmark: three workloads against the release binaries.

    python3 perfbench/run.py --workload paper|sweep-ckpt|service \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds `experiments`, `sweep` and
`serve` and the benchmark's own probe (`perfbench/probe`) into
$CARGO_TARGET_DIR (default `.bench_build`), writes scratch files under
`.bench_out`, and prints one JSON object as the last line of stdout:
`correct`, `attempted`, `failed` and `metrics` (name -> value and unit).

With `--trace 0` it repeats the workload for `--seconds` seconds and
reports the end-to-end metrics as medians over the repetitions, each
time and rate corrected by the host slowdown that the probe's reference
kernel measured in the same run (`calibrate`). With
`--trace 1` it runs the workload once with spans around every phase,
then the probe's traced per-layer run, and reports the per-layer
metrics. Every repetition is checked; a failed check makes `correct`
false and the exit code 1. See perfbench/README.md for the workloads,
the metrics and the noise they were sized against.
"""

import argparse
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("paper", "sweep-ckpt", "service")

# The sweep-ckpt grid, also the service's `a` tenants' spec. Every
# variant of these experiments except chaos/wedge_fill, a deliberate
# typed truncation whose failing seeds depend on the root seed.
GRID_EXPERIMENTS = (
    "rollback", "pdf", "leakage", "rate", "resolution", "triggers", "votes",
    "timeline", "trace", "robustness", "ablations", "chaos",
)
GRID_VARIANTS = (
    "no-es", "es", "default", "sim", "host-like", "defense-matrix", "fuzzy",
    "mistrain", "fence", "none", "delay_fill", "reorder_fill", "mshr_exhaust",
    "spurious_evict", "replace_perturb", "squash_during_rollback", "mixed",
    "sabotage",
)
GRID_SEEDS = 16
GRID_TRIALS = 30 * GRID_SEEDS  # 30 (experiment, variant) cells
TABLE1_SEEDS = 512
SCORECARD_CHECKS = 15
# The `took` lines `experiments all` prints: one per figure, table and
# extension it times, each measured inside its worker.
PAPER_TIMED = 23

JOBS = "2"
MIN_REPS = 3
SETUP_SAMPLES_PER_REP = 16
WARM_ROUNDS = 8
RESUMES = 24
SERVER_STOP_TIMEOUT_S = 10.0
# A run that has not finished this long after its build is stopped and
# reported as failed, so a hung program cannot hang the benchmark.
RUN_TIMEOUT_S = 150

OUT = ".bench_out"
TOOK = re.compile(r"took ([0-9.]+)(ns|µs|us|ms|s)\)\s*$")
TOOK_SCALE = {"ns": 1e-9, "µs": 1e-6, "us": 1e-6, "ms": 1e-3, "s": 1.0}
SCORE_LINE = re.compile(r"^\s+(PASS|FAIL)\s")
SWEEP_LINE = re.compile(
    r"^sweep 0x[0-9a-f]+ — (\d+) trial\(s\), (\d+) resumed, (\d+) poisoned, "
    r"(\d+) timed out, (\d+) quarantined$", re.M)
DIGEST_LINE = re.compile(r"^aggregate digest (0x[0-9a-f]+)$", re.M)
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class CheckFailed(Exception):
    """A correctness check of the program's output failed."""


def on_alarm(signum, frame):
    raise CheckFailed(f"no result after {RUN_TIMEOUT_S} s")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def die(message):
    log(f"perfbench: {message}")
    sys.exit(2)


def check(ok, message):
    if not ok:
        raise CheckFailed(message)


# --- seeds -----------------------------------------------------------------

MASK = (1 << 64) - 1


def splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK
    return x ^ (x >> 31)


def derive(seed, label):
    """A 64-bit seed for `label`, a pure function of the workload seed."""
    h = 0xCBF29CE484222325
    for b in label.encode():
        h = ((h ^ b) * 0x100000001B3) & MASK
    return splitmix64(seed ^ h)


def grid_spec(root_seed):
    return (f"experiments={','.join(GRID_EXPERIMENTS)}\n"
            f"variants={','.join(GRID_VARIANTS)}\n"
            f"scale=quick\nseeds={GRID_SEEDS}\nroot-seed={root_seed:#x}\n")


def table1_spec(root_seed):
    return f"experiments=table1\nscale=quick\nseeds={TABLE1_SEEDS}\nroot-seed={root_seed:#x}\n"


def write_specs(seed):
    """Every spec the workloads submit, derived from the workload seed."""
    specs = os.path.join(OUT, "specs")
    os.makedirs(specs, exist_ok=True)
    shared = grid_spec(derive(seed, "service.a"))
    texts = {
        "grid": grid_spec(derive(seed, "sweep")),
        "a0": shared,
        "a1": shared,
        "b0": table1_spec(derive(seed, "service.b0")),
        "b1": table1_spec(derive(seed, "service.b1")),
    }
    for name, text in texts.items():
        with open(os.path.join(specs, f"{name}.spec"), "w") as f:
            f.write(text)
    return specs


# --- build and processes ---------------------------------------------------

def build():
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "bench"))):
        die("run from the root of a checkout of the repository "
            "(Cargo.toml and crates/bench not found)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "unxpec-bench",
         "--bin", "experiments", "--bin", "sweep", "--bin", "serve"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "probe", "Cargo.toml")],
    ):
        if subprocess.run(argv, env=env, stdout=sys.stderr).returncode != 0:
            die(f"build failed: {' '.join(argv)}")
    release = os.path.join(target, "release")
    return {name: os.path.join(release, name)
            for name in ("experiments", "sweep", "serve", "perfbench-probe")}


def reap(proc):
    """Waits for `proc`; returns (exit code, CPU seconds, peak RSS MiB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_program(argv, name):
    """Runs a batch program to completion with its output in files."""
    out_path = os.path.join(OUT, f"{name}.out")
    with open(out_path, "w") as out, open(os.path.join(OUT, f"{name}.err"), "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        try:
            rc, cpu, rss = reap(proc)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    with open(out_path, encoding="utf-8") as f:
        return wall, cpu, rss, rc, f.read()


class Server:
    """One `serve` process on an ephemeral port."""

    def __init__(self, binary, cache_dir, journal):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--addr", "127.0.0.1:0", "--jobs", JOBS,
             "--cache-dir", cache_dir, "--journal", journal],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        self.addr = None
        for line in self.proc.stderr:
            m = re.search(r"listening on (\S+)", line)
            if m:
                self.addr = m.group(1)
                break
        try:
            check(self.addr is not None, "serve exited before listening")
            host, port = self.addr.rsplit(":", 1)
            socket.create_connection((host, int(port)), timeout=10).close()
        except (CheckFailed, OSError) as e:
            self.stop()
            raise CheckFailed(f"serve did not accept a connection: {e}") from e
        self.setup_s = time.perf_counter() - self.start

    def stop(self):
        """Drains the server; returns (CPU seconds, peak RSS MiB)."""
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + SERVER_STOP_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.002)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stderr.close()
        check(self.proc.returncode == 0, f"serve exited {self.proc.returncode}")
        return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class ServiceClient:
    """The probe's single-process service client, driven over stdin."""

    def __init__(self, binary, specs):
        self.proc = subprocess.Popen([binary, "client", specs], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, bufsize=1)

    def leg(self, kind, addr):
        self.proc.stdin.write(f"{kind} {addr}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        check(line, "service client exited")
        reply = json.loads(line)
        check(reply["ok"], f"{kind} leg: {reply.get('error')}")
        check(not reply["errors"], f"{kind} leg: {'; '.join(reply['errors'])}")
        check(reply["failed"] == 0, f"{kind} leg: {reply['failed']} trial(s) failed")
        return reply

    def close(self):
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# --- workloads -------------------------------------------------------------

class Spans:
    """The traced run's spans around each workload phase."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.origin = time.perf_counter()
        self.spans = []

    def record(self, name, start, end):
        if self.enabled:
            self.spans.append({"name": name, "start_s": start - self.origin,
                               "end_s": end - self.origin})


UNITS = {
    "wall_s": "s", "trials_per_s": "trials/s", "warm_trials_per_s": "trials/s",
    "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
}


# The host-speed correction: +1 for a rate, -1 for a time. See calibrate().
HOST_SCALED = {"wall_s": -1, "trials_per_s": 1, "warm_trials_per_s": 1, "cpu_s": -1,
               "setup_s": -1}
# The reference kernel's seconds on the development box in a quiet
# phase: the host speed every scaled metric is reported at.
CALIBRATION_REF_S = 0.3


def calibrate(probe):
    """Seconds of one run of the probe's fixed reference kernel.

    The box's speed swings by up to twofold over minutes (see the README),
    moving every workload at once. The kernel runs before the first
    repetition and after each, and the run's times and rates are reported
    at the host speed where it takes CALIBRATION_REF_S."""
    proc = subprocess.run([probe, "calibrate"], stdout=subprocess.PIPE, text=True)
    check(proc.returncode == 0, f"probe calibrate exited {proc.returncode}")
    return float(proc.stdout.split()[0])


def repeat(bins, seconds, spans, rep, uncorrected=()):
    """Calls `rep(i)` until `seconds` have passed, at least MIN_REPS times
    (once when traced), and reports each metric's median over the
    repetitions, host-speed corrected (HOST_SCALED) except the metrics
    named in `uncorrected`. `rep` returns its metric values and set-up
    samples."""
    samples, setups = [], []
    calibrations = [calibrate(bins["perfbench-probe"])]
    budget = time.perf_counter() + seconds
    while len(samples) < MIN_REPS or time.perf_counter() < budget:
        values, setup = rep(len(samples))
        calibrations.append(calibrate(bins["perfbench-probe"]))
        log(f"rep\t{json.dumps(values)}\t{json.dumps(setup)}\t{calibrations[-1]}")
        samples.append(values)
        setups += setup
        if spans.enabled:
            break
    slowdown = statistics.median(calibrations) / CALIBRATION_REF_S
    raw = {name: statistics.median(v[name] for v in samples) for name in samples[0]}
    raw["setup_s"] = statistics.median(setups)
    log(f"raw medians {json.dumps(raw)}, host slowdown {slowdown:.4f}")
    metrics = {name: (value * slowdown ** (0 if name in uncorrected else HOST_SCALED.get(name, 0)),
                      UNITS[name])
               for name, value in raw.items()}
    return metrics, len(samples)


def startup_samples(argv):
    """Spawn-to-exit seconds of a command that only starts up."""
    samples = []
    for _ in range(SETUP_SAMPLES_PER_REP):
        start = time.perf_counter()
        rc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
        samples.append(time.perf_counter() - start)
        check(rc == 0, f"{' '.join(argv)} exited {rc}")
    return samples


def paper(bins, seed, seconds, spans):
    """`experiments --jobs 2 all` at paper scale, repeated."""
    argv = [bins["experiments"], "--jobs", JOBS, "--seed", str(derive(seed, "paper")), "all"]
    reference = []

    def rep(_):
        setup = startup_samples([bins["experiments"], "--list"])
        start = time.perf_counter()
        wall, cpu, rss, rc, out = run_program(argv, "paper")
        spans.record("experiments all", start, time.perf_counter())
        check(rc == 0, f"experiments exited {rc}")
        scores = [l.split()[0] for l in out.splitlines() if SCORE_LINE.match(l)]
        check(scores == ["PASS"] * SCORECARD_CHECKS,
              f"scorecard: {scores.count('PASS')} PASS of {len(scores)} lines")
        stable = [l for l in out.splitlines() if not TOOK.search(l)]
        reference[:] = reference or stable
        check(stable == reference, "experiments output changed between repetitions")
        took = [float(m.group(1)) * TOOK_SCALE[m.group(2)]
                for m in map(TOOK.search, out.splitlines()) if m]
        check(len(took) == PAPER_TIMED, f"{len(took)} timed experiments, expected {PAPER_TIMED}")
        # Experiments per second of their own run time: the pool's rate,
        # without the critical path (wall_s) or start-up and output (cpu_s).
        # `experiments` keeps no results between runs, so a rerun is as
        # cold as the first: the warm rate is the cold one.
        rate = len(took) / sum(took)
        return {"wall_s": wall, "trials_per_s": rate, "warm_trials_per_s": rate,
                "cpu_s": cpu, "peak_rss_mb": rss}, setup

    metrics, reps = repeat(bins, seconds, spans, rep)
    return metrics, reps * PAPER_TIMED, 0


def parse_sweep(out, what):
    m = SWEEP_LINE.search(out)
    d = DIGEST_LINE.search(out)
    check(m is not None and d is not None, f"{what}: no sweep report")
    total, resumed, poisoned, timed_out, quarantined = map(int, m.groups())
    check(poisoned + timed_out + quarantined == 0,
          f"{what}: {poisoned} poisoned, {timed_out} timed out, {quarantined} quarantined")
    check(total == GRID_TRIALS, f"{what}: {total} trials, expected {GRID_TRIALS}")
    return resumed, d.group(1)


def sweep_ckpt(bins, seed, seconds, spans):
    """`sweep --manifest` over the grid on a fresh manifest, then a rerun
    that resumes every trial from it; repeated."""
    grid = os.path.join(write_specs(seed), "grid.spec")
    base = [bins["sweep"], "--spec", grid, "--jobs", JOBS]
    start = time.perf_counter()
    _, _, _, rc, out = run_program(base, "sweep-unchecked")
    spans.record("sweep unchecked", start, time.perf_counter())
    check(rc == 0, f"unchecked sweep exited {rc}")
    _, reference = parse_sweep(out, "unchecked sweep")

    def rep(i):
        setup = startup_samples([bins["sweep"], "--list"])
        argv = base + ["--manifest", os.path.join(OUT, f"manifest-{i}.json")]
        start = time.perf_counter()
        wall, cpu, rss, rc, out = run_program(argv, "sweep-ckpt")
        spans.record("sweep --manifest", start, time.perf_counter())
        check(rc == 0, f"checkpointed sweep exited {rc}")
        resumed, digest = parse_sweep(out, "checkpointed sweep")
        check(resumed == 0, f"fresh manifest resumed {resumed} trials")
        check(digest == reference,
              f"checkpointed digest {digest} differs from unchecked {reference}")
        # One resume takes about 40 ms, mostly start-up and reading the
        # manifest: time several, so the warm window lasts about a second.
        warm_wall, warm_cpu, warm_rss = 0.0, 0.0, 0.0
        for _ in range(RESUMES):
            start = time.perf_counter()
            w, c, r, rc, out = run_program(argv, "sweep-resume")
            spans.record("sweep resume", start, time.perf_counter())
            check(rc == 0, f"resumed sweep exited {rc}")
            resumed, digest = parse_sweep(out, "resumed sweep")
            check(resumed == GRID_TRIALS, f"resume re-ran {GRID_TRIALS - resumed} trials")
            check(digest == reference, "resumed digest differs")
            warm_wall, warm_cpu, warm_rss = warm_wall + w, warm_cpu + c, max(warm_rss, r)
        # The manifest was rewritten after every trial; flush what is still
        # dirty so its write-back does not spill into the next repetition.
        os.sync()
        return {"wall_s": wall + warm_wall, "trials_per_s": GRID_TRIALS / wall,
                "warm_trials_per_s": RESUMES * GRID_TRIALS / warm_wall,
                "cpu_s": cpu + warm_cpu, "peak_rss_mb": max(rss, warm_rss)}, setup

    metrics, reps = repeat(bins, seconds, spans, rep)
    return metrics, (1 + (1 + RESUMES) * reps) * GRID_TRIALS, 0


def service(bins, seed, seconds, spans):
    """`serve` on a fresh cache: a cold leg, then restarts served warm."""
    client = ServiceClient(bins["perfbench-probe"], write_specs(seed))
    attempted = [0]

    def leg(rep_dir, kind, journal):
        server = Server(bins["serve"], os.path.join(rep_dir, "cache"),
                        os.path.join(rep_dir, journal))
        try:
            reply = client.leg(kind, server.addr)
            end = time.perf_counter()
        finally:
            cpu, rss = server.stop()
        spans.record(f"service {kind} leg", server.start, end)
        attempted[0] += sum(reply["trials"])
        return reply, end - server.start, server.setup_s, cpu, rss

    def rep(i):
        rep_dir = os.path.join(OUT, "service", f"rep{i}")
        os.makedirs(rep_dir)
        cold, _, setup, cpu, rss = leg(rep_dir, "cold", "cold.journal")
        trials, cached = cold["trials"], cold["cached"]
        check(cached[0] + cached[1] == trials[1],
              f"cold leg coalesced {cached[0] + cached[1]} trials, a1 submitted {trials[1]}")
        check(cached[2] + cached[3] == 0, "b tenants' cells were served without running")
        setups, warm_trials, warm_time = [setup], 0, 0.0
        for k in range(WARM_ROUNDS):
            warm, wall, setup, c, r = leg(rep_dir, "warm", f"warm{k}.journal")
            check(warm["cached"] == warm["trials"],
                  f"warm round missed the cache: {warm['cached']} of {warm['trials']}")
            setups.append(setup)
            warm_trials += sum(warm["trials"])
            warm_time += wall
            cpu, rss = cpu + c, max(rss, r)
        shutil.rmtree(rep_dir)
        os.sync()
        return {"wall_s": cold["wall_s"] + warm_time,
                "trials_per_s": sum(trials) / cold["wall_s"],
                "warm_trials_per_s": warm_trials / warm_time,
                "cpu_s": cpu, "peak_rss_mb": rss}, setups

    try:
        # The warm rounds' rate did not move with the reference kernel
        # (log-log slope 0.14 over 40 runs, where every other time and
        # rate had 0.74 to 1.39), so correcting it only adds the
        # kernel's noise.
        metrics, _ = repeat(bins, seconds, spans, rep, uncorrected=("warm_trials_per_s",))
    finally:
        client.close()
    return metrics, attempted[0], 0


RUNNERS = {"paper": paper, "sweep-ckpt": sweep_ckpt, "service": service}


def layers(bins, seed):
    """The probe's traced per-layer run."""
    specs = write_specs(seed)
    out = os.path.join(OUT, "trace")
    proc = subprocess.run(
        [bins["perfbench-probe"], "layers", "--seed", str(seed), "--specs", specs, "--out", out],
        stdout=subprocess.PIPE, text=True)
    check(proc.returncode == 0, f"probe layers exited {proc.returncode}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    check(report["ok"], "probe layers: " + "; ".join(report["errors"]))
    metrics = {name: (m["value"], m["unit"]) for name, m in report["metrics"].items()}
    return metrics, report["attempted"], report["failed"]


def declared(kind):
    """The metric names and units BENCHMARK.json declares for `kind`."""
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bins = build()
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_TIMEOUT_S)
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(OUT)
    # Start from a clean disk: a previous run's manifests (hundreds of MB
    # written) would otherwise still be flushing while this one measures.
    os.sync()
    spans = Spans(enabled=bool(args.trace))
    correct = True
    attempted, failed, metrics = 0, 0, {}
    try:
        metrics, attempted, failed = RUNNERS[args.workload](bins, args.seed, args.seconds, spans)
        if args.trace:
            rep_s = sum(s["end_s"] - s["start_s"] for s in spans.spans)
            os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)
            with open(os.path.join(OUT, "trace", "workload-spans.json"), "w") as f:
                json.dump({"workload": args.workload, "spans": spans.spans}, f, indent=1)
            log(f"traced {args.workload} repetition: {rep_s:.3f} s in its spans, "
                f"end-to-end values {json.dumps(metrics)}")
            metrics, more, more_failed = layers(bins, args.seed)
            attempted += more
            failed += more_failed
    except CheckFailed as e:
        log(f"perfbench: check failed: {e}")
        correct = False
    signal.alarm(0)

    kind = "per_layer" if args.trace else "end_to_end"
    if correct:
        expected = declared(kind)
        for name, unit in expected.items():
            if name not in metrics or metrics[name][1] != unit:
                log(f"perfbench: metric {name} ({unit}) missing or with another unit")
                correct = False
        for name in metrics:
            if not METRIC_NAME.match(name) or name not in expected:
                log(f"perfbench: undeclared or malformed metric {name!r}")
                correct = False
    result = {
        "correct": correct,
        "attempted": max(int(attempted), 1),
        "failed": int(failed) + (0 if correct else 1),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
