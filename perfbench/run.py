#!/usr/bin/env python3
"""Benchmark driver for wbsim: builds the perfbench child, runs one
workload in fresh child processes for a fixed time, and prints the
metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sim-private --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics: each child runs the workload
once through the commands' entry points (System.Run, Engine.Fig9,
check.Explore); wall time, CPU time and peak RSS come from the child's
rusage, set-up time from the child itself, and every metric is the median
over the children of the run, except peak_rss_mb, which is the lowest:
the collector's pacing makes the Figure 9 sweep's peak RSS bimodal (about
1.8 GB most runs, up to 3.3 GB when a collection lands at a memory peak),
and a median of three children would jump between the two modes. Extra
set-up-only children make the set-up median.

--trace 1 alternates untraced and traced children. A traced child times
each layer through exported functions and writes a CPU profile, from
which `go tool pprof` gives the pipeline stage shares. The per-layer
metrics are medians over the traced children; trace.overhead is the
ratio of median traced to median untraced wall time, CPU profile
included, and mem.peak_rss_mb
is the median peak RSS of the untraced children, both modes included.

Every child checks its outputs against perfbench/expected.json. The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are the same figures
for a reader, with the host stamp. The exit status is 1 when any job
failed or mismatched, 2 when the benchmark cannot run here.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

# Jobs one child attempts, for counting a child that died without a report.
JOBS = {"sim-private": 2, "sim-shared": 6, "fig9-sweep": 40, "modelcheck": 2}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "work_per_s": "1/s",
}

PER_LAYER = {
    "cpu.tick_s": "s",
    "cpu.tick_share": "ratio",
    "cpu.ns_per_instr": "ns",
    "cpu.fetch_share": "ratio",
    "cpu.dispatch_share": "ratio",
    "cpu.issue_share": "ratio",
    "cpu.commit_share": "ratio",
    "network.tick_s": "s",
    "network.tick_share": "ratio",
    "network.ns_per_msg": "ns",
    "network.messages": "count",
    "network.flit_hops": "count",
    "coherence.bank_tick_s": "s",
    "coherence.bank_ticks": "count",
    "coherence.pcu_tick_s": "s",
    "coherence.pcu_ticks": "count",
    "coherence.table_rows_fired": "count",
    "coherence.blocked_writes": "count",
    "coherence.uncacheable_reads": "count",
    "core.loop_s": "s",
    "core.kernel_s": "s",
    "core.stepped_cycles": "count",
    "core.skipped_cycles": "count",
    "core.newsystem_s": "s",
    "workload.build_s": "s",
    "gc.cpu_s": "s",
    "gc.cycles": "count",
    "alloc.bytes": "bytes",
    "alloc.objects": "count",
    "alloc.bytes_per_instr": "bytes",
    "runner.job_s_sum": "s",
    "runner.job_s_max": "s",
    "runner.idle_s": "s",
    "runner.cpu_util": "ratio",
    "runner.cache_hits": "count",
    "check.expand_s": "s",
    "check.liveness_s": "s",
    "check.bytes_per_state": "bytes",
    "check.states": "count",
    "check.transitions": "count",
    "check.terminals": "count",
    "check.max_depth": "count",
    "model.clone_ns": "ns",
    "model.apply_ns": "ns",
    "model.canon_fp_ns": "ns",
    "trace.overhead": "ratio",
    "mem.peak_rss_mb": "MB",
}

# Pipeline stages whose sampled share of the traced child's CPU profile
# is reported: a sample counts for a stage when the stage's function is
# anywhere on its stack.
STAGES = {
    "cpu.fetch_share": "wbsim/internal/cpu.(*Core).fetch",
    "cpu.dispatch_share": "wbsim/internal/cpu.(*Core).dispatch",
    "cpu.issue_share": "wbsim/internal/cpu.(*Core).issue",
    "cpu.commit_share": "wbsim/internal/cpu.(*Core).commit",
}

SETUP_ONLY_PER_CHILD = 2
MIN_SETUP_SAMPLES = 25
CHILD_TIMEOUT_S = 120


def go_env():
    """The go command's environment, with every cache and config file it
    writes kept inside the checkout and no toolchain or module download."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        PPROF_TMPDIR=os.path.join(BUILD, "pprof"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
    )
    return env


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        sys.exit("perfbench: %s holds no wbsim source tree (go.mod, internal/)" % ROOT)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE, env=go_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=850,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build failed")


def run_child(workload, seed, extra):
    """Runs one child to completion. Returns (report or None, wall_s,
    cpu_s, peak_rss_mb)."""
    spawn = time.time_ns()
    start = time.perf_counter()
    proc = subprocess.Popen(
        [BINARY, "-workload", workload, "-seed", str(seed), "-spawn-ns", str(spawn)] + extra,
        stdout=subprocess.PIPE, cwd=ROOT,
    )
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    report = None
    if proc.returncode == 0:
        try:
            report = json.loads(out.decode().strip().splitlines()[-1])
        except (ValueError, IndexError):
            report = None
    return report, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


class Tally:
    """Jobs attempted and failed over every child of a run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, report):
        if report is None:
            self.attempted += JOBS[self.workload]
            self.failed += JOBS[self.workload]
            self.errors.append("child exited without a report")
            return
        self.attempted += report["jobs"]
        self.failed += report["failed"]
        self.errors.extend(report.get("errors", []))


def measure(args, tally):
    """--trace 0: untraced children until --seconds is used up. Each is
    followed by set-up-only children, so the set-up median samples the
    whole run, not one moment of it."""
    rows, reports, setups, rounds = [], [], [], []

    def setup_only():
        report, _, _, _ = run_child(args.workload, args.seed, ["-setup-only"])
        if report is None:
            tally.add(None)
            return False
        setups.append(report["setup_s"])
        return True

    begin = time.perf_counter()
    while not rows or time_left(begin, args.seconds, rounds):
        start = time.perf_counter()
        report, wall, cpu, rss = run_child(args.workload, args.seed, [])
        tally.add(report)
        if report is None:
            break
        reports.append(report)
        setups.append(report["setup_s"])
        rows.append({
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": rss,
            "work_per_s": report["work"] / wall,
        })
        for _ in range(SETUP_ONLY_PER_CHILD):
            setup_only()
        rounds.append(time.perf_counter() - start)
    while len(setups) < MIN_SETUP_SAMPLES and setup_only():
        pass
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}
    if rows:
        metrics["peak_rss_mb"] = min(r["peak_rss_mb"] for r in rows)
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    return metrics, reports, len(rows), len(setups)


def measure_traced(args, tally):
    """--trace 1: untraced and traced children in turn."""
    prof_dir = os.path.join(BUILD, "profiles")
    os.makedirs(prof_dir, exist_ok=True)
    plain, plain_rss, traced, profiles, reports = [], [], [], [], []
    begin = time.perf_counter()
    rounds = []
    while not traced or time_left(begin, args.seconds, rounds):
        start = time.perf_counter()
        report, wall, _, rss = run_child(args.workload, args.seed, [])
        tally.add(report)
        if report is None:
            break
        plain.append(wall)
        plain_rss.append(rss)
        prof = os.path.join(prof_dir, "%s-%d.pprof" % (args.workload, len(profiles)))
        report, wall, _, _ = run_child(args.workload, args.seed, ["-trace", "-cpuprofile", prof])
        tally.add(report)
        if report is None:
            break
        reports.append(report)
        profiles.append(prof)
        traced.append({"wall": wall, "layers": report["layers"]})
        rounds.append(time.perf_counter() - start)
    metrics = {}
    for name in PER_LAYER:
        vals = [t["layers"][name] for t in traced if name in t["layers"]]
        metrics[name] = statistics.median(vals) if vals else 0.0
    if traced:
        metrics["trace.overhead"] = statistics.median(t["wall"] for t in traced) / statistics.median(plain)
        metrics["mem.peak_rss_mb"] = statistics.median(plain_rss)
        metrics.update(stage_shares(profiles))
    return metrics, reports, len(traced), 0


def time_left(begin, seconds, durations):
    """Whether another round of children fits in the run, judged by the
    median round so far."""
    elapsed = time.perf_counter() - begin
    return elapsed + statistics.median(durations) <= seconds


def stage_shares(profiles):
    """Sampled shares of the pipeline stages in the traced CPU profiles,
    merged, from `go tool pprof -traces`."""
    proc = subprocess.run(
        ["go", "tool", "pprof", "-traces"] + profiles,
        cwd=BUILD, env=go_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit("perfbench: go tool pprof failed")
    total = 0.0
    stage = dict.fromkeys(STAGES, 0.0)
    # Each sample block starts with its value ("10ms   frame"), followed
    # by one frame per line; blocks are separated by dashed lines.
    for block in re.split(r"\n-+\+-+\n", proc.stdout):
        lines = block.strip("\n").splitlines()
        if not lines:
            continue
        m = re.match(r"\s*([\d.]+)(ns|us|µs|ms|s)\s+(.*)$", lines[0])
        if not m:
            continue
        value = float(m.group(1)) * {"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0}[m.group(2)]
        frames = {m.group(3).strip()} | {l.strip() for l in lines[1:]}
        total += value
        for name, fn in STAGES.items():
            if fn in frames:
                stage[name] += value
    return {k: (v / total if total else 0.0) for k, v in stage.items()}


def host_stamp(reports):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    first = reports[0] if reports else {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "go_version": first.get("go_version", "unknown"),
        "gomaxprocs": first.get("gomaxprocs", 0),
        "gc_percent": first.get("gc_percent", 0),
        "commit": commit(),
        "source_sha256": source_hash(),
    }


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_hash():
    """SHA-256 over the Go sources the child is built from, so a result
    identifies its code without git."""
    h = hashlib.sha256()
    for top in ("go.mod", "wbsim.go", "internal", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if f.endswith((".go", ".mod", ".json")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(JOBS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        sys.exit("perfbench: --seed must be non-negative")

    build()
    tally = Tally(args.workload)
    if args.trace:
        metrics, reports, children, setups = measure_traced(args, tally)
        units = PER_LAYER
    else:
        metrics, reports, children, setups = measure(args, tally)
        units = END_TO_END

    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print("workload  %s  seed %d  trace %d  children %d  set-up samples %d"
          % (args.workload, args.seed, args.trace, children, setups))
    for k, v in host_stamp(reports).items():
        print("host      %-24s %s" % (k, v))
    for k in units:
        print("metric    %-30s %16.6f %s" % (k, metrics.get(k, float("nan")), units[k]))
    print("metric    %-30s %16.6f ratio (%d of %d jobs failed)" % ("error_rate", error_rate, tally.failed, tally.attempted))
    for e in tally.errors[:10]:
        print("error     %s" % e)

    correct = tally.attempted > 0 and tally.failed == 0 and set(metrics) >= set(units)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
