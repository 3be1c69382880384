"""End-to-end and per-layer benchmark of the `waring` CLI.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload decompose|reverify|certify \
        --seed N --seconds S --trace 0|1

Each workload runs as a closed loop with one client and no think time, in this
one process and with no threads: a job is one in-process
`waring.cli.main(argv)` call with stdout captured, so it covers argument
parsing, form parsing, the library and printing without process-spawn noise.
The jobs of a workload form a *pass* (see workload.py); passes repeat until
`--seconds` have elapsed and at least MIN_PASSES passes have run.  Every
job's exit code and output are checked by oracle.py, which does not use the
package.

Times are reported at a reference machine speed.  On the shared 2-vCPU
machine this benchmark was tuned on, the speed at which one core runs Python
flips between two states about 2x apart, for seconds to minutes at a time,
with nothing else running in the VM; raw wall times of one workload then
spread by 40-50 % from run to run.  So a fixed slice of pure-Python work
(`reference_kernel`) is timed before and after every job, and each job's
wall time is scaled by REF_S / (mean of those two kernel times).  The kernel
is part of the benchmark, never of the program, so a change to the program
moves the scaled time by the same factor as the wall time; the scaled times
of one workload spread by a few percent.  The raw wall-time figures are
printed alongside, for comparison.  A job's latency is the median of its
scaled times over the passes of the run.

--trace 0 reports the end-to-end metrics:
  setup_s         median over SETUP_REPEATS set-ups (scaled like the jobs)
                  of: a fresh import of the package plus generating the job
                  inputs (the cost a process pays before its first job, minus
                  interpreter start-up)
  jobs_per_s      jobs in a pass / sum of their latencies (oracle checks
                  excluded)
  latency_p50_ms  median latency over the jobs of a pass
  latency_p80_ms  80th percentile of the same (a pass has >= MIN_JOBS jobs,
                  so >= 10 lie above it)
  peak_rss_mb     ru_maxrss of the process
and prints fail_ratio (jobs with a wrong exit code or output / attempted).

--trace 1 runs the first pass with every layer traced (tracing.py) and
reports the per-layer metrics of that pass, then alternates untraced and
traced passes until --seconds have elapsed, to report trace.jobs_per_s (of
those traced passes) and trace.overhead_ratio (traced / untraced time).
Spans are written to .bench_work/spans-<workload>-<seed>.json.

The last line of stdout is one JSON object:
  {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

from workload import WORKLOADS, jobs_for
import oracle
import tracing

SETUP_REPEATS = 7
MIN_PASSES = 3           # each job's latency is its median over these passes
MIN_JOBS = 50            # per pass, so that >= 10 lie above the 80th percentile
WORK_DIR = ".bench_work"
REF_S = 0.0022           # reference_kernel() on an unloaded core of that machine

UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "latency_p50_ms": "ms",
         "latency_p80_ms": "ms", "peak_rss_mb": "MB"}


def reference_kernel():
    """Wall time of a fixed slice of pure-Python work of the program's kind
    (Fraction arithmetic, tuple keys, dict stores)."""
    start = time.perf_counter()
    table = {}
    for i in range(500):
        q = Fraction(i % 97, 13) * Fraction(7, i % 11 + 1) + Fraction(1, 3)
        table[i % 13, q.denominator % 5] = q
    return time.perf_counter() - start


def scaled(wall_s, ref_before, ref_after):
    """Wall time scaled to the machine speed at which the kernel takes REF_S."""
    return wall_s * 2 * REF_S / (ref_before + ref_after)


def fresh_import(src):
    """Import waring.cli from `src` as if in a new process: drop every loaded
    waring module first, so module-level work and caches start over."""
    for name in [m for m in sys.modules if m == "waring" or m.startswith("waring.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("waring.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"waring was imported from {cli.__file__}, not {src}")


class Runner:
    def __init__(self, jobs):
        self.jobs = jobs
        self.passes_ms = []      # per recorded pass: [(wall ms, scaled ms)] per job
        self.attempted = 0
        self.failures = []
        self.tracer = None

    def run_job(self, index, job):
        out, err = io.StringIO(), io.StringIO()
        main = sys.modules["waring.cli"].main
        if self.tracer:
            self.tracer.job = index
        start = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(job.argv))
        except SystemExit as exc:          # argparse rejected the argv
            rc = exc.code
        except Exception:                  # a crash is a failed job, not a dead run
            rc = "traceback: " + traceback.format_exc().strip().splitlines()[-1]
        elapsed_ns = time.perf_counter_ns() - start
        text = out.getvalue()
        if self.tracer:
            self.tracer.counts["cli.output_bytes"] += len(text.encode())
            self.tracer.counts["serialize.json_bytes"] += job.json_bytes
        reason = oracle.check(job, rc, text)
        self.attempted += 1
        if reason:
            self.failures.append(f"{' '.join(job.argv)[:120]}: {reason}")
        return elapsed_ns

    def run_pass(self, record=True):
        """Run every job once; returns the summed job wall time in ns.  A
        recorded pass times the reference kernel between jobs."""
        if not record:
            return sum(self.run_job(i, job) for i, job in enumerate(self.jobs))
        refs = [reference_kernel()]
        times = []
        for i, job in enumerate(self.jobs):
            times.append(self.run_job(i, job))
            refs.append(reference_kernel())
        self.passes_ms.append([(ns / 1e6, scaled(ns / 1e6, a, b))
                               for ns, a, b in zip(times, refs, refs[1:])])
        return sum(times)


def setup(workload, seed, src, workdir):
    """SETUP_REPEATS full set-ups; returns (median scaled seconds, median
    wall seconds, jobs)."""
    walls, scaled_s = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_kernel()
        start = time.perf_counter()
        fresh_import(src)
        jobs = jobs_for(workload, seed, workdir)
        walls.append(time.perf_counter() - start)
        scaled_s.append(scaled(walls[-1], before, reference_kernel()))
    return statistics.median(scaled_s), statistics.median(walls), jobs


def p80(values):
    return statistics.quantiles(values, n=5)[3]


def latency_metrics(per_job_ms):
    return {
        "jobs_per_s": len(per_job_ms) / (sum(per_job_ms) / 1e3),
        "latency_p50_ms": statistics.median(per_job_ms),
        "latency_p80_ms": p80(per_job_ms),
    }


def end_to_end(runner, seconds):
    """Scaled and raw wall-time metrics, each job at its median over the
    passes."""
    start = time.perf_counter()
    passes = runner.passes_ms
    while time.perf_counter() - start < seconds or len(passes) < MIN_PASSES:
        runner.run_pass()
    per_job = list(zip(*passes))
    return (latency_metrics([statistics.median(s for _, s in job) for job in per_job]),
            latency_metrics([statistics.median(w for w, _ in job) for job in per_job]))


def traced_pass(runner, tracer):
    runner.tracer = tracer
    tracer.install()
    try:
        return runner.run_pass(record=False)
    finally:
        tracer.uninstall()
        runner.tracer = None


def traced(runner, seconds, spans_path):
    """First pass traced (cold caches, as after set-up): its spans and counts
    are the per-layer metrics.  Then untraced and traced passes alternate
    until `seconds` have elapsed; their ratio is the tracing overhead."""
    start = time.perf_counter()
    tracer = tracing.Tracer()
    builds = tracing.field_builds()
    traced_pass(runner, tracer)
    metrics = tracer.layer_metrics()
    metrics["cyclotomic.field_builds"] = tracing.field_builds() - builds
    counted_spans = len(tracer.spans)

    plain_ns = traced_ns = jobs = 0
    while not jobs or time.perf_counter() - start < seconds:
        plain_ns += runner.run_pass(record=False)
        traced_ns += traced_pass(runner, tracer)
        jobs += len(runner.jobs)
    metrics["trace.jobs_per_s"] = jobs / (traced_ns / 1e9)
    metrics["trace.overhead_ratio"] = traced_ns / plain_ns
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write(spans_path)
    return metrics, counted_spans


def unit_of(name):
    if name.endswith("_s") and not name.endswith("jobs_per_s"):
        return "s"
    if name.endswith("jobs_per_s"):
        return "1/s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "waring", "cli.py")):
        print(f"error: no waring sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    workdir = os.path.join(root, WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setup_s, setup_wall_s, jobs = setup(args.workload, args.seed, src, workdir)
        runner = Runner(jobs)
        if args.trace:
            spans_path = os.path.join(root, WORK_DIR,
                                      f"spans-{args.workload}-{args.seed}.json")
            metrics, nspans = traced(runner, args.seconds, spans_path)
            units = {k: unit_of(k) for k in metrics}
            samples = {k: len(jobs) for k in metrics}
            samples["trace.jobs_per_s"] = samples["trace.overhead_ratio"] = None
            print(f"# traced pass: {len(jobs)} jobs, {nspans} spans -> {spans_path}")
        else:
            metrics = {"setup_s": setup_s}
            timings, wall = end_to_end(runner, args.seconds)
            metrics.update(timings)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = UNITS
            n = f"{len(jobs)} jobs x median of {len(runner.passes_ms)} passes"
            samples = {"setup_s": SETUP_REPEATS, "jobs_per_s": n, "latency_p50_ms": n,
                       "latency_p80_ms": n, "peak_rss_mb": 1}
            print("# raw wall time, unscaled: " + ", ".join(
                f"{k} {v:.6g}" for k, v in {"setup_s": setup_wall_s, **wall}.items()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.failures)
    for reason in runner.failures[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"closed loop, 1 client")
    for name, value in metrics.items():
        count = samples.get(name)
        print(f"{name:32s} {value:14.6f} {units[name]:6s}"
              + (f" n={count}" if count else ""))
    print(f"{'fail_ratio':32s} {failed / runner.attempted:14.6f} {'ratio':6s} "
          f"n={runner.attempted}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
