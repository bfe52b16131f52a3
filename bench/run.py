"""Benchmark of reconfig: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload diameter-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout and driven in-process through ``reconfig.cli.main(argv)``
(stdout captured), or through the public functions the CLI calls where an
input is too large for a file. Set-up times the import of the program in
fresh interpreters and builds the seeded inputs; then whole rounds of the
workload's job list run until ``--seconds`` have passed. A reference loop
runs between the jobs, and every time is scaled by the machine's speed it
measured at that moment. After timing, every distinct output is checked
against ``oracle``. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; with ``--trace 1`` the metrics are the per-layer ones, and the
spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7

# The shared machine's speed drifts by 10-20% over tens of seconds, alike for
# every job. A reference loop run between the jobs tracks that drift, and each
# time is scaled to the speed at which the loop takes REFERENCE_S.
REFERENCE_S = 1.5e-3  # within the loop's median per run on the reference machine, 1.3-2.0 ms
PROBE_MIN_S = 0.005  # reference-loop time before each job or set-up, at least,
PROBE_SHARE = 0.1  # and this share of the time of the job or set-up before it
PROBE_WINDOW_S = 2.0  # loop times within this much of a job measure its speed

import spans
import workloads


def import_program():
    """Import reconfig from this checkout's src/, never an installed copy."""
    if not (SRC / "reconfig" / "cli.py").is_file():
        raise SystemExit(f"run.py: no reconfig sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import reconfig
    from reconfig import cli, constructions, graph, verify
    if Path(reconfig.__file__).resolve().parent != SRC / "reconfig":
        raise SystemExit(f"run.py: imported reconfig from {reconfig.__file__}")
    return cli, constructions, verify, graph.Graph


def import_seconds():
    """Seconds to import the program in a fresh interpreter."""
    probe = "import time; t = time.perf_counter(); import reconfig.cli; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return float(subprocess.run([sys.executable, "-c", probe], env=env, cwd=ROOT, check=True,
                                capture_output=True, text=True, timeout=120).stdout)


def reference_loop():
    """Set, dict, list and integer work of the kind the program does, made
    without the program, so that no change to the program changes it."""
    seen, groups, x = set(), {}, 0x9E3779B97F4A7C15
    for i in range(3000):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        key = x >> 52
        if key in seen:
            groups[key].append(i)
        else:
            seen.add(key)
            groups[key] = [i]
    return len(groups)


class Pace:
    """Times of the reference loop, each with the moment it started."""

    def __init__(self):
        self.at, self.took = [], []

    def probe(self, after_s):
        """Run the loop for ``after_s`` scaled by PROBE_SHARE, at least
        PROBE_MIN_S and three times; ``after_s`` is the time just measured."""
        end = time.perf_counter() + max(PROBE_MIN_S, PROBE_SHARE * after_s)
        for i in itertools.count():
            if i >= 3 and time.perf_counter() >= end:
                return
            t0 = time.perf_counter()
            reference_loop()
            self.at.append(t0)
            self.took.append(time.perf_counter() - t0)

    def scale(self, t0, t1):
        """REFERENCE_S over the median loop time within PROBE_WINDOW_S of the
        interval [t0, t1]: a time measured then, times this, is the time at
        the reference speed."""
        lo = bisect.bisect_left(self.at, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + PROBE_WINDOW_S)
        return REFERENCE_S / statistics.median(self.took[lo:hi])


def run_job(job, program):
    """(wall seconds, outcome) of one job. A CLI outcome is (exit code,
    stdout); an API outcome is the returned value."""
    cli, constructions, verify, Graph = program
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            if job.call is not None:
                outcome = job.call(constructions, verify, Graph)
            else:
                try:
                    code = cli.main(["--threads", "1", *job.argv])
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                outcome = (code, out.getvalue())
        except Exception as exc:  # a crash fails this job, not the run
            outcome = ("raised", repr(exc))
        return time.perf_counter() - t0, outcome


def set_up(workload, seed, workdir, program, pace):
    """Import the program in a fresh interpreter, build the inputs and run the
    warm-up job, SETUP_REPEATS times; returns the jobs and the median seconds
    of one set-up at the reference speed."""
    cli = program[0]
    times, last = [], 0.0
    for _ in range(SETUP_REPEATS):
        pace.probe(last)
        start = time.perf_counter()
        import_s = import_seconds()
        t0 = time.perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        jobs, warmup = workloads.build(workload, seed, workdir)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["--threads", "1", *warmup])
        if code != 0:
            raise RuntimeError(f"warm-up job {warmup} exited {code}")
        end = time.perf_counter()
        last = end - start
        times.append((start, end, import_s + end - t0))
    pace.probe(last)
    return jobs, statistics.median(s * pace.scale(t0, t1) for t0, t1, s in times)


def measure(jobs, program, seconds, pace, tracer=None):
    """Whole rounds of the job list until ``seconds`` have passed, with the
    reference loop before each job and after the last. Returns per-job wall
    times, the same at the reference speed, first outcomes, and per-job
    counts of later outcomes that differed from the first."""
    times = {job.name: [] for job in jobs}
    starts = {job.name: [] for job in jobs}
    first, drift = {}, {job.name: 0 for job in jobs}
    start, dt = time.perf_counter(), 0.0
    while not first or time.perf_counter() - start < seconds:
        for job in jobs:
            # every job starts from a collected heap, not from the garbage
            # the jobs before it left
            gc.collect()
            pace.probe(dt)
            if tracer:
                tracer.start_job(job.name)
            starts[job.name].append(time.perf_counter())
            dt, outcome = run_job(job, program)
            times[job.name].append(dt)
            if job.name not in first:
                first[job.name] = outcome
            elif outcome != first[job.name]:
                drift[job.name] += 1
    gc.collect()
    pace.probe(dt)
    paced = {name: [t * pace.scale(t0, t0 + t) for t0, t in zip(starts[name], ts)]
             for name, ts in times.items()}
    return times, paced, first, drift


def check_all(jobs, first, drift, rounds):
    """(failed executions, correct, expected values per job). A job whose
    first outcome fails its check fails in every round."""
    failed, correct, wants = 0, True, {}
    for job in jobs:
        try:
            wants[job.name] = job.expected()
            job.check(first[job.name], wants[job.name])
            bad = drift[job.name]
            if bad:
                print(f"{job.name}: output changed in {bad} later rounds", file=sys.stderr)
        except (workloads.Mismatch, KeyError, TypeError, ValueError, IndexError) as exc:
            bad = rounds
            print(f"{job.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        failed += bad
        correct = correct and (bad == 0 or job.known_fault)
    return failed, correct, wants


def end_to_end(times, setup_s, peak_rss_mb):
    """The end-to-end metrics, from job times at the reference speed. Each
    job's time is the median of its rounds: on a shared machine the fastest
    round is a rare draw that moves from run to run by several times as much
    as the median does."""
    typical = [statistics.median(t) for t in times.values()]
    return {
        "jobs_per_s": (len(typical) / sum(typical), "jobs/s"),
        "job_geomean_s": (math.exp(statistics.fmean(math.log(t) for t in typical)), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = import_program()
    # the exhaustive-search cache would turn a timed search into a JSON read
    os.environ.pop("RECONFIG_CACHE_DIR", None)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        pace = Pace()
        jobs, setup_s = set_up(args.workload, args.seed, workdir, program, pace)
        tracer = spans.Tracer() if args.trace else None
        times, paced, first, drift = measure(jobs, program, args.seconds, pace, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.unwrap()
        rounds = len(times[jobs[0].name])
        failed, correct, wants = check_all(jobs, first, drift, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        metrics = tracer.metrics(times, wants, rounds)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", args.workload, times)
    else:
        metrics = end_to_end(paced, setup_s, peak_rss_mb)
    print(f"reference loop: median {statistics.median(pace.took) * 1e3:.3f} ms"
          f" over {len(pace.took)} runs", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": rounds * len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
