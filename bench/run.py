"""Benchmark of the ``tenalg`` CLI on seeded job mixes.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sig_paths --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

``--workload all`` runs every workload untraced and traced, each in its own
process, and prints every metric as a table.

One client runs a closed loop in this process and thread: it calls the public
entry point ``tenalg.cli.main(argv)`` for the next job only when the previous
one has returned.  The workload's jobs come in ``ROUNDS`` lists (see
``workloads.generate``); a cycle runs each list once, and the loop runs whole
cycles until ``--seconds`` have passed.  Throughput and latency percentiles are
taken per cycle and reported as the median over cycles, which keeps short
bursts of machine noise out of the result.  All inputs are generated from
``--seed`` and written to files before timing starts; every job's stdout is
checked after the loop, against references in ``verify.py`` that do not use
the code under test.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of ``layers.py``,
per cycle, plus the tracing overhead; it fails if a layer the workload should
load records no calls.

Besides the JSON result on the last line, stdout carries the sha256 digest of
the stdout of every exact-rational job, in job order, so two versions of the
program can be shown to print byte-identical exact results for one seed.
``workloads.HELD_OUT_SEED`` is kept out of tuning, for confirming claims.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import verify
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_JOBS = 100  # per cycle: p90 needs at least ten jobs beyond it
ROUNDS = 4  # job lists per cycle
SETUP_SAMPLES = 15
SUBPROCESS_CHECKS = 3  # leading jobs re-run as `python -m tenalg` subprocesses
SUBPROCESS_TIMEOUT = 60


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _cli_command(argv):
    return [sys.executable, "-m", "tenalg", *argv]


class Outcomes:
    """What every attempt of every job returned, for checking after the loop."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.stdout = [None] * len(jobs)  # stdout of each job's first clean attempt
        self.attempts = [0] * len(jobs)
        self.failed = [0] * len(jobs)
        self.problems = []

    def record(self, i, code, out, err, exc):
        self.attempts[i] += 1
        if exc is not None or code != 0 or "Traceback" in err:
            self.failed[i] += 1
            what = repr(exc) if exc is not None else f"exit {code}: {err.strip()[-200:]}"
            self.problems.append(f"job {i} {self.jobs[i].argv[:2]}: {what}")
        elif self.stdout[i] is None:
            self.stdout[i] = out
        elif out != self.stdout[i]:
            self.failed[i] += 1
            self.problems.append(f"job {i}: stdout changed between passes")


def run_pass(cli, outcomes, jobs) -> list:
    """Run each of ``jobs`` (a range of job numbers) once, in order; return their times in ns."""
    times = []
    clock = time.perf_counter_ns
    for i in jobs:
        job = outcomes.jobs[i]
        out, err = io.StringIO(), io.StringIO()
        code = exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = clock()
            try:
                code = cli.main(job.argv)
            except Exception as e:  # a traceback is a failed job, not a crash of the loop
                exc = e
            times.append(clock() - t0)
        outcomes.record(i, code, out.getvalue(), err.getvalue(), exc)
    return times


def check_outputs(outcomes) -> None:
    """Judge each job's output once; a wrong answer fails all its attempts."""
    for i, job in enumerate(outcomes.jobs):
        if outcomes.stdout[i] is None:
            continue
        try:
            verify.check(job.expect, outcomes.stdout[i])
        except verify.CheckError as exc:
            outcomes.failed[i] = outcomes.attempts[i]
            outcomes.problems.append(f"job {i} {job.argv[:2]}: wrong output: {exc}")


def check_subprocess(outcomes) -> None:
    """The first jobs must print the same bytes as a fresh `python -m tenalg`."""
    for i, job in enumerate(outcomes.jobs[:SUBPROCESS_CHECKS]):
        proc = subprocess.run(_cli_command(job.argv), capture_output=True, env=_env(), cwd=ROOT,
                              timeout=SUBPROCESS_TIMEOUT)
        if outcomes.stdout[i] is None or proc.stdout != outcomes.stdout[i].encode("utf-8"):
            outcomes.failed[i] = max(outcomes.failed[i], 1)
            outcomes.problems.append(f"job {i}: subprocess stdout differs from the in-process run")


def measure_setup() -> list:
    """Wall time of fresh `python -m tenalg dim 2 2` processes: start-up plus imports."""
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(_cli_command(["dim", "2", "2"]), capture_output=True, env=_env(), cwd=ROOT,
                              timeout=SUBPROCESS_TIMEOUT)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout != b"7\n":
            raise RuntimeError(f"`tenalg dim 2 2` failed: {proc.stderr.decode(errors='replace')[-300:]}")
        if k:  # the first start compiles bytecode
            samples.append(elapsed)
    return samples


def exact_digest(outcomes):
    h = hashlib.sha256()
    n = 0
    for job, out in zip(outcomes.jobs, outcomes.stdout):
        if job.exact:
            h.update((out or "").encode("utf-8"))
            n += 1
    return h.hexdigest(), n


def als_verified_frac(outcomes) -> float:
    """Share of ALS jobs with planted rank <= max-rank that end verified.

    Vacuously 1 on a workload without such jobs.
    """
    verified = tried = 0
    for i, job in enumerate(outcomes.jobs):
        if job.expect["kind"] == "als" and job.expect["planted"]:
            tried += 1
            out = outcomes.stdout[i]
            if out is not None and outcomes.failed[i] == 0 and json.loads(out)["status"] == "verified-upper-bound":
                verified += 1
    return verified / tried if tried else 1.0


def timed_loop(cli, outcomes, rounds, seconds):
    """Run whole cycles until ``seconds`` have passed; per cycle, return (wall s, job times ns)."""
    cycles = []
    start = time.perf_counter()
    while not cycles or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        times = [ns for jobs in rounds for ns in run_pass(cli, outcomes, jobs)]
        cycles.append((time.perf_counter() - t0, times))
    return cycles


def traced_loop(cli, outcomes, rounds, seconds, workload):
    """Run whole cycles, each pass untraced and traced; return the tracer, traced pass count and overhead."""
    tracer = layers.Tracer()
    plain_ns = traced_ns = 0
    passes = 0
    start = time.perf_counter()
    while passes % len(rounds) or time.perf_counter() - start < seconds:
        jobs = rounds[passes % len(rounds)]
        # alternate which side of the pair runs first, so warm-up and drift cancel
        if passes % 2:
            plain_ns += sum(run_pass(cli, outcomes, jobs))
        with tracer:
            traced_ns += sum(run_pass(cli, outcomes, jobs))
        if not passes % 2:
            plain_ns += sum(run_pass(cli, outcomes, jobs))
        passes += 1
    missing = tracer.missing(workload)
    if missing:
        raise RuntimeError(f"traced spans recorded no calls on {workload}: {', '.join(missing)}")
    return tracer, passes, traced_ns / plain_ns - 1.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_all(seed, seconds) -> int:
    """Every workload, untraced then traced; one line per metric."""
    ok = True
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{workload} trace={trace} correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {lines[-2]}")
            for name, m in result["metrics"].items():
                print(f"  {workload:12s} {name:45s} {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    if not (SRC / "tenalg" / "cli.py").is_file():
        print(f"error: no tenalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tenalg.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "tenalg":
        print(f"error: imported tenalg from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        setup = [] if args.trace else measure_setup()
        job_lists = workloads.generate(args.workload, args.seed, workdir, ROUNDS)
        outcomes = Outcomes([job for jobs in job_lists for job in jobs])
        if len(outcomes.jobs) < MIN_JOBS:
            raise RuntimeError(f"a cycle holds {len(outcomes.jobs)} jobs, fewer than {MIN_JOBS}")
        rounds, start = [], 0
        for jobs in job_lists:
            rounds.append(range(start, start + len(jobs)))
            start += len(jobs)
        if args.trace:
            tracer, passes, overhead = traced_loop(cli, outcomes, rounds, args.seconds, args.workload)
        else:
            cycles = timed_loop(cli, outcomes, rounds, args.seconds)
            passes = len(cycles) * ROUNDS
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_outputs(outcomes)
        check_subprocess(outcomes)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(outcomes.attempts)
    failed = sum(outcomes.failed)
    digest, n_exact = exact_digest(outcomes)
    for line in outcomes.problems[:20]:
        print(line, file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} passes={passes} jobs_per_cycle={len(outcomes.jobs)} "
          f"attempted={attempted} failed={failed}")
    print(f"exact_sha256={digest} exact_jobs={n_exact}")

    if args.trace:
        metrics = tracer.metrics(passes // ROUNDS, overhead)
    else:
        per_cycle = [(len(ns) / wall, [t / 1e6 for t in ns]) for wall, ns in cycles]
        metrics = {
            "jobs_per_s": _metric(statistics.median(rate for rate, _ in per_cycle), "1/s"),
            "job_p50_ms": _metric(statistics.median(statistics.median(ms) for _, ms in per_cycle), "ms"),
            "job_p90_ms": _metric(statistics.median(statistics.quantiles(ms, n=10)[8] for _, ms in per_cycle),
                                  "ms"),
            "success_frac": _metric(1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": _metric(rss_mb, "MB"),
            "setup_s": _metric(statistics.median(setup), "s"),
            "als_verified_frac": _metric(als_verified_frac(outcomes), "ratio"),
        }
    print(json.dumps({"correct": failed == 0 and not outcomes.problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
