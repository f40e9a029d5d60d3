"""Benchmark of the selfaffine CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
One closed loop with one client: each job is a fresh Python process
(``child.py``) that calls ``selfaffine.cli.main`` once or twice, and the next
job starts only after the previous one has exited.  Jobs repeat the same
seeded inputs, so their artifacts must match byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced jobs, prints the per-layer metrics from the traced jobs'
spans, runs the counter cross-checks, and repeats one job at the other worker
count to check that its artifacts do not change (acceptance test c11).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in this
directory for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"

#: Least number of set-up processes timed per run.  One follows each job, so
#: that they sample the same machine conditions as the jobs; one untimed
#: warm-up writes the bytecode cache first.
SETUP_REPEATS = 7

#: No job is started later than this many seconds into the run, and a job
#: still running at HARD_LIMIT_S is killed, so a run always ends in time.
LAST_START_S = 120.0
HARD_LIMIT_S = 170.0

END_TO_END = {
    "job_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    #: a c10 miss: counted as failed, but the output is not wrong
    statistical: bool = False
    digest: str = ""


def run_process(cmd: list[str], root: Path, env: dict, log: Path, deadline: float):
    """Run one child to completion; return (wall s, CPU s, peak RSS MB, exit
    code) measured for that process alone."""
    with log.open("wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=out, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, proc.returncode


class Bench:
    def __init__(self, workload, seed: int, root: Path, work: Path, deadline: float):
        self.wl = workload
        self.seed = seed
        self.root = root
        self.work = work
        self.deadline = deadline
        self.ifs = work / "system.json"
        self.env = dict(
            os.environ,
            PYTHONPATH=str(root / "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.spawned = 0
        self.reference: str | None = None

    def child(self, spec: dict, trace: Path | None = None):
        self.spawned += 1
        tag = f"p{self.spawned}"
        spec_path = self.work / f"{tag}.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)]
        if trace is not None:
            cmd.append(str(trace))
        log = self.work / f"{tag}.log"
        result = run_process(cmd, self.root, self.env, log, self.deadline)
        return result, log

    def setup(self) -> float:
        (wall, _, _, code), log = self.child({"setup": str(self.ifs)})
        if code != 0:
            raise RuntimeError(f"set-up process failed:\n{log.read_text(errors='replace')}")
        return wall

    def job(self, workers: int | None = None, trace: Path | None = None) -> Job:
        workers = workers or self.wl.workers
        job_dir = self.work / f"job{self.spawned + 1}"
        job_dir.mkdir()
        calls = self.wl.calls(str(self.ifs), job_dir, self.seed, workers, self.wl.nmax)
        (wall, cpu, rss, code), log = self.child({"calls": calls}, trace)
        job = Job(wall, cpu, rss)
        if code != 0:
            tail = log.read_text(errors="replace")[-2000:]
            job.problems.append(f"exit code {code}:\n{tail}")
        else:
            try:
                self.inspect(job, job_dir, workers)
            except (OSError, KeyError, ValueError) as exc:
                job.problems.append(f"unreadable artifacts: {exc!r}")
                job.statistical = False
        shutil.rmtree(job_dir)
        return job

    def inspect(self, job: Job, job_dir: Path, workers: int) -> None:
        """Check a finished job's artifacts and compare them with the first job's."""
        bad = self.wl.non_finite_artifacts(job_dir)
        if bad:
            job.problems.append(f"non-finite number in {', '.join(bad)}")
        else:
            job.problems = self.wl.check(job_dir, self.wl.nmax)
            job.statistical = self.wl.statistical and bool(job.problems)
        digest = hashlib.sha256()
        for artifact in self.wl.artifacts:
            digest.update((job_dir / artifact).read_bytes())
        job.digest = digest.hexdigest()
        if self.reference is None:
            self.reference = job.digest
        elif job.digest != self.reference:
            job.problems.append(f"artifacts at --workers {workers} differ from the first job's")
            job.statistical = False


def closed_loop(bench: Bench, seconds: float, run_start: float, traces: list | None,
                setups: list | None = None):
    """Start jobs back to back until ``seconds`` have passed.  With a trace
    list, jobs alternate untraced and traced, and each traced job's per-layer
    metrics, counters per call and untraced names are appended to it.  With a
    set-up list, a timed set-up process follows each job.
    Returns (untraced jobs, traced jobs)."""
    plain, traced = [], []
    loop_start = time.perf_counter()
    while True:
        now = time.perf_counter()
        enough = plain and (traces is None or traced)
        if enough and (now - loop_start >= seconds or now - run_start >= LAST_START_S):
            break
        if traces is not None and len(traced) < len(plain):
            path = bench.work / f"trace{len(traced)}.json"
            job = bench.job(trace=path)
            traced.append(job)
            if not job.problems or job.statistical:
                trace = json.loads(path.read_text(encoding="utf-8"))
                traces.append((*layers.job_metrics(trace), trace["missing"]))
            path.unlink(missing_ok=True)
        else:
            plain.append(bench.job())
        if setups is not None:
            setups.append(bench.setup())
    return plain, traced


def count_failures(jobs: list[Job]) -> tuple[int, bool]:
    """(failed jobs, correct): a statistical miss fails the job but leaves
    the output correct."""
    failed = sum(1 for j in jobs if j.problems)
    correct = all(j.statistical for j in jobs if j.problems)
    for j in jobs:
        for problem in j.problems:
            print(f"job failed: {problem}", file=sys.stderr)
    return failed, correct


def end_to_end(bench: Bench, seconds: float, run_start: float) -> dict:
    bench.setup()
    setup: list[float] = []
    jobs, _ = closed_loop(bench, seconds, run_start, None, setup)
    while len(setup) < SETUP_REPEATS:
        setup.append(bench.setup())
    failed, correct = count_failures(jobs)
    values = {
        "job_s": statistics.median(j.wall_s for j in jobs),
        "cpu_s": statistics.median(j.cpu_s for j in jobs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(j.rss_mb for j in jobs),
        "ok_frac": 1.0 - failed / len(jobs),
    }
    print(f"jobs = {len(jobs)} (job_s, cpu_s: medians; setup_s: median of {len(setup)})")
    print("job wall s: " + " ".join(f"{j.wall_s:.3f}" for j in jobs))
    print("set-up s: " + " ".join(f"{s:.3f}" for s in setup))
    print(f"fail_frac = {failed / len(jobs)!r} ratio ({failed} of {len(jobs)} jobs failed)")
    return {
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }


def cross_checks(wl, per_call: list[dict]) -> list[str]:
    """The workload's exact counts per ``cli.main`` call, in every traced job."""
    return [
        f"call {call}: {name} = {calls.get(call, {}).get(name, 0)}, expected {want}"
        for calls in per_call
        for call, name, want in wl.call_counts
        if calls.get(call, {}).get(name, 0) != want
    ]


def traced_run(bench: Bench, seconds: float, run_start: float) -> dict:
    traces: list[tuple] = []
    plain, traced = closed_loop(bench, seconds, run_start, traces)
    other = 1 if bench.wl.workers > 1 else 2
    pair = bench.job(workers=other)
    jobs = plain + traced + [pair]
    failed, correct = count_failures(jobs)

    problems = []
    per_job = [(metrics, calls) for metrics, calls, _ in traces]
    missing = sorted({name for *_, names in traces for name in names})
    if missing:
        print(f"not traced (absent from the library): {', '.join(missing)}", file=sys.stderr)
    if not per_job:
        problems.append("no traced job succeeded")
    for name in layers.COUNTS:
        if len({m[name] for m, _ in per_job}) > 1:
            problems.append(f"{name} differs between traced jobs")
    problems += cross_checks(bench.wl, [calls for _, calls in per_job])
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    values = {
        name: statistics.median(m[name] for m, _ in per_job) for name in layers.METRICS
        if per_job and name in per_job[0][0]
    }
    plain_s = statistics.median(j.wall_s for j in plain)
    by_workers = {bench.wl.workers: plain_s, other: pair.wall_s}
    values["pressure.pool_speedup"] = by_workers[1] / by_workers[2]
    values["trace.overhead_frac"] = statistics.median(j.wall_s for j in traced) / plain_s - 1.0
    print(f"jobs = {len(plain)} untraced, {len(traced)} traced, 1 at --workers {other}")
    return {
        "correct": correct and not problems,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, (unit, _) in layers.METRICS.items()
        },
    }


def machine() -> str:
    import numpy

    return (
        f"machine: {os.cpu_count()} cores, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, {platform.machine()}"
    )


def main(argv=None) -> int:
    run_start = time.perf_counter()
    # Turn SIGTERM into SystemExit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "selfaffine" / "__init__.py").is_file():
        print(f"error: {root} is not a selfaffine checkout (no src/selfaffine); "
              "run from the repository root", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(machine(), file=sys.stderr)

    wl = workloads.WORKLOADS[args.workload]
    work = root / WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(wl, args.seed, root, work, time.monotonic() + HARD_LIMIT_S)
        wl.write_fixture(bench.ifs, args.seed)
        if args.trace:
            result = traced_run(bench, args.seconds, run_start)
        else:
            result = end_to_end(bench, args.seconds, run_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
