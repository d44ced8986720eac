"""Benchmark of the lightcodes library and CLI.

Usage (from the repository root):

    python3 bench/run.py --workload tables --seed 1 --seconds 40 --trace 0

Workloads are defined in workloads.py: ``tables``, ``permutation-test`` and
``replication-study``.  The load is a closed loop from this one process: it
runs one child interpreter at a time (child.py), each job in a fresh one,
with BLAS threads capped at the number of usable cores.  Every job runs once
in order; then, until ``--seconds`` of job time is spent, the jobs that still
fit run again, fewest repeats (then longest) first.  Each job's metrics are the median of
its repeats.  Every output is checked (checks.py); a failed check or a
non-zero exit counts as a failed operation.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics named in BENCHMARK.json.  With ``--trace 1`` each job
also runs with spans installed around the library's public functions
(spans.py), and the last line holds the per-layer metrics.  Lines above it
give every metric of the workload, the run's metadata, and where the full
record was written (``.bench_work/results``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Runner:
    """Runs jobs one at a time, each in a fresh child interpreter."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.nproc = len(os.sched_getaffinity(0))
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        for var in BLAS_THREAD_VARS:
            env[var] = str(self.nproc)
        self.env = env
        workdir.mkdir(parents=True, exist_ok=True)

    def run(self, job, trace_path: Path | None = None) -> dict | None:
        """The child's report, or None when it failed or timed out."""
        for name, text in job.inputs.items():
            (self.workdir / name).write_text(text)
        spec = dict(job.spec, trace_path=str(trace_path) if trace_path else None)
        spec["spawned"] = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)],
                cwd=self.workdir, env=self.env, capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"# {job.name}: timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None
        if proc.returncode != 0:
            print(f"# {job.name}: child exited {proc.returncode}\n{proc.stderr[-3000:]}",
                  file=sys.stderr)
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def output_key(self, job, report: dict) -> str:
        """Digest of everything a job produced: result (less timings) and files."""
        result = {k: v for k, v in report["result"].items() if k != "phases"}
        files = {name: hashlib.sha256((self.workdir / name).read_bytes()).hexdigest()
                 for name in job.outputs if (self.workdir / name).exists()}
        blob = json.dumps({"result": result, "files": files}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


class Measurement:
    """One benchmark run: schedules jobs, checks every output, keeps samples."""

    def __init__(self, runner: Runner, checker, jobs, traced: bool):
        self.runner = runner
        self.checker = checker
        self.jobs = jobs
        self.traced = traced
        self.samples = {job.name: [] for job in jobs}
        self.traced_samples = {job.name: [] for job in jobs}
        self.verdicts: dict = {}
        self.job_seconds = 0.0

    def _checked(self, job, report) -> str | None:
        """Check a run once per distinct output; repeats reuse the verdict."""
        checker = self.checker
        key = None if report is None else self.runner.output_key(job, report)
        if key is None or (job.name, key) not in self.verdicts:
            attempted, failed = checker.attempted, len(checker.failures)
            checker.check(job, report, self.runner.workdir)
            verdict = (checker.attempted - attempted, checker.failures[failed:])
            if key is not None:
                self.verdicts[(job.name, key)] = verdict
        else:
            attempted, failures = self.verdicts[(job.name, key)]
            checker.attempted += attempted
            checker.failures.extend(failures)
        return key

    def _round(self, job) -> float:
        """Run a job (and its traced twin); returns the child time spent."""
        start = time.monotonic()
        report = self.runner.run(job)
        spent = time.monotonic() - start
        key = self._checked(job, report)
        if report is not None:
            self.samples[job.name].append(report)
        if self.traced:
            trace_dir = self.runner.workdir / "trace"
            trace_dir.mkdir(exist_ok=True)
            start = time.monotonic()
            traced = self.runner.run(job, trace_dir / f"{job.name}.json")
            spent += time.monotonic() - start
            traced_key = self._checked(job, traced)
            self.checker.expect(traced_key is not None and traced_key == key,
                                f"{job.name}: traced output differs from the untraced output")
            if traced is not None:
                self.traced_samples[job.name].append(traced)
        return spent

    def run(self, seconds: float) -> None:
        """Every job once in order, then repeats of the jobs that still fit."""
        cost, runs = {}, {}
        for job in self.jobs:
            cost[job.name] = self._round(job)
            runs[job.name] = 1
            self.job_seconds += cost[job.name]
        while True:
            left = seconds - self.job_seconds
            fits = [job for job in self.jobs if cost[job.name] <= left]
            if not fits:
                break
            # Long jobs first among equals: they dominate wall_s, so their
            # medians gain most from covering more of the run.
            job = min(fits, key=lambda j: (runs[j.name], -cost[j.name]))
            spent = self._round(job)
            cost[job.name] = max(cost[job.name], spent)
            runs[job.name] += 1
            self.job_seconds += spent


def _median(reports, key: str) -> float:
    return statistics.median(r[key] for r in reports)


def end_to_end_metrics(workload: str, measurement: Measurement) -> dict:
    """name -> (unit, value); every metric of the workload, untraced runs only."""
    samples = measurement.samples
    checker = measurement.checker
    metrics = {
        "setup_s": ("s", sum(_median(r, "setup_s") for r in samples.values())),
        "wall_s": ("s", sum(_median(r, "work_s") for r in samples.values())),
        "peak_rss_mb": ("MB", max(x["maxrss_kb"] for r in samples.values() for x in r) / 1024),
        "ops_failed_share": ("ratio", len(checker.failures) / max(checker.attempted, 1)),
    }
    metrics.update(WORKLOADS[workload][1](samples))
    return metrics


def per_layer_metrics(measurement: Measurement) -> dict:
    import spans

    untraced = sum(_median(r, "work_s") for r in measurement.samples.values())
    traced = sum(_median(r, "work_s") for r in measurement.traced_samples.values())
    # Per job, the traced repeat with the median work time stands for the job.
    summaries = []
    for reports in measurement.traced_samples.values():
        ordered = sorted(reports, key=lambda r: r["work_s"])
        summaries.append(ordered[(len(ordered) - 1) // 2]["trace"])
    return spans.layer_metrics(spans.merge(summaries), traced / untraced)


def metadata(runner: Runner) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git_sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        git_sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lightcodes").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": runner.nproc,
        "nproc": runner.nproc,
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lightcodes" / "__init__.py").is_file():
        print(f"error: no lightcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import checks

    jobs_of, _ = WORKLOADS[args.workload]
    runner = Runner(ROOT, ROOT / ".bench_work" / args.workload)
    # Bytecode is compiled once, untimed, so no child's set-up pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, capture_output=True)
    checker = checks.Checker(args.workload, args.seed, checks.load_digests())
    measurement = Measurement(runner, checker, jobs_of(args.seed), bool(args.trace))
    measurement.run(args.seconds)

    missing = [name for name, reports in measurement.samples.items() if not reports]
    if args.trace:
        missing += [name for name, reports in measurement.traced_samples.items() if not reports]
    if missing:
        print(f"error: jobs never completed: {', '.join(missing)}", file=sys.stderr)
        for failure in checker.failures:
            print(f"# failed: {failure}", file=sys.stderr)
        return 1

    metrics = end_to_end_metrics(args.workload, measurement)
    names = spec["end_to_end"]
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics.update({name: (units.get(name, "?"), value)
                        for name, value in per_layer_metrics(measurement).items()})
        names = spec["per_layer"]
    meta = metadata(runner)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "meta": meta,
        "metrics": {name: {"value": value, "unit": unit} for name, (unit, value) in metrics.items()},
        "runs": {name: len(reports) for name, reports in measurement.samples.items()},
        "samples": {name: [{k: r[k] for k in ("setup_s", "work_s", "maxrss_kb")} for r in reports]
                    for name, reports in measurement.samples.items()},
        "attempted": checker.attempted, "failures": checker.failures,
    }
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))

    runs = ", ".join(f"{name} x{n}" for name, n in record["runs"].items())
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: {runs}")
    for name, (unit, value) in metrics.items():
        print(f"# {name:44s} {value:14.6g} {unit}")
    for failure in checker.failures:
        print(f"# failed: {failure}")
    print(f"# meta {json.dumps(meta)}")
    print(f"# record {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": checker.attempted,
        "failed": len(checker.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][1], "unit": m["unit"]} for m in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
