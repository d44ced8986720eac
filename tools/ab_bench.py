"""Alternating A/B pairs of the benchmark on two source trees.

Usage (from the repository root):

    python3 tools/ab_bench.py PARENT_DIR CHANGE_DIR --workload permutation-test --seed 7 --pairs 10

Each pair runs ``bench/run.py`` unmodified, once in each tree, one tree
after the other; which tree goes first alternates from pair to pair, so a
slow stretch of the machine does not fall on one side only.  ``bench/run.py``
overwrites its record on every run, so each record is copied to its own
name under ``.bench_work/ab/`` as soon as the run ends; the name holds the
series' start time to the microsecond, so a later series on the same
workload and seed keeps the earlier one's records.  At the end each
metric of the records is summarised: each side's median and quartiles, the
number of pairs in which the change did better, and whether the medians
differ by more than the parent's quartile spread.  So is each job's
``work_s``, a run's median of it read from the record's ``samples``.

Make both trees the same way, best as two ``git clone``s: a tree copied
without its ``.git`` has run ``replication-study`` 20-25% slower than a
clone of the same commit (2-core VM, cause not found), so a git checkout
paired with a tree that is not one is refused.  The summary names the
commit each tree has checked out.  Both trees' ``src`` and ``bench`` are
byte-compiled before the first pair, so neither side's children compile
from source: a tree without valid ``.pyc`` files reads slower and larger.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from datetime import datetime
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def higher_is_better(name: str, unit: str, spec: dict) -> bool:
    """A metric's direction: from BENCHMARK.json if it is listed there, else
    rates (unit 1/s) go up and times, sizes and failure shares go down."""
    for metric in spec.get("end_to_end", []):
        if metric["name"] == name:
            return metric["better"] == "higher"
    return unit == "1/s"


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(name: str, unit: str, higher: bool, parent, change) -> dict:
    """One summary row: each side's quartiles of a value per pair, the pairs
    in which the change did better, and whether the medians differ by more
    than the parent's quartile spread."""
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    return {"metric": name, "unit": unit, "better": "higher" if higher else "lower",
            "parent": p_q, "change": c_q, "won": won, "pairs": len(parent),
            "beyond_spread": abs(c_q[1] - p_q[1]) > p_q[2] - p_q[0]}


def summarize(pairs, spec: dict) -> list[dict]:
    """One row per metric of ``pairs``, a list of (parent record, change record)."""
    rows = []
    for name, metric in pairs[0][0]["metrics"].items():
        values = [[record["metrics"][name]["value"] for record in side] for side in zip(*pairs)]
        rows.append(compare(name, metric["unit"], higher_is_better(name, metric["unit"], spec),
                            *values))
    return rows


def summarize_jobs(pairs) -> list[dict]:
    """One row per job of ``pairs``: each run's median ``work_s`` of that job,
    read from the records' ``samples``; lower is better."""
    def work(record, job):
        return statistics.median(sample["work_s"] for sample in record["samples"][job])

    return [compare(job, "s", False, *([work(record, job) for record in side]
                                       for side in zip(*pairs)))
            for job in pairs[0][0].get("samples", {})]


def format_rows(rows, title: str = "metric") -> list[str]:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [f"{title:24s} {'unit':5s} {'parent median [q1, q3]':30s} "
             f"{'change median [q1, q3]':30s} {'won':>6s}  beyond parent spread"]
    for row in rows:
        lines.append(f"{row['metric']:24s} {row['unit']:5s} {side(row['parent']):30s} "
                     f"{side(row['change']):30s} {row['won']:>2d}/{row['pairs']:<3d}  "
                     f"{'yes' if row['beyond_spread'] else 'no'} ({row['better']} is better)")
    return lines


def git_head(tree: Path) -> str | None:
    """The commit a git checkout has checked out; None for a tree that is not one."""
    if not (tree / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def tree_heads(trees: dict) -> dict:
    """Each tree's ``git_head``; refuses a git checkout paired with a tree that is not one."""
    heads = {side: git_head(tree) for side, tree in trees.items()}
    if len({head is None for head in heads.values()}) > 1:
        raise SystemExit("one tree is a git checkout and the other is not: "
                         + ", ".join(f"{side} {trees[side]}" for side in trees)
                         + "; compare two git clones")
    return heads


def compile_tree(tree: Path) -> None:
    """Write ``.pyc`` files for ``tree``'s ``src`` and ``bench``; ``compileall``
    writes them even under ``PYTHONDONTWRITEBYTECODE``."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=tree,
                   check=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """Run ``bench/run.py`` in ``tree``; its record, with the run's verdict."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: bench/run.py exited {proc.returncode}\n{proc.stderr[-3000:]}")
    verdict = json.loads(proc.stdout.splitlines()[-1])
    record_path = tree / ".bench_work" / "results" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text())
    record["verdict"] = {k: verdict[k] for k in ("correct", "attempted", "failed")}
    return record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="tree of the parent commit")
    parser.add_argument("change", type=Path, help="tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    out = ROOT / ".bench_work" / "ab"
    out.mkdir(parents=True, exist_ok=True)
    trees = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    heads = tree_heads(trees)
    series = datetime.now().strftime("%Y%m%dT%H%M%S%f")
    for tree in trees.values():
        compile_tree(tree)
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        records = {}
        for side in order:
            records[side] = record = run_bench(trees[side], args.workload, args.seed, args.seconds)
            name = f"{args.workload}-seed{args.seed}-{series}-pair{i:02d}-{side}.json"
            (out / name).write_text(json.dumps(record, indent=1))
            wall = record["metrics"]["wall_s"]["value"]
            print(f"# pair {i} {side}: wall_s {wall:.4f}, correct {record['verdict']['correct']}, "
                  f"failed {record['verdict']['failed']}", flush=True)
        pairs.append((records["parent"], records["change"]))
    print(f"# {args.workload}, seed {args.seed}, {args.pairs} pairs, {args.seconds:g} s each; "
          f"records in {out.relative_to(ROOT)}, series {series}")
    for side in SIDES:
        print(f"# {side}: {trees[side]} at {heads[side] or 'no git checkout'}")
    print("\n".join(format_rows(summarize(pairs, spec))))
    print("\n".join(format_rows(summarize_jobs(pairs), "job work_s")))
    return 0 if all(r["verdict"]["correct"] for pair in pairs for r in pair) else 1


if __name__ == "__main__":
    sys.exit(main())
