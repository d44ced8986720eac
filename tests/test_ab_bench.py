import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def record(wall, rate, rss=39.0):
    return {"metrics": {
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
        "mc_pvalues_per_s": {"value": rate, "unit": "1/s"},
    }}


def test_summary_counts_wins_by_each_metrics_direction():
    pairs = [(record(0.35, 440), record(0.28, 700)),
             (record(0.32, 450), record(0.26, 690)),
             (record(0.38, 430), record(0.40, 420, rss=38.0)),
             (record(0.34, 445), record(0.30, 710))]
    rows = {row["metric"]: row for row in ab_bench.summarize(pairs, SPEC)}
    assert list(rows) == ["wall_s", "peak_rss_mb", "mc_pvalues_per_s"]
    wall, rss, rate = rows["wall_s"], rows["peak_rss_mb"], rows["mc_pvalues_per_s"]
    assert (wall["better"], wall["won"], wall["pairs"]) == ("lower", 3, 4)
    assert (rate["better"], rate["won"]) == ("higher", 3)
    # Equal values are no win.
    assert rss["won"] == 1
    assert wall["parent"] == pytest.approx((0.335, 0.345, 0.3575))
    assert wall["change"][1] == pytest.approx(0.29)
    assert wall["beyond_spread"] and rate["beyond_spread"] and not rss["beyond_spread"]
    lines = ab_bench.format_rows(ab_bench.summarize(pairs, SPEC))
    assert len(lines) == 4 and lines[1].startswith("wall_s") and " 3/4 " in lines[1]


def test_quartiles_of_one_run_are_that_run():
    assert ab_bench.quartiles([0.5]) == (0.5, 0.5, 0.5)
    assert ab_bench.quartiles([1.0, 2.0, 3.0]) == (1.5, 2.0, 2.5)


def git_clone_of_one_commit(path):
    """A git checkout at ``path`` with one commit; returns that commit."""
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=path, check=True, capture_output=True,
                              text=True).stdout.strip()
    path.mkdir()
    git("init", "-q")
    (path / "file.txt").write_text("x\n")
    git("add", "file.txt")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "one")
    return git("rev-parse", "HEAD")


def test_a_git_checkout_is_not_paired_with_a_copied_tree(tmp_path, monkeypatch):
    head = git_clone_of_one_commit(tmp_path / "clone")
    copy = tmp_path / "copy"
    copy.mkdir()
    assert ab_bench.git_head(tmp_path / "clone") == head and ab_bench.git_head(copy) is None

    def never(*args):
        raise AssertionError("ran the benchmark")

    monkeypatch.setattr(ab_bench, "run_bench", never)
    for parent, change in ((tmp_path / "clone", copy), (copy, tmp_path / "clone")):
        with pytest.raises(SystemExit, match="one tree is a git checkout and the other is not"):
            ab_bench.main([str(parent), str(change), "--workload", "tables", "--seed", "7",
                           "--pairs", "1"])


def test_summary_names_each_trees_commit(tmp_path, monkeypatch, capsys):
    heads = [git_clone_of_one_commit(tmp_path / side) for side in ab_bench.SIDES]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(ab_bench, "ROOT", tmp_path)
    calls = []

    def run_bench(tree, *args):
        calls.append(("run", tree.name))
        return {**record(0.3, 500), "verdict": {"correct": True, "attempted": 1, "failed": 0}}

    monkeypatch.setattr(ab_bench, "compile_tree", lambda tree: calls.append(("compile", tree.name)))
    monkeypatch.setattr(ab_bench, "run_bench", run_bench)
    assert ab_bench.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--workload",
                          "tables", "--seed", "7", "--pairs", "2"]) == 0
    # Each tree is compiled once, before the first pair.
    assert calls == [("compile", "parent"), ("compile", "change"), ("run", "parent"),
                     ("run", "change"), ("run", "change"), ("run", "parent")]
    out = capsys.readouterr().out
    for side, head in zip(ab_bench.SIDES, heads):
        assert f"# {side}: {tmp_path / side} at {head}\n" in out


def test_a_second_series_keeps_the_first_series_records(tmp_path, monkeypatch, capsys):
    for side in ab_bench.SIDES:
        git_clone_of_one_commit(tmp_path / side)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    monkeypatch.setattr(ab_bench, "ROOT", tmp_path)
    monkeypatch.setattr(ab_bench, "compile_tree", lambda tree: None)
    walls = iter(range(1, 9))
    monkeypatch.setattr(ab_bench, "run_bench", lambda *args: {
        **record(next(walls) / 10, 500), "verdict": {"correct": True, "attempted": 1, "failed": 0}})
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "tables",
            "--seed", "7", "--pairs", "2"]
    assert ab_bench.main(argv) == 0 and ab_bench.main(argv) == 0
    records = sorted((tmp_path / ".bench_work" / "ab").iterdir())
    assert len(records) == 8
    series = sorted({path.name.split("-")[2] for path in records})
    assert len(series) == 2
    assert all(path.name.startswith("tables-seed7-") for path in records)
    stored = {json.loads(path.read_text())["metrics"]["wall_s"]["value"] for path in records}
    assert stored == {k / 10 for k in range(1, 9)}
    out = capsys.readouterr().out
    assert all(f"records in .bench_work/ab, series {s}\n" in out for s in series)


def test_compile_tree_writes_bytecode_even_when_told_not_to(tmp_path, monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    for module in ("src/pkg/mod.py", "bench/run.py", "tests/test_x.py"):
        (tmp_path / module).parent.mkdir(parents=True)
        (tmp_path / module).write_text("X = 1\n")
    ab_bench.compile_tree(tmp_path)
    assert [p.parent.parent.name for p in sorted(tmp_path.rglob("*.pyc"))] == ["bench", "pkg"]
