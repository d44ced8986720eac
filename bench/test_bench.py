"""Tests of the benchmark itself: isolation, checks and tracing.

Run from the repository root: python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys

import pytest

from run import ROOT, Measurement, Runner
from spans import Tracer
from workloads import cli, replication_jobs, tables_jobs

sys.path.insert(0, str(ROOT / "src"))
import checks  # noqa: E402  (needs the sources on the path)

# Cheap jobs that fill the two process-global memos.
WMW = cli("wmw", "critical", "--test", "wmw", "--max-size", "12")
UPPER = cli("upper", "critical", "--test", "lightcode-upper", "--max-size", "12")


@pytest.fixture
def runner(tmp_path):
    return Runner(ROOT, tmp_path)


def test_repeats_never_share_an_interpreter(runner):
    checker = checks.Checker("tables", 0, checks.load_digests())
    measurement = Measurement(runner, checker, [WMW, UPPER], traced=False)
    measurement.run(seconds=4)
    reports = measurement.samples["wmw"] + measurement.samples["upper"]
    assert len(measurement.samples["wmw"]) >= 2 and len(measurement.samples["upper"]) >= 2
    assert len({r["interpreter"] for r in reports}) == len(reports)
    for r in reports:
        assert r["memo_at_start"] == {"q_memo": 0, "johnson_upper": 0}
    assert checker.failures == []


def test_output_does_not_depend_on_the_previous_job(runner):
    first = {job.name: runner.run(job)["result"] for job in (WMW, UPPER)}
    second = {job.name: runner.run(job)["result"] for job in (UPPER, WMW)}
    assert first == second


def test_checker_counts_a_wrong_output(runner):
    job = next(j for j in tables_jobs(0) if j.name == "lightcode-upper")
    report = runner.run(job)
    checker = checks.Checker("tables", 0, checks.load_digests())
    checker.check(job, report, runner.workdir)
    assert checker.attempted == 2 and checker.failures == []
    report["result"]["stdout"] = report["result"]["stdout"].replace("\n", "\n\n", 1)
    checker.check(job, report, runner.workdir)
    assert checker.attempted == 4 and len(checker.failures) == 1
    checker.check(job, None, runner.workdir)
    assert checker.attempted == 5 and len(checker.failures) == 2


def test_oracle_catches_a_wrong_replication_output(runner):
    job = next(j for j in replication_jobs(5) if j.name == "null-parity")
    report = runner.run(job)
    checker = checks.Checker("replication-study", 5, checks.load_digests())
    checker.check(job, report, runner.workdir)
    assert checker.attempted > 2 and checker.failures == []
    lines = report["result"]["stdout"].splitlines()
    lines[1], lines[-1] = lines[-1].replace("100,", "0,"), lines[1].replace("0,", "100,")
    report["result"]["stdout"] = "\n".join(lines) + "\n"
    checker.check(job, report, runner.workdir)
    assert checker.failures == ["null-parity: histogram differs from the re-run"]


def test_traced_run_matches_untraced(runner, tmp_path):
    plain = runner.run(WMW)
    traced = runner.run(WMW, tmp_path / "spans.json")
    assert runner.output_key(WMW, traced) == runner.output_key(WMW, plain)
    agg = traced["trace"]["agg"]
    assert agg["cli.main"][0] == 1
    assert agg["wilcoxon.wmw_critical"][0] == 144
    assert traced["trace"]["counts"]["wilcoxon.q_count.calls"] > 144
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    roots = [s for s in spans if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    assert all(spans[s[3]][0] == "cli.main" for s in spans if s[0] == "wilcoxon.wmw_critical")


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.open("outer")
    tracer.open("inner")
    sum(range(10000))
    tracer.close()
    tracer.close()
    calls, total, self_time = tracer.agg["outer"]
    assert calls == 1
    assert self_time == pytest.approx(total - tracer.agg["inner"][1])
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
