import importlib.util
import json
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
