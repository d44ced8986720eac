from fractions import Fraction

import numpy as np
import pytest

from lightcodes.datagen import InputFormatError, generate_data, load_csv
from lightcodes.experiments import (
    SimulationConfig,
    critical_from_counts,
    empirical_critical_table,
    empirical_critical_value,
    merge_critical_cells,
    replicate_error_counts,
    type2_experiment,
)
from lightcodes.learners import make_learner
from lightcodes.wilcoxon import wmw_critical


def test_generate_data_shapes_and_determinism():
    data, lab = generate_data("null-gauss-10d", 30, 15, 5)
    assert data.features.shape == (30, 10)
    assert lab.n == 30 and lab.w == 15
    data2, lab2 = generate_data("null-gauss-10d", 30, 15, 5)
    assert np.array_equal(data.features, data2.features)
    assert lab == lab2
    data3, _ = generate_data("null-gauss-10d", 30, 15, 6)
    assert not np.array_equal(data.features, data3.features)


def test_generate_data_scenarios():
    for scenario, d in [
        ("null-gauss-1d", 1),
        ("null-mix-1d", 1),
        ("null-mix-10d", 10),
        ("linear-1sig", 10),
        ("linear-4sig", 10),
        ("nonlinear-3mode", 10),
        ("parity", 2),
    ]:
        data, lab = generate_data(scenario, 12, 6, 9)
        assert data.features.shape == (12, d)
        assert lab.w == 6
    with pytest.raises(InputFormatError):
        generate_data("nope", 10, 5, 0)


def test_linear_signal_means():
    # Class means differ by about 1.0 in each signal column.
    ones_vals, zeros_vals = [], []
    for r in range(200):
        data, lab = generate_data("linear-1sig", 20, 10, (71, r))
        ones_vals.extend(data.features[list(lab.support()), 0])
        zeros_vals.extend(data.features[list(lab.zeros()), 0])
    gap = np.mean(ones_vals) - np.mean(zeros_vals)
    assert 0.85 < gap < 1.15


def test_nonlinear_modes():
    vals = []
    for r in range(100):
        data, lab = generate_data("nonlinear-3mode", 20, 10, (72, r))
        vals.extend(data.features[list(lab.zeros()), 0])
    vals = np.asarray(vals)
    assert (vals > 2.5).any() and (vals < -1.5).any()
    near_top = np.abs(vals - 5.5) < 3
    near_bot = np.abs(vals + 4.5) < 3
    assert ((near_top | near_bot).mean()) > 0.95


def test_parity_scenario_columns():
    data, lab = generate_data("parity", 10, 4, 3)
    leak = data.features[:, 0]
    assert set(np.flatnonzero(leak == 1.0)) == set(lab.support())
    assert set(np.unique(data.features[:, 1])) <= {0.0, 1.0}


def test_load_csv(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f1,f2,label\n0.5,1.0,1\n0.1,2.0,0\n0.7,0.3,1\n")
    data, lab = load_csv(path)
    assert data.features.shape == (3, 2)
    assert lab.support() == (0, 2)
    # generate_data dispatch
    data2, lab2 = generate_data(f"csv:{path}", 3, 2, 0)
    assert np.array_equal(data.features, data2.features)
    assert lab2 == lab


def test_load_csv_without_label(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("f1\n1.0\n2.0\n3.0\n4.0\n")
    data, lab = load_csv(path, w=2, seed=4)
    assert data.features.shape == (4, 1)
    assert lab.w == 2


def test_load_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f1,label\nx,1\n")
    with pytest.raises(InputFormatError):
        load_csv(path)
    path.write_text("f1,label\n1.0,2\n")
    with pytest.raises(InputFormatError):
        load_csv(path)
    path.write_text("")
    with pytest.raises(InputFormatError):
        load_csv(path)
    with pytest.raises(InputFormatError):
        load_csv(tmp_path / "missing.csv")
    path.write_text("f1,label\n1.0,1\n2.0,0\n")
    with pytest.raises(InputFormatError):
        load_csv(path, w=2)


def test_critical_from_counts_strictness():
    # 100 reps, alpha = 0.05: cumulative must stay under 5 hits.
    errors = np.array([0] * 4 + [1] * 1 + [2] * 95)
    assert critical_from_counts(errors, 5, 2, "0.05") == 0
    errors = np.array([0] * 5 + [2] * 95)
    assert critical_from_counts(errors, 5, 2, "0.05") is None


def test_critical_from_counts_rejects_counts_above_max_errors():
    # 99 > w(n-w) = 4 errors is impossible; it must not be dropped from the
    # cumulative sums while still counting in the total.
    with pytest.raises(ValueError, match="exceeds w"):
        critical_from_counts([0, 0, 99], 4, 2, 0.9)


def test_merge_critical_cells():
    assert merge_critical_cells([3, 1, 2]) == 1
    assert merge_critical_cells([3, None]) is None
    assert merge_critical_cells([]) is None


def test_empirical_matches_wilcoxon_for_constant():
    # The constant learner's replication null is exactly Wilcoxon.
    config = SimulationConfig("constant;feature=0", "null-gauss-1d", 10, 5, 3000, 13)
    got = empirical_critical_value(config, "0.05")
    want = wmw_critical("0.05", 10, 5)
    assert got is not None and abs(got - want) <= 1


def test_empirical_table_merging():
    configs = [
        SimulationConfig("constant;feature=0", "null-gauss-1d", 8, 4, 400, 1),
        SimulationConfig("order-direction", "null-gauss-1d", 8, 4, 400, 2),
    ]
    table = empirical_critical_table(configs, "0.05")
    merged = table[(4, 4)]
    for config in configs:
        single = empirical_critical_value(config, "0.05")
        if merged is None:
            continue
        assert single is None or merged <= single


def test_empirical_table_requires_configs():
    with pytest.raises(ValueError):
        empirical_critical_table([], "0.05")


def test_replicate_counts_deterministic():
    learner = make_learner("constant;feature=0")
    a = replicate_error_counts(learner, "null-gauss-1d", 8, 4, 20, 3)
    b = replicate_error_counts(learner, "null-gauss-1d", 8, 4, 20, 3)
    assert np.array_equal(a, b)


def test_type2_experiment_basics():
    learner = make_learner("constant;feature=0")
    table = {(6, 6): wmw_critical("0.05", 12, 6), (8, 8): wmw_critical("0.05", 16, 8)}
    res = type2_experiment(learner, "linear-4sig", (12, 16), table, 80, 5)
    assert set(res) == {12, 16}
    assert all(0 <= float(v) <= 1 for v in res.values())
    with pytest.raises(ValueError):
        type2_experiment(learner, "linear-4sig", (13,), table, 10, 5)
    with pytest.raises(ValueError):
        type2_experiment(learner, "linear-4sig", (20,), table, 10, 5)


def test_type2_none_critical_always_fails():
    learner = make_learner("constant;feature=0")
    res = type2_experiment(learner, "linear-4sig", (12,), {(6, 6): None}, 15, 5)
    assert res[12] == Fraction(1)


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig("constant", "null-gauss-1d", 10, 5, 0, 1)
    with pytest.raises(ValueError):
        SimulationConfig("constant", "null-gauss-1d", 10, 10, 5, 1)
