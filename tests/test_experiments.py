import hashlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightcodes import datagen, experiments
from lightcodes.datagen import SCENARIOS, InputFormatError, generate_data, load_csv
from lightcodes.experiments import (
    SimulationConfig,
    critical_from_counts,
    empirical_critical_table,
    empirical_critical_value,
    merge_critical_cells,
    replicate_error_counts,
    type2_experiment,
)
from lightcodes.learners import Learner, make_learner
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


# sha256 over the features and labeling masks of DIGEST_CASES, per scenario;
# recorded before the labeling code was streamlined, so the streams are pinned.
DIGEST_CASES = [(20, 10, 0), (20, 10, 1), (13, 4, (7, 3)), (40, 31, 2024)]
SCENARIO_DIGESTS = {
    "null-gauss-1d": "966283f55af0a21790ad7ea8a89e9e7753b4560c5aeced03c9cb31553ae276ed",
    "null-gauss-10d": "8193a97ed3cc927a432b260703d6531b575ccb8e4f68db3c5df84d05f5b382aa",
    "null-mix-1d": "c847e46a9426bf693f15a339bfcd71cac8acf860e06cd321066c6f953ecac183",
    "null-mix-10d": "8b86ef05ec22673e775bd33f4692d7c33eb216d84c3a023fb0016e08b3e284b6",
    "linear-1sig": "07f06f54098a0db7569e4de0d2c46c4849bec9625a306a48a86eeb03db3e0438",
    "linear-4sig": "8c19f749e799449f9468aff3975a56371f94ba26751057a6e5247adf0f6ea669",
    "nonlinear-3mode": "79c58af408a596991e414fca73951da422f40c7da643fe6ef7dd5b2522b72836",
    "parity": "ff15e9d8df34bd8c15779c70cb0bbb93ff7265632ea12af1d09fbf5858a863f3",
}


def test_generate_data_streams_are_pinned(tmp_path):
    assert set(SCENARIO_DIGESTS) == set(SCENARIOS)
    for scenario, want in SCENARIO_DIGESTS.items():
        digest = hashlib.sha256()
        for n, w, seed in DIGEST_CASES:
            data, lab = generate_data(scenario, n, w, seed)
            digest.update(data.features.tobytes())
            digest.update(lab.mask.to_bytes(8, "little"))
        assert digest.hexdigest() == want, scenario
    # A label-free CSV draws its labeling from the same stream.
    path = tmp_path / "d.csv"
    path.write_text("a,b\n" + "".join(f"{i}.5,{i * i}\n" for i in range(9)))
    assert [load_csv(path, None, 4, s)[1].mask for s in (0, 1, (7, 3))] == [404, 278, 178]


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
    for w in (-2, 0, 4, 6):
        with pytest.raises(ValueError, match=f"need 0 < w < n, got n=4, w={w}"):
            load_csv(path, w=w, seed=4)


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


# Scenarios with at least the two columns the parity learner reads.
TWO_COLUMN_SCENARIOS = sorted(s for s in SCENARIOS if not s.endswith("1d"))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_replicate_counts_equal_the_per_pair_loop(draw):
    name = draw.draw(st.sampled_from(
        ["constant", "order-direction", "parity", "random-orientation", "ridge", "knn"]))
    n = draw.draw(st.integers(3, 9))
    w = draw.draw(st.sampled_from([1, n - 1, n // 2]))
    spec = {"knn": f"knn;k={draw.draw(st.integers(1, n - 2))}",
            "random-orientation": "random-orientation;seed=3"}.get(name, name)
    scenario = draw.draw(st.sampled_from(TWO_COLUMN_SCENARIOS if name == "parity" else SCENARIOS))
    reps, seed = draw.draw(st.integers(1, 6)), draw.draw(st.integers(0, 2**32 - 1))
    learner = make_learner(spec)
    # A small block bound makes the replications cross block boundaries.
    block = draw.draw(st.sampled_from([1, 50, 400, experiments._SAMPLE_BLOCK_ELEMENTS]))
    with mock.patch.object(experiments, "_SAMPLE_BLOCK_ELEMENTS", block):
        got = replicate_error_counts(learner, scenario, n, w, reps, seed)
        # Replication r does not depend on how many follow it.
        head = replicate_error_counts(learner, scenario, n, w, reps - 1, seed)
    samples = [generate_data(scenario, n, w, (seed, n, w, r)) for r in range(reps)]
    want = [Learner.error_counts(learner, data, [lab])[0] for data, lab in samples]
    assert got.dtype == np.int64 and got.tolist() == want, (spec, scenario, n, w)
    assert head.tolist() == want[:-1]


@pytest.mark.parametrize("label", [False, True])
def test_csv_scenario_is_read_once_per_cell(label, tmp_path):
    path = tmp_path / "d.csv"
    rows = [f"{i * 0.37 % 1:.3f},{(i * 7) % 5}" + (f",{i % 3 == 0:d}" if label else "")
            for i in range(9)]
    path.write_text("a,b" + (",label" if label else "") + "\n" + "\n".join(rows) + "\n")
    scenario, learner = f"csv:{path}", make_learner("order-direction")
    with mock.patch.object(datagen, "_read_csv", wraps=datagen._read_csv) as read:
        got = replicate_error_counts(learner, scenario, 9, 3, 12, 5)
    assert read.call_count == 1
    samples = [generate_data(scenario, 9, 3, (5, 9, 3, r)) for r in range(12)]
    want = [learner.error_counts(data, [lab])[0] for data, lab in samples]
    assert got.tolist() == want
    assert len(set(want)) == 1 if label else len(set(want)) > 1


def test_replicate_counts_check_each_block_is_finite():
    def nan_sampler(scenario, n, w):
        return lambda seed: (np.full((n, 1), np.nan), np.arange(n) < w)

    learner = make_learner("constant")
    with mock.patch.object(experiments, "_sampler", nan_sampler):
        with pytest.raises(ValueError, match="^features must be finite$"):
            replicate_error_counts(learner, "null-gauss-1d", 6, 3, 4, 0)
    with pytest.raises(ValueError, match="^features must be finite$"):
        datagen.Dataset(np.full((6, 1), np.nan))


def test_type2_experiment_basics():
    learner = make_learner("constant;feature=0")
    res = type2_experiment(learner, "linear-4sig", (12, 16), "0.05", 80, 5)
    assert set(res) == {12, 16}
    for size, frac in res.items():
        errors = replicate_error_counts(learner, "linear-4sig", size, size // 2, 80, 5)
        crit = wmw_critical("0.05", size, size // 2)
        assert frac == Fraction(int((errors > crit).sum()), 80)
    with pytest.raises(ValueError):
        type2_experiment(learner, "linear-4sig", (13,), "0.05", 10, 5)
    with pytest.raises(ValueError):
        type2_experiment(learner, "linear-4sig", (12,), "1.5", 10, 5)


def test_type2_reads_each_critical_value_after_scoring_its_size():
    events = []

    def scored(learner, scenario, n, w, reps, seed):
        events.append(("score", n))
        return np.zeros(reps, dtype=np.int64)

    def critical(alpha, n, w):
        events.append(("critical", n, w))
        return wmw_critical(alpha, n, w)

    learner = make_learner("constant;feature=0")
    with mock.patch.object(experiments, "replicate_error_counts", scored), \
            mock.patch.object(experiments, "wmw_critical", critical):
        # 1/C(4,2) >= 0.05, so size 4 has no critical value and always fails.
        res = type2_experiment(learner, "linear-4sig", (4, 12), "0.05", 4, 5)
        assert res == {4: Fraction(1), 12: Fraction(0)}
        assert events == [("score", 4), ("critical", 4, 2), ("score", 12), ("critical", 12, 6)]
        events.clear()
        # A bad level, or an odd size later in the list, is refused before any scoring.
        for sizes, alpha in [((12, 16), "2"), ((12, 16), "0"), ((12, 13), "0.05")]:
            with pytest.raises(ValueError, match="alpha must be in|must be even"):
                type2_experiment(learner, "linear-4sig", sizes, alpha, 4, 5)
        assert events == []


def test_type2_none_critical_always_fails():
    learner = make_learner("constant;feature=0")
    assert wmw_critical("0.05", 4, 2) is None
    res = type2_experiment(learner, "linear-4sig", (4,), "0.05", 15, 5)
    assert res[4] == Fraction(1)


def test_type2_experiment_scores_a_one_shot_iterable_of_sizes():
    learner = make_learner("constant")
    want = type2_experiment(learner, "linear-4sig", (12, 16), "0.05", 5, 1)
    got = type2_experiment(learner, "linear-4sig", (s for s in (12, 16)), "0.05", 5, 1)
    assert set(got) == {12, 16} and got == want


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig("constant", "null-gauss-1d", 10, 5, 0, 1)
    with pytest.raises(ValueError):
        SimulationConfig("constant", "null-gauss-1d", 10, 10, 5, 1)
