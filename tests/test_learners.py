from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightcodes import learners
from lightcodes.datagen import Dataset, generate_data
from lightcodes.experiments import replicate_error_counts
from lightcodes.learners import (
    ConstantLearner,
    KnnLearner,
    Learner,
    OrderDirectionLearner,
    ParityLearner,
    RandomOrientationLearner,
    RidgeLearner,
    make_learner,
)
from lightcodes.lpocv import exact_null_distribution
from lightcodes.words import Word, iter_words
from oracles import knn_neighbor_table, ridge_elementwise_bits, ridge_retrained_difference


def gaussian_data(n, d, seed):
    return Dataset(np.random.default_rng(seed).standard_normal((n, d)))


ALL_SPECS = [
    "constant;feature=0",
    "order-direction;feature=0",
    "parity",
    "random-orientation;seed=2",
    "ridge;lambda=1",
    "knn;k=2",
]


def dataset_for(spec, n, seed):
    if spec == "parity":
        data, _ = generate_data("parity", n, max(1, n // 2), seed)
        return data
    return gaussian_data(n, 3, seed)


def test_make_learner_specs():
    assert make_learner("ridge;lambda=2.5").lam == 2.5
    assert make_learner("knn;k=5").k == 5
    assert make_learner("constant").feature == 0
    with pytest.raises(ValueError):
        make_learner("svm")
    with pytest.raises(ValueError):
        make_learner("knn;k")


def test_constant_learner_sorted_labelings():
    n = 6
    scores = np.arange(n, dtype=float)
    data = Dataset(scores[:, None])
    learner = ConstantLearner(feature=0)
    sorted_lab = Word.from_support(n, (3, 4, 5))
    reversed_lab = Word.from_support(n, (0, 1, 2))
    assert learner.error_counts(data, [sorted_lab])[0] == 0
    assert learner.error_counts(data, [reversed_lab])[0] == 9


def test_constant_learner_positional_argument_is_the_feature():
    # Feature 1 reverses feature 0, so the sorted labeling errs on every pair.
    data = Dataset(np.column_stack([np.arange(6.0), -np.arange(6.0)]))
    lab = Word.from_support(6, (3, 4, 5))
    learner = ConstantLearner(1)
    assert learner.feature == 1 and learner.name == "constant(feature=1)"
    assert learner.error_counts(data, [lab])[0] == 9
    assert ConstantLearner().error_counts(data, [lab])[0] == 0


def test_constant_learner_tie_rule():
    data = Dataset(np.zeros((4, 1)))
    learner = ConstantLearner(feature=0)
    lab = Word.from_string("1010")
    # All scores tie; each pair errs in exactly one of its orientations.
    for i in lab.support():
        for j in lab.zeros():
            a = 1 - learner.predict_first(data, lab, i, j)
            flipped = Word(lab.mask ^ (1 << i) ^ (1 << j), 4, 2)
            b = 1 - learner.predict_first(data, flipped, j, i)
            assert a + b == 1


def test_order_direction_monotone_is_constant():
    n = 6
    data = gaussian_data(n, 2, 0)
    order = np.argsort(data.features[:, 0])
    lab_sorted = Word.from_support(n, order[-3:])
    learner = OrderDirectionLearner(0)
    const = ConstantLearner(feature=0)
    # Labels aligned with the feature: direction stays positive everywhere.
    assert (
        learner.error_counts(data, [lab_sorted])[0]
        == const.error_counts(data, [lab_sorted])[0]
        == 0
    )
    lab_anti = Word.from_support(n, order[:3])
    assert learner.error_counts(data, [lab_anti])[0] == 0  # flips the sign


def test_parity_learner_two_point():
    for r in range(50):
        data, lab = generate_data("parity", 10, 5, (123, r))
        errs = int(ParityLearner().error_counts(data, [lab])[0])
        assert errs in (0, 25)


def test_parity_flip_single_coin():
    data, lab = generate_data("parity", 8, 4, 77)
    learner = ParityLearner()
    before = int(learner.error_counts(data, [lab])[0])
    flipped = Dataset(np.array(data.features))
    flipped.features[0, 1] = 1.0 - flipped.features[0, 1]
    after = int(learner.error_counts(flipped, [lab])[0])
    assert {before, after} == {0, 16}


def test_random_orientation_deterministic():
    data = gaussian_data(6, 2, 4)
    lab = Word.from_support(6, (0, 2, 4))
    a = RandomOrientationLearner(9).error_counts(data, [lab])[0]
    b = RandomOrientationLearner(9).error_counts(data, [lab])[0]
    assert a == b
    c = RandomOrientationLearner(10).error_counts(data, [lab])
    assert c.shape == (1,)


def test_random_orientation_null_is_pinned_and_near_fair_coins():
    # Pins the per-row hash: any change to its tags, key or mixer moves these bits.
    counts = exact_null_distribution(RandomOrientationLearner(5), gaussian_data(8, 3, 21), 4).counts
    assert counts == (0, 0, 0, 0, 1, 4, 13, 13, 17, 7, 6, 3, 3, 3, 0, 0, 0)
    # A uniformly random orientation gives each labeling Binomial(w(n-w), 1/2)
    # errors, variance w(n-w)/4; the band is 20% of it (WMW's is (n+1)/3 times it).
    for n, seed in ((12, 1), (14, 2), (16, 3)):
        w = n // 2
        null = exact_null_distribution(RandomOrientationLearner(seed), gaussian_data(n, 3, seed), w)
        assert abs(null.variance() - Fraction(w * (n - w), 4)) <= Fraction(w * (n - w), 20), n


def test_ridge_separated_data():
    rng = np.random.default_rng(5)
    x = np.concatenate([rng.normal(-8, 0.1, 5), rng.normal(8, 0.1, 5)])
    data = Dataset(x[:, None])
    lab = Word.from_support(10, range(5, 10))
    assert RidgeLearner(1.0).error_counts(data, [lab])[0] == 0


@pytest.mark.parametrize("lam", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_ridge_rejects_non_positive_or_non_finite_penalty(lam):
    with pytest.raises(ValueError, match="positive and finite"):
        RidgeLearner(lam)
    with pytest.raises(ValueError, match="positive and finite"):
        make_learner(f"ridge;lambda={lam}")


@pytest.mark.parametrize("cls", [ConstantLearner, OrderDirectionLearner])
def test_feature_index_is_checked(cls):
    with pytest.raises(ValueError, match="non-negative"):
        cls(feature=-1)
    data = gaussian_data(6, 3, 4)
    lab = Word.from_support(6, (0, 2, 5))
    learner = cls(feature=3)
    with pytest.raises(ValueError, match="feature 3 out of range for d=3"):
        learner.error_counts(data, [lab])
    with pytest.raises(ValueError, match="feature 3 out of range for d=3"):
        learner.predict_first(data, lab, 0, 1)
    assert cls(feature=2).error_counts(data, [lab]).shape == (1,)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 24),
    d=st.integers(1, 10),
    lam=st.sampled_from([0.1, 1.0, 10.0]),
    dups=st.integers(0, 23),
    seed=st.integers(0, 2**32 - 1),
)
def test_ridge_pair_rows_match_retrained_oracle(n, d, lam, dups, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    dups = min(dups, n - 1)
    X[rng.integers(0, n, dups)] = X[rng.integers(0, n, dups)]  # duplicate rows
    w = int(rng.integers(1, n))
    y = rng.permutation(np.arange(n) < w).astype(np.uint8)
    data, learner = Dataset(X), RidgeLearner(lam)
    lows, highs = learners._differing_pairs(y[None])
    diff = learner._pair_rows(X[None], lows, highs)[0] @ y
    lows, highs = lows[0], highs[0]
    want = np.array([ridge_retrained_difference(X, y, lam, a, b) for a, b in zip(lows, highs)])
    assert np.allclose(diff, want, rtol=0, atol=1e-9), np.abs(diff - want).max()
    # The 1-labeled member is the high one exactly when the canonical bit is 0.
    clear = np.abs(want) > 1e-9
    oracle_errors = (want > 0) == (y[highs] == 1)
    _, errors = next(learners.pair_errors(learner, X[None], y[None, None], lows[None], highs[None]))
    assert np.array_equal(errors[0, 0][clear], oracle_errors[clear])
    count = learner.error_counts(data, [y])[0]
    assert oracle_errors[clear].sum() <= count <= oracle_errors[clear].sum() + (~clear).sum()


def test_ridge_training_order_invariance():
    # Permuting rows with their labels permutes predictions coherently.
    rng = np.random.default_rng(8)
    X = rng.standard_normal((7, 2))
    lab = Word.from_support(7, (0, 3, 5))
    perm = np.array([3, 1, 6, 0, 2, 5, 4])
    Xp = X[perm]
    labp = Word.from_support(7, [int(np.where(perm == p)[0][0]) for p in lab.support()])
    learner = RidgeLearner(1.0)
    for i in lab.support():
        for j in lab.zeros():
            ip = int(np.where(perm == i)[0][0])
            jp = int(np.where(perm == j)[0][0])
            a = learner.predict_first(Dataset(X), lab, i, j)
            b = learner.predict_first(Dataset(Xp), labp, ip, jp)
            assert a == b


def test_knn_all_neighbors_tie():
    n = 6
    data = gaussian_data(n, 2, 11)
    lab = Word.from_support(n, (0, 1, 2))
    learner = KnnLearner(k=n - 2)
    # Both held-out rows see the same k = n-2 training rows: scores tie.
    for i in lab.support():
        for j in lab.zeros():
            low, high = (i, j) if i < j else (j, i)
            assert learner.pair_bit(data, learners.bit_matrix([lab], n)[0], low, high) == 0


def test_knn_separated_clusters():
    rng = np.random.default_rng(13)
    a = rng.normal(-5, 0.2, (5, 2))
    b = rng.normal(5, 0.2, (5, 2))
    data = Dataset(np.vstack([a, b]))
    lab = Word.from_support(10, range(5, 10))
    assert KnnLearner(3).error_counts(data, [lab])[0] == 0


def test_knn_too_large_k():
    data = gaussian_data(5, 2, 3)
    lab = Word.from_support(5, (0, 1))
    message = r"^k=4 too large for n=5 \(train size 3\)$"
    with pytest.raises(ValueError, match=message):
        KnnLearner(4).error_counts(data, [lab])
    # The stacked path of the replication harness raises the same error.
    with pytest.raises(ValueError, match=message):
        replicate_error_counts(KnnLearner(4), "null-gauss-10d", 5, 2, 3, 0)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_batch_equals_naive(spec):
    learner = make_learner(spec)
    for n, w in [(5, 2), (6, 3)]:
        data = dataset_for(spec, n, seed=100 + n)
        labs = list(iter_words(n, w))
        batch = learner.error_counts(data, labs)
        naive = Learner.error_counts(learner, data, labs)
        assert np.array_equal(batch, naive), spec
        # Values other than 0 and 1 are rejected, not wrapped by the uint8 cast.
        for bad in (np.array([[2] + [0] * (n - 1)]), [[0] * (n - 1) + [-1]]):
            with pytest.raises(ValueError):
                learner.error_counts(data, bad)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_constant_rows_have_no_errors_on_both_paths(spec):
    # An all-0 or all-1 row labels no pair differently, so it has no errors.
    n = 6
    learner = make_learner(spec)
    data = dataset_for(spec, n, seed=77)
    mat = np.array([[0] * n, [1] * n, [1, 0, 1, 0, 0, 1]], dtype=np.uint8)
    batch = learner.error_counts(data, mat)
    assert batch[:2].tolist() == [0, 0]
    assert np.array_equal(batch, Learner.error_counts(learner, data, mat)), spec
    for row in mat[:2]:
        assert learner.error_counts(data, row).tolist() == [0]
        assert Learner.error_counts(learner, data, row).tolist() == [0]


@pytest.mark.parametrize("n", [64, 65, 100])
def test_paths_agree_on_a_row_using_the_last_position(n):
    # Word.from_support takes numpy positions; at position 63 a numpy shift
    # would overflow the int64 mask, and no word length is capped.
    data = gaussian_data(n, 1, 64)
    row = np.zeros(n, dtype=np.uint8)
    row[[0, n - 1]] = 1
    learner = ConstantLearner()
    batch = learner.error_counts(data, row)
    assert np.array_equal(batch, Learner.error_counts(learner, data, row))
    assert Word.from_support(n, np.flatnonzero(row)).mask == 1 | 1 << n - 1


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_training_permutation_symmetry(spec):
    # Permuting the training rows with their labels, with the held-out
    # pair kept in place, leaves every prediction unchanged.
    n = 6
    learner = make_learner(spec)
    data = dataset_for(spec, n, seed=55)
    lab = Word.from_support(n, (1, 2, 4))
    for i in lab.support():
        for j in lab.zeros():
            rest = [r for r in range(n) if r not in (i, j)]
            rng = np.random.default_rng(i * 10 + j)
            shuffled = list(rng.permutation(rest))
            perm = list(range(n))
            for src, dst in zip(rest, shuffled):
                perm[dst] = src  # row src moves to position dst
            feats = data.features[perm]
            labp = Word.from_support(
                n, [pos for pos, src in enumerate(perm) if lab.bit(src)]
            )
            assert learner.predict_first(data, lab, i, j) == learner.predict_first(
                Dataset(feats), labp, i, j
            ), spec


def test_predict_first_validation():
    data = gaussian_data(4, 1, 1)
    lab = Word.from_string("1100")
    learner = ConstantLearner(feature=0)
    with pytest.raises(ValueError):
        learner.predict_first(data, lab, 2, 2)
    with pytest.raises(ValueError):
        learner.predict_first(data, lab, 0, 9)


def test_ridge_needs_training_rows():
    data = gaussian_data(2, 1, 0)
    message = r"^ridge needs n >= 3: holding out a pair of n=2 rows leaves no training rows$"
    with pytest.raises(ValueError, match=message):
        RidgeLearner(1.0).error_counts(data, [Word.from_string("10")])
    with pytest.raises(ValueError, match=message):
        replicate_error_counts(RidgeLearner(1.0), "null-gauss-1d", 2, 1, 3, 0)


def test_ridge_constant_training_targets_tie():
    # With a single 0-label every held-out pair leaves only 1-labeled training
    # rows: the fit is constant, each pair ties, and a tie errs exactly when
    # the 1-labeled row is the low one, so the count is the zero's position.
    n = 7
    data = gaussian_data(n, 3, 21)
    learner = RidgeLearner(1.0)
    labs = [Word.from_support(n, [r for r in range(n) if r != z]) for z in range(n)]
    assert learner.error_counts(data, labs).tolist() == list(range(n))
    assert Learner.error_counts(learner, data, labs).tolist() == list(range(n))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_knn_neighbor_table_matches_loop_oracle(k):
    rng = np.random.default_rng(k)
    for n in range(k + 2, 41):
        # Few distinct values: duplicate rows and tied distances throughout.
        X = rng.integers(0, 3, (n, 2)).astype(float) if n % 2 else rng.standard_normal((n, 3))
        table = KnnLearner(k)._neighbor_table(X[None])[0]
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(table[off], knn_neighbor_table(X, k)[off]), (k, n)


def random_dataset(spec, n, seed):
    """A small integer grid (ties, duplicates); for ridge, Gaussian rows or
    rows of {0,1,2}^d, d <= 3, whose scores fall at or near 0."""
    rng = np.random.default_rng(seed)
    if spec.startswith("ridge"):
        if rng.integers(2):
            return Dataset(rng.standard_normal((n, 2)))
        return Dataset(rng.integers(0, 3, (n, int(rng.integers(1, 4)))).astype(float))
    if spec == "parity":
        return Dataset(rng.integers(0, 2, (n, 2)).astype(float))
    return Dataset(rng.integers(0, 3, (n, 2)).astype(float))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kernel_error_counts_equal_per_pair_loop(draw):
    spec = draw.draw(st.sampled_from(ALL_SPECS))
    n = draw.draw(st.integers(4, 12 if spec.startswith("ridge") else 8))
    data = random_dataset(spec, n, draw.draw(st.integers(0, 2**32 - 1)))
    masks = draw.draw(st.lists(st.integers(0, 2**n - 1), min_size=1, max_size=12))
    mat = np.array([[m >> i & 1 for i in range(n)] for m in masks], dtype=np.uint8)
    learner = make_learner(spec)
    # A small block bound makes the reduction cross block boundaries.
    block = draw.draw(st.sampled_from([1, 50, 400, learners._BLOCK_ELEMENTS]))
    with mock.patch.object(learners, "_BLOCK_ELEMENTS", block):
        batch = learner.error_counts(data, mat)
    assert np.array_equal(batch, Learner.error_counts(learner, data, mat))


@pytest.mark.parametrize("seed", [8, 12, 19, 23, 31, 35])
def test_ridge_error_counts_equal_per_pair_loop_in_the_rounding_band(seed):
    # Integer-grid samples whose BLAS scores fall inside ridge's rounding band
    # on the wrong side of 0: without the band recount each seed's counts
    # differ from the per-pair loop's.
    rng = np.random.default_rng(seed)
    n = 12
    data = Dataset(rng.integers(0, 3, (n, int(rng.integers(1, 4)))).astype(float))
    mat = (rng.random((40, n)) < 0.5).astype(np.uint8)
    learner = RidgeLearner(1.0)
    assert np.array_equal(learner.error_counts(data, mat), Learner.error_counts(learner, data, mat))


@pytest.mark.parametrize("seed", range(20))
def test_ridge_kernel_equals_elementwise_sums_on_stacked_blocks(seed):
    # Integer-grid samples put many scores at or near 0, where a BLAS product
    # may round to the other sign; the kernel must still give pair_bit's bits.
    rng = np.random.default_rng(seed)
    R, L, n, d = 3, 40, int(rng.integers(8, 13)), int(rng.integers(1, 4))
    feats = rng.integers(0, 3, (R, n, d)).astype(float)
    block = (rng.random((R, L, n)) < rng.random((R, L, 1))).astype(np.uint8)
    lows, highs = (np.repeat(a[None], R, axis=0) for a in np.triu_indices(n, 1))
    learner = RidgeLearner(1.0)
    got = learner.pair_kernel(feats, lows, highs)(block)
    want = ridge_elementwise_bits(learner._pair_rows(feats, lows, highs), block)
    split = learners._at(block, lows) != learners._at(block, highs)
    assert np.array_equal(got[split], want[split])


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_exact_null_edge_sum_identity(draw):
    spec = draw.draw(st.sampled_from(ALL_SPECS))
    n = draw.draw(st.integers(4, 9))
    w = draw.draw(st.integers(1, n - 1))
    data = random_dataset(spec, n, draw.draw(st.integers(0, 2**32 - 1)))
    counts = exact_null_distribution(make_learner(spec), data, w).counts
    # Each Johnson-graph edge is an error in exactly one of its two labelings.
    assert sum(counts) == comb(n, w)
    assert 2 * sum(k * c for k, c in enumerate(counts)) == comb(n, w) * w * (n - w)


class FirstFeatureLearner(Learner):
    """A user learner that defines only pair_bit."""

    def pair_bit(self, data, labeling, low, high):
        f = data.features[:, 0]
        return int(f[low] > f[high])


def test_learner_with_only_pair_bit():
    data = gaussian_data(6, 2, 3)
    labs = list(iter_words(6, 3))
    expected = ConstantLearner(feature=0).error_counts(data, labs)
    assert np.array_equal(FirstFeatureLearner().error_counts(data, labs), expected)
