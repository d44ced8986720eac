from fractions import Fraction
from math import comb

import numpy as np
import pytest

from lightcodes import lpocv
from lightcodes.datagen import Dataset, generate_data
from lightcodes.johnson import ResourceLimitError, count_w_light, outdegree
from lightcodes.learners import (
    ConstantLearner,
    Learner,
    OrderDirectionLearner,
    ParityLearner,
    RandomOrientationLearner,
    make_learner,
)
from lightcodes.lpocv import (
    EmpiricalNull,
    exact_null_distribution,
    histogram_from_errors,
    lpo_kernel,
    lpocv_u,
    mc_null_pvalue,
    null_error_counts,
    orientation_of_learner,
    sample_labelings,
)
from lightcodes.wilcoxon import wmw_distribution
from lightcodes.words import Word, iter_words, transpose


def increasing_data(n):
    scores = np.arange(n, dtype=float)
    return Dataset(scores[:, None]), ConstantLearner(scores=scores)


def test_kernel_examples():
    data, learner = increasing_data(4)
    sorted_lab = Word.from_string("0011")
    for i in sorted_lab.support():
        for j in sorted_lab.zeros():
            assert lpo_kernel(learner, data, sorted_lab, i, j) == 0
    reversed_lab = Word.from_string("1100")
    for i in reversed_lab.support():
        for j in reversed_lab.zeros():
            assert lpo_kernel(learner, data, reversed_lab, i, j) == 1


def test_kernel_precondition():
    data, learner = increasing_data(4)
    lab = Word.from_string("0011")
    with pytest.raises(ValueError):
        lpo_kernel(learner, data, lab, 0, 2)


def test_kernel_parity_constant_across_pairs():
    data, lab = generate_data("parity", 10, 5, 3)
    learner = ParityLearner()
    values = {
        lpo_kernel(learner, data, lab, i, j)
        for i in lab.support()
        for j in lab.zeros()
    }
    assert len(values) == 1


def test_lpocv_u():
    data, learner = increasing_data(4)
    assert lpocv_u(learner, data, Word.from_string("0011")) == (0, Fraction(0))
    assert lpocv_u(learner, data, Word.from_string("1100")) == (4, Fraction(1))


def test_exact_null_matches_wilcoxon():
    for n in range(3, 9):
        for w in range(1, n):
            data, learner = increasing_data(n)
            hist = exact_null_distribution(learner, data, w)
            assert hist.counts == wmw_distribution(n, w).counts


def test_exact_null_edge_sum():
    rng = np.random.default_rng(17)
    for spec in ["constant;feature=0", "order-direction", "ridge;lambda=1", "knn;k=2"]:
        learner = make_learner(spec)
        data = Dataset(rng.standard_normal((6, 2)))
        for w in (1, 2, 3):
            hist = exact_null_distribution(learner, data, w)
            total_err = sum(k * c for k, c in enumerate(hist.counts))
            assert total_err == comb(6, w) * w * (6 - w) // 2


def test_exact_null_limit():
    data = Dataset(np.zeros((40, 1)))
    with pytest.raises(ResourceLimitError):
        exact_null_distribution(ConstantLearner(feature=0), data, 20)


def test_forced_exact_null_limit_raises_before_enumerating(monkeypatch):
    data = Dataset(np.zeros((40, 1)))

    def enumerate_anyway(n, w):
        raise AssertionError("enumerated C(40,20) labelings")

    monkeypatch.setattr(lpocv, "_labeling_blocks", enumerate_anyway)
    learner = ConstantLearner(feature=0)
    with pytest.raises(ResourceLimitError):
        null_error_counts(learner, data, 20, 10, 0, exact=True)
    with pytest.raises(ResourceLimitError):
        mc_null_pvalue(learner, data, 20, 0, 10, 0, exact=True)


def test_order_direction_heavier_tails_than_wilcoxon():
    # The direction learner adapts to the labeling, piling mass toward the
    # extremes relative to the fixed-score null.
    rng = np.random.default_rng(23)
    data = Dataset(rng.standard_normal((12, 1)))
    hist = exact_null_distribution(OrderDirectionLearner(0), data, 6)
    wmw = wmw_distribution(12, 6)
    k = 8
    tail_learner = hist.cumulative(k)
    tail_wmw = wmw.cumulative(k)
    assert hist.total() == wmw.total()
    assert tail_learner > tail_wmw


def test_random_orientation_null_tighter_than_wilcoxon():
    data = Dataset(np.random.default_rng(29).standard_normal((10, 2)))
    hist = exact_null_distribution(RandomOrientationLearner(1), data, 5)
    assert hist.variance() < wmw_distribution(10, 5).variance()


def test_complement_identity_all_learners():
    rng = np.random.default_rng(31)
    gen = Dataset(rng.standard_normal((5, 3)))
    par, _ = generate_data("parity", 5, 2, 31)
    cases = [
        (make_learner("constant;feature=0"), gen),
        (make_learner("order-direction"), gen),
        (make_learner("random-orientation;seed=3"), gen),
        (make_learner("ridge;lambda=1"), gen),
        (make_learner("knn;k=2"), gen),
        (ParityLearner(), par),
    ]
    for learner, data in cases:
        for w in range(1, 5):
            for B in iter_words(5, w):
                for i in B.support():
                    for j in B.zeros():
                        k1 = lpo_kernel(learner, data, B, i, j)
                        k2 = lpo_kernel(learner, data, transpose(B, i, j), j, i)
                        assert k1 + k2 == 1, learner.name


def test_sample_labelings_uniform_weight_and_order_independent():
    mat = sample_labelings(9, 4, 25, seed=7)
    assert mat.shape == (25, 9)
    assert (mat.sum(axis=1) == 4).all()
    again = sample_labelings(9, 4, 50, seed=7)
    assert np.array_equal(mat, again[:25])  # per-draw streams


def test_mc_pvalue_extremes_and_exact_mode():
    data, learner = increasing_data(6)
    # Exact mode reproduces the full-enumeration quantity.
    hist = exact_null_distribution(learner, data, 3)
    for obs in (0, 3, 9):
        p = mc_null_pvalue(learner, data, 3, obs, 50, seed=1)
        assert p == Fraction(hist.cumulative(obs), comb(6, 3))
    assert mc_null_pvalue(learner, data, 3, 9, 50, seed=1) == 1
    p_mc = mc_null_pvalue(learner, data, 3, 9, 50, seed=1, exact=False)
    assert p_mc == 1


def test_mc_pvalue_add_one_correction():
    data, learner = increasing_data(6)
    p = mc_null_pvalue(learner, data, 3, -1, 37, seed=2, exact=False)
    assert p == Fraction(1, 38)  # no draw can have errors <= -1


def test_mc_pvalue_validity_constant_learner():
    # P(p <= alpha) <= alpha + 3 SE over fresh null samples.
    reps, M = 400, 60
    hits = {0.01: 0, 0.05: 0, 0.1: 0}
    for r in range(reps):
        data, lab = generate_data("null-gauss-1d", 8, 4, (41, r))
        learner = ConstantLearner(feature=0)
        obs = int(learner.error_counts(data, [lab])[0])
        p = mc_null_pvalue(learner, data, 4, obs, M, seed=(41, r), exact=False)
        for alpha in hits:
            if p <= Fraction(str(alpha)):
                hits[alpha] += 1
    for alpha, count in hits.items():
        se = (alpha * (1 - alpha) / reps) ** 0.5
        assert count / reps <= alpha + 3 * se, (alpha, count / reps)


def test_orientation_of_learner_matches_histogram():
    rng = np.random.default_rng(43)
    data = Dataset(rng.standard_normal((5, 2)))
    for spec in ["constant;feature=0", "random-orientation;seed=1", "knn;k=2"]:
        learner = make_learner(spec)
        orientation, hist = orientation_of_learner(learner, data, 2)
        assert hist.counts == exact_null_distribution(learner, data, 2).counts
        for W in range(0, 7):
            assert count_w_light(orientation, W) == hist.cumulative(W)


@pytest.mark.parametrize(
    "spec",
    ["constant;feature=0", "order-direction;feature=0", "parity",
     "random-orientation;seed=2", "ridge;lambda=1", "knn;k=2"],
)
def test_orientation_of_learner_arcs_match_per_pair_reference(spec):
    n, w = 6, 3
    if spec == "parity":
        data, _ = generate_data("parity", n, w, 45)
    else:
        data = Dataset(np.random.default_rng(45).standard_normal((n, 3)))
    learner = make_learner(spec)
    orientation, hist = orientation_of_learner(learner, data, w)
    graph = orientation.domain.parent
    for src, dst in orientation.arcs():
        a, b = graph.word(src), graph.word(dst)
        (i,) = set(a.support()) - set(b.support())
        (j,) = set(b.support()) - set(a.support())
        # The arc leaves the labeling that errs on the differing pair {i, j}.
        assert lpo_kernel(learner, data, a, i, j) == 1, (spec, src, dst)
        assert lpo_kernel(learner, data, b, j, i) == 0, (spec, src, dst)
    words = list(iter_words(n, w))
    reference = Learner.error_counts(learner, data, words).tolist()
    assert [outdegree(orientation, word) for word in words] == reference
    assert hist.counts == histogram_from_errors(reference, n, w).counts


class PeekingLearner(Learner):
    """Reads the held-out label: breaks the label-switch constraint."""

    def pair_bit(self, data, labeling, low, high):
        return labeling.bit(low)


def test_orientation_of_learner_checks_label_switch():
    data = Dataset(np.random.default_rng(44).standard_normal((5, 1)))
    with pytest.raises(AssertionError, match="label-switch"):
        orientation_of_learner(PeekingLearner(), data, 2)


def test_histogram_helpers():
    hist = histogram_from_errors([0, 0, 2, 4], 5, 2)
    assert hist.counts == (2, 0, 1, 0, 1, 0, 0)
    assert hist.total() == 4
    assert hist.mean() == Fraction(6, 4)
    with pytest.raises(ValueError):
        histogram_from_errors([7], 3, 2)
    with pytest.raises(ValueError):
        EmpiricalNull(3, 2, (1, 2))
