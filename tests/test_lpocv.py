from fractions import Fraction
from math import comb

import numpy as np
import pytest

from lightcodes import lpocv
from lightcodes.codes import EXACT_SEARCH_LIMIT, best_construction, boundary_exact, exact_L
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
from oracles import CodeLearner


def increasing_data(n):
    scores = np.arange(n, dtype=float)
    return Dataset(scores[:, None]), ConstantLearner(feature=0)


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
    # A threshold of C(40,20) sends the null down the exact path.
    monkeypatch.setattr(lpocv, "MC_EXACT_THRESHOLD", comb(40, 20))
    learner = ConstantLearner(feature=0)
    with pytest.raises(ResourceLimitError):
        null_error_counts(learner, data, 20, 10, 0)
    with pytest.raises(ResourceLimitError):
        mc_null_pvalue(learner, data, 20, 0, 10, 0)


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
    assert np.array_equal(mat, again[:25])  # prefix-stable


def test_sample_labelings_prefix_stable_across_block_boundary():
    assert lpocv._ENUM_BLOCK_ROWS < 5000
    for seed in (11, (11, 3)):
        short = sample_labelings(9, 4, 5000, seed)
        assert np.array_equal(short, sample_labelings(9, 4, 9000, seed)[:5000])


def test_sample_labelings_never_draw_from_the_callers_own_stream():
    # SeedSequence ignores trailing zero words, so a key (*seed, 0) would
    # replay the stream a caller already drew its data from.
    base = np.zeros((50, 30), dtype=np.uint8)
    base[:, :15] = 1
    for seed in (7, (7, 1), (41, 5), (1, 2, 0)):
        drawn = sample_labelings(30, 15, 50, seed)
        assert not np.array_equal(drawn, np.random.default_rng(seed).permuted(base, axis=1))
        assert not np.array_equal(drawn[0], np.random.default_rng(seed).permutation(base[0]))


def test_sample_labelings_uniform_over_s63():
    mat = sample_labelings(6, 3, 20000, seed=19)
    counts = np.bincount(mat.astype(np.int64) @ (1 << np.arange(6)), minlength=64)
    words = [word.mask for word in iter_words(6, 3)]
    assert counts.sum() == counts[words].sum() == 20000
    sigma = (20000 * (1 / 20) * (19 / 20)) ** 0.5
    assert (np.abs(counts[words] - 1000) <= 5 * sigma).all(), counts[words]
    assert np.abs(mat.mean(axis=0) - 0.5).max() < 0.02


@pytest.mark.parametrize("n, w, count", [(5, 7, 2), (5, 0, 2), (5, 5, 2), (5, 2, -1)])
def test_sample_labelings_rejects_bad_inputs(n, w, count):
    with pytest.raises(ValueError, match="0 < w < n" if count >= 0 else "count"):
        sample_labelings(n, w, count, seed=1)


def test_sample_labelings_have_no_length_cap():
    assert sample_labelings(5, 2, 0, seed=1).shape == (0, 5)
    mat = sample_labelings(80, 40, 3, seed=1)
    assert mat.shape == (3, 80) and (mat.sum(axis=1) == 40).all()


def test_mc_null_refused_past_the_limit_before_sampling(monkeypatch):
    def never(*args):
        raise AssertionError("drew labelings")

    data = Dataset(np.zeros((40, 1)))
    learner = ConstantLearner(feature=0)
    monkeypatch.setattr(lpocv, "sample_labelings", never)
    with pytest.raises(ResourceLimitError, match="exact-null limit 1000000"):
        null_error_counts(learner, data, 20, 10**6 + 1, 0)
    monkeypatch.undo()
    monkeypatch.setattr(lpocv, "EXACT_NULL_LIMIT", 30)
    assert len(null_error_counts(learner, data, 20, 30, 0)[0]) == 30
    with pytest.raises(ResourceLimitError, match="31"):
        mc_null_pvalue(learner, data, 20, 0, 31, 0)


def test_mc_pvalue_extremes_and_exact_mode(monkeypatch):
    data, learner = increasing_data(6)
    # Exact mode reproduces the full-enumeration quantity.
    hist = exact_null_distribution(learner, data, 3)
    for obs in (0, 3, 9):
        p = mc_null_pvalue(learner, data, 3, obs, 50, seed=1)
        assert p == Fraction(hist.cumulative(obs), comb(6, 3))
    assert mc_null_pvalue(learner, data, 3, 9, 50, seed=1) == 1
    # A threshold of 0 sends every null down the Monte-Carlo path.
    monkeypatch.setattr(lpocv, "MC_EXACT_THRESHOLD", 0)
    p_mc = mc_null_pvalue(learner, data, 3, 9, 50, seed=1)
    assert p_mc == 1


def test_mc_pvalue_add_one_correction(monkeypatch):
    data, learner = increasing_data(6)
    monkeypatch.setattr(lpocv, "MC_EXACT_THRESHOLD", 0)
    p = mc_null_pvalue(learner, data, 3, -1, 37, seed=2)
    assert p == Fraction(1, 38)  # no draw can have errors <= -1


def test_mc_pvalue_validity_constant_learner(monkeypatch):
    # P(p <= alpha) <= alpha + 3 SE over fresh null samples.
    reps, M = 400, 60
    hits = {0.01: 0, 0.05: 0, 0.1: 0}
    monkeypatch.setattr(lpocv, "MC_EXACT_THRESHOLD", 0)
    for r in range(reps):
        data, lab = generate_data("null-gauss-1d", 8, 4, (41, r))
        learner = ConstantLearner(feature=0)
        obs = int(learner.error_counts(data, [lab])[0])
        p = mc_null_pvalue(learner, data, 4, obs, M, seed=(41, r))
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


def _attained_codes():
    """(L, a code of size L) for each boundary closed form with C(n,w) <= 36 and
    for ``exact_L`` within its limit."""
    for n in range(3, 10):
        for w in range(1, n):
            if comb(n, w) > 36:
                continue
            for W in range(w * (n - w) + 1):
                exact = boundary_exact(n, w, W)
                if exact is not None:
                    yield exact, best_construction(n, w, W)
                elif comb(n, w) <= EXACT_SEARCH_LIMIT:
                    yield exact_L(n, w, W, return_code=True)


def test_a_code_learner_attains_L_on_random_data():
    # The paper's equality: some learner makes at most W LPOCV errors on
    # exactly L(W,n,w) labelings.  No orientation can exceed L, since the
    # labelings of outdegree <= W always form a W-light code.
    rng = np.random.default_rng(46)
    checked = 0
    for L, code in _attained_codes():
        n, w, W = code.n, code.w, code.W
        learner = CodeLearner(code)
        data = Dataset(rng.standard_normal((n, 2)))
        assert exact_null_distribution(learner, data, w).cumulative(W) == L, (n, w, W)
        assert count_w_light(learner.orientation, W) == L, (n, w, W)
        assert orientation_of_learner(learner, data, w)[0] == learner.orientation, (n, w, W)
        checked += 1
    assert checked > 200


class PeekingLearner(Learner):
    """Reads the held-out label: breaks the label-switch constraint."""

    def pair_bit(self, data, y, low, high):
        return int(y[low])


def test_orientation_of_learner_checks_label_switch():
    data = Dataset(np.random.default_rng(44).standard_normal((5, 1)))
    with pytest.raises(AssertionError, match="label-switch"):
        orientation_of_learner(PeekingLearner(), data, 2)


def test_orientation_of_learner_refuses_before_predicting(monkeypatch):
    # J(18,9) has 48,620 vertices and 1,969,110 edges, over the edge limit.
    def never(*args):
        raise AssertionError("predicted pairs")

    monkeypatch.setattr(lpocv, "pair_errors", never)
    data = Dataset(np.zeros((18, 1)))
    with pytest.raises(ResourceLimitError, match="1969110"):
        orientation_of_learner(ConstantLearner(feature=0), data, 9)
    # J(1300,1) has 844,350 edges, within that limit, but its (edges, n)
    # position table would take 1.1 GB.
    data = Dataset(np.zeros((1300, 1)))
    with pytest.raises(ResourceLimitError, match=r"bytes of the edge table of J\(1300,1\)"):
        orientation_of_learner(ConstantLearner(feature=0), data, 1)


def test_histogram_helpers():
    hist = histogram_from_errors([0, 0, 2, 4], 5, 2)
    assert hist.counts == (2, 0, 1, 0, 1, 0, 0)
    assert hist.total() == 4
    assert hist.mean() == Fraction(6, 4)
    with pytest.raises(ValueError):
        histogram_from_errors([7], 3, 2)
    with pytest.raises(ValueError):
        EmpiricalNull(3, 2, (1, 2))
