"""Each input decision lives in one function: the (n, w) domain, W >= 0, size refusals."""

import re
import tracemalloc
from math import comb
from pathlib import Path

import numpy as np
import pytest

from lightcodes import bounds, codes, datagen, experiments, johnson, learners, lpocv, wilcoxon, words

SRC = Path(__file__).resolve().parents[1] / "src" / "lightcodes"

ONE_RAISE_EACH = {
    "size refusal": r"raise ResourceLimitError\b",
    "(n, w) domain": r"raise \w+\(f\"need 0 < w < n",
    "W >= 0": r"raise ValueError\(\"[^\"]*W must be nonnegative",
    "seed words": r"raise TypeError\(\"seed must be integer\"\)",
}


@pytest.mark.parametrize("what", sorted(ONE_RAISE_EACH))
def test_each_decision_is_raised_from_one_place(what):
    pattern = re.compile(ONE_RAISE_EACH[what])
    sites = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert len(sites) == 1, sites


# Callers that used to write the (n, w) check out themselves; n, w -> call.
DOMAIN_CALLERS = {
    "codes.boundary_exact": lambda n, w: codes.boundary_exact(n, w, 1),
    "codes.johnson_upper": lambda n, w: codes.johnson_upper(n, w, 1),
    "codes.exact_L": lambda n, w: codes.exact_L(n, w, 1),
    "bounds.gs_lower": lambda n, w: bounds.gs_lower(n, w, 1),
    "wilcoxon._cumulative_counts": lambda n, w: wilcoxon._cumulative_counts(n, w, 3),
    "wilcoxon.q_count": lambda n, w: wilcoxon.q_count(3, n, w),
    "datagen._random_labelings": lambda n, w: datagen._random_labelings(
        [np.random.default_rng(0)], n, w
    ),
    "experiments.SimulationConfig": lambda n, w: experiments.SimulationConfig(
        "constant", "null-gauss-1d", n, w, 10, 0
    ),
}


@pytest.mark.parametrize("caller", sorted(DOMAIN_CALLERS))
@pytest.mark.parametrize("w", [0, 5])
def test_domain_refused_at_both_ends(caller, w):
    with pytest.raises(ValueError, match=f"need 0 < w < n, got n=5, w={w}"):
        DOMAIN_CALLERS[caller](5, w)


# Callers that used to write the W >= 0 check out themselves; W -> call.
W_CALLERS = {
    "codes.boundary_exact": lambda W: codes.boundary_exact(5, 2, W),
    "codes.johnson_upper": lambda W: codes.johnson_upper(5, 2, W),
    "codes.exact_L": lambda W: codes.exact_L(5, 2, W),
    "bounds.gs_lower": lambda W: bounds.gs_lower(5, 2, W),
    "bounds.assemble_table": lambda W: bounds.assemble_table([5], [2], [0, W]),
    "johnson.orientation_feasible": lambda W: johnson.orientation_feasible(
        johnson.JohnsonGraph(4, 2).full_subgraph(), W
    ),
}


@pytest.mark.parametrize("caller", sorted(W_CALLERS))
def test_negative_W_refused(caller):
    with pytest.raises(ValueError, match="must be nonnegative"):
        W_CALLERS[caller](-1)


def test_domain_callers_have_no_word_length_cap():
    assert codes.johnson_upper(80, 40, 0) >= 1
    assert bounds.gs_lower(80, 40, 0) == -(comb(80, 40) // -80)
    assert wilcoxon.q_count(2, 80, 40) == 4
    first = words.Word((1 << 50) - 1, 100, 50)
    assert next(words.iter_words(100, 50)) == first
    for r in (0, comb(100, 50) // 3, comb(100, 50) - 1):
        assert words.rank(words.unrank(100, 50, r)) == r
    assert words.unrank(100, 50, comb(100, 50) - 1).mask == first.mask << 50
    assert johnson.JohnsonGraph(100, 2).num_edges == comb(100, 2) * 2 * 98 // 2
    data = datagen.Dataset(np.random.default_rng(0).standard_normal((100, 1)))
    null = lpocv.exact_null_distribution(learners.ConstantLearner(), data, 1)
    assert null == wilcoxon.wmw_distribution(100, 1)


# Arrays that grow faster than n*d, each just past the byte budget; every
# input here takes a few MB at most.
BYTE_REFUSALS = {
    "one row's pairs": lambda: learners._split_pairs((np.arange(16400) < 8200)[None]),
    "several rows' pairs": lambda: learners._differing_pairs(np.zeros((2, 11600), np.uint8)),
    "order-direction signs": lambda: learners.OrderDirectionLearner().pair_kernel(
        np.zeros((1, 11600, 1)), np.zeros((1, 1), int), np.ones((1, 1), int)
    ),
    "ridge hat matrix": lambda: learners.RidgeLearner().pair_kernel(
        np.zeros((1, 11600, 1)), np.zeros((1, 1), int), np.ones((1, 1), int)
    ),
    # Refused by ridge's footprint before the 538 MB of one labeling's pairs.
    "ridge replicates": lambda: experiments.replicate_error_counts(
        learners.RidgeLearner(), "null-gauss-1d", 11600, 5800, 1, 0
    ),
    "knn neighbor table": lambda: learners.KnnLearner(3).pair_kernel(
        np.zeros((1, 5800, 10)), np.zeros((1, 1), int), np.ones((1, 1), int)
    ),
    "sampled labelings": lambda: lpocv.sample_labelings(1100, 1, 10**6, 0),
    "exact-null labeling blocks": lambda: lpocv.exact_null_distribution(
        learners.ConstantLearner(), datagen.Dataset(np.zeros((300000, 1))), 1
    ),
}


@pytest.mark.parametrize("what", sorted(BYTE_REFUSALS))
def test_sizes_refused_by_bytes_before_allocating(what):
    tracemalloc.start()
    try:
        with pytest.raises(johnson.ResourceLimitError, match="exceeds the memory limit 1073741824"):
            BYTE_REFUSALS[what]()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 25


def test_refuse_over_names_amount_and_limit():
    johnson.refuse_over("C(5,2)", 10, 10, "test")
    with pytest.raises(johnson.ResourceLimitError) as got:
        johnson.refuse_over("C(5,2)", 10, 9, "test")
    assert str(got.value) == "C(5,2) = 10 exceeds the test limit 9"
