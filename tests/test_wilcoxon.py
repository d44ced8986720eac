import hashlib
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lightcodes.johnson import BYTES_LIMIT, ResourceLimitError
from lightcodes.lpocv import EmpiricalNull
from lightcodes.wilcoxon import (
    NullDistribution,
    _cumulative_counts,
    critical_value,
    q_count,
    wmw_critical,
    wmw_critical_grid,
    wmw_distribution,
    wmw_pvalue,
)
from lightcodes.words import iter_words


def brute_counts(n: int, w: int) -> list[int]:
    """Histogram of discordant-pair counts against an increasing score.

    For strictly increasing scores the pair (1-labeled i, 0-labeled j) is
    discordant exactly when j > i; direct enumeration over S(n,w).
    """
    counts = [0] * (w * (n - w) + 1)
    for word in iter_words(n, w):
        errs = sum(1 for i in word.support() for j in word.zeros() if j > i)
        counts[errs] += 1
    return counts


def test_q_base_cases():
    assert q_count(1, 5, 1) == 2
    assert q_count(8, 4, 2) == 6
    assert q_count(-1, 6, 3) == 0
    for n in range(2, 10):
        for w in range(1, n):
            assert q_count(0, n, w) == 1


def test_q_invalid():
    with pytest.raises(ValueError):
        q_count(0, 4, 0)
    with pytest.raises(ValueError):
        q_count(0, 4, 4)


def test_distribution_small():
    assert wmw_distribution(4, 2).counts == (1, 1, 2, 1, 1)
    assert wmw_distribution(2, 1).counts == (1, 1)


def test_distribution_matches_enumeration():
    for n in range(2, 9):
        for w in range(1, n):
            assert list(wmw_distribution(n, w).counts) == brute_counts(n, w)


def test_distribution_sum_and_symmetry():
    for n in (10, 20, 30, 40):
        for w in (1, 2, n // 3, n // 2):
            dist = wmw_distribution(n, w)
            assert dist.total() == comb(n, w)
            m = dist.max_errors
            assert all(dist.counts[k] == dist.counts[m - k] for k in range(m + 1))


def test_complement_identity():
    for n in (6, 9, 13):
        for w in range(1, n):
            for W in (0, 1, n, w * (n - w) // 2):
                assert q_count(W, n, w) == q_count(W, n, n - w)


def test_big_instance_exact():
    # C(70,35) > 2^64; counts must stay exact integers.
    total = comb(70, 35)
    assert total > 2**64
    assert q_count(35 * 35, 70, 35) == total
    mid = q_count(35 * 35 // 2, 70, 35)
    assert 0 < mid < total
    # Symmetry of the cumulative at the midpoint minus one step.
    top = 35 * 35
    assert q_count(top // 2 - 1, 70, 35) + q_count(top - top // 2, 70, 35) == total


def test_pvalues():
    assert wmw_pvalue(0, 4, 2) == Fraction(1, 6)
    assert wmw_pvalue(8, 4, 2) == 1
    prev = Fraction(0)
    for e in range(0, 17):
        p = wmw_pvalue(e, 8, 4)
        assert p >= prev
        prev = p


def test_critical_examples():
    assert wmw_critical(0.05, 4, 2) is None
    crit = wmw_critical(0.05, 30, 15)
    total = comb(30, 15)
    assert Fraction(q_count(crit, 30, 15), total) < Fraction(1, 20)
    assert Fraction(q_count(crit + 1, 30, 15), total) >= Fraction(1, 20)


def test_critical_brute_force():
    # Oracle: largest W whose cumulative enumeration count is < alpha * C(n,w).
    for n, w in [(10, 5), (8, 3), (7, 2)]:
        counts = brute_counts(n, w)
        total = comb(n, w)
        best = None
        cum = 0
        for W, c in enumerate(counts):
            cum += c
            if Fraction(cum, total) < Fraction(1, 20):
                best = W
        assert wmw_critical(0.05, n, w) == best


def test_critical_median_bound():
    for n, w in [(10, 5), (12, 4)]:
        crit = wmw_critical(0.5, n, w)
        assert crit is not None and crit < w * (n - w) / 2


def test_critical_strictness_uses_decimal_alpha():
    # At alpha = 1/6 exactly, the (4,2) cumulative 1/6 must NOT pass (strict).
    assert wmw_critical(Fraction(1, 6), 4, 2) is None
    assert wmw_critical("0.2", 4, 2) == 0


def test_distribution_unimodal_to_middle():
    counts = wmw_distribution(30, 15).counts
    mid = len(counts) // 2
    for k in range(mid):
        assert counts[k] <= counts[k + 1]


def test_nulldistribution_helpers():
    d = wmw_distribution(4, 2)
    assert d.cumulative(-1) == 0
    assert d.cumulative(0) == 1
    assert d.cumulative(100) == 6
    assert d.mean() == Fraction(2)
    assert isinstance(d, NullDistribution)
    assert EmpiricalNull is NullDistribution


def _sha256_lines(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update((line + "\n").encode())
    return h.hexdigest()


SIZES_TO_40 = [(n, w) for n in range(2, 41) for w in range(1, n)]

# Recorded from the memoized four-case recursion that preceded the
# Gaussian-binomial series, over every 1 <= w < n <= 40.
PINNED_COUNTS = "f1de17bce3e04389284fcca436b466300fe4ae999861c822c9cd703b8943d80a"
PINNED_CRITICALS = {
    "0.05": "abc0d7418dd39081688a424524ab7810b6584dd5a81a4a77b6ad75b09b3c3f89",
    "0.01": "efbd722bbc73107de642d483021fce93ad47b82a0dd49063ae58e59d0b0a8c9c",
    "1/3": "557cf7cefe3c17d79e1c08a08e47652d1e376e45ba7051f9e4c27a9152de3190",
    "0.5": "8be32b7ba97d783ad2ac5e0075ef788d8be959111619b2180d3be57e5633d46a",
    "0.7": "baf392eb792a797a8c90aa37e7c03be83cc30d82736b14f8fd99b3f8f7f7f394",
}


def test_pinned_counts_to_40():
    got = _sha256_lines(
        f"{n},{w}:" + ",".join(map(str, wmw_distribution(n, w).counts))
        for n, w in SIZES_TO_40
    )
    assert got == PINNED_COUNTS


@pytest.mark.parametrize("alpha", sorted(PINNED_CRITICALS))
def test_pinned_criticals_to_40(alpha):
    a = Fraction(alpha)
    got = _sha256_lines(
        f"{n},{w}:" + ("" if c is None else str(c))
        for n, w in SIZES_TO_40
        for c in [wmw_critical(a, n, w)]
    )
    assert got == PINNED_CRITICALS[alpha]


@pytest.mark.parametrize("alpha", sorted(PINNED_CRITICALS))
def test_grid_matches_pinned_criticals_to_40(alpha):
    # Cells (w, n0) with w, n0 <= 39 cover every 1 <= w < n <= 40.
    grid = wmw_critical_grid(Fraction(alpha), 39)
    got = _sha256_lines(
        f"{n},{w}:" + ("" if c is None else str(c))
        for n, w in SIZES_TO_40
        for c in [grid[(w, n - w)]]
    )
    assert got == PINNED_CRITICALS[alpha]


def test_grid_smallest_sizes():
    assert wmw_critical_grid("0.05", 1) == {(1, 1): None}
    assert wmw_critical_grid("0.7", 1) == {(1, 1): 0}
    assert wmw_critical_grid("0.5", 2) == {(1, 1): None, (1, 2): 0, (2, 1): 0, (2, 2): 1}
    assert wmw_critical_grid("0.7", 2) == {(1, 1): 0, (1, 2): 1, (2, 1): 1, (2, 2): 2}
    with pytest.raises(ValueError, match="max_size"):
        wmw_critical_grid("0.05", 0)


@pytest.mark.parametrize("alpha", [0, 1, "1.5", -0.1])
def test_grid_rejects_alpha_like_critical_value(alpha):
    with pytest.raises(ValueError) as want:
        critical_value(alpha, 10, [0])
    with pytest.raises(ValueError) as got:
        wmw_critical_grid(alpha, 3)
    assert str(got.value) == str(want.value)


def test_grid_refuses_oversized_before_allocating():
    size = 10**6
    estimate = (size + 1) * (size * size // 2 + 1) * (size // 4 + 1)
    assert estimate > BYTES_LIMIT
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match=str(estimate)):
            wmw_critical_grid("0.05", size)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cumulative_counts_is_a_sequence():
    cum = _cumulative_counts(4, 2, 8)
    assert len(cum) == 9
    assert list(cum) == [1, 2, 4, 5, 6, 6, 6, 6, 6]
    assert cum[-1] == 6 and cum[2] == 4
    with pytest.raises(IndexError):
        cum[9]


def test_critical_large_instance():
    assert wmw_critical(0.05, 200, 100) == 4326


def test_critical_value_boundary_is_not_below():
    # count * den == num * total: exactly alpha, which does not pass.
    assert critical_value(Fraction(1, 4), 8, [1, 2, 3]) == 0
    assert critical_value(Fraction(1, 4), 8, [1, 1, 2]) == 1
    assert critical_value("0.25", 4, iter([1, 0])) is None
    assert critical_value(0.5, 10, []) is None
    with pytest.raises(ValueError):
        critical_value(1, 10, [0])


@given(st.integers(2, 12).flatmap(lambda d: st.tuples(st.integers(1, d - 1), st.just(d))),
       st.integers(1, 20), st.data())
def test_critical_value_bisect_equals_scan(fraction, scale, data):
    num, den = fraction
    total = den * scale
    counts = data.draw(st.lists(st.integers(0, total), max_size=30))
    if data.draw(st.booleans()):
        counts.append(num * scale)  # count * den == num * total: exactly alpha
    counts.sort()
    alpha = Fraction(num, den)
    assert critical_value(alpha, total, counts) == critical_value(alpha, total, iter(counts))


def sizes(top: int):
    return st.integers(2, top).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n - 1)))


@given(sizes(60), st.data())
def test_q_count_complement_symmetry(size, data):
    n, w = size
    W = data.draw(st.integers(-2, w * (n - w) + 2))
    assert q_count(W, n, w) == q_count(W, n, n - w)


@given(sizes(60))
def test_counts_are_symmetric(size):
    counts = wmw_distribution(*size).counts
    assert counts == counts[::-1]


@given(sizes(30), st.data())
def test_q_count_equals_distribution_cumulative(size, data):
    n, w = size
    W = data.draw(st.integers(-3, w * (n - w) + 3))
    assert q_count(W, n, w) == wmw_distribution(n, w).cumulative(W)


DEMO_OUT = Path(__file__).resolve().parents[1] / "demos" / "out"


def test_committed_demo_tables_match_library():
    # Rebuilt as demos/02_wilcoxon_tables.py writes them, without running it.
    null = "errors,count\n" + "".join(
        f"{k},{c}\n" for k, c in enumerate(wmw_distribution(30, 15).counts)
    )
    criticals = wmw_critical_grid("0.05", 20)
    grid = "w," + ",".join(str(z) for z in range(1, 21)) + "\n"
    for ones in range(1, 21):
        cells = [criticals[(ones, zeros)] for zeros in range(1, 21)]
        grid += str(ones) + "," + ",".join("" if c is None else str(c) for c in cells) + "\n"
    assert (DEMO_OUT / "wilcoxon_null_30_15.csv").read_bytes() == null.encode()
    assert (DEMO_OUT / "wilcoxon_criticals_20x20.csv").read_bytes() == grid.encode()
