"""Exact Wilcoxon-Mann-Whitney null distribution for fixed scoring functions.

Counts, over all fixed-proportion labelings of a sample ranked by a fixed
strictly monotone score, how many labelings produce at most a given number
of discordant pairs.  Everything is exact: big-integer counts and rational
p-values, floats only at presentation time.

The counts are the coefficients of the Gaussian binomial
[n choose w]_q = prod_{i=1..w} (1 - q^(n-w+i)) / (1 - q^i) (Mann & Whitney
1947; Di Bucchianico 1999), computed only up to the degree a caller needs.
A whole grid of critical values instead follows the q-Pascal rule
[n choose w]_q = [n-1 choose w-1]_q + q^w [n-1 choose w]_q (Andrews, The
Theory of Partitions, 1976, Thm 3.2), one shift-add per cell.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .johnson import BYTES_LIMIT, refuse_over
from .words import _check_weight

_q_memo: dict = {}  # always empty; bench/child.py still reports its size


def as_fraction(alpha) -> Fraction:
    """Normalize a significance level to an exact rational.

    Floats go through their shortest decimal repr so that e.g. 0.05 means
    exactly 1/20; strict critical-value comparisons must not depend on
    binary rounding.
    """
    if isinstance(alpha, Fraction):
        return alpha
    if isinstance(alpha, float):
        return Fraction(str(alpha))
    return Fraction(alpha)


def _check_alpha(alpha) -> Fraction:
    a = as_fraction(alpha)
    if not 0 < a < 1:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    return a


def critical_value(alpha, total: int, cumulative) -> int | None:
    """Largest W with cumulative[W] / total strictly below ``alpha``.

    ``cumulative`` holds the nondecreasing counts for W = 0, 1, 2, ...  A
    ``Sequence`` is bisected; any other iterable is scanned, stopping at the
    first count that is not below alpha, so a lazy producer does no more
    work than needed.  None when even W = 0 fails.
    """
    a = _check_alpha(alpha)
    den, limit = a.denominator, a.numerator * total
    if isinstance(cumulative, Sequence):
        first_not_below = bisect_left(cumulative, limit, key=lambda count: count * den)
        return first_not_below - 1 if first_not_below else None
    best = None
    for W, count in enumerate(cumulative):
        if count * den >= limit:
            break
        best = W
    return best


class _Digits(Sequence):
    """Read-only view of the base-2^(8 width) digits of a packed series.

    Digit k is the coefficient of q^k: counted from the low end of
    ``packed`` when ``byteorder`` is "little", from the high end when "big".
    """

    __slots__ = ("_data", "_width", "_len", "_order")

    def __init__(self, packed: int, width: int, length: int, byteorder: str = "little") -> None:
        self._data = packed.to_bytes(width * length, byteorder)
        self._width = width
        self._len = length
        self._order = byteorder

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, k: int) -> int:
        if k < 0:
            k += self._len
        if not 0 <= k < self._len:
            raise IndexError("digit index out of range")
        start = k * self._width
        return int.from_bytes(self._data[start : start + self._width], self._order)


def _cumulative_counts(n: int, w: int, K: int) -> _Digits:
    """Q(0..K, n, w): the Gaussian binomial over (1 - q), mod q^(K+1).

    The series is packed into one integer as its value at q = 2^b, with b a
    whole number of bytes wide enough for C(n,w).  Evaluation at 2^b maps
    Z[q]/(q^(K+1)) homomorphically onto the integers mod 2^(b(K+1)), and
    every final coefficient lies in [0, 2^b), so the digits are exact.
    """
    _check_weight(n, w)
    w = min(w, n - w)
    width = comb(n, w).bit_length() // 8 + 1
    b = 8 * width
    mask = (1 << b * (K + 1)) - 1  # truncates mod q^(K+1); % is far slower here

    def divide(x: int, i: int) -> int:
        # 1 / (1 - q^i) = prod_t (1 + q^(i 2^t)), truncated at degree K.
        s = i
        while s <= K:
            x = (x + (x << b * s)) & mask
            s *= 2
        return x

    x = 1
    for i in range(1, w + 1):
        if n - w + i <= K:
            x = (x - (x << b * (n - w + i))) & mask
        x = divide(x, i)
    return _Digits(divide(x, 1), width, K + 1)


def q_count(W: int, n: int, w: int) -> int:
    """Number of labelings in S(n,w) with at most ``W`` discordant pairs.

    The Gaussian binomial's coefficients up to degree W, summed; no state is
    kept between calls.
    """
    _check_weight(n, w)
    if W < 0:
        return 0
    if W >= w * (n - w):
        return comb(n, w)
    return _cumulative_counts(n, w, W)[W]


@dataclass(frozen=True, slots=True)
class NullDistribution:
    """Error-count histogram over 0..w(n-w), exact or from sampled labelings/samples."""

    n: int
    w: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.w * (self.n - self.w) + 1:
            raise ValueError("histogram must cover error counts 0..w(n-w)")
        if any(c < 0 for c in self.counts):
            raise ValueError("histogram counts must be nonnegative")

    @property
    def max_errors(self) -> int:
        return self.w * (self.n - self.w)

    def total(self) -> int:
        return sum(self.counts)

    def cumulative(self, W: int) -> int:
        if W < 0:
            return 0
        return sum(self.counts[: min(W, self.max_errors) + 1])

    def mean(self) -> Fraction:
        return Fraction(sum(k * c for k, c in enumerate(self.counts)), self.total())

    def variance(self) -> Fraction:
        mu = self.mean()
        second = Fraction(
            sum(k * k * c for k, c in enumerate(self.counts)), self.total()
        )
        return second - mu * mu


def wmw_distribution(n: int, w: int) -> NullDistribution:
    """Exact null distribution of the discordant-pair count for S(n,w)."""
    cum = list(_cumulative_counts(n, w, w * (n - w)))
    return NullDistribution(n, w, tuple(c - p for c, p in zip(cum, [0] + cum)))


def wmw_pvalue(errors: int, n: int, w: int) -> Fraction:
    """Exact one-sided p-value for observing at most ``errors`` discordant pairs."""
    if errors < 0:
        raise ValueError("errors must be nonnegative")
    return Fraction(q_count(errors, n, w), comb(n, w))


def _degree_needed(alpha, top: int) -> int:
    """Degree up to which the cumulative counts decide a critical value.

    The null is symmetric, so Q at the midpoint top//2 is at least half of
    C(n,w): for alpha <= 1/2 the answer lies below it.
    """
    return top // 2 if as_fraction(alpha) <= Fraction(1, 2) else top


def wmw_critical(alpha, n: int, w: int) -> int | None:
    """Largest W with Q(W,n,w)/C(n,w) strictly below ``alpha``; None if none."""
    K = _degree_needed(alpha, w * (n - w))
    return critical_value(alpha, comb(n, w), _cumulative_counts(n, w, K))


def wmw_critical_grid(alpha, max_size: int) -> dict[tuple[int, int], int | None]:
    """``wmw_critical(alpha, w + n0, w)`` for every 1 <= w, n0 <= max_size.

    Walks the grid row by row (w = 1, 2, ...) over one list of cumulative
    series Cum(w, n0) = [w+n0 choose w]_q / (1 - q), updated in place by the
    q-Pascal rule Cum(w, n0) = Cum(w-1, n0) + q^w Cum(w, n0-1), with
    Cum(0, .) = Cum(., 0) = 1/(1 - q).  Every series is cut at the degree K
    the largest cell needs and packed with the coefficient of q^k as digit
    K - k at one width that fits C(2 max_size, max_size) < 4^max_size, so
    multiplying by q^w and truncating is a right shift, and the digits a
    cell's critical value needs are the high end of its series.  Raises
    ResourceLimitError before allocating when the packed series would
    exceed ``johnson.BYTES_LIMIT``.
    """
    a = _check_alpha(alpha)
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, got {max_size}")
    K = _degree_needed(a, max_size * max_size)
    width = max_size // 4 + 1
    estimate = (max_size + 1) * (K + 1) * width
    refuse_over(f"packed bytes of the WMW grid up to size {max_size}", estimate,
                BYTES_LIMIT, "grid")
    b = 8 * width
    ones = ((1 << b * (K + 1)) - 1) // ((1 << b) - 1)  # 1/(1 - q): every digit 1
    row = [ones] * (max_size + 1)
    grid: dict[tuple[int, int], int | None] = {}
    for w in range(1, max_size + 1):
        for n0 in range(1, max_size + 1):
            row[n0] += row[n0 - 1] >> b * w
            needed = _degree_needed(a, w * n0)
            cumulative = _Digits(row[n0] >> b * (K - needed), width, needed + 1, "big")
            grid[(w, n0)] = critical_value(a, comb(w + n0, w), cumulative)
    return grid
