"""Exact Wilcoxon-Mann-Whitney null distribution for fixed scoring functions.

Counts, over all fixed-proportion labelings of a sample ranked by a fixed
strictly monotone score, how many labelings produce at most a given number
of discordant pairs.  Everything is exact: big-integer counts and rational
p-values, floats only at presentation time.

The counts are the coefficients of the Gaussian binomial
[n choose w]_q = prod_{i=1..w} (1 - q^(n-w+i)) / (1 - q^i) (Mann & Whitney
1947; Di Bucchianico 1999), computed only up to the degree a caller needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

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


def critical_value(alpha, total: int, cumulative) -> int | None:
    """Largest W with cumulative[W] / total strictly below ``alpha``.

    ``cumulative`` yields the counts for W = 0, 1, 2, ...; the scan stops at
    the first count that is not below alpha, or when the counts run out.
    None when even W = 0 fails.
    """
    a = as_fraction(alpha)
    if not 0 < a < 1:
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    den, limit = a.denominator, a.numerator * total
    best = None
    for W, count in enumerate(cumulative):
        if count * den >= limit:
            break
        best = W
    return best


def _cumulative_counts(n: int, w: int, K: int):
    """Q(0..K, n, w), lazily: the Gaussian binomial over (1 - q), mod q^(K+1).

    The series is packed into one integer as its value at q = 2^b, with b a
    whole number of bytes wide enough for C(n,w).  Evaluation at 2^b maps
    Z[q]/(q^(K+1)) homomorphically onto the integers mod 2^(b(K+1)), and
    every final coefficient lies in [0, 2^b), so the digits are exact.
    """
    if not 0 < w < n:
        raise ValueError(f"need 0 < w < n, got n={n}, w={w}")
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
    data = divide(x, 1).to_bytes(width * (K + 1), "little")
    return (int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width))


def q_count(W: int, n: int, w: int) -> int:
    """Number of labelings in S(n,w) with at most ``W`` discordant pairs.

    The Gaussian binomial's coefficients up to degree W, summed; no state is
    kept between calls.
    """
    if not 0 < w < n:
        raise ValueError(f"need 0 < w < n, got n={n}, w={w}")
    if W < 0:
        return 0
    if W >= w * (n - w):
        return comb(n, w)
    *_, last = _cumulative_counts(n, w, W)
    return last


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


def wmw_critical(alpha, n: int, w: int) -> int | None:
    """Largest W with Q(W,n,w)/C(n,w) strictly below ``alpha``; None if none.

    The null is symmetric, so Q at the midpoint w(n-w)//2 is at least half
    of C(n,w): for alpha <= 1/2 the scan ends by then.
    """
    top = w * (n - w)
    K = top // 2 if as_fraction(alpha) <= Fraction(1, 2) else top
    return critical_value(alpha, comb(n, w), _cumulative_counts(n, w, K))
