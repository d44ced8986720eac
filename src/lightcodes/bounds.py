"""Upper and lower bounds on the maximal W-light code size L(W,n,w).

Exact values are known in closed form at the weight boundary (w or n-w in
{1,2}); elsewhere the column double-counting recursion gives an upper
bound and the largest tau residue class, sized from the WMW series by
``codes.tau_class_sizes``, a lower bound (``gs_lower``: its pigeonhole
bound).  Critical values derived from these bounds mirror the Wilcoxon
critical tables: only the upper-bound variant yields a valid p-value in
the worst-case sense, so both variants are emitted explicitly labeled.
``boundary_exact`` and ``johnson_upper`` are defined in ``codes``, whose
exact search stops at the upper bound, and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .codes import EXACT_SEARCH_LIMIT, boundary_exact, exact_L, johnson_upper, tau_class_sizes
from .johnson import _check_lightness
from .wilcoxon import critical_value, wmw_distribution
from .words import _check_weight

BOUND_KINDS = ("lower", "upper")


def gs_lower(n: int, w: int, W: int) -> int | None:
    """Pigeonhole lower bound ceil(C(n,w)/(n-2W)) when n >= 4W, else None."""
    _check_weight(n, w)
    _check_lightness(W)
    if n < 4 * W:
        return None
    return -(comb(n, w) // -(n - 2 * W))


@dataclass(frozen=True, slots=True)
class BoundRecord:
    n: int
    w: int
    W: int
    lower: int
    upper: int
    exact: int | None

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")
        if self.exact is not None and not self.lower <= self.exact <= self.upper:
            raise ValueError(f"exact {self.exact} outside [{self.lower}, {self.upper}]")


def assemble_table(
    n_range, w_range, W_range, exact_when_small: bool = False
) -> list[BoundRecord]:
    """Bound records for every valid (n, w, W) in the given ranges.

    The lower bound is the largest tau class when n >= 4W, else 1, from one
    WMW series per (n, w): about n^4 work, 6 s at (400,200).  Exact values
    come from the closed forms, or from the search when asked and C(n,w) <= 24.
    """
    for W in W_range:
        _check_lightness(W)
    records = []
    for n in n_range:
        for w in w_range:
            if not 0 < w < n:
                continue
            counts = None
            for W in W_range:
                lower = 1
                if n >= 4 * W:
                    counts = counts or wmw_distribution(n, w).counts
                    lower = max(tau_class_sizes(n, w, W, counts))
                exact = boundary_exact(n, w, W)
                if exact is None and exact_when_small and comb(n, w) <= EXACT_SEARCH_LIMIT:
                    exact = exact_L(n, w, W)
                if exact is not None:
                    lower = max(lower, exact)
                upper = johnson_upper(n, w, W)
                records.append(BoundRecord(n, w, W, lower, upper, exact))
    return records


def lightcode_critical(alpha, n: int, w: int, bound_kind: str) -> int | None:
    """Largest W whose bound on L(W,n,w), over C(n,w), stays below alpha.

    ``bound_kind`` selects gs_lower (defined while n >= 4W) or johnson_upper.
    None when even W = 0 fails.
    """
    if bound_kind not in BOUND_KINDS:
        raise ValueError(f"bound_kind must be one of {BOUND_KINDS}")
    if bound_kind == "lower":
        bounds = (gs_lower(n, w, W) for W in range(min(w * (n - w), n // 4) + 1))
    else:
        bounds = (johnson_upper(n, w, W) for W in range(w * (n - w) + 1))
    return critical_value(alpha, comb(n, w), bounds)
