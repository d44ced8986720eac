"""Upper and lower bounds on the maximal W-light code size L(W,n,w).

Exact values are known in closed form at the weight boundary (w or n-w in
{1,2}); elsewhere the column double-counting recursion gives an upper
bound and the tau-residue pigeonhole a lower bound.  Critical values
derived from these bounds mirror the Wilcoxon critical tables: only the
upper-bound variant yields a valid p-value in the worst-case sense, so
both variants are emitted explicitly labeled.  ``boundary_exact`` and
``johnson_upper`` are defined in ``codes``, whose exact search stops at
the upper bound, and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .codes import EXACT_SEARCH_LIMIT, boundary_exact, exact_L, johnson_upper, tau_classes
from .wilcoxon import critical_value

BOUND_KINDS = ("lower", "upper", "exact")


def gs_lower(n: int, w: int, W: int) -> int | None:
    """Pigeonhole lower bound ceil(C(n,w)/(n-2W)) when n >= 4W, else None."""
    if not 0 < w < n:
        raise ValueError(f"need 0 < w < n, got n={n}, w={w}")
    if W < 0:
        raise ValueError("W must be nonnegative")
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


GS_CLASS_ENUM_LIMIT = 10**5


def assemble_table(
    n_range, w_range, W_range, exact_when_small: bool = False
) -> list[BoundRecord]:
    """Bound records for every valid (n, w, W) in the given ranges.

    The lower bound is the best construction size available (largest tau
    class when enumerable, else its pigeonhole bound, else 1); exact
    values come from the closed forms, or from the exhaustive search when
    requested and C(n,w) <= 24.
    """
    if any(W < 0 for W in W_range):
        raise ValueError("W must be nonnegative")
    records = []
    for n in n_range:
        for w in w_range:
            if not 0 < w < n:
                continue
            for W in W_range:
                lower = 1
                if n >= 4 * W:
                    if comb(n, w) <= GS_CLASS_ENUM_LIMIT:
                        lower = max(len(c) for c in tau_classes(n, w, W))
                    else:
                        lower = gs_lower(n, w, W)
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

    ``bound_kind`` selects gs_lower, johnson_upper, or an exact value
    (closed form or exhaustive search).  None when even W = 0 fails.
    """
    if bound_kind not in BOUND_KINDS:
        raise ValueError(f"bound_kind must be one of {BOUND_KINDS}")
    total = comb(n, w)

    def bounds():
        for W in range(w * (n - w) + 1):
            if bound_kind == "lower":
                bound = gs_lower(n, w, W)
                if bound is None:
                    return
            elif bound_kind == "upper":
                bound = johnson_upper(n, w, W)
            else:
                bound = boundary_exact(n, w, W)
                if bound is None:
                    if total > EXACT_SEARCH_LIMIT:
                        raise ValueError(
                            f"no exact value available for (n={n}, w={w}): "
                            f"C(n,w) = {total} exceeds the search limit"
                        )
                    bound = exact_L(n, w, W)
            yield bound

    return critical_value(alpha, total, bounds())
