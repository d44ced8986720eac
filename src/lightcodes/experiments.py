"""Replication-level experiments: empirical critical tables and type-II curves.

A replication draws a fresh sample (and labeling) from a scenario and
counts the learner's LPOCV errors; a cell's replications are drawn and
scored as stacks of samples, block by block.  Critical values are read
off the replication histogram exactly as for the analytic tables: the
largest error count whose empirical frequency stays strictly below the
level.  Per-replication seeds derive from (config seed, cell, index) so
results are independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

import numpy as np

from .datagen import _check_finite, _sampler
from .learners import Learner, _split_pairs, make_learner, stack_error_counts
from .lpocv import histogram_from_errors
from .wilcoxon import _check_alpha, critical_value, wmw_critical
from .words import _check_weight


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """One learning setup of an empirical table: who learns on what data."""

    learner_spec: str
    scenario: str
    n: int
    w: int
    replications: int
    seed: int

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        _check_weight(self.n, self.w)

    def learner(self) -> Learner:
        return make_learner(self.learner_spec)


# Samples per block are capped so that samples x n x max(pairs, n x d) stays
# below this: a sample's largest kernel temporaries are the (pairs, n) rows of
# ridge and knn and knn's (n, n, d) distance tensor.  As float64 the cap is
# 128 KiB, glibc's default mmap threshold; a larger temporary is page-faulted
# in afresh on each block, so stacking two n = 40 ridge samples past it costs
# more than scoring them one at a time.
_SAMPLE_BLOCK_ELEMENTS = 1 << 14


def replicate_error_counts(
    learner: Learner, scenario: str, n: int, w: int, reps: int, seed
) -> np.ndarray:
    """LPOCV error counts over fresh samples, one per replication.

    Replication r scores ``generate_data(scenario, n, w, seed + (n, w, r))``;
    its count depends on neither ``reps`` nor the block it is scored in.
    """
    seed_base = (seed,) if np.isscalar(seed) else tuple(seed)
    samples = map(_sampler(scenario, n, w), (seed_base + (n, w, r) for r in range(reps)))
    out = np.empty(reps, dtype=np.int64)
    if not reps:
        return out
    first = next(samples)
    d = first[0].shape[1]
    step = max(1, _SAMPLE_BLOCK_ELEMENTS // max(1, n * w * (n - w), n * n * d))
    samples = chain([first], samples)
    for start in range(0, reps, step):
        feats, rows = map(np.stack, zip(*islice(samples, step)))
        _check_finite(feats)
        counts = stack_error_counts(learner, feats, rows[:, None], *_split_pairs(rows))
        out[start:start + len(rows)] = counts[:, 0]
    return out


def critical_from_counts(errors: np.ndarray, n: int, w: int, alpha) -> int | None:
    """Largest W with empirical frequency of {errors <= W} strictly below alpha."""
    hist = histogram_from_errors(errors, n, w)
    return critical_value(alpha, len(errors), np.cumsum(hist.counts).tolist())


def empirical_critical_value(config: SimulationConfig, alpha) -> int | None:
    errors = replicate_error_counts(
        config.learner(), config.scenario, config.n, config.w,
        config.replications, config.seed,
    )
    return critical_from_counts(errors, config.n, config.w, alpha)


def merge_critical_cells(values) -> int | None:
    """Pointwise-minimum merge; an empty cell (None) is the most conservative."""
    values = list(values)
    if not values or any(v is None for v in values):
        return None
    return min(values)


def empirical_critical_table(
    configs, alpha
) -> dict[tuple[int, int], int | None]:
    """Merged empirical critical values keyed by (number of 1s, number of 0s).

    Every config contributes to its own (w, n-w) cell; cells covered by
    several configs take the smallest value, with an undecidable config
    (no W qualifies) emptying the cell.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one simulation config")
    per_cell: dict[tuple[int, int], list[int | None]] = {}
    for config in configs:
        cell = (config.w, config.n - config.w)
        per_cell.setdefault(cell, []).append(empirical_critical_value(config, alpha))
    return {cell: merge_critical_cells(vals) for cell, vals in sorted(per_cell.items())}


def type2_experiment(
    learner: Learner, scenario: str, sizes, alpha, reps: int, seed
) -> dict[int, Fraction]:
    """Proportion of replications failing to reject, per sample size.

    Sizes must be even (the classes are balanced); a replication fails
    when its error count exceeds the WMW critical value of its size at
    level ``alpha``, or always when there is none.  The level and every
    size are checked before any scoring, and a size's critical value is
    computed only after its replications are scored, so none is computed
    for a size whose scoring is refused.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    _check_alpha(alpha)
    sizes = tuple(sizes)  # read twice, so a generator is not used up by the check
    for size in sizes:
        if size % 2 != 0:
            raise ValueError(f"sample size {size} must be even")
    results: dict[int, Fraction] = {}
    for size in sizes:
        w = size // 2
        errors = replicate_error_counts(learner, scenario, size, w, reps, seed)
        crit = wmw_critical(alpha, size, w)
        failures = reps if crit is None else int((errors > crit).sum())
        results[size] = Fraction(failures, reps)
    return results
