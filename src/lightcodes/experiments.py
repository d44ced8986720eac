"""Replication-level experiments: empirical critical tables and type-II curves.

A replication draws a fresh sample (and labeling) from a scenario and
counts the learner's LPOCV errors.  Critical values are read off the
replication histogram exactly as for the analytic tables: the largest
error count whose empirical frequency stays strictly below the level.
Per-replication seeds derive from (config seed, cell, index) so results
are independent of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .datagen import generate_data
from .learners import Learner, make_learner
from .lpocv import histogram_from_errors
from .wilcoxon import critical_value
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


def replicate_error_counts(
    learner: Learner, scenario: str, n: int, w: int, reps: int, seed
) -> np.ndarray:
    """LPOCV error counts over fresh samples, one per replication."""
    seed_base = (seed,) if np.isscalar(seed) else tuple(seed)
    out = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        data, labeling = generate_data(scenario, n, w, seed_base + (n, w, r))
        out[r] = learner.error_counts(data, [labeling])[0]
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
    learner: Learner,
    scenario: str,
    sizes,
    alpha_table: dict[tuple[int, int], int | None],
    reps: int,
    seed,
) -> dict[int, Fraction]:
    """Proportion of replications failing to reject, per sample size.

    Sizes must be even (the classes are balanced); a replication fails
    when its error count exceeds the cell's critical value, or always
    when the cell is empty.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    results: dict[int, Fraction] = {}
    for size in sizes:
        if size % 2 != 0:
            raise ValueError(f"sample size {size} must be even")
        w = size // 2
        cell = (w, size - w)
        if cell not in alpha_table:
            raise ValueError(f"no critical value for cell {cell}")
        crit = alpha_table[cell]
        errors = replicate_error_counts(learner, scenario, size, w, reps, seed)
        if crit is None:
            failures = reps
        else:
            failures = int((errors > crit).sum())
        results[size] = Fraction(failures, reps)
    return results
