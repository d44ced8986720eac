"""Synthetic data scenarios and CSV ingestion for the simulation harness.

Every generator is deterministic given its seed; seeds may be ints or
tuples of ints (anything numpy's SeedSequence accepts), so callers can
derive independent per-replication streams as (master seed, index).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .words import Word, _check_weight

SCENARIOS = (
    "null-gauss-1d",
    "null-gauss-10d",
    "null-mix-1d",
    "null-mix-10d",
    "linear-1sig",
    "linear-4sig",
    "nonlinear-3mode",
    "parity",
)

# Mixture components for the null-mix scenarios (equal weight, unit variance).
MIX_MEANS = (-2.0, 2.0)


class InputFormatError(ValueError):
    """A user-supplied file could not be parsed."""


@dataclass(frozen=True)
class Dataset:
    """A feature matrix for one sample; rows are observations."""

    features: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 2:
            raise ValueError("features must be a 2-d matrix with at least 2 rows")
        if not np.all(np.isfinite(feats)):
            raise ValueError("features must be finite")
        object.__setattr__(self, "features", feats)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def _random_labeling(rng: np.random.Generator, n: int, w: int):
    """A uniform weight-w labeling as (Word, ones, zeros), positions ascending."""
    _check_weight(n, w)
    bits = rng.permutation(np.arange(n) < w)
    ones = bits.nonzero()[0]
    return Word.from_support(n, ones.tolist()), ones, (~bits).nonzero()[0]


def generate_data(scenario: str, n: int, w: int, seed) -> tuple[Dataset, Word]:
    """One sample for the given scenario: features plus a weight-w labeling.

    Null scenarios draw all rows from a single distribution; the linear
    scenarios shift the signal columns of the two classes to means +-0.5;
    the nonlinear scenario gives the 0-class a two-mode signal feature
    (means 5.5 and -4.5) straddling the 1-class at mean 0.5.  ``parity``
    emits the label-leak column plus a fair coin column.  ``csv:<path>``
    reads the documented CSV format instead of sampling features.
    """
    if scenario.startswith("csv:"):
        return load_csv(scenario[4:], n, w, seed)
    if scenario not in SCENARIOS:
        raise InputFormatError(f"unknown scenario {scenario!r}")
    rng = np.random.default_rng(seed)
    labeling, ones, zeros = _random_labeling(rng, n, w)

    if scenario in ("null-gauss-1d", "null-gauss-10d"):
        d = 1 if scenario.endswith("1d") else 10
        feats = rng.standard_normal((n, d))
    elif scenario in ("null-mix-1d", "null-mix-10d"):
        d = 1 if scenario.endswith("1d") else 10
        component = rng.integers(0, 2, size=n)
        means = np.asarray(MIX_MEANS)[component]
        feats = rng.standard_normal((n, d)) + means[:, None]
    elif scenario in ("linear-1sig", "linear-4sig"):
        k = 1 if scenario == "linear-1sig" else 4
        feats = rng.standard_normal((n, 10))
        feats[ones, :k] += 0.5
        feats[zeros, :k] -= 0.5
    elif scenario == "nonlinear-3mode":
        feats = rng.standard_normal((n, 10))
        feats[ones, 0] += 0.5
        modes = rng.integers(0, 2, size=len(zeros))
        feats[zeros, 0] += np.where(modes == 0, 5.5, -4.5)
    else:  # parity
        coins = rng.integers(0, 2, size=n)
        feats = np.zeros((n, 2))
        feats[ones, 0] = 1.0
        feats[:, 1] = coins
    return Dataset(feats), labeling


def load_csv(path, n: int | None = None, w: int | None = None, seed=None):
    """Read a dataset CSV: header row, numeric columns, optional final ``label``.

    With a label column the file's labeling is used (a requested ``w``
    must then match); without one a uniform weight-``w`` labeling is drawn
    from ``seed``.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InputFormatError(f"{path}: empty file") from None
            rows = [row for row in reader if row]
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    if not header or not rows:
        raise InputFormatError(f"{path}: no data rows")
    has_label = header[-1].strip().lower() == "label"
    ncols = len(header)
    feats = []
    labels = []
    for lineno, row in enumerate(rows, start=2):
        if len(row) != ncols:
            raise InputFormatError(f"{path}:{lineno}: expected {ncols} columns")
        try:
            vals = [float(v) for v in row]
        except ValueError as exc:
            raise InputFormatError(f"{path}:{lineno}: {exc}") from exc
        if has_label:
            lab = vals[-1]
            if lab not in (0.0, 1.0):
                raise InputFormatError(f"{path}:{lineno}: label must be 0 or 1")
            labels.append(int(lab))
            vals = vals[:-1]
        feats.append(vals)
    matrix = np.asarray(feats, dtype=float)
    if not np.all(np.isfinite(matrix)):
        raise InputFormatError(f"{path}: non-finite feature values")
    if n is not None and n != matrix.shape[0]:
        raise InputFormatError(
            f"{path}: file has {matrix.shape[0]} rows, expected n={n}"
        )
    rows_n = matrix.shape[0]
    if has_label:
        file_w = sum(labels)
        if w is not None and w != file_w:
            raise InputFormatError(
                f"{path}: label column has weight {file_w}, expected w={w}"
            )
        labeling = Word.from_support(rows_n, [i for i, v in enumerate(labels) if v])
    else:
        if w is None:
            raise InputFormatError(f"{path}: no label column and no weight given")
        rng = np.random.default_rng(seed)
        labeling = _random_labeling(rng, rows_n, w)[0]
    return Dataset(matrix), labeling
