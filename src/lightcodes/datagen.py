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


def _check_finite(features: np.ndarray) -> None:
    if not np.all(np.isfinite(features)):
        raise ValueError("features must be finite")


@dataclass(frozen=True)
class Dataset:
    """A feature matrix for one sample; rows are observations."""

    features: np.ndarray

    def __post_init__(self) -> None:
        feats = np.asarray(self.features, dtype=float)
        if feats.ndim != 2 or feats.shape[0] < 2:
            raise ValueError("features must be a 2-d matrix with at least 2 rows")
        _check_finite(feats)
        object.__setattr__(self, "features", feats)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def _random_labeling(rng: np.random.Generator, n: int, w: int) -> np.ndarray:
    """A uniform weight-w labeling as an (n,) bool row."""
    _check_weight(n, w)
    return rng.permutation(np.arange(n) < w)


def _draw(scenario: str, rng: np.random.Generator, n: int, w: int):
    """One synthetic sample from ``rng``: (features, labeling as an (n,) uint8 row)."""
    bits = _random_labeling(rng, n, w)
    ones, zeros = bits.nonzero()[0], (~bits).nonzero()[0]

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
    return feats, bits.view(np.uint8)


def _sampler(scenario: str, n: int, w: int):
    """``draw(seed) -> (features, 0/1 row)`` for one (scenario, n, w) cell.

    A ``csv:`` file is read here, once; each draw then only draws its
    labeling, when the file has no label column.
    """
    if scenario.startswith("csv:"):
        return _csv_sampler(scenario[4:], n, w)
    if scenario not in SCENARIOS:
        raise InputFormatError(f"unknown scenario {scenario!r}")
    return lambda seed: _draw(scenario, np.random.default_rng(seed), n, w)


def _sample(feats: np.ndarray, row: np.ndarray) -> tuple[Dataset, Word]:
    return Dataset(feats), Word.from_support(len(row), row.nonzero()[0].tolist())


def generate_data(scenario: str, n: int, w: int, seed) -> tuple[Dataset, Word]:
    """One sample for the given scenario: features plus a weight-w labeling.

    Null scenarios draw all rows from a single distribution; the linear
    scenarios shift the signal columns of the two classes to means +-0.5;
    the nonlinear scenario gives the 0-class a two-mode signal feature
    (means 5.5 and -4.5) straddling the 1-class at mean 0.5.  ``parity``
    emits the label-leak column plus a fair coin column.  ``csv:<path>``
    reads the documented CSV format instead of sampling features.
    """
    return _sample(*_sampler(scenario, n, w)(seed))


def _read_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse a dataset CSV into its feature matrix and its 0/1 label row, if any."""
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
    return matrix, np.array(labels, dtype=np.uint8) if has_label else None


def _csv_sampler(path, n: int | None, w: int | None):
    """``draw(seed)`` over one CSV file, read and checked once (see ``load_csv``)."""
    matrix, labels = _read_csv(path)
    rows_n = matrix.shape[0]
    if n is not None and n != rows_n:
        raise InputFormatError(f"{path}: file has {rows_n} rows, expected n={n}")
    if labels is not None:
        file_w = int(labels.sum())
        if w is not None and w != file_w:
            raise InputFormatError(
                f"{path}: label column has weight {file_w}, expected w={w}"
            )
        return lambda seed: (matrix, labels)
    if w is None:
        raise InputFormatError(f"{path}: no label column and no weight given")
    return lambda seed: (
        matrix, _random_labeling(np.random.default_rng(seed), rows_n, w).view(np.uint8)
    )


def load_csv(path, n: int | None = None, w: int | None = None, seed=None):
    """Read a dataset CSV: header row, numeric columns, optional final ``label``.

    With a label column the file's labeling is used (a requested ``w``
    must then match); without one a uniform weight-``w`` labeling is drawn
    from ``seed``.
    """
    return _sample(*_csv_sampler(path, n, w)(seed))
