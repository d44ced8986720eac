"""Synthetic data scenarios and CSV ingestion for the simulation harness.

Every generator is deterministic given its seed; a seed is an int or a
tuple of ints, checked by ``words._seed_words``, so callers can derive
independent per-replication streams as (master seed, index).
``_replicate_rngs`` runs SeedSequence's mixing for many replicates in
vectorized passes and lets numpy's PCG64 seed itself from each mixed state,
so replicate r draws exactly what ``default_rng((*entropy, r))`` would.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .words import Word, _check_weight, _seed_words

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


def _sorted_labeling(n: int, w: int) -> np.ndarray:
    """The (n,) bool row of w ones, then n - w zeros, that labelings permute."""
    _check_weight(n, w)
    return np.arange(n) < w


def _random_labeling(rng: np.random.Generator, n: int, w: int) -> np.ndarray:
    """A uniform weight-w labeling as an (n,) bool row."""
    return rng.permutation(_sorted_labeling(n, w))


def _draw(scenario: str, rng: np.random.Generator, sorted_labeling: np.ndarray):
    """One synthetic sample from ``rng``: (features, labeling as an (n,) uint8 row)."""
    bits = rng.permutation(sorted_labeling)
    ones, zeros = bits.nonzero()[0], (~bits).nonzero()[0]
    n = len(bits)

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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx); NEP 19 keeps
# its stream fixed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _hash_consts(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiply) constants, as (steps, 1) uint32 columns, of ``steps``
    successive calls of SeedSequence's running hash."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One hash step per row of ``values``, each with its own constants."""
    values = (values ^ xor) * mult
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


# Replicate states are derived this many at a time, so the Python ints they
# pass through stay few whatever ``reps`` is.
_SEED_BLOCK = 64


def _replicate_rngs(entropy: tuple, reps: int):
    """Yield, for r < ``reps``, ``np.random.default_rng((*entropy, r))``.

    SeedSequence's mixing runs on a block of replicates at once, one column
    per replicate; numpy's PCG64 seeds itself from each replicate's mixed
    state, an ``ISeedSequence`` (NEP 19).  ``entropy`` holds ``_seed_words``'
    ints, split into uint32 words as SeedSequence splits them, so a negative
    one raises numpy's error, at the first replicate.
    """
    # Imported here, and the class made here: commands that never draw leave
    # numpy.random unloaded, and numpy accepts only a subclass.
    from numpy.random.bit_generator import ISeedSequence, _coerce_to_uint32_array

    class Mixed(ISeedSequence):
        """One replicate's ``generate_state(4, np.uint64)``, computed already."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    words = _coerce_to_uint32_array(entropy)
    # Every replicate's entropy is words + (r,), zero-padded to the pool size.
    rows = max(_POOL_SIZE, len(words) + 1)
    xor, mult = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE**2 + _POOL_SIZE * (rows - _POOL_SIZE))
    out_xor, out_mult = _hash_consts(_INIT_B, _MULT_B, 8)
    for start in range(0, reps, _SEED_BLOCK):
        index = np.arange(start, min(reps, start + _SEED_BLOCK), dtype=np.uint32)
        table = np.zeros((rows, len(index)), dtype=np.uint32)
        table[:len(words)] = words[:, None]
        table[len(words)] = index
        # mix_entropy: hash the first words into the pool, mix every pool
        # word into every other, then mix each further word into all four.
        pool = _hashmix(table[:_POOL_SIZE], xor[:_POOL_SIZE], mult[:_POOL_SIZE])
        step = _POOL_SIZE
        for src in range(_POOL_SIZE):
            dst = [i for i in range(_POOL_SIZE) if i != src]
            hashed = _hashmix(pool[src], xor[step:step + 3], mult[step:step + 3])
            pool[dst] = _mix(pool[dst], hashed)
            step += 3
        for word in table[_POOL_SIZE:]:
            hashed = _hashmix(word, xor[step:step + _POOL_SIZE], mult[step:step + _POOL_SIZE])
            pool = _mix(pool, hashed)
            step += _POOL_SIZE
        # generate_state(4, np.uint64): eight words from the cycled pool,
        # paired low word first; one C-contiguous row per replicate.
        state = _hashmix(np.tile(pool, (2, 1)), out_xor, out_mult).astype(np.uint64)
        for row in np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T):
            yield np.random.default_rng(Mixed(row))


def _sampler(scenario: str, n: int, w: int):
    """``draw(rng) -> (features, 0/1 row)`` for one (scenario, n, w) cell.

    A ``csv:`` file is read here, once; each draw then only draws its
    labeling, when the file has no label column.
    """
    if scenario.startswith("csv:"):
        return _csv_sampler(scenario[4:], n, w)
    if scenario not in SCENARIOS:
        raise InputFormatError(f"unknown scenario {scenario!r}")
    sorted_labeling = _sorted_labeling(n, w)
    return lambda rng: _draw(scenario, rng, sorted_labeling)


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
    return _sample(*_sampler(scenario, n, w)(np.random.default_rng(_seed_words(seed))))


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
    """``draw(rng)`` over one CSV file, read and checked once (see ``load_csv``)."""
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
        return lambda rng: (matrix, labels)
    if w is None:
        raise InputFormatError(f"{path}: no label column and no weight given")
    return lambda rng: (matrix, _random_labeling(rng, rows_n, w).view(np.uint8))


def load_csv(path, n: int | None = None, w: int | None = None, seed=None):
    """Read a dataset CSV: header row, numeric columns, optional final ``label``.

    With a label column the file's labeling is used (a requested ``w``
    must then match); without one a uniform weight-``w`` labeling is drawn
    from ``seed``, or from fresh entropy when it is None.
    """
    rng = np.random.default_rng(None if seed is None else _seed_words(seed))
    return _sample(*_csv_sampler(path, n, w)(rng))
