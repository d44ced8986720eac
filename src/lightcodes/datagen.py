"""Synthetic data scenarios and CSV ingestion for the simulation harness.

Every generator is deterministic given its seed; a seed is an int or a
tuple of ints, checked by ``words._seed_words``, so callers can derive
independent per-replication streams as (master seed, index).
``_replicate_rngs`` runs SeedSequence's mixing for many replicates in
vectorized passes and lets numpy's PCG64 seed itself from each mixed state,
so replicate r draws exactly what ``default_rng((*entropy, r))`` would.

``_draw`` draws a block of samples, one per generator, as stacked arrays:
per sample only its random calls run, and the scenario's shifts are applied
to the whole block.  ``generate_data`` and the ``csv:`` sampler draw a block
of one, so a replicate drawn in any block is ``generate_data``'s sample at
its seed, bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cache

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


def _random_labelings(rngs, n: int, w: int) -> np.ndarray:
    """(R, n) bool rows of weight w, row r shuffled by ``rngs[r]``.

    Each shuffle draws what ``rngs[r].permutation`` of the sorted row would:
    numpy's permutation of an array is a copy and a ``shuffle``.
    """
    _check_weight(n, w)
    rows = np.tile(np.arange(n) < w, (len(rngs), 1))
    for rng, row in zip(rngs, rows):
        rng.shuffle(row)
    return rows


def _coins(rngs, size: int) -> np.ndarray:
    """(R, size) fair 0/1 draws, row r from ``rngs[r]``."""
    coins = np.empty((len(rngs), size), dtype=np.int64)
    for rng, row in zip(rngs, coins):
        row[:] = rng.integers(0, 2, size=size)
    return coins


def _draw(scenario: str, rngs, n: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """One synthetic sample per generator: (R, n, d) features and (R, n) uint8 rows.

    Each generator makes only its random calls, in one fixed order: the
    labeling's shuffle, then the scenario's integers and normals.  The
    class shifts, mixture means, mode offsets and leak column are applied to
    the whole block afterwards; each is one IEEE add or assignment per
    element, so sample r is the same whatever block it is drawn in.
    """
    bits = _random_labelings(rngs, n, w)
    if scenario == "parity":
        feats = np.empty((len(rngs), n, 2))
        feats[:, :, 0] = bits
        feats[:, :, 1] = _coins(rngs, n)
        return feats, bits.view(np.uint8)

    component = _coins(rngs, n) if scenario.startswith("null-mix") else None
    feats = np.empty((len(rngs), n, 1 if scenario.endswith("1d") else 10))
    for rng, row in zip(rngs, feats):
        rng.standard_normal(out=row)
    if component is not None:
        feats += np.asarray(MIX_MEANS)[component][..., None]
    elif scenario.startswith("linear"):
        k = 1 if scenario == "linear-1sig" else 4
        feats[..., :k] += np.where(bits, 0.5, -0.5)[..., None]  # x - 0.5 is x + -0.5
    elif scenario == "nonlinear-3mode":
        shift = np.full(bits.shape, 0.5)
        shift[~bits] = np.where(_coins(rngs, n - w) == 0, 5.5, -4.5).ravel()
        feats[..., 0] += shift
    return feats, bits.view(np.uint8)


# SeedSequence's hash constants (numpy/random/bit_generator.pyx); NEP 19 keeps
# its stream fixed.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


@cache
def _hash_consts(init: int, mult: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiply) constants, as read-only (steps, 1) uint32 columns, of
    ``steps`` successive calls of SeedSequence's running hash."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    consts.flags.writeable = False
    return consts[:-1], consts[1:]


def _hashmix(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """One hash step per row of ``values``, each with its own constants."""
    values = (values ^ xor) * mult
    return values ^ (values >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


@cache
def _seed_tools():
    """(``ISeedSequence`` subclass holding one mixed state, numpy's entropy
    coercion), made once per process.  Made on first use, not at import:
    commands that never draw leave numpy.random unloaded."""
    from numpy.random.bit_generator import ISeedSequence, _coerce_to_uint32_array

    class Mixed(ISeedSequence):
        """One replicate's ``generate_state(4, np.uint64)``, computed already."""

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            return self.state

    return Mixed, _coerce_to_uint32_array


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
    Mixed, coerce = _seed_tools()
    words = coerce(entropy)
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
    """``draw(rngs) -> (features (R, n, d), 0/1 rows (R, n))`` for one
    (scenario, n, w) cell, one sample per generator.

    A ``csv:`` file is read here, once; each draw then only draws its
    labelings, when the file has no label column.
    """
    if scenario.startswith("csv:"):
        return _csv_sampler(scenario[4:], n, w)
    if scenario not in SCENARIOS:
        raise InputFormatError(f"unknown scenario {scenario!r}")
    return lambda rngs: _draw(scenario, rngs, n, w)


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
    feats, rows = _sampler(scenario, n, w)([np.random.default_rng(_seed_words(seed))])
    return _sample(feats[0], rows[0])


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
    """``draw(rngs)`` over one CSV file, read and checked once (see ``load_csv``)."""
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
        return lambda rngs: (np.broadcast_to(matrix, (len(rngs),) + matrix.shape),
                             np.broadcast_to(labels, (len(rngs), rows_n)))
    if w is None:
        raise InputFormatError(f"{path}: no label column and no weight given")
    return lambda rngs: (np.broadcast_to(matrix, (len(rngs),) + matrix.shape),
                         _random_labelings(rngs, rows_n, w).view(np.uint8))


def load_csv(path, n: int | None = None, w: int | None = None, seed=None):
    """Read a dataset CSV: header row, numeric columns, optional final ``label``.

    With a label column the file's labeling is used (a requested ``w``
    must then match); without one a uniform weight-``w`` labeling is drawn
    from ``seed``, or from fresh entropy when it is None.
    """
    rng = np.random.default_rng(None if seed is None else _seed_words(seed))
    feats, rows = _csv_sampler(path, n, w)([rng])
    return _sample(feats[0], rows[0])
