"""Pairwise learners for leave-pair-out cross-validation.

A learner maps a training set (the sample minus one differently-labeled
pair) to a prediction for the held-out pair: which of the two rows is the
1-labeled one.  Every learner computes its bit for the pair ordered by
sample position (low, high) and the reversed query is answered by
complementation, so the label-switch constraint holds structurally:
switching the held-out labels always complements the kernel value.

Score ties predict the canonically-high element as the 1-label (the
strict-inequality rule), so a tied pair costs an error in exactly one of
its two labelings.

Implementations must never read the labeling at the held-out positions;
only the remaining rows' labels may influence the prediction.

Each learner has two evaluation paths, both over labelings as (n,) uint8
0/1 rows.  ``pair_bit`` with the base-class per-pair loop
``Learner.error_counts`` is the reference.  The built-in learners also give
a batched ``pair_kernel`` (canonical bits for a block of rows at once), which
``BatchedLearner.error_counts`` reduces to error counts; tests hold the two
paths equal.
"""

from __future__ import annotations

import hashlib
import math
import struct
from abc import ABC, abstractmethod

import numpy as np

from .datagen import Dataset
from .words import Word

# Rows per kernel block are capped so that rows x pairs x n stays below
# this, which bounds ridge's per-block float temporary at 1 MiB.
_BLOCK_ELEMENTS = 1 << 17


def bit_matrix(labelings, n: int) -> np.ndarray:
    """Stack labelings (Words or 0/1 rows) into an (L, n) uint8 matrix."""
    if isinstance(labelings, np.ndarray):
        mat = labelings[None, :] if labelings.ndim == 1 else labelings
        if mat.ndim != 2 or mat.shape[1] != n:
            raise ValueError(f"labelings have length {mat.shape[-1]}, expected {n}")
        # Checked before the uint8 cast, which would wrap other values.
        if mat.dtype != bool and not ((mat == 0) | (mat == 1)).all():
            raise ValueError("labelings must hold only 0 and 1")
        return np.asarray(mat, dtype=np.uint8)
    rows = []
    for lab in labelings:
        if isinstance(lab, Word):
            if lab.n != n:
                raise ValueError(f"labeling length {lab.n}, expected {n}")
            rows.append([lab.mask >> i & 1 for i in range(n)])
        else:
            row = list(lab)
            if len(row) != n or not set(row) <= {0, 1}:
                raise ValueError(f"labeling {row} is not a 0/1 row of length {n}")
            rows.append(row)
    return np.array(rows, dtype=np.uint8).reshape(len(rows), n)


def _differing_pairs(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical pairs (low < high) labeled differently in at least one row."""
    if len(mat) == 1:
        ones, zeros = mat[0].nonzero()[0][:, None], (mat[0] == 0).nonzero()[0]
        return np.minimum(ones, zeros).ravel(), np.maximum(ones, zeros).ravel()
    y = mat.astype(np.float64)
    split = y.T @ (1.0 - y)  # split[a, b] = rows with a 1 at a and a 0 at b
    return np.nonzero(np.triu(split + split.T, 1))


def pair_errors(learner: "Learner", data: Dataset, mat: np.ndarray, lows, highs):
    """Yield (start, errors) per row block of ``mat`` from the learner's kernel.

    ``errors[l, k]`` is true iff row ``start + l`` labels pair k differently and
    the learner misorders it: the 1-labeled member is ``highs[k]`` exactly
    when the canonical bit is 0, so the error is ``bit == y[highs[k]]``.
    """
    kernel = learner.pair_kernel(data, lows, highs)
    step = max(1, _BLOCK_ELEMENTS // max(1, len(lows) * data.n))
    for start in range(0, len(mat) if len(lows) else 0, step):
        block = mat[start:start + step]
        y_lo, y_hi = block.take(lows, axis=1), block.take(highs, axis=1)
        yield start, (y_lo != y_hi) & (kernel(block) == y_hi)


def _check_feature(feature) -> int:
    if int(feature) < 0:
        raise ValueError(f"feature index must be non-negative, got {feature}")
    return int(feature)


def _feature_column(data: Dataset, feature: int) -> np.ndarray:
    if feature >= data.d:
        raise ValueError(f"feature {feature} out of range for d={data.d} feature columns")
    return data.features[:, feature]


class Learner(ABC):
    """Symmetric pairwise learner with the canonical-order antisymmetry rule."""

    name: str = "learner"

    @abstractmethod
    def pair_bit(self, data: Dataset, y: np.ndarray, low: int, high: int) -> int:
        """1 iff row ``low`` is predicted as the 1-labeled member of the pair.

        ``y`` is the labeling as an (n,) uint8 0/1 row and ``low < high``
        are sample positions; training uses every other row with its label.
        """

    def predict_first(self, data: Dataset, labeling: Word | np.ndarray, i: int, j: int) -> int:
        """1 iff row ``i`` is predicted as the 1-labeled member of pair (i, j)."""
        if i == j or not (0 <= i < data.n and 0 <= j < data.n):
            raise ValueError(f"invalid pair ({i}, {j}) for n={data.n}")
        y = bit_matrix([labeling], data.n)[0]
        if i < j:
            return self.pair_bit(data, y, i, j)
        return 1 - self.pair_bit(data, y, j, i)

    def error_counts(self, data: Dataset, labelings) -> np.ndarray:
        """LPOCV error count per labeling; generic per-pair loop."""
        mat = bit_matrix(labelings, data.n)
        out = np.zeros(len(mat), dtype=np.int64)
        for idx, y in enumerate(mat):
            zeros = np.flatnonzero(y == 0).tolist()
            errs = 0
            for i in np.flatnonzero(y).tolist():
                for j in zeros:
                    # Complement rule: i is predicted first iff the canonical bit is (i < j).
                    errs += self.pair_bit(data, y, min(i, j), max(i, j)) != (i < j)
            out[idx] = errs
        return out

    def pair_kernel(self, data: Dataset, lows: np.ndarray, highs: np.ndarray):
        """Batched canonical bits for the pairs (lows[k], highs[k]), lows < highs.

        Returns ``kernel(block)``, mapping an (L, n) block of 0/1 rows to an
        (L, K) array whose entry (l, k) equals ``pair_bit`` for row l and
        pair k wherever row l labels that pair differently; the other
        entries are unspecified.  Per-dataset set-up runs here, once, before
        any block.  This default calls ``pair_bit`` for each such entry.
        """

        def kernel(block):
            bits = np.zeros((len(block), len(lows)), dtype=bool)
            for r, y in enumerate(block):
                for k in np.flatnonzero(y[lows] != y[highs]).tolist():
                    bits[r, k] = self.pair_bit(data, y, int(lows[k]), int(highs[k]))
            return bits

        return kernel


class BatchedLearner(Learner):
    """Learner whose error counts are reduced from its batched pair kernel."""

    def error_counts(self, data: Dataset, labelings) -> np.ndarray:
        mat = bit_matrix(labelings, data.n)
        out = np.zeros(len(mat), dtype=np.int64)
        for start, errors in pair_errors(self, data, mat, *_differing_pairs(mat)):
            out[start:start + len(errors)] = errors.sum(axis=1)
        return out


class ConstantLearner(BatchedLearner):
    """Fixed scoring function; ignores the training labels entirely.

    Scores come either from an explicit per-row vector or from a feature
    column of the sample.
    """

    def __init__(self, scores=None, feature: int = 0):
        self.scores = None if scores is None else np.asarray(scores, dtype=float)
        if self.scores is not None and self.scores.ndim != 1:
            raise ValueError(f"scores must be a 1-d vector, got shape {self.scores.shape}")
        self.feature = _check_feature(feature)
        self.name = "constant(scores)" if scores is not None else f"constant(feature={self.feature})"

    def _score_vector(self, data: Dataset) -> np.ndarray:
        if self.scores is not None:
            if len(self.scores) != data.n:
                raise ValueError("score vector length does not match the sample")
            return self.scores
        return _feature_column(data, self.feature)

    def pair_bit(self, data, y, low, high):
        s = self._score_vector(data)
        return int(s[low] > s[high])

    def pair_kernel(self, data, lows, highs):
        s = self._score_vector(data)
        bits = (s[lows] > s[highs])[None, :]
        return lambda block: bits


class ParityLearner(BatchedLearner):
    """The full-sample parity adversary.

    Expects a two-column dataset: column 0 carries the label leak and
    column 1 a 0/1 coin.  The parity of the coin column over all rows
    decides whether the leak is used directly or complemented.
    """

    name = "parity"

    def _flip(self, data: Dataset) -> int:
        if data.d < 2:
            raise ValueError("parity learner needs two feature columns")
        return int(round(float(data.features[:, 1].sum()))) & 1

    def pair_bit(self, data, y, low, high):
        leak = data.features[:, 0]
        base = int(leak[low] > leak[high])
        return base ^ self._flip(data)

    def pair_kernel(self, data, lows, highs):
        leak = data.features[:, 0]
        bits = ((leak[lows] > leak[highs]) ^ bool(self._flip(data)))[None, :]
        return lambda block: bits


class OrderDirectionLearner(BatchedLearner):
    """Learns only whether a feature is directly or inversely related.

    Training counts concordant vs discordant differently-labeled pairs on
    the designated feature; the majority direction (ties positive) then
    scores the held-out pair.
    """

    def __init__(self, feature: int = 0):
        self.feature = _check_feature(feature)
        self.name = f"order-direction(feature={self.feature})"

    def pair_bit(self, data, y, low, high):
        f = _feature_column(data, self.feature)
        train = np.ones(data.n, dtype=bool)
        train[[low, high]] = False
        ones, zeros = f[train & (y == 1)], f[train & (y == 0)]
        if (ones[:, None] > zeros).sum() >= (ones[:, None] < zeros).sum():
            return int(f[low] > f[high])
        return int(f[low] < f[high])

    def pair_kernel(self, data, lows, highs):
        f = _feature_column(data, self.feature)
        # sign[r, c] is +1 / -1 when (1-labeled r, 0-labeled c) would be a
        # concordant / discordant pair.
        sign = (f[:, None] > f[None, :]).astype(np.int64) - (f[:, None] < f[None, :])
        colsum = sign.sum(axis=0)
        pos, neg = f[lows] > f[highs], f[lows] < f[highs]

        def kernel(block):
            y = block.astype(np.int64)
            col = y @ sign  # col[l, c]: sign[r, c] summed over the 1-labeled r
            full = (y * (col - colsum)).sum(axis=1, keepdims=True)
            y_lo, y_hi = y[:, lows], y[:, highs]
            # Concordant minus discordant pairs of the whole sample, less every
            # term with a held-out row on either side; ties go positive.
            net = full - col[:, lows] - col[:, highs] + y_lo * colsum[lows]
            net += y_hi * colsum[highs] + (y_lo - y_hi) * sign[lows, highs]
            return np.where(net >= 0, pos, neg)

        return kernel


class RandomOrientationLearner(BatchedLearner):
    """Pseudo-random but deterministic pairwise predictions.

    The canonical bit is a cryptographic hash of the training multiset
    (rows with labels, order-independent), the unordered held-out pair of
    rows, and a seed, so equal training information always yields the same
    arc and the LPO table is a uniform-looking Johnson graph orientation.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.name = f"random-orientation(seed={self.seed})"

    @staticmethod
    def _row_bytes(row: np.ndarray) -> bytes:
        return struct.pack(f"<{len(row)}d", *row)

    def pair_bit(self, data, y, low, high):
        rows, labels = data.features, y.tolist()
        train_entries = sorted(
            self._row_bytes(rows[r]) + bytes([labels[r]])
            for r in range(data.n)
            if r != low and r != high
        )
        held = sorted((self._row_bytes(rows[low]), self._row_bytes(rows[high])))
        digest = hashlib.sha256()
        digest.update(struct.pack("<q", self.seed))
        for entry in train_entries:
            digest.update(entry)
        digest.update(held[0])
        digest.update(held[1])
        return digest.digest()[0] & 1

    def pair_kernel(self, data, lows, highs):
        # Same digest input as pair_bit: each row's entries are sorted once and
        # a pair's hash skips its two entries in the sorted concatenation.
        n = data.n
        rows = [self._row_bytes(row) for row in data.features]
        size = len(rows[0]) + 1
        pairs = list(zip(lows.tolist(), highs.tolist()))
        held = [b"".join(sorted((rows[a], rows[b]))) for a, b in pairs]
        seeded = hashlib.sha256(struct.pack("<q", self.seed))

        def kernel(block):
            bits = np.zeros((len(block), len(pairs)), dtype=bool)
            for r, y in enumerate(block):
                entries = [row + bytes([bit]) for row, bit in zip(rows, y.tolist())]
                order = sorted(range(n), key=entries.__getitem__)
                joined = memoryview(b"".join(entries[i] for i in order))
                offset = [0] * n
                for place, i in enumerate(order):
                    offset[i] = place * size
                for k in np.flatnonzero(y[lows] != y[highs]).tolist():
                    a, b = sorted((offset[pairs[k][0]], offset[pairs[k][1]]))
                    digest = seeded.copy()
                    digest.update(joined[:a])
                    digest.update(joined[a + size:b])
                    digest.update(joined[b + size:])
                    digest.update(held[k])
                    bits[r, k] = digest.digest()[0] & 1
            return bits

        return kernel


class RidgeLearner(BatchedLearner):
    """Ridge regression on 0/1 targets with an unpenalized intercept.

    Trained on the n-2 remaining rows for every held-out pair; the two
    held-out rows are then scored and compared with the strict tie rule.
    No feature standardization is applied.  No fit is ever redone: with the
    full-sample hat matrix H = Z A^-1 Z^T, the held-out pair S = {a, b} has
    s_a - s_b = u_S^T H[S, :] y over the training rows, u_S = (I - H_SS)^-1 (1, -1),
    a 2x2 closed form whose determinant det(A_S) / det(A) is positive for
    n >= 3 (leave-pair-out, Pahikkala et al. 2008).
    """

    def __init__(self, lam: float = 1.0):
        self.lam = float(lam)
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"ridge penalty must be positive and finite, got {lam}")
        self.name = f"ridge(lambda={self.lam:g})"

    def _pair_rows(self, data: Dataset, lows, highs) -> np.ndarray:
        """Rows C, zero at each pair, with s_low - s_high = C[k] @ y for pair k."""
        if data.n < 3:
            raise ValueError(
                f"ridge needs n >= 3: holding out a pair of n={data.n} rows "
                "leaves no training rows"
            )
        Z = np.hstack([data.features, np.ones((data.n, 1))])
        A_full = Z.T @ Z + np.diag([self.lam] * data.d + [0.0])
        H = Z @ np.linalg.solve(A_full, Z.T)
        rest_a, rest_b, h_ab = 1.0 - H[lows, lows], 1.0 - H[highs, highs], H[lows, highs]
        det = rest_a * rest_b - h_ab * h_ab
        u_a, u_b = (rest_b - h_ab) / det, (h_ab - rest_a) / det
        C = u_a[:, None] * H[lows] + u_b[:, None] * H[highs]
        C[np.arange(len(lows)), lows] = 0.0
        C[np.arange(len(lows)), highs] = 0.0
        return C

    def pair_bit(self, data, y, low, high):
        C = self._pair_rows(data, np.array([low]), np.array([high]))
        if y.sum() - y[low] - y[high] == data.n - 2:
            return 0  # all training targets 1: the fit is constant and the scores tie
        return int((y * C[0]).sum() > 0)

    def pair_kernel(self, data, lows, highs):
        C = self._pair_rows(data, lows, highs)

        def kernel(block):
            # An elementwise product summed along the contiguous last axis: the
            # two labelings of an edge reduce identical terms in the same order.
            bits = (block[:, None, :] * C[None]).sum(axis=-1) > 0
            # With every training target 1 the scores tie exactly; the sum
            # above would only see rounding.
            return bits & (block.sum(axis=1, keepdims=True) < data.n - 1)

        return kernel


class KnnLearner(BatchedLearner):
    """k-nearest-neighbor scoring by mean training label.

    Euclidean distances with ties broken by sample row index; scores are
    compared as integer label sums (equivalent to means for a fixed k).
    """

    def __init__(self, k: int = 3):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = int(k)
        self.name = f"knn(k={self.k})"

    def _neighbor_table(self, data: Dataset) -> np.ndarray:
        """table[i, j] = the k nearest training rows to i when {i, j} is held out."""
        n, k = data.n, self.k
        if k > n - 2:
            raise ValueError(f"k={k} too large for n={n} (train size {n - 2})")
        X = data.features
        sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
        order = np.argsort(sq, axis=1, kind="stable")
        near = order[order != np.arange(n)[:, None]].reshape(n, n - 1)[:, : k + 1]
        # Holding out j drops it from i's k+1 nearest; otherwise the first k stay.
        table = np.repeat(near[:, None, :k], n, axis=1)
        skip = np.arange(k) + (np.arange(k) >= np.arange(k + 1)[:, None])
        table[np.arange(n)[:, None], near] = near[:, skip]
        return table

    def pair_bit(self, data, y, low, high):
        table = self._neighbor_table(data)
        s_low = int(y[table[low, high]].sum())
        s_high = int(y[table[high, low]].sum())
        return int(s_low > s_high)

    def pair_kernel(self, data, lows, highs):
        table = self._neighbor_table(data)
        near_low, near_high = table[lows, highs], table[highs, lows]
        return lambda block: (
            block[:, near_low].sum(axis=-1, dtype=np.int64)
            > block[:, near_high].sum(axis=-1, dtype=np.int64)
        )


LEARNER_FACTORIES = {
    "constant": lambda params: ConstantLearner(feature=params.get("feature", 0)),
    "order-direction": lambda params: OrderDirectionLearner(feature=params.get("feature", 0)),
    "parity": lambda params: ParityLearner(),
    "random-orientation": lambda params: RandomOrientationLearner(
        seed=int(params.get("seed", 0))
    ),
    "ridge": lambda params: RidgeLearner(lam=float(params.get("lambda", 1.0))),
    "knn": lambda params: KnnLearner(k=int(params.get("k", 3))),
}


def make_learner(spec: str) -> Learner:
    """Build a learner from ``name`` or ``name;key=value,key=value``."""
    name, _, paramstr = spec.partition(";")
    name = name.strip()
    if name not in LEARNER_FACTORIES:
        raise ValueError(f"unknown learner {name!r}; known: {sorted(LEARNER_FACTORIES)}")
    params = {}
    if paramstr.strip():
        for item in paramstr.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"bad learner parameter {item!r}")
            params[key.strip()] = value.strip()
    return LEARNER_FACTORIES[name](params)
