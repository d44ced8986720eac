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
a batched ``pair_kernel``: canonical bits for a stack of R samples, each
with its own pairs and a block of its rows, at once.  ``stack_error_counts``
reduces it to error counts; ``BatchedLearner.error_counts`` (one sample,
many labelings) is its R = 1 case and the replication harness (many
samples, one labeling each) stacks samples.  Tests hold the paths equal.
"""

from __future__ import annotations

import hashlib
import math
import operator
from abc import ABC, abstractmethod

import numpy as np

from .datagen import Dataset
from .johnson import refuse_over
from .words import Word, _seed_words

# Rows per kernel block are capped so that samples x rows x pairs x
# ``Learner.pair_terms`` stays below this, 1 MiB of float64.  Ridge's
# rounding-band recount (n float terms per entry) stays below it too.
_BLOCK_ELEMENTS = 1 << 17
_MASK64 = (1 << 64) - 1


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


def _split_pairs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical pairs (low < high) of each row of an (R, n) matrix whose rows
    share one weight w, as (R, w(n-w)) arrays: every 1 with every 0."""
    R, n = rows.shape
    w = int(rows[0].sum()) if R else 0
    shape = (R, w * (n - w))
    refuse_over(f"bytes of the pair lists of {R} row(s) of n={n}", 16 * R * shape[1])
    ones = np.nonzero(rows)[1].reshape(R, w, 1)
    zeros = np.nonzero(rows == 0)[1].reshape(R, 1, n - w)
    return np.minimum(ones, zeros).reshape(shape), np.maximum(ones, zeros).reshape(shape)


def _differing_pairs(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical pairs to score the rows of ``mat`` on, as (1, K) arrays: a lone
    row's own pairs, else every pair (one that no row splits adds no error)."""
    if len(mat) == 1:
        return _split_pairs(mat)
    n = mat.shape[1]
    refuse_over(f"bytes of the pair lists of n={n}", 8 * n * (n - 1))
    lows, highs = np.triu_indices(n, 1)
    return lows[None], highs[None]


def _at(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-sample gather along the last axis: (R, ..., n) at (R, *K) -> (R, ..., *K).

    The sample axis is folded into the last one, so one flat ``take`` serves
    every sample (``take_along_axis`` is several times slower here).  One
    sample needs no offsets, and its plain ``take`` keeps the one-sample
    paths (MC and exact nulls) about 10% faster end to end."""
    R, n = a.shape[0], a.shape[-1]
    if R == 1:
        return a.take(idx[0], axis=-1)
    rows = a.reshape(R, -1, n).transpose(1, 0, 2).reshape(-1, R * n)
    got = rows.take(idx + n * np.arange(R).reshape((R,) + (1,) * (idx.ndim - 1)), axis=1)
    return got.swapaxes(0, 1).reshape(a.shape[:-1] + idx.shape[1:])


def pair_errors(learner: "Learner", feats: np.ndarray, mats: np.ndarray, lows, highs):
    """Yield (start, errors) per block of labelings from the learner's kernel.

    ``feats`` (R, n, d) stacks R samples, ``mats`` (R, L, n) holds L labelings
    of each and ``lows``, ``highs`` (R, K) are each sample's pairs.
    ``errors[r, l, k]`` is true iff labeling ``start + l`` of sample r labels
    pair k differently and the learner misorders it: the 1-labeled member is
    ``highs[r, k]`` exactly when the canonical bit is 0, so the error is
    ``bit == y[highs[r, k]]``.
    """
    kernel = learner.pair_kernel(feats, lows, highs)
    R, L, n = mats.shape
    K = lows.shape[1]
    step = max(1, _BLOCK_ELEMENTS // max(1, R * K * learner.pair_terms(n)))
    for start in range(0, L if K else 0, step):
        block = mats[:, start:start + step]
        y_lo, y_hi = _at(block, lows), _at(block, highs)
        yield start, (y_lo != y_hi) & (kernel(block) == y_hi)


def stack_error_counts(learner: "Learner", feats, mats, lows, highs) -> np.ndarray:
    """(R, L) LPOCV error counts of ``pair_errors``' stack, over each sample's pairs."""
    out = np.zeros(mats.shape[:2], dtype=np.int64)
    for start, errors in pair_errors(learner, feats, mats, lows, highs):
        out[:, start:start + errors.shape[1]] = errors.sum(axis=2)
    return out


def _refuse_kernel(learner: "Learner", R: int, n: int, d: int, pairs: int) -> None:
    """Refuse R stacked samples by the learner's largest kernel array."""
    refuse_over(f"bytes of {learner.name}'s largest kernel array on {R} sample(s) of n={n}",
                R * learner.sample_bytes(n, d, pairs))


def _check_feature(feature) -> int:
    if operator.index(feature) < 0:
        raise ValueError(f"feature index must be non-negative, got {feature}")
    return operator.index(feature)


def _feature_column(feats: np.ndarray, feature: int) -> np.ndarray:
    """Column ``feature`` of each of the (R, n, d) stacked samples, as (R, n)."""
    if feature >= feats.shape[2]:
        raise ValueError(
            f"feature {feature} out of range for d={feats.shape[2]} feature columns"
        )
    return feats[:, :, feature]


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

    def sample_bytes(self, n: int, d: int, pairs: int) -> int:
        """Bytes the kernel holds per stacked sample of n rows, d features and
        ``pairs`` pairs: by default its largest array, the features or a float
        per pair."""
        return 8 * max(n * d, pairs)

    def pair_terms(self, n: int) -> int:
        """Kernel array elements per labeling and pair of a block: by default n,
        which bounds knn's k < n votes per pair."""
        return n

    def pair_kernel(self, feats: np.ndarray, lows: np.ndarray, highs: np.ndarray):
        """Batched canonical bits for R stacked samples and their pairs.

        ``feats`` (R, n, d) holds the samples' features and ``lows``,
        ``highs`` (R, K) sample r's pairs, ``lows[r, k] < highs[r, k]``.
        Returns ``kernel(block)``, mapping an (R, L, n) block of 0/1 rows, L
        labelings of each sample, to an (R, L, K) array whose entry
        (r, l, k) equals ``pair_bit`` for sample r, its row l and its pair k
        wherever that row labels the pair differently; the other entries are
        unspecified.  Per-sample set-up runs here, once, before any block.
        This default calls ``pair_bit`` for each such entry.
        """
        datasets = [Dataset(x) for x in feats]

        def kernel(block):
            bits = np.zeros(block.shape[:2] + lows.shape[1:], dtype=bool)
            for r, (data, lo, hi) in enumerate(zip(datasets, lows, highs)):
                for l, y in enumerate(block[r]):
                    for k in np.flatnonzero(y[lo] != y[hi]).tolist():
                        bits[r, l, k] = self.pair_bit(data, y, int(lo[k]), int(hi[k]))
            return bits

        return kernel


class BatchedLearner(Learner):
    """Learner whose error counts are reduced from its batched pair kernel."""

    def error_counts(self, data: Dataset, labelings) -> np.ndarray:
        mat = bit_matrix(labelings, data.n)
        return stack_error_counts(self, data.features[None], mat[None], *_differing_pairs(mat))[0]


class ConstantLearner(BatchedLearner):
    """Scores each row by one feature column; ignores the training labels."""

    def __init__(self, feature: int = 0):
        self.feature = _check_feature(feature)
        self.name = f"constant(feature={self.feature})"

    def pair_bit(self, data, y, low, high):
        s = _feature_column(data.features[None], self.feature)[0]
        return int(s[low] > s[high])

    def pair_kernel(self, feats, lows, highs):
        s = _feature_column(feats, self.feature)
        bits = (_at(s, lows) > _at(s, highs))[:, None]
        return lambda block: bits


class ParityLearner(BatchedLearner):
    """The full-sample parity adversary.

    Expects a two-column dataset: column 0 carries the label leak and
    column 1 a 0/1 coin.  The parity of the coin column over all rows
    decides whether the leak is used directly or complemented.
    """

    name = "parity"

    def _flip(self, feats: np.ndarray) -> np.ndarray:
        """(R,) bool: whether each stacked sample's coin column sums to an odd count."""
        if feats.shape[2] < 2:
            raise ValueError("parity learner needs two feature columns")
        return np.fmod(np.rint(feats[:, :, 1].sum(axis=1)), 2) != 0

    def pair_bit(self, data, y, low, high):
        leak = data.features[:, 0]
        base = int(leak[low] > leak[high])
        return base ^ int(self._flip(data.features[None])[0])

    def pair_kernel(self, feats, lows, highs):
        flip = self._flip(feats)
        leak = feats[:, :, 0]
        bits = ((_at(leak, lows) > _at(leak, highs)) ^ flip[:, None])[:, None]
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
        f = _feature_column(data.features[None], self.feature)[0]
        train = np.ones(data.n, dtype=bool)
        train[[low, high]] = False
        ones, zeros = f[train & (y == 1)], f[train & (y == 0)]
        if (ones[:, None] > zeros).sum() >= (ones[:, None] < zeros).sum():
            return int(f[low] > f[high])
        return int(f[low] < f[high])

    def sample_bytes(self, n, d, pairs):
        return 8 * n * n  # the (n, n) int64 sign matrix

    def pair_kernel(self, feats, lows, highs):
        f = _feature_column(feats, self.feature)
        _refuse_kernel(self, *feats.shape, lows.shape[1])
        # sign[s, r, c] is +1 / -1 when (1-labeled r, 0-labeled c) would be a
        # concordant / discordant pair of sample s.
        sign = (f[:, :, None] > f[:, None, :]).astype(np.int64) - (f[:, :, None] < f[:, None, :])
        colsum = sign.sum(axis=1)
        f_lo, f_hi = _at(f, lows), _at(f, highs)
        pos, neg = (f_lo > f_hi)[:, None], (f_lo < f_hi)[:, None]
        sum_lo, sum_hi = _at(colsum, lows)[:, None], _at(colsum, highs)[:, None]
        sign_pair = sign[np.arange(len(f))[:, None], lows, highs][:, None]

        def kernel(block):
            y = block.astype(np.int64)
            col = y @ sign  # col[s, l, c]: sign[s, r, c] summed over the 1-labeled r
            full = (y * (col - colsum[:, None])).sum(axis=2, keepdims=True)
            y_lo, y_hi = _at(y, lows), _at(y, highs)
            # Concordant minus discordant pairs of the whole sample, less every
            # term with a held-out row on either side; ties go positive.
            net = full - _at(col, lows) - _at(col, highs) + y_lo * sum_lo
            net += y_hi * sum_hi + (y_lo - y_hi) * sign_pair
            return np.where(net >= 0, pos, neg)

        return kernel


def _splitmix64(z):
    """SplitMix64's output mixer, on a Python int or a uint64 array (which wraps)."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


class RandomOrientationLearner(BatchedLearner):
    """Pseudo-random but deterministic pairwise predictions.

    Each row gets three 64-bit tags, h(row, 0), h(row, 1) and g(row), from
    one SHA-256 of the seed and the row's float64 bytes.  The training key of
    labeling y with pair {a, b} held out is the multiset hash
    sum_(i != a, b) h(i, y_i) mod 2^64, computed as S(y) - h(a, y_a) - h(b, y_b)
    with S(y) one sum per labeling (MSet-Add-Hash, Clarke et al., ASIACRYPT
    2003).  The canonical bit is the low bit of
    splitmix64(key ^ splitmix64(g_a + g_b)) (Steele, Lea & Flood, OOPSLA 2014).

    Both labelings of a Johnson-graph edge hold out the same pair and train
    on the same multiset, so they share the key and the bit: the label-switch
    rule holds by construction.  Neither the key nor g_a + g_b depends on
    row order, so equal training information always yields the same arc, and
    the LPO table is a uniform-looking orientation of J(n, w).
    """

    def __init__(self, seed: int = 0):
        words = _seed_words(seed)
        if len(words) != 1 or not -(1 << 63) <= words[0] < 1 << 63:
            raise ValueError(f"random-orientation seed {seed} is not one integer "
                             "in the signed 64-bit range")
        self.seed = words[0]
        self.name = f"random-orientation(seed={self.seed})"

    def _tags(self, feats: np.ndarray) -> np.ndarray:
        """(3, R, n) uint64 tags h(row, 0), h(row, 1), g(row) of R stacked samples."""
        seed = self.seed.to_bytes(8, "little", signed=True)
        samples = np.asarray(feats, dtype="<f8")
        digests = b"".join(
            hashlib.sha256(seed + row.tobytes()).digest()[:24] for x in samples for row in x
        )
        return np.frombuffer(digests, "<u8").reshape(*feats.shape[:2], 3).transpose(2, 0, 1)

    def pair_bit(self, data, y, low, high):
        h0, h1, g = (tag[0].tolist() for tag in self._tags(data.features[None]))
        labels = y.tolist()
        key = sum(h1[i] if labels[i] else h0[i] for i in range(data.n) if i not in (low, high))
        held = _splitmix64((g[low] + g[high]) & _MASK64)
        return _splitmix64((key & _MASK64) ^ held) & 1

    def pair_kernel(self, feats, lows, highs):
        h0, h1, g = self._tags(feats)
        held = _splitmix64(_at(g, lows) + _at(g, highs))[:, None]

        def kernel(block):
            h = np.where(block, h1[:, None], h0[:, None])
            key = h.sum(axis=2, keepdims=True) - _at(h, lows) - _at(h, highs)
            return (_splitmix64(key ^ held) & 1).astype(bool)

        return kernel


class RidgeLearner(BatchedLearner):
    """Ridge regression on 0/1 targets with an unpenalized intercept.

    Trained on the n-2 remaining rows for every held-out pair; the two
    held-out rows are then scored and compared with the strict tie rule.
    No feature standardization is applied.  No fit is ever redone: with the
    full-sample hat matrix H = Z A^-1 Z^T, the held-out pair S = {a, b} has
    s_a - s_b = C y, C = u_a H[a] + u_b H[b] zeroed at a and b, where
    (u_a, u_b) = (I - H_SS)^-1 (1, -1), a 2x2 closed form whose determinant
    det(A_S) / det(A) is positive for n >= 3 (leave-pair-out, Pahikkala et
    al. 2008).  ``pair_bit`` sums y_i C_i elementwise.

    The kernel builds no C: with h = H y and alpha, beta C's entries at a, b
    before zeroing, s = u_a h_a + u_b h_b - y_a (alpha - beta) - beta.  It
    trusts the sign outside |s| <= 5 n eps M, M = sum_j (|u_a H_aj| + |u_b H_bj|).
    Proof, with u = eps / 2, E = sum_(i not in S) y_i (u_a H_ai + u_b H_bi)
    exactly and factors 1 + O(n u) dropped (Higham 2002, sections 3.1, 4.2):
    ``pair_bit``'s sum is within (n + 1) u M of E (2 u M forming the C_i,
    (n - 1) u M adding them in any order), and s within (n + 20) u M (n u M
    from h, 4 u M from alpha - beta and beta, each at most M, 16 u M from the
    length-4 inner product, whose terms total at most 4 M).  The computed
    band is at least 10 n u M (1 - (n + 3) u) > (2 n + 21) u M for n >= 3, so
    outside it both sums have E's sign.  M >= 1 (H 1 = 1 and max(|u_a|, |u_b|)
    >= 1), so underflow stays in the slack.  Entries in the band, or not
    finite, build their C rows and sum them as ``pair_bit`` does.
    """

    def __init__(self, lam: float = 1.0):
        self.lam = float(lam)
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"ridge penalty must be positive and finite, got {lam}")
        self.name = f"ridge(lambda={self.lam:g})"

    def sample_bytes(self, n, d, pairs):
        return 8 * max(n * n, 4 * pairs)  # H, or four floats or indices per pair

    def pair_terms(self, n):
        return 4  # the terms h_a, h_b, y_a and 1 of s

    def _fit(self, feats: np.ndarray, lows, highs):
        """Hat matrices H (R, n, n) of R stacked samples, and each pair's
        weights (u_a, u_b, beta - alpha, -beta) in s, as (R, K, 4)."""
        R, n, d = feats.shape
        if n < 3:
            raise ValueError(f"ridge needs n >= 3: holding out a pair of n={n} rows "
                             "leaves no training rows")
        _refuse_kernel(self, R, n, d, lows.shape[1])
        Z = np.concatenate([feats, np.ones((R, n, 1))], axis=2)
        Zt = Z.transpose(0, 2, 1)
        # Per sample, the same BLAS and LAPACK calls as on one (n, d + 1) matrix.
        H = Z @ np.linalg.solve(Zt @ Z + np.diag([self.lam] * d + [0.0]), Zt)
        # Flat takes from the starts of rows a and b: on a stack of samples
        # they cost half of H[s, a, b].
        starts = (n * np.arange(R)[:, None] + lows) * n, (n * np.arange(R)[:, None] + highs) * n
        H_aa, H_ab, H_ba, H_bb = (H.take(i + j) for i in starts for j in (lows, highs))
        rest_a, rest_b = 1.0 - H_aa, 1.0 - H_bb
        det = rest_a * rest_b - H_ab * H_ab
        u_a, u_b = (rest_b - H_ab) / det, (H_ab - rest_a) / det
        beta = H_ab * u_a + H_bb * u_b
        return H, np.stack([u_a, u_b, beta - (H_aa * u_a + H_ba * u_b), -beta], axis=-1)

    @staticmethod
    def _rows(H, weights, r, a, b) -> np.ndarray:
        """Rows C (E, n) of pairs (a[e], b[e]) of samples r[e], from their weights (E, 4)."""
        C = H[r, a] * weights[:, :1] + H[r, b] * weights[:, 1:2]
        C[np.arange(len(r)), a] = C[np.arange(len(r)), b] = 0.0
        return C

    def pair_bit(self, data, y, low, high):
        a, b = np.array([low]), np.array([high])
        H, weights = self._fit(data.features[None], a[None], b[None])
        if y.sum() - y[low] - y[high] == data.n - 2:
            return 0  # all training targets 1: the fit is constant and the scores tie
        return int((y * self._rows(H, weights[0], [0], a, b)[0]).sum() > 0)

    def pair_kernel(self, feats, lows, highs):
        H, weights = self._fit(feats, lows, highs)
        R, n = H.shape[:2]
        row_sums = np.abs(H).sum(axis=-1)
        scale, chunk = 5 * n * np.finfo(np.float64).eps, max(1, _BLOCK_ELEMENTS // n)
        # Rounding is monotone, so no pair's band is wider than the band
        # computed from the largest of all |u_a|, |u_b| and the largest row
        # sum; each pair's own band is needed only when some score is within it.
        widest = scale * (2 * (np.abs(weights[..., :2]).max(initial=0.0)
                               * row_sums.max(initial=0.0)))

        def band():
            M = np.abs(weights[..., 0]) * _at(row_sums, lows)
            M += np.abs(weights[..., 1]) * _at(row_sums, highs)
            return (scale * M)[..., None]

        # s reads four rows of a block's stack, which holds per sample the
        # rows of h = H y, of y and of ones, labelings along each.
        rows = np.stack([lows, highs, lows + n, np.full_like(lows, 2 * n)], axis=-1)
        rows += (2 * n + 1) * np.arange(R)[:, None, None]

        def kernel(block):
            stack = np.empty((R, 2 * n + 1, block.shape[1]))
            y = stack[:, n:2 * n]
            y[...] = block.transpose(0, 2, 1)
            stack[:, 2 * n] = 1.0
            np.matmul(H, y, out=stack[:, :n])
            ends = stack.reshape(-1, block.shape[1]).take(rows, axis=0)
            if block.shape[1] == 1:  # matmul pays per pair for a 1-column product
                score = np.einsum("rkx,rkxl->rkl", weights, ends)
            else:
                score = (weights[:, :, None] @ ends)[:, :, 0]
            pos = score > 0
            dist = np.abs(score, out=score)
            if not dist.min(initial=np.inf) > widest:
                # Inside the band (or not finite), an entry builds its C row
                # and sums it as pair_bit does, a chunk of entries at a time.
                near = np.nonzero(~(dist > band()))
                for i in range(0, len(near[0]), chunk):
                    r, k, l = (idx[i:i + chunk] for idx in near)
                    C = self._rows(H, weights[r, k], r, lows[r, k], highs[r, k])
                    pos[r, k, l] = (block[r, l] * C).sum(axis=-1) > 0
            # With every training target 1 the scores tie exactly; the sums
            # above would only see rounding.
            return (pos & (y.sum(axis=1) < n - 1)[:, None]).transpose(0, 2, 1)

        return kernel


def _distance_sums(d: int) -> int:
    """Most (n, n) arrays knn's distances hold at once over d columns: 2 below
    8 (the running sum and a column, or the sums and their argsort order), 4
    below 16 (three finished lanes and a column), 5 from 16, where a lane adds
    a column of its own, and one more per halving above 128."""
    return 2 if d < 8 else 4 + (d > 15) + max(0, (d - 1).bit_length() - 7)


def _square_distances(feats: np.ndarray) -> np.ndarray:
    """(R, n, n) squared Euclidean distances between the rows of each of R
    stacked samples, bit for bit ``np.square(diff).sum(axis=-1)`` of their
    (R, n, n, d) differences, which are never built.

    The d squared columns are added in the order numpy's pairwise sum adds a
    contiguous axis: below 8 terms, one running sum; up to 128, 8 lanes, lane
    j summing columns j, j + 8, ... up to the last multiple of 8, added as
    ((0 + 1) + (2 + 3)) + ((4 + 5) + (6 + 7)), then the leftover columns one by
    one; above 128, the sums of two halves split at a multiple of 8.  Each
    lane is finished before the next starts.
    """
    R, n, d = feats.shape

    def column(j):
        diff = feats[:, :, None, j] - feats[:, None, :, j]
        return np.multiply(diff, diff, out=diff)

    def total(lo, hi):
        if hi - lo > 128:
            mid = lo + (hi - lo) // 2 // 8 * 8
            out = total(lo, mid)
            out += total(mid, hi)
            return out
        if hi - lo < 8:
            out = column(lo) if hi > lo else np.zeros((R, n, n))
            for j in range(lo + 1, hi):
                out += column(j)
            return out
        stop = hi - (hi - lo) % 8

        def lanes(first, count):
            if count > 1:
                out = lanes(first, count // 2)
                out += lanes(first + count // 2, count // 2)
                return out
            out = column(first)
            for j in range(first + 8, stop, 8):
                out += column(j)
            return out

        out = lanes(lo, 8)
        for j in range(stop, hi):
            out += column(j)
        return out

    return total(0, d)


class KnnLearner(BatchedLearner):
    """k-nearest-neighbor scoring by mean training label.

    Euclidean distances with ties broken by sample row index; scores are
    compared as integer label sums (equivalent to means for a fixed k).
    """

    def __init__(self, k: int = 3):
        self.k = operator.index(k)
        if self.k < 1:
            raise ValueError("k must be at least 1")
        self.name = f"knn(k={self.k})"

    def _held_out_neighbors(self, feats: np.ndarray, lows, highs):
        """Both ends' k nearest training rows, as two neighbor-major (R, k, K)
        arrays in no set order, for pairs (lows, highs) (R, K) of R stacked samples."""
        R, n, d = feats.shape
        k = self.k
        if k > n - 2:
            raise ValueError(f"k={k} too large for n={n} (train size {n - 2})")
        _refuse_kernel(self, R, n, d, lows.shape[1])
        order = np.argsort(_square_distances(feats), axis=2, kind="stable")
        # Row i's k + 1 nearest other rows are its first k + 2 in order less
        # i itself, which ties may place anywhere among them or after them.
        top = order[:, :, :k + 2].copy()
        del order
        past_self = np.logical_or.accumulate(top[:, :, :k + 1] == np.arange(n)[:, None], axis=2)
        near = np.where(past_self, top[:, :, 1:], top[:, :, :k + 1])
        near = near.transpose(0, 2, 1)  # near[s, m, i]: row i's m-th nearest, from 0

        def held_out(a, b):
            # Holding out b drops it from a's k+1 nearest; otherwise the first k stay.
            rows = _at(near, a)
            return np.where(rows[:, :k] == b[:, None], rows[:, k:], rows[:, :k])

        return held_out(lows, highs), held_out(highs, lows)

    def sample_bytes(self, n, d, pairs):
        # Every (n, n) array live at once, or the (k, pairs) lists and their
        # gathers, below 8 k n^2.
        return 8 * n * n * max(_distance_sums(d), self.k)

    def pair_bit(self, data, y, low, high):
        pair = np.array([[low]]), np.array([[high]])
        lo, hi = self._held_out_neighbors(data.features[None], *pair)
        return int(y[lo[0, :, 0]].sum() > y[hi[0, :, 0]].sum())

    def pair_kernel(self, feats, lows, highs):
        near_low, near_high = self._held_out_neighbors(feats, lows, highs)
        # (R, L, k, K) votes, so each sum adds k contiguous (R, L, K) slabs.
        return lambda block: (_at(block, near_low).sum(axis=2, dtype=np.int64)
                              > _at(block, near_high).sum(axis=2, dtype=np.int64))


# Spec name -> (learner class, {spec key: (keyword argument, type)}).
LEARNER_FACTORIES = {
    "constant": (ConstantLearner, {"feature": ("feature", int)}),
    "order-direction": (OrderDirectionLearner, {"feature": ("feature", int)}),
    "parity": (ParityLearner, {}),
    "random-orientation": (RandomOrientationLearner, {"seed": ("seed", int)}),
    "ridge": (RidgeLearner, {"lambda": ("lam", float)}),
    "knn": (KnnLearner, {"k": ("k", int)}),
}


def make_learner(spec: str) -> Learner:
    """Build a learner from ``name`` or ``name;key=value,key=value``, each key
    one of the learner's parameters and given at most once."""
    name, _, paramstr = spec.partition(";")
    name = name.strip()
    if name not in LEARNER_FACTORIES:
        raise ValueError(f"unknown learner {name!r}; known: {sorted(LEARNER_FACTORIES)}")
    cls, keys = LEARNER_FACTORIES[name]
    kwargs = {}
    if paramstr.strip():
        for item in paramstr.split(","):
            key, sep, value = (part.strip() for part in item.partition("="))
            if not sep:
                raise ValueError(f"bad learner parameter {item!r}")
            if key not in keys:
                raise ValueError(
                    f"unknown parameter {key!r} for learner {name!r}; known: {sorted(keys)}")
            arg, kind = keys[key]
            if arg in kwargs:
                raise ValueError(f"repeated parameter {key!r} for learner {name!r}")
            kwargs[arg] = kind(value)
    return cls(**kwargs)
