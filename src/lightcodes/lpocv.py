"""Leave-pair-out cross-validation: kernel, U-statistic, null distributions.

For a sample of n rows and a weight-w labeling, every one of the w(n-w)
differently-labeled pairs is held out once; the error count is the number
of pairs the learner misorders and the u-value is the error fraction.
Exact nulls enumerate all labelings of the fixed sample; Monte-Carlo
p-values sample labelings uniformly with the add-one correction.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, islice
from math import comb

import numpy as np

from .datagen import Dataset
from .johnson import JohnsonGraph, Orientation, refuse_over
from .learners import Learner, bit_matrix, pair_errors
from .wilcoxon import NullDistribution as EmpiricalNull
from .words import Word, _check_weight, _seed_words, iter_words

EXACT_NULL_LIMIT = 10**6
MC_EXACT_THRESHOLD = 10**5
_ENUM_BLOCK_ROWS = 4096


def lpo_kernel(learner: Learner, data: Dataset, labeling: Word, i: int, j: int) -> int:
    """1 iff the learner misorders the held-out pair (1-labeled i, 0-labeled j)."""
    if labeling.bit(i) != 1 or labeling.bit(j) != 0:
        raise ValueError(f"kernel needs labeling 1 at {i} and 0 at {j}")
    return 1 - learner.predict_first(data, labeling, i, j)


def lpocv_u(learner: Learner, data: Dataset, labeling: Word) -> tuple[int, Fraction]:
    """Total LPOCV errors and the exact u-value errors / (w(n-w))."""
    errors = int(learner.error_counts(data, [labeling])[0])
    pairs = labeling.w * (labeling.n - labeling.w)
    return errors, Fraction(errors, pairs)


def histogram_from_errors(errors, n: int, w: int) -> EmpiricalNull:
    counts = np.bincount(np.asarray(errors, dtype=np.int64), minlength=w * (n - w) + 1)
    if len(counts) > w * (n - w) + 1:
        raise ValueError("error count exceeds w(n-w)")
    return EmpiricalNull(n, w, tuple(int(c) for c in counts))


def _labeling_blocks(n: int, w: int):
    """Every labeling of S(n,w) once, as (rows, n) uint8 blocks."""
    _check_weight(n, w)
    refuse_over(f"bytes of a block of S({n},{w})", min(comb(n, w), _ENUM_BLOCK_ROWS) * n)
    supports = combinations(range(n), w)
    while True:
        chunk = list(chain.from_iterable(islice(supports, _ENUM_BLOCK_ROWS)))
        if not chunk:
            return
        block = np.zeros((len(chunk) // w, n), dtype=np.uint8)
        np.put_along_axis(block, np.array(chunk).reshape(-1, w), 1, axis=1)
        yield block


def _all_error_counts(learner: Learner, data: Dataset, w: int) -> np.ndarray:
    """Error count of every labeling in S(n,w), in ``_labeling_blocks`` order."""
    refuse_over(f"C({data.n},{w})", comb(data.n, w), EXACT_NULL_LIMIT, "exact-null")
    blocks = _labeling_blocks(data.n, w)
    return np.concatenate([learner.error_counts(data, block) for block in blocks])


def exact_null_distribution(learner: Learner, data: Dataset, w: int) -> EmpiricalNull:
    """Error-count histogram over every labeling in S(n,w) of the fixed sample."""
    return histogram_from_errors(_all_error_counts(learner, data, w), data.n, w)


def sample_labelings(n: int, w: int, count: int, seed) -> np.ndarray:
    """``count`` uniform labelings from S(n,w), one stream per block of rows.

    Each row is a Fisher-Yates shuffle of the base word; block b of
    ``_ENUM_BLOCK_ROWS`` rows is keyed ``SeedSequence(seed, spawn_key=(b,))``,
    never ``seed``'s own stream, so row r does not depend on ``count``."""
    _check_weight(n, w)
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    refuse_over(f"bytes of {count} labelings of n={n}", count * n)
    seed = _seed_words(seed)
    out = np.zeros((count, n), dtype=np.uint8)
    out[:, :w] = 1
    for b, start in enumerate(range(0, count, _ENUM_BLOCK_ROWS)):
        block = out[start:start + _ENUM_BLOCK_ROWS]
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        rng.permuted(block, axis=1, out=block)
    return out


def null_error_counts(
    learner: Learner, data: Dataset, w: int, M: int, seed
) -> tuple[np.ndarray, bool]:
    """Error counts of the permutation null, and whether they are exact: every
    labeling of S(n,w) when C(n,w) <= ``MC_EXACT_THRESHOLD``, else the M
    labelings of ``sample_labelings(n, w, M, seed)``, M refused past
    ``EXACT_NULL_LIMIT``."""
    if M < 1:
        raise ValueError("M must be at least 1")
    if comb(data.n, w) <= MC_EXACT_THRESHOLD:
        return _all_error_counts(learner, data, w), True
    refuse_over("Monte-Carlo labelings M", M, EXACT_NULL_LIMIT, "exact-null")
    return learner.error_counts(data, sample_labelings(data.n, w, M, seed)), False


def mc_null_pvalue(
    learner: Learner, data: Dataset, w: int, observed_errors: int, M: int, seed
) -> Fraction:
    """Permutation-test p-value for an observed LPOCV error count.

    Monte-Carlo mode draws M labelings and applies the add-one correction
    (1 + #{errors <= observed}) / (M + 1); when C(n,w) <= 10^5 the full
    enumeration is used instead (see ``null_error_counts``).
    """
    errors, exact = null_error_counts(learner, data, w, M, seed)
    hits = int((errors <= observed_errors).sum())
    return Fraction(hits, len(errors)) if exact else Fraction(1 + hits, M + 1)


def orientation_of_learner(
    learner: Learner, data: Dataset, w: int
) -> tuple[Orientation, EmpiricalNull]:
    """The Johnson graph orientation realizing the learner's LPO table.

    Each edge {B, (i j)B} is directed away from the labeling on which the
    learner errs for the differing pair; the label-switch constraint
    guarantees exactly one direction per edge (checked).  Outdegrees then
    equal per-labeling error counts, returned as the exact histogram.
    The full graph is listed first, so one with more edges than
    ``johnson.MATERIALIZE_LIMIT`` is refused before any prediction.
    """
    n = data.n
    g = JohnsonGraph(n, w).full_subgraph()
    # The (edges, n) temporaries below outgrow the (labelings, pairs) errors.
    refuse_over(f"bytes of the edge table of J({n},{w})", len(g.edges) * n)
    mat = bit_matrix(list(iter_words(n, w)), n)  # row r is the labeling of rank r
    lows, highs = np.triu_indices(n, 1)
    stack = (data.features[None], mat[None], lows[None], highs[None])
    errors = np.concatenate([errs[0] for _, errs in pair_errors(learner, *stack)])
    pair = np.zeros((n, n), dtype=np.int64)
    pair[lows, highs] = np.arange(len(lows))
    r, s = np.array(g.edges).reshape(-1, 2).T
    # The two labelings of an edge differ exactly at the two positions of its pair.
    k = pair[tuple(np.nonzero(mat[r] != mat[s])[1].reshape(-1, 2).T)]
    first_errs = errors[r, k]
    clash = np.flatnonzero(first_errs == errors[s, k])
    if len(clash):
        raise AssertionError(
            f"edge {g.edges[clash[0]]} is an error in both or neither of its "
            "labelings; the learner violates the label-switch constraint"
        )
    return Orientation(g, first_errs), histogram_from_errors(errors.sum(axis=1), n, w)
