"""Leave-pair-out cross-validation: kernel, U-statistic, null distributions.

For a sample of n rows and a weight-w labeling, every one of the w(n-w)
differently-labeled pairs is held out once; the error count is the number
of pairs the learner misorders and the u-value is the error fraction.
Exact nulls enumerate all labelings of the fixed sample; Monte-Carlo
p-values sample labelings uniformly with the add-one correction.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from .datagen import Dataset
from .johnson import JohnsonGraph, Orientation, ResourceLimitError
from .learners import Learner
from .wilcoxon import NullDistribution as EmpiricalNull
from .words import Word, iter_words, rank, transpose

EXACT_NULL_LIMIT = 10**6
MC_EXACT_THRESHOLD = 10**5


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


def exact_null_distribution(learner: Learner, data: Dataset, w: int) -> EmpiricalNull:
    """Error-count histogram over every labeling in S(n,w) of the fixed sample."""
    n = data.n
    total = comb(n, w)
    if total > EXACT_NULL_LIMIT:
        raise ResourceLimitError(
            f"C({n},{w}) = {total} labelings exceed the exact-null limit "
            f"{EXACT_NULL_LIMIT}"
        )
    errors = learner.error_counts(data, list(iter_words(n, w)))
    return histogram_from_errors(errors, n, w)


def sample_labelings(n: int, w: int, count: int, seed) -> np.ndarray:
    """Uniform labelings from S(n,w), one independent stream per draw.

    Each row is a Fisher-Yates shuffle of the fixed base word, seeded by
    (seed, draw index), so draws are order-independent.
    """
    base = np.zeros(n, dtype=np.uint8)
    base[:w] = 1
    out = np.empty((count, n), dtype=np.uint8)
    for r in range(count):
        rng = np.random.default_rng((seed, r) if np.isscalar(seed) else (*seed, r))
        out[r] = rng.permutation(base)
    return out


def mc_null_pvalue(
    learner: Learner,
    data: Dataset,
    w: int,
    observed_errors: int,
    M: int,
    seed,
    exact: bool | None = None,
) -> Fraction:
    """Permutation-test p-value for an observed LPOCV error count.

    Monte-Carlo mode draws M labelings and applies the add-one correction
    (1 + #{errors <= observed}) / (M + 1); when C(n,w) <= 10^5 the full
    enumeration is used instead (``exact`` overrides the automatic choice).
    """
    if M < 1:
        raise ValueError("M must be at least 1")
    n = data.n
    total = comb(n, w)
    if exact is None:
        exact = total <= MC_EXACT_THRESHOLD
    if exact:
        errors = learner.error_counts(data, list(iter_words(n, w)))
        hits = int((errors <= observed_errors).sum())
        return Fraction(hits, total)
    mat = sample_labelings(n, w, M, seed)
    errors = learner.error_counts(data, mat)
    hits = int((errors <= observed_errors).sum())
    return Fraction(1 + hits, M + 1)


def orientation_of_learner(
    learner: Learner, data: Dataset, w: int
) -> tuple[Orientation, EmpiricalNull]:
    """The Johnson graph orientation realizing the learner's LPO table.

    Each edge {B, (i j)B} is directed away from the labeling on which the
    learner errs for the differing pair; the label-switch constraint
    guarantees exactly one direction per edge (checked).  Outdegrees then
    equal per-labeling error counts, returned as the exact histogram.
    """
    n = data.n
    graph = JohnsonGraph(n, w)
    if graph.num_vertices > 10**4:
        raise ResourceLimitError("orientation extraction is for small S(n,w) only")
    direction: dict[tuple[int, int], tuple[int, int]] = {}
    outdeg: dict[int, int] = {}
    for word in iter_words(n, w):
        r = rank(word)
        errs = 0
        for i in word.support():
            for j in word.zeros():
                k = lpo_kernel(learner, data, word, i, j)
                errs += k
                other = transpose(word, i, j)
                s = rank(other)
                key = (min(r, s), max(r, s))
                arc = (r, s) if k == 1 else (s, r)
                if key in direction:
                    if direction[key] != arc:
                        raise AssertionError(
                            f"edge {key} received two directions; the learner "
                            "violates the label-switch constraint"
                        )
                else:
                    direction[key] = arc
        outdeg[r] = errs
    sub = graph.full_subgraph()
    orientation = Orientation(sub, direction)
    counts = [0] * (graph.degree + 1)
    for errs in outdeg.values():
        counts[errs] += 1
    return orientation, EmpiricalNull(n, w, tuple(counts))
