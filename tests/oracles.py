"""Independent oracles shared by the tests (networkx is a test-only dependency)."""

import itertools
import math

import networkx as nx
import numpy as np

from lightcodes.johnson import JohnsonGraph, Orientation, OrientedSet
from lightcodes.learners import Learner


def colex_masks(n: int, w: int) -> list[int]:
    """Every weight-w mask of length n, ascending; a mask's index is its rank."""
    return sorted(sum(1 << p for p in support) for support in itertools.combinations(range(n), w))


def upward_unrank_mask(n: int, w: int, r: int) -> int:
    """Mask of colex rank ``r`` in S(n,w), raising each position from its
    least value one ``comb`` call at a time."""
    mask = 0
    for k in range(w, 0, -1):
        p = k - 1
        while math.comb(p + 1, k) <= r:
            p += 1
        mask |= 1 << p
        r -= math.comb(p, k)
    return mask


def distance_two_pairs(masks) -> list[tuple[int, int]]:
    """The pairs of ``masks`` that differ in exactly two positions."""
    return [(a, b) for a, b in itertools.combinations(masks, 2) if bin(a ^ b).count("1") == 2]


def johnson_edges(n: int, w: int, masks) -> list[tuple[int, int]]:
    """Sorted (low rank, high rank) edges of J(n,w) among ``masks``, by brute force."""
    rank = {m: r for r, m in enumerate(colex_masks(n, w))}
    return sorted(tuple(sorted((rank[a], rank[b]))) for a, b in distance_two_pairs(set(masks)))


def nx_orientable(masks, cap) -> bool:
    """Whether the Johnson-graph subgraph induced by ``masks`` has an
    orientation with every outdegree <= cap, by networkx max-flow; ``cap``
    is one int for every vertex or a {mask: cap} map.

    Vertices are the words' bitmasks; two words are adjacent when they
    differ in exactly two positions.  The network is source -> edge
    (capacity 1) -> both endpoints (capacity 1) -> sink (the vertex's cap).
    """
    caps = cap if isinstance(cap, dict) else dict.fromkeys(masks, cap)
    edges = distance_two_pairs(masks)
    if not edges:
        return True
    net = nx.DiGraph()
    for k, (a, b) in enumerate(edges):
        net.add_edge("source", ("edge", k), capacity=1)
        net.add_edge(("edge", k), ("vertex", a), capacity=1)
        net.add_edge(("edge", k), ("vertex", b), capacity=1)
    for v in masks:
        net.add_edge(("vertex", v), "sink", capacity=caps[v])
    return nx.maximum_flow_value(net, "source", "sink") == len(edges)


def plain_exact_L(n: int, w: int, W: int) -> int:
    """L(W,n,w) by the plain include/exclude branch and bound over single words.

    Candidates are taken in rank order: include one and drop every later
    candidate that no longer fits, or exclude it.  A branch dies when
    |chosen| + |candidates| cannot beat the best so far, and the root only
    includes word 0 (J(n,w) is vertex-transitive).  No construction seeds
    the incumbent and no upper bound stops the search early.
    """
    graph = JohnsonGraph(n, w)
    total = graph.num_vertices
    state = OrientedSet(total, graph.edges(), [W] * total)
    best = 0

    def extend(candidates: list[int]) -> None:
        nonlocal best
        size = len(state.pushed)
        best = max(best, size)
        for i, v in enumerate(candidates):
            if size + len(candidates) - i <= best:
                break
            assert state.push(v)
            extend([c for c in candidates[i + 1:] if state.fits(c)])
            state.pop()
            if size == 0:
                break

    extend(list(range(total)))
    return best


def knn_neighbor_table(X, k: int) -> np.ndarray:
    """table[i, j] = the k nearest rows to row i once rows i and j are held
    out (Euclidean distance, ties by row index), by the original per-entry
    double loop; the diagonal is left zero.
    """
    n = len(X)
    sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    order = np.argsort(sq, axis=1, kind="stable")
    table = np.zeros((n, n, k), dtype=np.int64)
    for i in range(n):
        row = [int(r) for r in order[i] if r != i]
        for j in range(n):
            if j != i:
                table[i, j] = [r for r in row[: k + 1] if r != j][:k]
    return table


def ridge_retrained_difference(X, y, lam: float, a: int, b: int) -> float:
    """s_a - s_b of ridge refitted on every row but a and b, by least squares.

    The intercept column is left unpenalized: the penalty enters as sqrt(lam)
    rows over the feature coefficients only, with target 0.
    """
    n, d = X.shape
    Z = np.hstack([X, np.ones((n, 1))])
    train = np.ones(n, dtype=bool)
    train[[a, b]] = False
    penalty = np.hstack([np.sqrt(lam) * np.eye(d), np.zeros((d, 1))])
    design = np.vstack([Z[train], penalty])
    target = np.concatenate([np.asarray(y, dtype=float)[train], np.zeros(d)])
    beta = np.linalg.lstsq(design, target, rcond=None)[0]
    return float((Z[a] - Z[b]) @ beta)


def ridge_elementwise_bits(C, block) -> np.ndarray:
    """Ridge's canonical bits (R, L, K) for an (R, L, n) block of 0/1 rows
    over the pair rows C (R, K, n): each score an elementwise product summed
    along the last axis, as ``RidgeLearner.pair_bit`` sums it, with every
    training target 1 counted as a tie.
    """
    n = block.shape[-1]
    bits = (block[:, :, None, :] * C[:, None]).sum(axis=-1) > 0
    return bits & (block.sum(axis=-1, keepdims=True) < n - 1)


class CodeLearner(Learner):
    """A learner whose LPO table is an orientation of J(n,w) built from a W-light code.

    Edges inside the code follow ``code.witness``.  Edges between the code
    and the rest point toward the code, so the outside word takes the error.
    Every other edge points from its lower rank to its higher one.  The code
    words then have outdegree <= W, so at least |code| labelings get at most
    W errors.  An arc leaves the labeling that errs, as in
    ``lpocv.orientation_of_learner``; the features are ignored.
    """

    def __init__(self, code):
        self.n = code.n
        self.rank = {m: r for r, m in enumerate(colex_masks(code.n, code.w))}
        inside = code.witness.domain.vertices
        kept = set(code.witness.arcs())
        domain = JohnsonGraph(code.n, code.w).full_subgraph()
        self.orientation = Orientation(domain, [
            (a, b) in kept if a in inside and b in inside else a not in inside
            for a, b in domain.edges
        ])
        self.tail = {edge: tail for edge, (tail, _) in
                     zip(domain.edges, self.orientation.arcs())}
        self.name = f"code({code.n},{code.w},{code.W}; {code.size} words)"

    def pair_bit(self, data, y, low, high):
        assert data.n == self.n and y[low] != y[high]
        mask = sum(1 << i for i in np.flatnonzero(y).tolist())
        r, s = self.rank[mask], self.rank[mask ^ (1 << low | 1 << high)]
        errs = self.tail[min(r, s), max(r, s)] == r
        # The learner errs on y exactly when its bit equals y[high].
        return int(y[high]) if errs else 1 - int(y[high])
