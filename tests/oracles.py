"""Independent oracles shared by the tests (networkx is a test-only dependency)."""

import itertools

import networkx as nx
import numpy as np


def colex_masks(n: int, w: int) -> list[int]:
    """Every weight-w mask of length n, ascending; a mask's index is its rank."""
    return sorted(sum(1 << p for p in support) for support in itertools.combinations(range(n), w))


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
