"""Johnson graphs, induced subgraphs, and edge orientations.

The Johnson graph J(n,w) has one vertex per word of S(n,w) and an edge
between words at Hamming distance 2.  An orientation assigns a direction
to every edge; the outdegree of a vertex under an orientation is the
number of arcs leaving it.  Vertices are handled by their colex rank.

Feasibility of "orient every edge so no vertex exceeds outdegree W" is
decided by max-flow on the standard edge/vertex bipartite network; the
constructive counterpart for max degree <= 2W is the Eulerian orientation
(with virtual edges pairing odd-degree vertices).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .words import Word, _check_params, iter_words, neighbor_masks, neighbors, rank, unrank

MATERIALIZE_LIMIT = 10**6


class ResourceLimitError(RuntimeError):
    """An operation would exceed its documented size limit."""


@dataclass(frozen=True, slots=True)
class JohnsonGraph:
    """The full Johnson graph J(n,w); vertices are identified with ranks."""

    n: int
    w: int

    def __post_init__(self) -> None:
        _check_params(self.n, self.w)

    @property
    def num_vertices(self) -> int:
        return comb(self.n, self.w)

    @property
    def degree(self) -> int:
        return self.w * (self.n - self.w)

    @property
    def num_edges(self) -> int:
        return self.num_vertices * self.degree // 2

    def word(self, r: int) -> Word:
        return unrank(self.n, self.w, r)

    def neighbor_ranks(self, r: int) -> list[int]:
        return [rank(v) for v in neighbors(self.word(r))]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min rank, max rank) pairs, sorted."""
        if self.num_vertices > MATERIALIZE_LIMIT:
            raise ResourceLimitError(
                f"J({self.n},{self.w}) has {self.num_vertices} vertices, "
                f"over the materialization limit {MATERIALIZE_LIMIT}"
            )
        # In colex order a word's position is its rank.
        index = {word.mask: r for r, word in enumerate(iter_words(self.n, self.w))}
        return _edges_among(index, self.n)

    def full_subgraph(self) -> "InducedSubgraph":
        return InducedSubgraph(self, frozenset(range(self.num_vertices)), tuple(self.edges()))


@dataclass(frozen=True, slots=True)
class InducedSubgraph:
    """Subgraph of a Johnson graph induced by a vertex (rank) subset."""

    parent: JohnsonGraph
    vertices: frozenset[int]
    edges: tuple[tuple[int, int], ...]

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices}
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def max_degree(self) -> int:
        deg = self.degrees()
        return max(deg.values(), default=0)

    def is_full(self) -> bool:
        return len(self.vertices) == self.parent.num_vertices


def _edges_among(index: dict[int, int], n: int) -> list[tuple[int, int]]:
    """Sorted edges (r, s), r < s, among the vertices of ``index`` ({mask: rank})."""
    edges = []
    for mask, r in index.items():
        for m in neighbor_masks(mask, n):
            s = index.get(m)
            if s is not None and s > r:
                edges.append((r, s))
    edges.sort()
    return edges


def build_induced(graph: JohnsonGraph, vertices) -> InducedSubgraph:
    """Induced subgraph on the given words or ranks."""
    index: dict[int, int] = {}
    for v in vertices:
        if isinstance(v, Word):
            if v.n != graph.n or v.w != graph.w:
                raise ValueError(
                    f"word {v} has parameters ({v.n},{v.w}), expected ({graph.n},{graph.w})"
                )
            index[v.mask] = rank(v)
        else:
            r = int(v)
            if not 0 <= r < graph.num_vertices:
                raise ValueError(f"rank {r} out of range for J({graph.n},{graph.w})")
            index[unrank(graph.n, graph.w, r).mask] = r
    edges = _edges_among(index, graph.n)
    return InducedSubgraph(graph, frozenset(index.values()), tuple(edges))


@dataclass(frozen=True)
class Orientation:
    """A direction for every edge of an induced subgraph."""

    domain: InducedSubgraph
    direction: dict[tuple[int, int], tuple[int, int]]
    _outdeg: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if set(self.direction) != set(self.domain.edges):
            raise ValueError("orientation does not cover exactly the domain edges")
        outdeg = {v: 0 for v in self.domain.vertices}
        for (a, b), (src, dst) in self.direction.items():
            if {src, dst} != {a, b}:
                raise ValueError(f"arc ({src},{dst}) is not a direction of edge ({a},{b})")
            outdeg[src] += 1
        object.__setattr__(self, "_outdeg", outdeg)

    def arcs(self) -> list[tuple[int, int]]:
        return [self.direction[e] for e in sorted(self.direction)]

    def max_outdegree(self) -> int:
        return max(self._outdeg.values(), default=0)


def outdegree(orientation: Orientation, v) -> int:
    """Number of arcs leaving vertex ``v`` (a Word or a rank)."""
    r = rank(v) if isinstance(v, Word) else int(v)
    if r not in orientation.domain.vertices:
        raise ValueError(f"vertex {r} not in orientation domain")
    return orientation._outdeg[r]


def eulerian_orientation(g: InducedSubgraph) -> Orientation:
    """Orient ``g`` so every vertex gets outdegree at most ceil(degree/2).

    Odd-degree vertices are paired in rank order with virtual edges; each
    component of the augmented multigraph is traversed along an Euler
    circuit and real edges take the traversal direction.
    """
    verts = sorted(g.vertices)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in verts}
    n_real = len(g.edges)
    for eid, (a, b) in enumerate(g.edges):
        adj[a].append((b, eid))
        adj[b].append((a, eid))
    odd = [v for v in verts if len(adj[v]) % 2 == 1]
    for k in range(0, len(odd), 2):
        eid = n_real + k // 2
        a, b = odd[k], odd[k + 1]
        adj[a].append((b, eid))
        adj[b].append((a, eid))

    total_edges = n_real + len(odd) // 2
    used = [False] * total_edges
    ptr = {v: 0 for v in verts}
    direction: dict[tuple[int, int], tuple[int, int]] = {}

    for start in verts:
        if ptr[start] >= len(adj[start]):
            continue
        # Iterative Hierholzer; stack entries are (vertex, edge used to arrive).
        stack: list[tuple[int, int]] = [(start, -1)]
        path: list[tuple[int, int]] = []
        while stack:
            v, _ = stack[-1]
            moved = False
            while ptr[v] < len(adj[v]):
                u, eid = adj[v][ptr[v]]
                ptr[v] += 1
                if not used[eid]:
                    used[eid] = True
                    stack.append((u, eid))
                    moved = True
                    break
            if not moved:
                path.append(stack.pop())
        circuit = path[::-1]
        for k in range(1, len(circuit)):
            src = circuit[k - 1][0]
            dst, eid = circuit[k]
            if eid < n_real:
                a, b = g.edges[eid]
                direction[(a, b)] = (src, dst)

    return Orientation(g, direction)


class _Dinic:
    """Deterministic max-flow on a small unit-ish capacity network."""

    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int, c: int) -> int:
        eid = len(self.to)
        self.to.append(v)
        self.cap.append(c)
        self.head[u].append(eid)
        self.to.append(u)
        self.cap.append(0)
        self.head[v].append(eid + 1)
        return eid

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            queue = [s]
            for u in queue:
                for eid in self.head[u]:
                    v = self.to[eid]
                    if self.cap[eid] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
            if level[t] < 0:
                return flow
            it = [0] * self.n

            def dfs(u: int, pushed: int) -> int:
                if u == t:
                    return pushed
                while it[u] < len(self.head[u]):
                    eid = self.head[u][it[u]]
                    v = self.to[eid]
                    if self.cap[eid] > 0 and level[v] == level[u] + 1:
                        got = dfs(v, min(pushed, self.cap[eid]))
                        if got:
                            self.cap[eid] -= got
                            self.cap[eid ^ 1] += got
                            return got
                    it[u] += 1
                return 0

            while True:
                pushed = dfs(s, 1 << 60)
                if not pushed:
                    break
                flow += pushed


def orientation_feasible(g: InducedSubgraph, W: int) -> tuple[bool, Orientation | None]:
    """Decide whether ``g`` has an orientation with every outdegree <= W.

    Network: source -> one node per edge (capacity 1) -> the edge's two
    endpoints (capacity 1) -> sink (capacity W per vertex).  Feasible iff
    the max-flow saturates all edges; the saturated endpoint of each edge
    node is the arc's tail.
    """
    if W < 0:
        raise ValueError("W must be nonnegative")
    m = len(g.edges)
    if m == 0:
        return True, Orientation(g, {})
    if m > W * len(g.vertices):
        return False, None  # density obstruction, no flow needed
    verts = sorted(g.vertices)
    vid = {v: i for i, v in enumerate(verts)}
    # Nodes: 0 = source, 1..m = edges, m+1..m+|V| = vertices, last = sink.
    net = _Dinic(m + len(verts) + 2)
    sink = m + len(verts) + 1
    endpoint_eids = []
    for k, (a, b) in enumerate(g.edges):
        net.add_edge(0, 1 + k, 1)
        ea = net.add_edge(1 + k, 1 + m + vid[a], 1)
        eb = net.add_edge(1 + k, 1 + m + vid[b], 1)
        endpoint_eids.append((ea, eb))
    for i in range(len(verts)):
        net.add_edge(1 + m + i, sink, W)
    if net.max_flow(0, sink) != m:
        return False, None
    direction = {}
    for k, (a, b) in enumerate(g.edges):
        ea, eb = endpoint_eids[k]
        if net.cap[ea] == 0:  # saturated: edge charged to endpoint a
            direction[(a, b)] = (a, b)
        elif net.cap[eb] == 0:
            direction[(a, b)] = (b, a)
        else:
            raise AssertionError(f"max-flow left edge ({a},{b}) unassigned")
    return True, Orientation(g, direction)


def min_max_outdegree(g: InducedSubgraph) -> int:
    """Smallest W for which an outdegree-<=W orientation of ``g`` exists."""
    if not g.edges:
        return 0
    lo, hi = 0, (g.max_degree() + 1) // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if orientation_feasible(g, mid)[0]:
            hi = mid
        else:
            lo = mid + 1
    return lo


def random_orientation(graph: JohnsonGraph, seed) -> Orientation:
    """Orient every edge of the full J(n,w) by an independent fair coin."""
    g = graph.full_subgraph()
    rng = np.random.default_rng(seed)
    coins = rng.integers(0, 2, size=len(g.edges))
    direction = {}
    for (a, b), c in zip(g.edges, coins):
        direction[(a, b)] = (a, b) if c == 0 else (b, a)
    return Orientation(g, direction)


def count_w_light(orientation: Orientation, W: int) -> int:
    """Number of vertices with outdegree <= W under a full-graph orientation."""
    if not orientation.domain.is_full():
        raise ValueError("count_w_light needs an orientation of the full Johnson graph")
    return sum(1 for d in orientation._outdeg.values() if d <= W)


def read_orientation_file(path) -> tuple[int, int, list[tuple[Word, Word]]]:
    """Read a witness file: header line ``n w`` then ``FROMBITS -> TOBITS`` arcs."""
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: bad header, expected 'n w'")
        n, w = int(header[0]), int(header[1])
        arcs = []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("->")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'FROM -> TO'")
            src = Word.from_string(parts[0].strip())
            dst = Word.from_string(parts[1].strip())
            if (src.n, src.w) != (n, w) or (dst.n, dst.w) != (n, w):
                raise ValueError(f"{path}:{lineno}: arc words do not match header")
            arcs.append((src, dst))
    return n, w, arcs


def write_orientation_file(path, orientation: Orientation) -> None:
    graph = orientation.domain.parent
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{graph.n} {graph.w}\n")
        for src, dst in orientation.arcs():
            fh.write(f"{graph.word(src)} -> {graph.word(dst)}\n")
