"""Johnson graphs, induced subgraphs, and edge orientations.

The Johnson graph J(n,w) has one vertex per word of S(n,w) and an edge
between words at Hamming distance 2.  An orientation assigns a direction
to every edge; the outdegree of a vertex under an orientation is the
number of arcs leaving it.  Vertices are handled by their colex rank; an
``Orientation`` holds one flag per edge (a, b), a < b, of its domain's
sorted edge list, true for the arc a -> b and false for b -> a.

Orientations under per-vertex outdegree caps come from one path-reversal
engine, ``OrientedSet``, which also drives the exact search in ``codes``;
both of its verdicts come with a checked certificate.  With cap W at every
vertex it decides W-lightness; with cap ceil(degree/2) it builds the
Eulerian orientation that makes every code of max degree <= 2W W-light.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, groupby
from math import comb

import numpy as np

from .words import (Word, _check_weight, _positions, _seed_words, iter_words, neighbors, rank,
                    unrank)

MATERIALIZE_LIMIT = 10**6
BYTES_LIMIT = 2**30


class ResourceLimitError(RuntimeError):
    """An operation would exceed its documented size limit."""


def refuse_over(what: str, amount: int, limit: int = BYTES_LIMIT, name: str = "memory") -> None:
    """Raise ``ResourceLimitError`` when ``amount`` of ``what`` exceeds ``limit``,
    by default the byte budget of any one array that grows with the sample."""
    if amount > limit:
        raise ResourceLimitError(f"{what} = {amount} exceeds the {name} limit {limit}")


def _check_lightness(W: int) -> None:
    if W < 0:
        raise ValueError("lightness parameter W must be nonnegative")


@dataclass(frozen=True, slots=True)
class JohnsonGraph:
    """The full Johnson graph J(n,w); vertices are identified with ranks."""

    n: int
    w: int

    def __post_init__(self) -> None:
        _check_weight(self.n, self.w)

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

    def rank_of(self, v) -> int:
        """The rank of ``v``, a Word of this graph or a rank in range."""
        if isinstance(v, Word):
            if (v.n, v.w) != (self.n, self.w):
                raise ValueError(
                    f"word {v} has parameters ({v.n},{v.w}), expected ({self.n},{self.w})")
            return rank(v)
        r = int(v)
        if not 0 <= r < self.num_vertices:
            raise ValueError(f"rank {r} out of range for J({self.n},{self.w})")
        return r

    def neighbor_ranks(self, r: int) -> list[int]:
        return [rank(v) for v in neighbors(self.word(r))]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (min rank, max rank) pairs, sorted."""
        refuse_over(f"edges of J({self.n},{self.w})", self.num_edges, MATERIALIZE_LIMIT,
                    "materialization")
        # In colex order a word's position is its rank.
        index = {word.mask: r for r, word in enumerate(iter_words(self.n, self.w))}
        return _edges_among(index)

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

    def is_full(self) -> bool:
        return len(self.vertices) == self.parent.num_vertices


def _edges_among(index: dict[int, int]) -> list[tuple[int, int]]:
    """Sorted edges (r, s), r < s, among the vertices of ``index`` ({mask: rank}).

    Adjacent words share one (w-1)-subset, their intersection, so each edge is
    one pair of one bucket; a key holds a vertex's subset above its rank, and
    sorting the keys groups each bucket in ascending rank."""
    shift = max(index.values(), default=0).bit_length()
    keys = sorted((mask ^ 1 << p) << shift | r
                  for mask, r in index.items() for p in _positions(mask))
    low_bits = (1 << shift) - 1
    edges = []
    for _, bucket in groupby(keys, lambda key: key >> shift):
        edges.extend(combinations([key & low_bits for key in bucket], 2))
    edges.sort()
    return edges


def build_induced(graph: JohnsonGraph, vertices) -> InducedSubgraph:
    """Induced subgraph on the given words or ranks."""
    index: dict[int, int] = {}
    for v in vertices:
        r = graph.rank_of(v)
        index[v.mask if isinstance(v, Word) else graph.word(r).mask] = r
    edges = _edges_among(index)
    return InducedSubgraph(graph, frozenset(index.values()), tuple(edges))


@dataclass(frozen=True)
class Orientation:
    """A direction for every edge of an induced subgraph.

    ``forward[k]`` is true iff edge k = (a, b), a < b, of ``domain.edges`` points a -> b.
    """

    domain: InducedSubgraph
    forward: tuple[bool, ...]
    _outdeg: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        edges, forward = self.domain.edges, tuple(map(bool, self.forward))
        if len(forward) != len(edges):
            raise ValueError(f"{len(forward)} direction flags for {len(edges)} domain edges")
        outdeg = dict.fromkeys(self.domain.vertices, 0)
        for (a, b), fwd in zip(edges, forward):
            outdeg[a if fwd else b] += 1
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "_outdeg", outdeg)

    def arcs(self) -> list[tuple[int, int]]:
        return [(a, b) if fwd else (b, a) for (a, b), fwd in zip(self.domain.edges, self.forward)]

    def max_outdegree(self) -> int:
        return max(self._outdeg.values(), default=0)


def outdegree(orientation: Orientation, v) -> int:
    """Number of arcs leaving vertex ``v`` (a Word or a rank)."""
    r = orientation.domain.parent.rank_of(v)
    if r not in orientation.domain.vertices:
        raise ValueError(f"vertex {r} not in orientation domain")
    return orientation._outdeg[r]


class OrientedSet:
    """A growing vertex set of a graph, kept oriented with outdegrees <= cap[v].

    Vertices are local ids 0..k-1: ``adj[v]`` lists the neighbors of v
    and ``out[v]`` is the set of arc heads leaving v.  A pushed vertex
    orients each edge to the set toward an endpoint with slack (outdegree
    < cap); when neither has slack the edge leaves the new vertex, which
    then sheds the excess along a reversed directed path to a vertex with
    slack (Hakimi 1965; Frank & Gyarfas 1976).  If no such path exists,
    every arc leaving the set R of vertices reachable from the new one
    stays in R and R carries one more of them than its caps sum to, so no
    orientation exists.  A refused push keeps R, and ``check_refusal``
    verifies from the adjacency alone that R spans more edges than the sum
    of its caps.  Every arc change goes on a trail, and pop() undoes the
    last push exactly; commit() forgets the trail when no pop will come.
    """

    def __init__(self, num_vertices: int, edges, cap):
        self.adj: list[list[int]] = [[] for _ in range(num_vertices)]
        for a, b in edges:
            self.adj[a].append(b)
            self.adj[b].append(a)
        self.cap = list(cap)
        self.member = [False] * num_vertices
        self.out: list[set[int]] = [set() for _ in range(num_vertices)]
        self.trail: list[tuple[int, int, bool]] = []  # (tail, head, arc is new)
        self.pushed: list[tuple[int, int]] = []  # (vertex, trail length before it)
        self.refused = None  # the vertices the last refused push reached

    def _relieve(self, s: int):
        """Reverse a path from s to a vertex with slack, or return what s reaches."""
        out, cap = self.out, self.cap
        parent = {s: s}
        queue = [s]
        for x in queue:
            for y in out[x]:
                if y in parent:
                    continue
                parent[y] = x
                if len(out[y]) < cap[y]:
                    # Returning right away keeps out[x] unchanged during its iteration.
                    while y != s:
                        x = parent[y]
                        out[x].remove(y)
                        out[y].add(x)
                        self.trail.append((y, x, False))
                        y = x
                    return None
                queue.append(y)
        return parent.keys()

    def check_refusal(self) -> None:
        """Certify the last refused push: what it reached spans more edges than its caps."""
        reached = self.refused
        twice = sum(u in reached for x in reached for u in self.adj[x])
        caps = sum(self.cap[x] for x in reached)
        if twice <= 2 * caps:
            raise AssertionError(
                f"push refused, but the {len(reached)} vertices it reached span only "
                f"{twice // 2} edges, at most their caps' sum {caps}"
            )

    def push(self, v: int) -> bool:
        """Add v to the set; on infeasibility leave the state as it was."""
        out, member, trail, cap = self.out, self.member, self.trail, self.cap
        self.pushed.append((v, len(trail)))
        member[v] = True
        cap_v = cap[v]
        for u in self.adj[v]:
            if not member[u]:
                continue
            a, b = (u, v) if len(out[v]) >= cap_v and len(out[u]) < cap[u] else (v, u)
            out[a].add(b)
            trail.append((a, b, True))
            if len(out[v]) > cap_v:
                reached = self._relieve(v)
                if reached is not None:
                    self.refused = reached
                    self.pop()
                    return False
        return True

    def pop(self) -> None:
        """Remove the most recently pushed vertex and undo its arc changes."""
        v, mark = self.pushed.pop()
        out, trail = self.out, self.trail
        while len(trail) > mark:
            a, b, new = trail.pop()
            out[a].remove(b)
            if not new:
                out[b].add(a)
        self.member[v] = False

    def commit(self) -> None:
        """Drop the undo history: what was pushed so far stays for good."""
        self.trail.clear()
        self.pushed.clear()

    def fits(self, v: int) -> bool:
        """Whether v could be pushed now; the state is left unchanged."""
        if self.push(v):
            self.pop()
            return True
        return False


def _orient_within(g: InducedSubgraph, cap: dict[int, int]) -> Orientation | None:
    """An orientation of ``g`` with outdegree <= cap[v] at every vertex v, or None.

    Every vertex is pushed into one ``OrientedSet``.  A refused push
    certifies infeasibility by a vertex set spanning more edges than its
    caps; an accepted witness is checked to orient each edge once with
    every outdegree within its cap.
    """
    verts = sorted(g.vertices)
    vid = {v: i for i, v in enumerate(verts)}
    local = [(vid[a], vid[b]) for a, b in g.edges]
    state = OrientedSet(len(verts), local, [cap[v] for v in verts])
    for i in range(len(verts)):
        if not state.push(i):
            state.check_refusal()
            return None
        state.commit()
    out = state.out
    forward = [y in out[x] for x, y in local]
    for e, (x, y), fwd in zip(g.edges, local, forward):
        if fwd == (x in out[y]):
            raise AssertionError(f"witness does not orient edge {e} exactly once")
    witness = Orientation(g, forward)
    for v in verts:
        if witness._outdeg[v] > cap[v]:
            raise AssertionError(
                f"witness has outdegree {witness._outdeg[v]} > W = {cap[v]} at vertex {v}"
            )
    return witness


def orientation_feasible(g: InducedSubgraph, W: int) -> tuple[bool, Orientation | None]:
    """Decide whether ``g`` has an orientation with every outdegree <= W.

    Past the density check, ``_orient_within`` decides with cap W at every
    vertex, and certifies either verdict.
    """
    _check_lightness(W)
    if len(g.edges) > W * len(g.vertices):
        return False, None  # density obstruction, no search needed
    witness = _orient_within(g, dict.fromkeys(g.vertices, W))
    return witness is not None, witness


def eulerian_orientation(g: InducedSubgraph) -> Orientation:
    """Orient ``g`` so every vertex gets outdegree at most ceil(degree/2).

    Any vertex set R spans at most sum over R of degree/2 edges, so by
    Hakimi's theorem these caps always admit an orientation (an Euler
    circuit through virtual edges pairing the odd vertices gives one);
    ``_orient_within`` builds and checks it.
    """
    witness = _orient_within(g, {v: (d + 1) // 2 for v, d in g.degrees().items()})
    if witness is None:
        raise AssertionError("the ceil(degree/2) caps were refused")
    return witness


def min_max_outdegree(g: InducedSubgraph) -> int:
    """Smallest W for which an outdegree-<=W orientation of ``g`` exists.

    No W below ceil(|E|/|V|) can work, so the scan starts there.
    """
    W = -(-len(g.edges) // max(len(g.vertices), 1))
    while not orientation_feasible(g, W)[0]:
        W += 1
    return W


def random_orientation(graph: JohnsonGraph, seed) -> Orientation:
    """Orient every edge of the full J(n,w) by an independent fair coin."""
    g = graph.full_subgraph()
    rng = np.random.default_rng(_seed_words(seed))
    coins = rng.integers(0, 2, size=len(g.edges))
    return Orientation(g, coins == 0)


def count_w_light(orientation: Orientation, W: int) -> int:
    """Number of vertices with outdegree <= W under a full-graph orientation."""
    if not orientation.domain.is_full():
        raise ValueError("count_w_light needs an orientation of the full Johnson graph")
    return sum(1 for d in orientation._outdeg.values() if d <= W)


def write_orientation_file(path, orientation: Orientation) -> None:
    graph = orientation.domain.parent
    bits = {r: str(graph.word(r)) for r in orientation.domain.vertices}
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{graph.n} {graph.w}\n")
        for src, dst in orientation.arcs():
            fh.write(f"{bits[src]} -> {bits[dst]}\n")
