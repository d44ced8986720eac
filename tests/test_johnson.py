import itertools
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightcodes import johnson
from lightcodes.johnson import (
    InducedSubgraph,
    JohnsonGraph,
    Orientation,
    OrientedSet,
    build_induced,
    count_w_light,
    eulerian_orientation,
    min_max_outdegree,
    orientation_feasible,
    outdegree,
    random_orientation,
    write_orientation_file,
)
from lightcodes.words import Word, enumerate_words, unrank
from oracles import colex_masks, johnson_edges, nx_orientable

SMALL_JOHNSON = [(4, 2), (5, 1), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3)]


def brute_force_feasible(g: InducedSubgraph, W: int) -> bool:
    """Try all 2^|E| orientations; independent of the orientation engine."""
    verts = sorted(g.vertices)
    for choice in itertools.product((0, 1), repeat=len(g.edges)):
        outdeg = {v: 0 for v in verts}
        for (a, b), c in zip(g.edges, choice):
            outdeg[a if c == 0 else b] += 1
        if max(outdeg.values(), default=0) <= W:
            return True
    return False


def test_full_graph_counts():
    g = JohnsonGraph(4, 2)
    assert g.num_vertices == 6
    assert g.degree == 4
    assert g.num_edges == 12
    full = g.full_subgraph()
    assert len(full.edges) == 12
    assert all(d == 4 for d in full.degrees().values())


def test_build_induced():
    g = JohnsonGraph(4, 2)
    full = build_induced(g, enumerate_words(4, 2))
    assert len(full.vertices) == 6 and len(full.edges) == 12
    single = build_induced(g, [Word.from_string("1100")])
    assert len(single.edges) == 0
    distant = build_induced(g, [Word.from_string("1100"), Word.from_string("0011")])
    assert len(distant.edges) == 0
    with pytest.raises(ValueError):
        build_induced(g, [Word.from_string("110")])


@given(st.data())
def test_build_induced_edges_match_brute_force(data):
    n, w = data.draw(st.sampled_from(SMALL_JOHNSON))
    graph = JohnsonGraph(n, w)
    ranks = data.draw(st.lists(st.integers(0, graph.num_vertices - 1)))
    all_masks = colex_masks(n, w)
    masks = [all_masks[r] for r in ranks]
    expected = johnson_edges(n, w, masks)
    for vertices in ([Word(m, n, w) for m in masks], ranks):
        sub = build_induced(graph, vertices)
        assert sub.vertices == frozenset(ranks)
        assert list(sub.edges) == expected


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_build_induced_edges_match_brute_force_past_64_positions(data):
    n, w = data.draw(st.integers(65, 96)), data.draw(st.integers(1, 3))
    graph = JohnsonGraph(n, w)
    all_masks = colex_masks(n, w)
    ranks = data.draw(st.lists(st.integers(0, len(all_masks) - 1), min_size=1, max_size=20))
    # Plant transposition neighbors of drawn vertices, so that edges exist.
    rank_of = {m: r for r, m in enumerate(all_masks)}
    for r, one, zero in data.draw(st.lists(st.tuples(
            st.sampled_from(ranks), st.integers(0, w - 1), st.integers(0, n - 1)), max_size=20)):
        mask = all_masks[r]
        if not mask >> zero & 1:
            i = [p for p in range(n) if mask >> p & 1][one]
            ranks.append(rank_of[mask ^ 1 << i ^ 1 << zero])
    masks = [all_masks[r] for r in ranks]
    expected = johnson_edges(n, w, masks)
    for vertices in ([Word(m, n, w) for m in masks], ranks):
        sub = build_induced(graph, vertices)
        assert sub.vertices == frozenset(ranks)
        assert list(sub.edges) == expected


@pytest.mark.parametrize("n, w", SMALL_JOHNSON)
def test_full_graph_adjacency_matches_brute_force(n, w):
    graph = JohnsonGraph(n, w)
    expected = johnson_edges(n, w, colex_masks(n, w))
    assert graph.edges() == expected
    for r in range(graph.num_vertices):
        want = sorted([s for a, s in expected if a == r] + [a for a, s in expected if s == r])
        assert sorted(graph.neighbor_ranks(r)) == want


def test_eulerian_triangle():
    g = JohnsonGraph(3, 1)  # K3
    o = eulerian_orientation(g.full_subgraph())
    assert sorted(o._outdeg.values()) == [1, 1, 1]


def test_eulerian_full_j42():
    o = eulerian_orientation(JohnsonGraph(4, 2).full_subgraph())
    assert all(outdegree(o, v) == 2 for v in range(6))


def test_eulerian_odd_degrees():
    # Star-ish subgraph of J(5,1) = K5: degrees 3,1,1,1 after inducing on a path.
    g = JohnsonGraph(5, 1)
    sub = build_induced(g, [0, 1, 2, 3])  # K4: all degrees odd (3)
    o = eulerian_orientation(sub)
    deg = sub.degrees()
    for v in sub.vertices:
        assert outdegree(o, v) <= (deg[v] + 1) // 2


def test_eulerian_ceiling_bound_random_subgraphs():
    rng = np.random.default_rng(0)
    g = JohnsonGraph(5, 2)
    for _ in range(20):
        size = rng.integers(2, 9)
        verts = rng.choice(10, size=size, replace=False)
        sub = build_induced(g, [int(v) for v in verts])
        o = eulerian_orientation(sub)
        deg = sub.degrees()
        for v in sub.vertices:
            assert outdegree(o, v) <= (deg[v] + 1) // 2


def test_orientation_feasible_examples():
    full = JohnsonGraph(4, 2).full_subgraph()
    ok, witness = orientation_feasible(full, 2)
    assert ok and witness is not None
    assert witness.max_outdegree() <= 2
    assert len(witness.forward) == len(full.edges)
    ok1, w1 = orientation_feasible(full, 1)
    assert not ok1 and w1 is None
    empty = build_induced(JohnsonGraph(4, 2), [0])
    assert orientation_feasible(empty, 0)[0]


def test_feasible_matches_brute_force():
    rng = np.random.default_rng(1)
    g = JohnsonGraph(5, 2)
    for trial in range(15):
        size = rng.integers(2, 7)
        verts = [int(v) for v in rng.choice(10, size=size, replace=False)]
        sub = build_induced(g, verts)
        if len(sub.edges) > 12:
            continue
        for W in range(0, 3):
            got, witness = orientation_feasible(sub, W)
            assert got == brute_force_feasible(sub, W)
            if got:
                assert witness.max_outdegree() <= W


@given(st.data())
def test_feasible_matches_networkx_max_flow(data):
    n, w = data.draw(st.sampled_from(SMALL_JOHNSON))
    g = JohnsonGraph(n, w)
    verts = data.draw(st.sets(st.integers(0, g.num_vertices - 1), min_size=1))
    sub = build_induced(g, verts)
    # W around the density threshold ceil(|E|/|V|), where only the flow can decide.
    W = max(0, -(-len(sub.edges) // len(verts)) + data.draw(st.integers(-1, 1)))
    got, witness = orientation_feasible(sub, W)
    assert got == nx_orientable([g.word(r).mask for r in verts], W)
    if got:
        assert witness.max_outdegree() <= W


def test_wrong_refusal_fails_its_certificate(monkeypatch):
    # J(4,2) is 2-light, so pushing its last vertices needs a path reversal;
    # a search that gives up there, having reached only the new vertex, has
    # no dense set to show for it.
    full = JohnsonGraph(4, 2).full_subgraph()
    monkeypatch.setattr(OrientedSet, "_relieve", lambda self, s: {s})
    with pytest.raises(AssertionError, match="push refused"):
        orientation_feasible(full, 2)


def test_bad_witness_fails_its_certificate(monkeypatch):
    # Claiming a reversal without doing it leaves a vertex above outdegree W.
    full = JohnsonGraph(4, 2).full_subgraph()
    monkeypatch.setattr(OrientedSet, "_relieve", lambda self, s: None)
    with pytest.raises(AssertionError, match=r"witness has outdegree \d+ > W = 2"):
        orientation_feasible(full, 2)


@given(st.data())
def test_oriented_set_per_vertex_caps_agree_with_max_flow(data):
    n, w = data.draw(st.sampled_from(SMALL_JOHNSON))
    graph = JohnsonGraph(n, w)
    cap = data.draw(st.lists(st.integers(0, 3), min_size=graph.num_vertices,
                             max_size=graph.num_vertices))
    state = OrientedSet(graph.num_vertices, graph.edges(), cap)
    chosen: list[int] = []
    order = data.draw(st.permutations(range(graph.num_vertices)))
    for v in order[: data.draw(st.integers(1, graph.num_vertices))]:
        masks = [graph.word(r).mask for r in chosen + [v]]
        want = nx_orientable(masks, {graph.word(r).mask: cap[r] for r in chosen + [v]})
        assert state.push(v) == want
        if not want:
            state.check_refusal()
            continue
        chosen.append(v)
        arcs = [(x, y) for x in chosen for y in state.out[x]]
        assert all(len(state.out[x]) <= cap[x] for x in chosen)
        assert sorted(tuple(sorted(a)) for a in arcs) == list(build_induced(graph, chosen).edges)


@given(st.data())
def test_eulerian_orientation_within_half_degree(data):
    n, w = data.draw(st.sampled_from([(6, 3), (7, 2), (8, 4)]))
    g = JohnsonGraph(n, w)
    verts = data.draw(st.sets(st.integers(0, g.num_vertices - 1), min_size=1))
    sub = build_induced(g, verts)
    arcs = eulerian_orientation(sub).arcs()
    assert sorted(tuple(sorted(a)) for a in arcs) == list(sub.edges)
    deg = sub.degrees()
    for v in verts:
        assert sum(src == v for src, _ in arcs) <= (deg[v] + 1) // 2


def test_eulerian_refusal_raises(monkeypatch):
    full = JohnsonGraph(4, 2).full_subgraph()
    monkeypatch.setattr(OrientedSet, "_relieve", lambda self, s: {s})
    with pytest.raises(AssertionError, match="push refused"):
        eulerian_orientation(full)
    monkeypatch.setattr(OrientedSet, "check_refusal", lambda self: None)
    with pytest.raises(AssertionError, match="caps were refused"):
        eulerian_orientation(full)


def test_fact_low_degree_always_feasible():
    # Max degree <= 2W guarantees a W-light orientation of all vertices.
    rng = np.random.default_rng(2)
    g = JohnsonGraph(5, 2)
    for _ in range(10):
        verts = [int(v) for v in rng.choice(10, size=6, replace=False)]
        sub = build_induced(g, verts)
        W = (max(sub.degrees().values(), default=0) + 1) // 2
        ok, witness = orientation_feasible(sub, W)
        assert ok and witness.max_outdegree() <= W


def test_min_max_outdegree():
    g = JohnsonGraph(4, 2)
    assert min_max_outdegree(g.full_subgraph()) == 2
    assert min_max_outdegree(build_induced(g, [0])) == 0
    assert min_max_outdegree(build_induced(g, [0, 1])) == 1


def test_min_max_outdegree_scans_past_the_edge_density():
    # A K5 of J(18,2) (the words {0, x}) plus six isolated words: 10 edges on
    # 11 vertices start the scan at ceil(10/11) = 1, but the K5 needs 2.
    g = JohnsonGraph(18, 2)
    words = [Word.from_support(18, [0, x]) for x in range(1, 6)]
    words += [Word.from_support(18, [x, x + 1]) for x in range(6, 18, 2)]
    sub = build_induced(g, words)
    assert (len(sub.edges), len(sub.vertices)) == (10, 11)
    masks = [word.mask for word in words]
    assert not nx_orientable(masks, 1) and nx_orientable(masks, 2)
    assert min_max_outdegree(sub) == 2


def test_min_max_outdegree_matches_density():
    # Threshold equals max over sub-subsets of ceil(|E|/|V|); brute on small graphs.
    rng = np.random.default_rng(3)
    g = JohnsonGraph(5, 2)
    for _ in range(10):
        verts = [int(v) for v in rng.choice(10, size=6, replace=False)]
        sub = build_induced(g, verts)
        got = min_max_outdegree(sub)
        best = 0
        vlist = sorted(sub.vertices)
        for r in range(1, len(vlist) + 1):
            for subset in itertools.combinations(vlist, r):
                sset = set(subset)
                e = sum(1 for a, b in sub.edges if a in sset and b in sset)
                best = max(best, -(e // -len(sset)))
        assert got == best


def test_orientation_flags_one_direction_per_edge():
    full = JohnsonGraph(4, 2).full_subgraph()
    with pytest.raises(ValueError, match="11 direction flags for 12 domain edges"):
        Orientation(full, [True] * 11)
    # A true flag points edge (a, b), a < b, from a: rank 0 then leaves all
    # of its 4 neighbours and rank 5 none.
    up = Orientation(full, [True] * 12)
    assert up.arcs() == list(full.edges)
    assert (outdegree(up, 0), outdegree(up, 5)) == (4, 0)
    down = Orientation(full, [False] * 12)
    assert down.arcs() == [(b, a) for a, b in full.edges]
    assert (outdegree(down, 0), outdegree(down, 5)) == (0, 4)


def test_random_orientation_deterministic():
    a = random_orientation(JohnsonGraph(4, 2), seed=5)
    b = random_orientation(JohnsonGraph(4, 2), seed=5)
    assert a.forward == b.forward
    c = random_orientation(JohnsonGraph(4, 2), seed=6)
    assert len(c.arcs()) == 12


def test_random_orientation_handshake():
    for seed in (0, 1, 2):
        o = random_orientation(JohnsonGraph(5, 2), seed=seed)
        total = sum(o._outdeg.values())
        assert total == comb(5, 2) * 2 * 3 // 2


def test_edges_refused_by_edge_count_before_listing(monkeypatch):
    # J(24,7) has 346,104 vertices, under the limit, and 20,593,188 edges.
    def never(n, w):
        raise AssertionError(f"listed S({n},{w})")

    monkeypatch.setattr(johnson, "iter_words", never)
    with pytest.raises(johnson.ResourceLimitError, match="20593188"):
        random_orientation(JohnsonGraph(24, 7), 0)


def test_count_w_light():
    o = eulerian_orientation(JohnsonGraph(4, 2).full_subgraph())
    assert count_w_light(o, 2) == 6
    assert count_w_light(o, 1) == 0
    assert count_w_light(o, 4) == 6
    partial = eulerian_orientation(build_induced(JohnsonGraph(4, 2), [0, 1]))
    with pytest.raises(ValueError):
        count_w_light(partial, 1)


def test_outdegree_errors():
    o = eulerian_orientation(build_induced(JohnsonGraph(4, 2), [0, 1]))
    assert outdegree(o, 0) + outdegree(o, 1) == 1
    with pytest.raises(ValueError):
        outdegree(o, 5)


def test_outdegree_rejects_a_word_of_another_graph():
    o = eulerian_orientation(JohnsonGraph(4, 2).full_subgraph())
    assert outdegree(o, Word.from_string("1100")) == outdegree(o, 0) == 2
    with pytest.raises(ValueError, match=r"parameters \(6,3\), expected \(4,2\)"):
        outdegree(o, Word.from_string("111000"))  # rank 0 of J(6,3)


def test_orientation_file_roundtrip(tmp_path):
    o = eulerian_orientation(JohnsonGraph(4, 2).full_subgraph())
    path = tmp_path / "wit.txt"
    write_orientation_file(path, o)
    header, *lines = path.read_text().splitlines()
    n, w = map(int, header.split())
    arcs = [tuple(map(Word.from_string, line.split(" -> "))) for line in lines]
    assert (n, w) == (4, 2)
    assert all((word.n, word.w) == (4, 2) for arc in arcs for word in arc)
    assert len(arcs) == 12
    first = path.read_text().splitlines()
    assert first[0] == "4 2"
    assert "->" in first[1]


def test_orientation_file_unranks_each_vertex_once(tmp_path, monkeypatch):
    graph = JohnsonGraph(6, 3)
    o = orientation_feasible(graph.full_subgraph(), 5)[1]
    want = "6 3\n" + "".join(f"{graph.word(a)} -> {graph.word(b)}\n" for a, b in o.arcs())
    calls = []

    def counted(n, w, r):
        calls.append(r)
        return unrank(n, w, r)

    monkeypatch.setattr(johnson, "unrank", counted)
    path = tmp_path / "wit.txt"
    write_orientation_file(path, o)
    assert path.read_text() == want
    assert sorted(calls) == list(range(graph.num_vertices))
