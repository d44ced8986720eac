import itertools
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lightcodes import codes
from lightcodes.codes import (
    LightCode,
    best_construction,
    construct_graham_sloane,
    construct_orbit,
    construct_tournament,
    exact_L,
    tau,
    tau_classes,
    verify_light,
)
from lightcodes.johnson import (
    JohnsonGraph,
    OrientedSet,
    ResourceLimitError,
    build_induced,
)
from lightcodes.words import Word, enumerate_words, hamming, transpose
from oracles import nx_orientable


def brute_force_L(n: int, w: int, W: int) -> int:
    """Largest W-light code by trying every subset and every orientation.

    Completely independent of the orientation engine and the branch and
    bound; only usable for tiny S(n,w).
    """
    graph = JohnsonGraph(n, w)
    allv = list(range(graph.num_vertices))
    best = 0
    for r in range(len(allv), 0, -1):
        if r <= best:
            break
        for subset in itertools.combinations(allv, r):
            sub = build_induced(graph, subset)
            m = len(sub.edges)
            if m > W * r or m > 14:
                continue
            for choice in itertools.product((0, 1), repeat=m):
                outdeg = dict.fromkeys(subset, 0)
                for (a, b), c in zip(sub.edges, choice):
                    outdeg[a if c == 0 else b] += 1
                if max(outdeg.values(), default=0) <= W:
                    best = max(best, r)
                    break
            if best == r:
                break
    return best


def test_verify_light_examples():
    fig4_middle = LightCode(4, 2, 0, (Word.from_string("1100"), Word.from_string("0011")))
    ok, witness = verify_light(fig4_middle)
    assert ok and witness.max_outdegree() == 0

    everything = LightCode(4, 2, 1, tuple(enumerate_words(4, 2)))
    assert not verify_light(everything)[0]

    everything2 = LightCode(4, 2, 2, tuple(enumerate_words(4, 2)))
    ok, witness = verify_light(everything2)
    assert ok and witness.max_outdegree() <= 2


def test_lightcode_validation():
    w = Word.from_string("1100")
    with pytest.raises(ValueError):
        LightCode(4, 2, 0, (w, w))
    with pytest.raises(ValueError):
        LightCode(5, 2, 0, (w,))
    with pytest.raises(ValueError):
        LightCode(4, 2, -1, (w,))


def test_tournament_sizes():
    assert construct_tournament(7, 1).size == 3
    assert construct_tournament(3, 0).size == 1
    assert construct_tournament(3, 5).size == 3
    for n in (2, 4, 9):
        for W in range(0, 5):
            code = construct_tournament(n, W)
            assert code.size == min(2 * W + 1, n)
            assert verify_light(code)[0]


def test_orbit_examples():
    assert construct_orbit(4, 0).size == 2
    assert construct_orbit(5, 1).size == 5
    assert construct_orbit(5, 2).size == 7


def test_orbit_closed_form_sweep():
    for n in range(3, 13):
        for W in range(0, 5):
            code = construct_orbit(n, W)
            assert code.size == min((W + 1) * n // 2, comb(n, 2)), (n, W)
            ok, _ = verify_light(code)
            assert ok, (n, W)


def test_orbit_partial_class_keeps_degree_bound():
    # (W+1)n odd forces a partial class; columns must stay at W+1 ones.
    for n, W in [(5, 2), (7, 0), (9, 2), (9, 4), (11, 2)]:
        code = construct_orbit(n, W)
        column = [0] * n
        for word in code.words:
            for p in word.support():
                column[p] += 1
        assert max(column) <= W + 1
        assert code.induced_subgraph().max_degree() <= 2 * W


def test_tau():
    assert tau(Word.from_string("1100"), 0) == 3
    with pytest.raises(ValueError):
        tau(Word.from_string("1100"), 2)


def test_tau_transposition_property():
    # Equal tau after a transposition forces i = j mod (n-2W).
    n, w = 6, 3
    for W in (0, 1):
        mod = n - 2 * W
        for B in enumerate_words(n, w):
            for i in B.support():
                for j in B.zeros():
                    if tau(B, W) == tau(transpose(B, i, j), W):
                        assert (i - j) % mod == 0


def test_tau_zero_classes_have_distance_four():
    for n, w in [(5, 2), (6, 3)]:
        for cls in tau_classes(n, w, 0):
            for a, b in itertools.combinations(cls, 2):
                assert hamming(a, b) >= 4


def test_graham_sloane_examples():
    for n, w, W in [(5, 2, 0), (6, 3, 0), (8, 3, 1), (9, 4, 2)]:
        code = construct_graham_sloane(n, w, W)
        ok, _ = verify_light(code)
        assert ok
        assert code.size >= -(comb(n, w) // -(n - 2 * W))
        assert code.witness is not None and code.witness.max_outdegree() <= W


def test_graham_sloane_class_components_are_low_degree():
    # Inside one tau class the induced degree is at most 2W.
    for n, w, W in [(8, 3, 1), (9, 4, 2)]:
        code = construct_graham_sloane(n, w, W)
        assert code.induced_subgraph().max_degree() <= 2 * W


def test_graham_sloane_precondition():
    with pytest.raises(ValueError):
        construct_graham_sloane(7, 3, 2)  # n < 4W


def test_exact_L_examples():
    assert exact_L(4, 2, 0) == 2
    assert exact_L(4, 2, 1) == 4
    assert exact_L(5, 1, 1) == 3


def test_exact_L_brute_force_oracle():
    for n, w, W in [(4, 2, 0), (4, 2, 1), (5, 1, 0), (5, 1, 1), (4, 1, 1), (5, 4, 0)]:
        assert exact_L(n, w, W) == brute_force_L(n, w, W), (n, w, W)


def test_exact_L_complement_symmetry():
    for n, w, W in [(4, 1, 1), (5, 2, 0), (5, 2, 1), (6, 1, 2)]:
        assert exact_L(n, w, W) == exact_L(n, n - w, W)


def test_exact_L_monotone_and_capped():
    prev = 0
    for W in range(0, 9):
        cur = exact_L(4, 2, W)
        assert cur >= prev
        prev = cur
    assert exact_L(4, 2, 4) == 6  # W >= w(n-w) reaches C(n,w)


def test_exact_L_resource_limit():
    with pytest.raises(ResourceLimitError):
        exact_L(10, 5, 1)


def test_exact_L_rejects_negative_W():
    with pytest.raises(ValueError, match="nonnegative"):
        exact_L(4, 2, -2)
    with pytest.raises(ValueError, match="nonnegative"):
        exact_L(6, 3, -1, return_code=True)


def test_exact_L_fails_loudly_when_verification_fails(monkeypatch):
    monkeypatch.setattr(codes, "orientation_feasible", lambda g, W: (False, None))
    for return_code in (False, True):
        with pytest.raises(AssertionError, match="fails orientation verification"):
            exact_L(6, 3, 1, return_code=return_code)


def test_exact_L_returns_verified_code():
    size, code = exact_L(5, 2, 1, return_code=True)
    assert size == code.size == 5
    ok, _ = verify_light(code)
    assert ok


def test_best_construction_is_light():
    for n, w, W in [(6, 3, 1), (7, 3, 0), (6, 2, 2), (6, 4, 1), (5, 4, 1)]:
        code = best_construction(n, w, W)
        assert (code.n, code.w) == (n, w)
        assert verify_light(code)[0]


def _check_oriented_set(state: OrientedSet, graph: JohnsonGraph, chosen: list[int], W: int):
    """The state holds exactly ``chosen``, oriented edge by edge with outdegrees <= W."""
    assert [v for v, inside in enumerate(state.member) if inside] == sorted(chosen)
    arcs = set()
    for v, heads in enumerate(state.out):
        assert len(heads) <= W
        if v not in chosen:
            assert not heads
        arcs.update((v, u) for u in heads)
    undirected = {(min(a, b), max(a, b)) for a, b in arcs}
    assert len(undirected) == len(arcs)  # no edge oriented both ways
    assert undirected == set(build_induced(graph, chosen).edges)


@given(st.data())
def test_oriented_set_agrees_with_max_flow(data):
    n, w = data.draw(st.sampled_from([(4, 2), (5, 2), (6, 2), (6, 3), (7, 2), (7, 3)]))
    W = data.draw(st.integers(0, 3))
    graph = JohnsonGraph(n, w)
    state = OrientedSet(graph.num_vertices, graph.edges(), [W] * graph.num_vertices)
    chosen: list[int] = []
    # None pops the last vertex; an integer tries to push that vertex.
    ops = data.draw(st.lists(st.none() | st.integers(0, graph.num_vertices - 1), max_size=40))
    for op in ops:
        if op is None:
            if chosen:
                state.pop()
                chosen.pop()
        elif op not in chosen:
            want = nx_orientable([graph.word(r).mask for r in chosen + [op]], W)
            assert state.fits(op) == want
            _check_oriented_set(state, graph, chosen, W)
            assert state.push(op) == want
            if want:
                chosen.append(op)
            else:
                state.check_refusal()
        _check_oriented_set(state, graph, chosen, W)


# L(W,n,w) for W = 0..3 on every (n,w) with C(n,w) <= 24, recorded from the
# max-flow-per-node branch and bound that the incremental search replaced.
PINNED_L = {
    (2, 1): (1, 2, 2, 2),
    (3, 1): (1, 3, 3, 3),
    (3, 2): (1, 3, 3, 3),
    (4, 1): (1, 3, 4, 4),
    (4, 2): (2, 4, 6, 6),
    (4, 3): (1, 3, 4, 4),
    (5, 1): (1, 3, 5, 5),
    (5, 2): (2, 5, 7, 10),
    (5, 3): (2, 5, 7, 10),
    (5, 4): (1, 3, 5, 5),
    (6, 1): (1, 3, 5, 6),
    (6, 2): (3, 6, 9, 12),
    (6, 3): (4, 7, 11, 14),
    (6, 4): (3, 6, 9, 12),
    (6, 5): (1, 3, 5, 6),
    (7, 1): (1, 3, 5, 7),
    (7, 2): (3, 7, 10, 14),
    (7, 5): (3, 7, 10, 14),
    (7, 6): (1, 3, 5, 7),
    (8, 1): (1, 3, 5, 7),
    (8, 7): (1, 3, 5, 7),
    (9, 1): (1, 3, 5, 7),
    (9, 8): (1, 3, 5, 7),
    (10, 1): (1, 3, 5, 7),
    (10, 9): (1, 3, 5, 7),
    (11, 1): (1, 3, 5, 7),
    (11, 10): (1, 3, 5, 7),
    (12, 1): (1, 3, 5, 7),
    (12, 11): (1, 3, 5, 7),
    (13, 1): (1, 3, 5, 7),
    (13, 12): (1, 3, 5, 7),
    (14, 1): (1, 3, 5, 7),
    (14, 13): (1, 3, 5, 7),
    (15, 1): (1, 3, 5, 7),
    (15, 14): (1, 3, 5, 7),
    (16, 1): (1, 3, 5, 7),
    (16, 15): (1, 3, 5, 7),
    (17, 1): (1, 3, 5, 7),
    (17, 16): (1, 3, 5, 7),
    (18, 1): (1, 3, 5, 7),
    (18, 17): (1, 3, 5, 7),
    (19, 1): (1, 3, 5, 7),
    (19, 18): (1, 3, 5, 7),
    (20, 1): (1, 3, 5, 7),
    (20, 19): (1, 3, 5, 7),
    (21, 1): (1, 3, 5, 7),
    (21, 20): (1, 3, 5, 7),
    (22, 1): (1, 3, 5, 7),
    (22, 21): (1, 3, 5, 7),
    (23, 1): (1, 3, 5, 7),
    (23, 22): (1, 3, 5, 7),
    (24, 1): (1, 3, 5, 7),
    (24, 23): (1, 3, 5, 7),
}


def test_exact_L_pinned_values_with_networkx_oracle():
    assert len(PINNED_L) * 4 == 212
    for (n, w), values in PINNED_L.items():
        for W, want in enumerate(values):
            size, code = exact_L(n, w, W, return_code=True)
            assert size == code.size == want, (n, w, W)
            assert nx_orientable([word.mask for word in code.words], W), (n, w, W)
            assert code.witness.max_outdegree() <= W
