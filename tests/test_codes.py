import functools
import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lightcodes import codes
from lightcodes.codes import (
    LightCode,
    best_construction,
    boundary_exact,
    construct_graham_sloane,
    construct_orbit,
    construct_tournament,
    exact_L,
    johnson_upper,
    tau,
    tau_class_sizes,
    tau_classes,
    verify_light,
)
from lightcodes.johnson import (
    JohnsonGraph,
    OrientedSet,
    ResourceLimitError,
    build_induced,
)
from lightcodes.words import Word, enumerate_words, hamming, rank, transpose, unrank
from oracles import distance_two_pairs, nx_orientable, plain_exact_L


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


def test_lightcode_rejects_a_witness_of_other_words():
    code = construct_orbit(9, 2)
    with pytest.raises(ValueError, match="not on the code's words"):
        LightCode(9, 2, 2, code.words, construct_orbit(9, 1).witness)
    with pytest.raises(ValueError, match="not on the code's words"):
        LightCode(9, 2, 2, code.words[:-1], code.witness)
    # The same ranks of another Johnson graph are not the code's words either.
    other = construct_tournament(9, 4)
    same_ranks = tuple(map(JohnsonGraph(9, 2).word, sorted(other.witness.domain.vertices)))
    with pytest.raises(ValueError, match="not on the code's words"):
        LightCode(9, 2, 4, same_ranks, other.witness)
    assert LightCode(9, 2, 2, code.words, code.witness) == code


def test_constructions_certify_with_cap_W(monkeypatch):
    calls = []
    feasible = codes.orientation_feasible
    monkeypatch.setattr(codes, "orientation_feasible",
                        lambda g, W: calls.append(W) or feasible(g, W))
    for construct in (lambda: construct_tournament(7, 2), lambda: construct_orbit(9, 3),
                      lambda: construct_graham_sloane(12, 4, 2)):
        code = construct()
        assert code.witness is not None and code.witness.max_outdegree() <= code.W
        assert code.witness == feasible(code.induced_subgraph(), code.W)[1]
    assert calls == [2, 3, 2]
    monkeypatch.setattr(codes, "orientation_feasible", lambda g, W: (False, None))
    with pytest.raises(AssertionError, match=r"\(n=12, w=4, W=2\) is not 2-light"):
        construct_graham_sloane(12, 4, 2)


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
        assert max(code.induced_subgraph().degrees().values(), default=0) <= 2 * W


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


def test_tau_classes_refuse_past_the_materialization_limit(monkeypatch):
    def never(n, w):
        raise AssertionError(f"enumerated S({n},{w})")

    monkeypatch.setattr(codes, "enumerate_words", never)
    for build in (lambda: tau_classes(40, 20, 2), lambda: construct_graham_sloane(40, 20, 2)):
        with pytest.raises(ResourceLimitError, match=r"C\(40,20\) = 137846528820"):
            build()
    monkeypatch.undo()
    monkeypatch.setattr(codes, "MATERIALIZE_LIMIT", comb(8, 3))
    assert sum(map(len, tau_classes(8, 3, 1))) == comb(8, 3)
    with pytest.raises(ResourceLimitError):
        tau_classes(9, 3, 1)


def _enumerable(max_words: int):
    """(n, w, W) with n <= 16, C(n,w) <= ``max_words`` and n >= 4W."""
    return st.tuples(st.integers(2, 16), st.integers(1, 15), st.integers(0, 4)).filter(
        lambda t: t[1] < t[0] and comb(t[0], t[1]) <= max_words and t[0] >= 4 * t[2]
    )


@settings(max_examples=80, deadline=None)
@given(_enumerable(20_000))
def test_tau_class_sizes_count_the_enumerated_classes(instance):
    assert tau_class_sizes(*instance) == [len(c) for c in tau_classes(*instance)]


@settings(max_examples=30, deadline=None)
@given(_enumerable(2_000))
def test_graham_sloane_lists_the_largest_enumerated_class(instance):
    classes = tau_classes(*instance)
    largest = max(classes, key=len)  # the first largest: the smallest residue
    assert construct_graham_sloane(*instance).words == tuple(largest)


def test_best_construction_falls_back_to_one_word_without_enumerating(monkeypatch):
    def never(n, w):
        raise AssertionError(f"enumerated S({n},{w})")

    monkeypatch.setattr(codes, "enumerate_words", never)
    code = best_construction(30, 15, 10)  # no construction applies: 30 < 4W
    assert code.size == 1 and code.words[0] == Word((1 << 15) - 1, 30, 15)


@pytest.mark.parametrize(
    "construct, args",
    [(construct_tournament, (5,)), (construct_orbit, (9,)), (construct_graham_sloane, (9, 3))],
)
def test_constructions_reject_negative_W(construct, args, monkeypatch):
    monkeypatch.setattr(codes, "build_induced", None)  # refused before any building
    with pytest.raises(ValueError, match="must be nonnegative"):
        construct(*args, -1)


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
        assert max(code.induced_subgraph().degrees().values(), default=0) <= 2 * W


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
    # The constructions certify through the same check, so seed with one unchecked word.
    monkeypatch.setattr(codes, "best_construction",
                        lambda n, w, W: LightCode(n, w, W, (Word((1 << w) - 1, n, w),)))
    monkeypatch.setattr(codes, "orientation_feasible", lambda g, W: (False, None))
    for return_code in (False, True):
        with pytest.raises(AssertionError, match="fails orientation verification"):
            exact_L(6, 3, 1, return_code=return_code)


def test_exact_L_returns_verified_code():
    size, code = exact_L(5, 2, 1, return_code=True)
    assert size == code.size == 5
    ok, _ = verify_light(code)
    assert ok


def test_exact_L_certifies_only_a_code_its_search_found(monkeypatch):
    calls = []
    feasible = codes.orientation_feasible
    monkeypatch.setattr(codes, "orientation_feasible",
                        lambda g, W: calls.append(W) or feasible(g, W))

    def certifications(job, *args):
        calls.clear()
        job(*args)
        return len(calls)

    # (7,2,1): the orbit construction meets johnson_upper, so nothing more is checked.
    assert certifications(exact_L, 7, 2, 1) == certifications(best_construction, 7, 2, 1)
    # (6,3,2): the search beats the one-word fallback, and its code is certified once.
    assert certifications(exact_L, 6, 3, 2) == certifications(best_construction, 6, 3, 2) + 1

    def no_search(*args):
        raise AssertionError("built a search state")

    monkeypatch.setattr(codes, "OrientedSet", no_search)
    size, code = exact_L(7, 2, 1, return_code=True)
    assert size == code.size == 7 and code.witness.max_outdegree() <= 1
    assert list(code.words) == sorted(code.words, key=codes.rank)


def test_every_returned_code_carries_its_witness():
    instances = [(n, w, W) for n in range(3, 10) for w in range(1, n)
                 if comb(n, w) <= codes.EXACT_SEARCH_LIMIT for W in range(w * (n - w) + 1)]
    assert len(instances) > 100
    for n, w, W in instances + [(30, 15, 10), (9, 4, 3)]:
        found = [best_construction(n, w, W)]
        if comb(n, w) <= codes.EXACT_SEARCH_LIMIT:
            found.append(exact_L(n, w, W, return_code=True)[1])
        for code in found:
            assert code.witness is not None, (n, w, W)
            assert code.witness.domain == code.induced_subgraph()
            assert code.witness.max_outdegree() <= W


def _check_exact_code(size: int, code: LightCode, W: int) -> None:
    assert size == code.size
    assert nx_orientable([word.mask for word in code.words], W)
    assert code.witness.max_outdegree() <= W


def test_exact_L_matches_the_plain_branch_and_bound():
    for W in range(10):
        size, code = exact_L(6, 3, W, return_code=True)
        assert size == plain_exact_L(6, 3, W), W
        _check_exact_code(size, code, W)


def test_exact_L_past_the_size_limit(monkeypatch):
    with pytest.raises(ResourceLimitError, match=r"C\(7,3\) = 35"):
        exact_L(7, 3, 1)
    monkeypatch.setattr(codes, "EXACT_SEARCH_LIMIT", comb(7, 3))
    size, code = exact_L(7, 3, 1, return_code=True)
    assert size == 10
    _check_exact_code(size, code, 1)


# Every instance exact_L takes: C(n,w) <= EXACT_SEARCH_LIMIT and 0 <= W <= w(n-w).
ENUMERABLE = [(n, w, W) for n in range(2, codes.EXACT_SEARCH_LIMIT + 1) for w in range(1, n)
              if comb(n, w) <= codes.EXACT_SEARCH_LIMIT for W in range(w * (n - w) + 1)]


def test_closed_form_ceiling_is_at_least_L_on_every_enumerable_instance():
    assert len(ENUMERABLE) == 665
    for n, w, W in ENUMERABLE:
        # Past 14 words the plain search takes seconds per weight-1 instance;
        # there the closed form min(2W+1, n) is L.
        closed = boundary_exact(n, w, W)
        L = plain_exact_L(n, w, W) if closed is None or comb(n, w) <= 14 else closed
        assert codes._closed_form_upper(n, w, W) >= L, (n, w, W)


def test_closed_form_ceiling_is_at_least_every_construction():
    rows = below = 0
    for n in range(3, 15):
        for w in range(1, n):
            for W in range(3 * n):
                ceiling = codes._closed_form_upper(n, w, W)
                assert ceiling >= best_construction(n, w, W).size, (n, w, W)
                rows, below = rows + 1, below + (ceiling < johnson_upper(n, w, W))
    assert (rows, below) == (2724, 630)


def test_closed_form_ceiling_is_every_word_exactly_when_2W_reaches_the_degree():
    for n in range(2, 31):
        for w in range(1, n):
            d = w * (n - w)
            for W in range(d + 3):
                assert (codes._closed_form_upper(n, w, W) == comb(n, w)) == (2 * W >= d)
                assert codes._closed_form_upper(n, w, W) <= comb(n, w)


def test_exact_L_returns_the_words_of_the_search_run_to_johnson_upper():
    for n, w, W in ENUMERABLE:
        ranks = sorted(map(rank, best_construction(n, w, W).words))
        if len(ranks) < johnson_upper(n, w, W):
            ranks = codes._search(n, w, W, johnson_upper(n, w, W), ranks)
        code = exact_L(n, w, W, return_code=True)[1]
        assert code.words == tuple(unrank(n, w, r) for r in ranks), (n, w, W)


def test_exact_L_stops_the_search_at_the_closed_form_ceiling(monkeypatch):
    uppers = []
    search = codes._search
    monkeypatch.setattr(codes, "_search", lambda n, w, W, upper, best: (
        uppers.append(upper) or search(n, w, W, upper, best)))
    assert exact_L(6, 3, 2) == 11
    assert uppers == [11] and johnson_upper(6, 3, 2) == 14


def _cell_counts(mask: int, cells: list[list[int]]) -> list[int]:
    return [sum(mask >> p & 1 for p in cell) for cell in cells]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbits_are_the_cell_preserving_classes(data):
    n, w = data.draw(st.sampled_from([(6, 3), (7, 3)]))
    masks = [word.mask for word in enumerate_words(n, w)]
    ranks = st.integers(0, len(masks) - 1)
    chosen = data.draw(st.lists(ranks, max_size=5, unique=True))
    candidates = data.draw(st.lists(ranks, min_size=1, unique=True))
    # Positions lying in the same chosen words; a permutation fixes every
    # chosen word exactly when it keeps each of these cells in place.
    by_signature: dict[tuple[int, ...], list[int]] = {}
    for p in range(n):
        by_signature.setdefault(tuple(masks[v] >> p & 1 for v in chosen), []).append(p)
    cells = list(by_signature.values())

    split = functools.reduce(codes._split, (masks[v] for v in chosen), [(1 << n) - 1])
    assert sorted(split) == sorted(sum(1 << p for p in cell) for cell in cells)
    groups = codes._orbits(masks, split, candidates)
    position = {c: i for i, c in enumerate(candidates)}
    assert sorted(c for group in groups for c in group) == sorted(candidates)
    for group in groups:
        assert [position[c] for c in group] == sorted(position[c] for c in group)
    assert [position[group[0]] for group in groups] == sorted(position[g[0]] for g in groups)
    for group in groups:
        a = masks[group[0]]
        for b in (masks[c] for c in group):
            perm = {}
            for cell in cells:
                for bit in (1, 0):
                    src = [p for p in cell if a >> p & 1 == bit]
                    dst = [p for p in cell if b >> p & 1 == bit]
                    assert len(src) == len(dst)
                    perm.update(zip(src, dst))
            assert sorted(perm.values()) == list(range(n))

            def apply(m):
                return sum(1 << perm[p] for p in range(n) if m >> p & 1)

            assert apply(a) == b
            assert all(apply(masks[v]) == masks[v] for v in chosen)
    for g, h in itertools.combinations(groups, 2):
        assert _cell_counts(masks[g[0]], cells) != _cell_counts(masks[h[0]], cells)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_extension_bound_covers_every_light_extension(data):
    n, w = data.draw(st.sampled_from([(5, 2), (6, 3), (7, 3)]))
    W = data.draw(st.integers(0, 3))
    masks = [word.mask for word in enumerate_words(n, w)]
    order = data.draw(st.permutations(masks))
    chosen = []
    for m in order[: data.draw(st.integers(0, 8))]:
        if nx_orientable(chosen + [m], W):
            chosen.append(m)
    rest = [m for m in order if m not in chosen]
    candidates = rest[: data.draw(st.integers(0, min(12, len(rest))))]
    edges = len(distance_two_pairs(chosen))
    inside = [sum(bin(t ^ m).count("1") == 2 for m in chosen) for t in candidates]
    bound = codes._extension_bound(W, W * len(chosen) - edges, inside)
    # Subsets of a W-light set are W-light, so no light extension is longer
    # than the bound once no extension one longer is light.
    for extra in itertools.combinations(candidates, bound + 1):
        assert not nx_orientable(chosen + list(extra), W), (chosen, extra, bound)


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
            assert size == want, (n, w, W)
            _check_exact_code(size, code, W)
