"""W-light constant-weight codes: constructions, verification, exact maxima.

A code C in S(n,w) is W-light when the subgraph of J(n,w) induced by C can
be oriented with every code vertex at outdegree <= W.  Edges leaving the
code never count against it, so only induced edges matter.

The closed forms at the weight boundary and the recursive upper bound on L(W,n,w)
live here rather than in ``bounds``: ``exact_L`` stops once its incumbent meets
it or the Hoffman ratio and edge-count bounds of ``_closed_form_upper``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations
from math import comb

from .johnson import (
    MATERIALIZE_LIMIT,
    InducedSubgraph,
    JohnsonGraph,
    Orientation,
    OrientedSet,
    _check_lightness,
    build_induced,
    orientation_feasible,
    refuse_over,
)
from .wilcoxon import wmw_distribution
from .words import Word, _check_weight, enumerate_words, iter_words, rank, unrank

# C(7,3) = 35, the next size up, takes about 0.3 s at W = 1, 1 s at W = 5, 9 s at
# W = 4 and 95 s at W = 2; W = 3 did not finish in 120 s (2-core VM, Python 3.11).
EXACT_SEARCH_LIMIT = 24


@dataclass(frozen=True, slots=True)
class LightCode:
    n: int
    w: int
    W: int
    words: tuple[Word, ...]
    witness: Orientation | None = None

    def __post_init__(self) -> None:
        _check_lightness(self.W)
        seen = set()
        for word in self.words:
            if (word.n, word.w) != (self.n, self.w):
                raise ValueError(
                    f"word {word} has parameters ({word.n},{word.w}), "
                    f"expected ({self.n},{self.w})"
                )
            if word in seen:
                raise ValueError(f"duplicate code word {word}")
            seen.add(word)
        witness = self.witness
        if witness is not None and (witness.domain.parent, witness.domain.vertices) != (
                JohnsonGraph(self.n, self.w), frozenset(map(rank, self.words))):
            raise ValueError("witness orientation is not on the code's words")
        if witness is not None and witness.max_outdegree() > self.W:
            raise ValueError("witness orientation exceeds the lightness parameter")

    @property
    def size(self) -> int:
        return len(self.words)

    def induced_subgraph(self) -> InducedSubgraph:
        return build_induced(JohnsonGraph(self.n, self.w), self.words)


def verify_light(code: LightCode) -> tuple[bool, Orientation | None]:
    """Check W-lightness of the code's induced subgraph; see ``orientation_feasible``."""
    return orientation_feasible(code.induced_subgraph(), code.W)


def _certified(n: int, w: int, W: int, words: list[Word]) -> LightCode:
    """The code on ``words`` with the cap-W witness of ``orientation_feasible``."""
    ok, witness = orientation_feasible(build_induced(JohnsonGraph(n, w), words), W)
    if not ok:
        raise AssertionError(f"the code of {len(words)} words for (n={n}, w={w}, W={W}) "
                             f"is not {W}-light: it fails orientation verification")
    return LightCode(n, w, W, tuple(words), witness)


def construct_tournament(n: int, W: int) -> LightCode:
    """Weight-1 code of size min(2W+1, n); the induced graph is complete.

    A complete graph on at most 2W+1 vertices has max degree <= 2W, so its
    Eulerian orientation keeps every vertex at outdegree <= W.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    _check_lightness(W)
    size = min(2 * W + 1, n)
    words = [Word.from_support(n, (i,)) for i in range(size)]
    return _certified(n, 1, W, words)


def _shift_orbit(n: int, d: int) -> list[Word]:
    """Cyclic-shift orbit of the weight-2 word with support {0, d}."""
    size = n // 2 if 2 * d == n else n
    return [Word.from_support(n, (t, (t + d) % n)) for t in range(size)]


def construct_orbit(n: int, W: int) -> LightCode:
    """Weight-2 code of size min(floor((W+1)n/2), C(n,2)) from shift orbits.

    Full orbits add two ones per column of the codeword matrix and the
    half orbit (even n, distance n/2) adds one; columns are filled to W+1
    ones so the induced degree stays <= 2W.  When (W+1)n is odd no exact
    fill exists: floor(n/2) pairwise-disjoint words of the distance-1
    orbit top the stack instead, keeping every column at or below W+1.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    _check_lightness(W)
    total = comb(n, 2)
    target = min((W + 1) * n // 2, total)
    if target == total:
        words = enumerate_words(n, 2)
    elif (W + 1) % 2 == 0:
        words = [wd for d in range(1, (W + 1) // 2 + 1) for wd in _shift_orbit(n, d)]
    elif n % 2 == 0:
        words = [wd for d in range(1, W // 2 + 1) for wd in _shift_orbit(n, d)]
        words += _shift_orbit(n, n // 2)
    else:
        words = [wd for d in range(2, W // 2 + 2) for wd in _shift_orbit(n, d)]
        matching = [Word.from_support(n, (2 * t, 2 * t + 1)) for t in range(n // 2)]
        words += matching[: target - len(words)]
    if len(words) != target:
        raise AssertionError(
            f"shift-orbit construction for (n={n}, W={W}) has {len(words)} words, "
            f"expected {target}"
        )
    return _certified(n, 2, W, words)


def _tau_modulus(n: int, W: int) -> int:
    if n - 2 * W < 1:
        raise ValueError(f"modulus n - 2W = {n - 2 * W} must be positive")
    return n - 2 * W


def tau(word: Word, W: int) -> int:
    """Position-weighted sum sum_i i*B_i (1-based) mod (n - 2W)."""
    return sum(i + 1 for i in word.support()) % _tau_modulus(word.n, W)


def tau_classes(n: int, w: int, W: int) -> list[list[Word]]:
    """Partition of S(n,w) by the tau residue; index = residue class."""
    classes: list[list[Word]] = [[] for _ in range(_tau_modulus(n, W))]
    refuse_over(f"C({n},{w})", comb(n, w), MATERIALIZE_LIMIT, "materialization")
    for word in enumerate_words(n, w):
        classes[tau(word, W)].append(word)
    return classes


def tau_class_sizes(n: int, w: int, W: int, counts=None) -> list[int]:
    """Sizes of the tau classes by residue, listing no word.

    Over the w-subsets S of {1..n}, sum_S q^(sum S) = q^(w(w+1)/2) [n choose w]_q.
    The Gaussian binomial's coefficients are the WMW null ``counts``, so shifted
    by w(w+1)/2 and folded mod n - 2W they count each class.
    """
    modulus, counts = _tau_modulus(n, W), counts or wmw_distribution(n, w).counts
    return [sum(counts[(r - w * (w + 1) // 2) % modulus::modulus]) for r in range(modulus)]


def construct_graham_sloane(n: int, w: int, W: int) -> LightCode:
    """Largest tau residue class, certified W-light.

    Requires n >= 4W: inside one class, the only distance-2 moves are the
    2W disjoint transpositions with equal residue, so components are
    hypercubes of dimension <= 2W and the Eulerian orientation caps every
    outdegree at W.  Ties between classes go to the smallest residue.
    The class is kept from 0-based supports S by tau = sum S + w, in mask (colex) order.
    """
    _check_lightness(W)
    if n < 4 * W:
        raise ValueError(f"Graham-Sloane construction needs n >= 4W, got n={n}, W={W}")
    refuse_over(f"C({n},{w})", comb(n, w), MATERIALIZE_LIMIT, "materialization")
    sizes = tau_class_sizes(n, w, W)
    modulus, best = len(sizes), sizes.index(max(sizes))
    masks = sorted(sum(1 << p for p in support) for support in combinations(range(n), w)
                   if (sum(support) + w) % modulus == best)
    return _certified(n, w, W, [Word(mask, n, w) for mask in masks])


def best_construction(n: int, w: int, W: int) -> LightCode:
    """Largest certified code among the applicable constructions (at least a single word)."""
    candidates: list[LightCode] = []
    if w == 1:
        candidates.append(construct_tournament(n, W))
    if w == 2 and n >= 3:
        candidates.append(construct_orbit(n, W))
    if n - w in (1, 2):
        base = construct_tournament(n, W) if n - w == 1 else construct_orbit(n, W)
        flipped = [word.complement() for word in base.words]
        candidates.append(_certified(n, w, W, flipped))
    if n >= 4 * W and comb(n, w) <= MATERIALIZE_LIMIT:
        candidates.append(construct_graham_sloane(n, w, W))
    if not candidates:
        candidates.append(_certified(n, w, W, [Word((1 << w) - 1, n, w)]))
    return max(candidates, key=lambda c: c.size)


def boundary_exact(n: int, w: int, W: int) -> int | None:
    """Closed-form L(W,n,w) for w or n-w in {1,2}; None otherwise."""
    _check_weight(n, w)
    _check_lightness(W)
    if w == 1 or n - w == 1:
        return min(2 * W + 1, n)
    if w == 2 or n - w == 2:
        return min((W + 1) * n // 2, comb(n, 2))
    return None


@cache
def johnson_upper(n: int, w: int, W: int) -> int:
    """Recursive upper bound on L(W,n,w), anchored at the closed forms.

    Rows that are multiples of 64 first fill the cache 64 rows down, so the
    recursion, one row per call, stays about 128 + n/64 calls deep."""
    _check_weight(n, w)
    _check_lightness(W)
    if w > n - w:
        w = n - w  # complement symmetry
    if W >= w * (n - w):
        return comb(n, w)
    exact = boundary_exact(n, w, W)
    if exact is not None:
        return exact
    if n % 64 == 0:
        for v in range(max(1, w - 64), min(w, n - 65) + 1):
            johnson_upper(n - 64, v, W)
    jb1 = johnson_upper(n - 1, w - 1, W) * n // w
    jb2 = johnson_upper(n - 1, w, W) * n // (n - w)
    return min(jb1, jb2, comb(n, w))


def _closed_form_upper(n: int, w: int, W: int) -> int:
    """An upper bound on L(W,n,w): min(C, C(2W+v)/(v(n-v+1)), dC/(2(d-W)) if W < d), floored,
    where J(n,v), v = min(w, n-w), has C = C(n,v) words, degree d = v(n-v), least eigenvalue -v.
    A W-light S spans e(S) <= W|S| edges: x = 1_S - |S|/C in x'Ax >= -v|x|^2 gives the ratio
    bound (Haemers 2021), and the d|S| - 2e(S) edges leaving S end at most d per word outside S."""
    v = min(w, n - w)
    d, total = v * (n - v), comb(n, v)
    ceiling = min(total, total * (2 * W + v) // (v * (n - v + 1)))
    return ceiling if W >= d else min(ceiling, d * total // (2 * (d - W)))


def _split(cells: list[int], mask: int) -> list[int]:
    """Refine a partition of the positions, as cell masks, by one chosen word."""
    return [part for cell in cells for part in (cell & mask, cell & ~mask) if part]


def _orbits(masks, cells, candidates) -> list[list[int]]:
    """The candidates (indices into ``masks``) by orbit of the product of Sym(cell)
    over the ``cells``, a count of ones per cell, in order of first appearance."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for c in candidates:
        groups.setdefault(tuple((masks[c] & cell).bit_count() for cell in cells), []).append(c)
    return list(groups.values())


def _extension_bound(W: int, slack: int, inside) -> int:
    """Most candidates a W-light set S with ``slack`` W*|S| - edges(S) >= 0 can
    take: a light S + T spans <= W*|S + T| edges (Hakimi 1965), so sum over T of
    (inside[t] - W) <= slack, inside[t] being t's neighbors in S.  Prefix sums
    of the ascending excesses fall, then rise, so those within slack count T."""
    return sum(p <= slack for p in accumulate(sorted(d - W for d in inside)))


def _search(n: int, w: int, W: int, upper: int, best_ranks: list[int]) -> list[int]:
    """The ranks of the largest W-light code, from the incumbent ``best_ranks``.

    One ``johnson.OrientedSet`` keeps the chosen set oriented with
    outdegrees <= W, and candidates that no longer fit alone are dropped.
    A node takes its candidates' orbits under the chosen words' stabilizer
    (``_orbits``) in turn: include one representative, or exclude the orbit
    (Ostrowski, Linderoth, Rossi & Smriglio 2011).  Each group lies inside
    its ancestors', so every exclusion stays closed under it; at the root
    S(n,w) is one orbit.  A node dies when ``_extension_bound`` cannot beat
    the incumbent, and the search stops once it meets ``upper``.
    """
    total = comb(n, w)
    masks = [word.mask for word in iter_words(n, w)]
    state = OrientedSet(total, JohnsonGraph(n, w).edges(), [W] * total)

    def extend(candidates: list[int], cells: list[int]) -> bool:
        """Branch on orbits over ``cells``, split by each chosen word; True at ``upper``."""
        nonlocal best_ranks
        size = len(state.pushed)
        if size > len(best_ranks):
            best_ranks = sorted(v for v, _ in state.pushed)
            if size == upper:
                return True
        slack = W * size - sum(map(len, state.out))
        inside = {c: sum(map(state.member.__getitem__, state.adj[c])) for c in candidates}
        for orbit in _orbits(masks, cells, candidates):
            if size + _extension_bound(W, slack, map(inside.get, candidates)) <= len(best_ranks):
                break
            v = orbit[0]
            if not state.push(v):
                raise AssertionError(f"candidate {v} passed the filter but does not fit")
            fit = [c for c in candidates if c != v and state.fits(c)]
            done = extend(fit, _split(cells, masks[v]))
            state.pop()
            if done:
                return True
            candidates = [c for c in candidates if c not in orbit]
        return False

    extend(list(range(total)), [(1 << n) - 1])
    return best_ranks


def exact_L(n: int, w: int, W: int, return_code: bool = False):
    """Exact maximum size of a W-light (n,w) code, by orbital branch and bound.

    The incumbent is the certified ``best_construction``, returned as it is when it
    meets the least of ``johnson_upper`` and ``_closed_form_upper``; otherwise ``_search``
    tries to beat it up to that ceiling, keeping only a larger code, so any valid ceiling
    gives the same words; such a code is certified by ``_certified``.  Words come in rank order.
    """
    _check_weight(n, w)
    _check_lightness(W)
    refuse_over(f"C({n},{w})", comb(n, w), EXACT_SEARCH_LIMIT, "exhaustive search")
    upper = min(johnson_upper(n, w, W), _closed_form_upper(n, w, W))
    seed = best_construction(n, w, W)
    code = LightCode(n, w, W, tuple(sorted(seed.words, key=rank)), seed.witness)
    if code.size < upper:
        ranks = _search(n, w, W, upper, list(map(rank, code.words)))
        if len(ranks) > code.size:
            code = _certified(n, w, W, [unrank(n, w, r) for r in ranks])
    return (code.size, code) if return_code else code.size
