"""W-light constant-weight codes: constructions, verification, exact maxima.

A code C in S(n,w) is W-light when the subgraph of J(n,w) induced by C can
be oriented with every code vertex at outdegree <= W.  Edges leaving the
code never count against it, so only induced edges matter.

The closed forms at the weight boundary and the recursive upper bound on
L(W,n,w) live here rather than in ``bounds``, because ``exact_L`` stops
as soon as its incumbent meets the upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

from .johnson import (
    InducedSubgraph,
    JohnsonGraph,
    Orientation,
    OrientedSet,
    ResourceLimitError,
    build_induced,
    eulerian_orientation,
    orientation_feasible,
)
from .words import Word, enumerate_words, rank

# C(7,3) = 35, the next size up, takes about 25 s at W = 1 and W = 5 and
# more than 120 s at each of W = 2, 3, 4 (2-core VM, Python 3.11).
EXACT_SEARCH_LIMIT = 24


@dataclass(frozen=True, slots=True)
class LightCode:
    n: int
    w: int
    W: int
    words: tuple[Word, ...]
    witness: Orientation | None = None

    def __post_init__(self) -> None:
        if self.W < 0:
            raise ValueError("lightness parameter W must be nonnegative")
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
        if self.witness is not None and self.witness.max_outdegree() > self.W:
            raise ValueError("witness orientation exceeds the lightness parameter")

    @property
    def size(self) -> int:
        return len(self.words)

    def induced_subgraph(self) -> InducedSubgraph:
        return build_induced(JohnsonGraph(self.n, self.w), self.words)


def verify_light(code: LightCode) -> tuple[bool, Orientation | None]:
    """Check W-lightness of the code's induced subgraph; see ``orientation_feasible``."""
    return orientation_feasible(code.induced_subgraph(), code.W)


def _with_euler_witness(n: int, w: int, W: int, words: list[Word]) -> LightCode:
    g = build_induced(JohnsonGraph(n, w), words)
    witness = eulerian_orientation(g)
    if witness.max_outdegree() > W:
        raise AssertionError(
            f"construction for (n={n}, w={w}, W={W}) produced outdegree "
            f"{witness.max_outdegree()}"
        )
    return LightCode(n, w, W, tuple(words), witness)


def construct_tournament(n: int, W: int) -> LightCode:
    """Weight-1 code of size min(2W+1, n); the induced graph is complete.

    A complete graph on at most 2W+1 vertices has max degree <= 2W, so its
    Eulerian orientation keeps every vertex at outdegree <= W.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    size = min(2 * W + 1, n)
    words = [Word.from_support(n, (i,)) for i in range(size)]
    return _with_euler_witness(n, 1, W, words)


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
    return _with_euler_witness(n, 2, W, words)


def tau(word: Word, W: int) -> int:
    """Position-weighted sum sum_i i*B_i (1-based) mod (n - 2W)."""
    modulus = word.n - 2 * W
    if modulus < 1:
        raise ValueError(f"modulus n - 2W = {modulus} must be positive")
    return sum(i + 1 for i in word.support()) % modulus


def tau_classes(n: int, w: int, W: int) -> list[list[Word]]:
    """Partition of S(n,w) by the tau residue; index = residue class."""
    modulus = n - 2 * W
    if modulus < 1:
        raise ValueError(f"modulus n - 2W = {modulus} must be positive")
    classes: list[list[Word]] = [[] for _ in range(modulus)]
    for word in enumerate_words(n, w):
        classes[tau(word, W)].append(word)
    return classes


def construct_graham_sloane(n: int, w: int, W: int) -> LightCode:
    """Largest tau residue class, oriented Eulerian-wise.

    Requires n >= 4W: inside one class, the only distance-2 moves are the
    2W disjoint transpositions with equal residue, so components are
    hypercubes of dimension <= 2W and the Eulerian orientation caps every
    outdegree at W.  Ties between classes go to the smallest residue.
    """
    if n < 4 * W:
        raise ValueError(f"Graham-Sloane construction needs n >= 4W, got n={n}, W={W}")
    classes = tau_classes(n, w, W)
    best = max(range(len(classes)), key=lambda i: len(classes[i]))
    return _with_euler_witness(n, w, W, classes[best])


def best_construction(n: int, w: int, W: int) -> LightCode:
    """Largest code among the applicable constructions (at least a single word)."""
    candidates: list[LightCode] = []
    if w == 1:
        candidates.append(construct_tournament(n, W))
    if w == 2 and n >= 3:
        candidates.append(construct_orbit(n, W))
    if n - w in (1, 2):
        base = construct_tournament(n, W) if n - w == 1 else construct_orbit(n, W)
        flipped = [word.complement() for word in base.words]
        candidates.append(_with_euler_witness(n, w, W, flipped))
    if n >= 4 * W and comb(n, w) <= 10**5:
        candidates.append(construct_graham_sloane(n, w, W))
    if not candidates:
        candidates.append(LightCode(n, w, W, (enumerate_words(n, w)[0],), None))
    return max(candidates, key=lambda c: c.size)


def boundary_exact(n: int, w: int, W: int) -> int | None:
    """Closed-form L(W,n,w) for w or n-w in {1,2}; None otherwise."""
    if not 0 < w < n:
        raise ValueError(f"need 0 < w < n, got n={n}, w={w}")
    if W < 0:
        raise ValueError("W must be nonnegative")
    if w == 1 or n - w == 1:
        return min(2 * W + 1, n)
    if w == 2 or n - w == 2:
        return min((W + 1) * n // 2, comb(n, 2))
    return None


@cache
def johnson_upper(n: int, w: int, W: int) -> int:
    """Recursive upper bound on L(W,n,w), anchored at the closed forms."""
    if not 0 < w < n:
        raise ValueError(f"need 0 < w < n, got n={n}, w={w}")
    if W < 0:
        raise ValueError("W must be nonnegative")
    if w > n - w:
        w = n - w  # complement symmetry
    if W >= w * (n - w):
        return comb(n, w)
    exact = boundary_exact(n, w, W)
    if exact is not None:
        return exact
    jb1 = johnson_upper(n - 1, w - 1, W) * n // w
    jb2 = johnson_upper(n - 1, w, W) * n // (n - w)
    return min(jb1, jb2, comb(n, w))


def exact_L(n: int, w: int, W: int, return_code: bool = False):
    """Exact maximum size of a W-light (n,w) code, by branch and bound.

    The chosen set keeps one orientation with every outdegree <= W for
    the whole search and is updated incrementally (see
    ``johnson.OrientedSet``), over the adjacency of ``JohnsonGraph.edges``.
    Feasibility is monotone under subsets, so after every include each
    candidate that no longer fits on its own is dropped, and a branch dies
    when |chosen| + |candidates| cannot beat the incumbent.  J(n,w) is vertex-transitive, so the root only takes
    its include branch.  The incumbent starts from the best closed-form
    construction, and the search stops once it meets ``johnson_upper``.
    The returned code is re-verified by ``orientation_feasible``, whose
    witness is checked edge by edge.
    """
    if not 0 < w < n:
        raise ValueError(f"need 0 < w < n, got n={n}, w={w}")
    if W < 0:
        raise ValueError("W must be nonnegative")
    total = comb(n, w)
    if total > EXACT_SEARCH_LIMIT:
        raise ResourceLimitError(
            f"C({n},{w}) = {total} exceeds the exhaustive search limit "
            f"{EXACT_SEARCH_LIMIT}"
        )
    graph = JohnsonGraph(n, w)
    upper = johnson_upper(n, w, W)
    incumbent = best_construction(n, w, W)
    best_size = incumbent.size
    best_ranks = sorted(rank(word) for word in incumbent.words)

    state = OrientedSet(total, graph.edges(), [W] * total)

    def extend(candidates: list[int]) -> bool:
        """Branch on the candidates in order; True once the incumbent meets ``upper``."""
        nonlocal best_size, best_ranks
        size = len(state.pushed)
        if size > best_size:
            best_size = size
            best_ranks = sorted(v for v, _ in state.pushed)
            if best_size == upper:
                return True
        for i, v in enumerate(candidates):
            if size + len(candidates) - i <= best_size:
                break
            if not state.push(v):
                raise AssertionError(f"candidate {v} passed the filter but does not fit")
            done = extend([c for c in candidates[i + 1:] if state.fits(c)])
            state.pop()
            if done:
                return True
            if size == 0:
                break  # root: by vertex-transitivity some optimum contains vertex 0
        return False

    if best_size < upper:
        extend(list(range(total)))
    words = tuple(graph.word(r) for r in best_ranks)
    ok, witness = orientation_feasible(build_induced(graph, best_ranks), W)
    if not ok:
        raise AssertionError(
            f"exact_L(n={n}, w={w}, W={W}) found a code of size {best_size} "
            f"that fails orientation verification"
        )
    return (best_size, LightCode(n, w, W, words, witness)) if return_code else best_size
