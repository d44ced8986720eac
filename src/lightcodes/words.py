"""Constant-weight binary words.

A word is a fixed-length 0/1 sequence with a prescribed number of ones.
Words are stored bit-packed in a Python int, bit ``i`` of the mask holding
position ``i`` (0-based; position 1 of the written form).  The canonical
enumeration order is colexicographic on the set of one-positions, which is
the same as numeric order of the packed masks and admits O(w) ranking via
the combinatorial number system.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import comb
from typing import Iterator


def _check_weight(n: int, w: int) -> None:
    """The (n, w) domain of every layer: both classes of S(n,w) nonempty."""
    if not 0 < w < n:
        raise ValueError(f"need 0 < w < n, got n={n}, w={w}")


def _seed_words(seed) -> tuple[int, ...]:
    """A seed, an int or a tuple of ints, as a tuple of ints: each word goes
    through ``operator.index`` first, as numpy's own coercion reads ``'7'`` as 7."""
    try:
        return tuple(map(operator.index, seed if isinstance(seed, (tuple, list)) else (seed,)))
    except TypeError:
        raise TypeError("seed must be integer") from None


def _positions(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending, found one lowest bit at a time."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Word:
    """A binary word of length ``n`` with exactly ``w`` ones, packed into ``mask``."""

    mask: int
    n: int
    w: int

    def __post_init__(self) -> None:
        _check_weight(self.n, self.w)
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} does not fit in {self.n} bits")
        if self.mask.bit_count() != self.w:
            raise ValueError(
                f"mask has {self.mask.bit_count()} ones, expected weight {self.w}"
            )

    @classmethod
    def from_support(cls, n: int, positions) -> "Word":
        """Word with ones exactly at the given 0-based positions."""
        mask = 0
        for p in map(operator.index, positions):  # a numpy int would wrap at 1 << 63
            if not 0 <= p < n:
                raise ValueError(f"position {p} out of range for length {n}")
            mask |= 1 << p
        return cls(mask, n, mask.bit_count())

    @classmethod
    def from_string(cls, bits: str) -> "Word":
        """Parse an ASCII bit-string; leftmost character is position 1."""
        # Something is left once 0/1 are stripped; int() alone takes "_", " ", "0b".
        if not bits or bits.strip("01"):
            raise ValueError(f"not a bit-string: {bits!r}")
        mask = int(bits[::-1], 2)
        return cls(mask, len(bits), mask.bit_count())

    def to_string(self) -> str:
        """ASCII bit-string, position 1 first."""
        return format(self.mask, f"0{self.n}b")[::-1]

    def __str__(self) -> str:
        return self.to_string()

    def bit(self, i: int) -> int:
        """Value at 0-based position ``i``."""
        if not 0 <= i < self.n:
            raise ValueError(f"position {i} out of range for length {self.n}")
        return self.mask >> i & 1

    def support(self) -> tuple[int, ...]:
        """0-based positions of the ones, ascending."""
        return _positions(self.mask)

    def zeros(self) -> tuple[int, ...]:
        """0-based positions of the zeros, ascending."""
        return _positions(self.mask ^ ((1 << self.n) - 1))

    def complement(self) -> "Word":
        """Word with every bit flipped (weight n - w)."""
        full = (1 << self.n) - 1
        return Word(full ^ self.mask, self.n, self.n - self.w)


def iter_words(n: int, w: int) -> Iterator[Word]:
    """All words of S(n,w), lazily, in colex order of their one-positions.

    Colex order on supports coincides with numeric order of the packed
    masks, so a word's position in this sequence is its rank and the
    successor is Gosper's hack.
    """
    _check_weight(n, w)
    mask = (1 << w) - 1
    limit = 1 << n
    while mask < limit:
        yield Word(mask, n, w)
        # Gosper's hack: next mask with the same popcount.
        low = mask & -mask
        ripple = mask + low
        mask = ripple | (((mask ^ ripple) >> 2) // low)


def enumerate_words(n: int, w: int) -> list[Word]:
    """All words of S(n,w) as a list, in the order of :func:`iter_words`."""
    return list(iter_words(n, w))


def rank(word: Word) -> int:
    """Position of ``word`` in the colex enumeration of S(n,w): sum of C(p, k), p its k-th one."""
    mask, k, r = word.mask, word.w, 0
    while mask:
        p = mask.bit_length() - 1
        r, k, mask = r + comb(p, k), k - 1, mask ^ 1 << p
    return r


def unrank(n: int, w: int, r: int) -> Word:
    """Inverse of :func:`rank`: the word of S(n,w) at position ``r``."""
    _check_weight(n, w)
    total = comb(n, w)
    if not 0 <= r < total:
        raise ValueError(f"rank {r} out of range [0, {total})")
    mask = 0
    rem = r
    p = n
    for k in range(w, 0, -1):
        # Largest position p below the previous one with comb(p, k) <= rem;
        # positions only fall, so the sweep makes at most n comb calls.
        p -= 1
        c = comb(p, k)
        while c > rem:
            p -= 1
            c = comb(p, k)
        mask |= 1 << p
        rem -= c
    return Word(mask, n, w)


def hamming(a: Word, b: Word) -> int:
    """Number of positions where the two words differ."""
    if a.n != b.n:
        raise ValueError(f"length mismatch: {a.n} vs {b.n}")
    return (a.mask ^ b.mask).bit_count()


def transpose(word: Word, i: int, j: int) -> Word:
    """Apply the transposition swapping positions ``i`` (a one) and ``j`` (a zero)."""
    if word.bit(i) != 1 or word.bit(j) != 0:
        raise ValueError(
            f"transpose needs a one at {i} and a zero at {j} in {word.to_string()}"
        )
    return Word(word.mask ^ (1 << i) ^ (1 << j), word.n, word.w)


def neighbor_masks(mask: int, n: int) -> list[int]:
    """Masks of the w*(n-w) words one transposition away from ``mask``:
    each one of the length-``n`` word swapped with each zero, in ascending order."""
    ones = [1 << i for i in range(n) if mask >> i & 1]
    zeros = [1 << j for j in range(n) if not mask >> j & 1]
    return [mask ^ one ^ zero for one in ones for zero in zeros]


def neighbors(word: Word) -> list[Word]:
    """All w*(n-w) words at Hamming distance exactly 2 from ``word``."""
    return [Word(m, word.n, word.w) for m in neighbor_masks(word.mask, word.n)]


def read_word_file(path) -> list[Word]:
    """Read words from a text file, one bit-string per line.

    Blank lines and lines starting with ``#`` are ignored.  All words must
    share the same length and weight.
    """
    words = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                word = Word.from_string(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            words.append(word)
    if not words:
        raise ValueError(f"{path}: no words found")
    n, w = words[0].n, words[0].w
    for word in words[1:]:
        if word.n != n or word.w != w:
            raise ValueError(
                f"{path}: mixed parameters, ({word.n},{word.w}) vs ({n},{w})"
            )
    if len(set(words)) != len(words):
        raise ValueError(f"{path}: duplicate words")
    return words


def write_word_file(path, words) -> None:
    """Write words in the one-bit-string-per-line format."""
    with open(path, "w", encoding="ascii") as fh:
        for word in words:
            fh.write(word.to_string() + "\n")
