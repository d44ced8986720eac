import math

import pytest

from lightcodes import words
from lightcodes.words import (
    Word,
    enumerate_words,
    hamming,
    iter_words,
    neighbors,
    rank,
    read_word_file,
    transpose,
    unrank,
    write_word_file,
)

from oracles import upward_unrank_mask


def test_enumerate_counts():
    assert len(enumerate_words(4, 2)) == 6
    assert len(enumerate_words(5, 2)) == 10


def test_enumerate_is_iter_words_listed():
    for n in range(2, 10):
        for w in range(1, n):
            assert enumerate_words(n, w) == list(iter_words(n, w))


def test_enumerate_weight_one_order():
    ws = enumerate_words(3, 1)
    assert [str(w) for w in ws] == ["100", "010", "001"]


def test_enumerate_all_distinct_and_valid():
    for n in range(2, 9):
        for w in range(1, n):
            ws = enumerate_words(n, w)
            assert len(ws) == math.comb(n, w)
            assert len(set(ws)) == len(ws)
            for word in ws:
                assert word.mask.bit_count() == w


def test_enumerate_is_colex():
    # Colex on supports == numeric order of masks.
    ws = enumerate_words(6, 3)
    masks = [w.mask for w in ws]
    assert masks == sorted(masks)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        enumerate_words(4, 0)
    with pytest.raises(ValueError):
        enumerate_words(4, 4)
    with pytest.raises(ValueError):
        Word(0b111, 4, 2)


def test_rank_first_and_last():
    ws = enumerate_words(4, 2)
    assert rank(ws[0]) == 0
    assert unrank(4, 2, 5) == ws[-1]


def test_rank_unrank_roundtrip_small():
    for n in range(2, 9):
        for w in range(1, n):
            for r, word in enumerate(enumerate_words(n, w)):
                assert rank(word) == r
                assert unrank(n, w, r) == word


def test_rank_unrank_roundtrip_wide():
    for w in (1, 2, 3, 4):
        for r in range(math.comb(30, w)):
            assert rank(unrank(30, w, r)) == r


def test_unrank_matches_the_upward_search():
    for n in range(2, 15):
        for w in range(1, n):
            for r in range(math.comb(n, w)):
                assert unrank(n, w, r).mask == upward_unrank_mask(n, w, r), (n, w, r)


@pytest.mark.parametrize("n, w", [(14, 7), (30, 15), (100, 3), (100, 97)])
def test_unrank_makes_a_linear_number_of_comb_calls(n, w, monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return math.comb(a, b)

    monkeypatch.setattr(words, "comb", counted)
    for r in (0, 1, math.comb(n, w) // 3, math.comb(n, w) - 1):
        calls.clear()
        word = unrank(n, w, r)
        assert len(calls) <= n + w + 1, (r, len(calls))
        assert rank(word) == r


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank(5, 2, 10)
    with pytest.raises(ValueError):
        unrank(5, 2, -1)


def test_hamming():
    a = Word.from_string("1100")
    b = Word.from_string("0011")
    assert hamming(a, b) == 4
    assert hamming(a, a) == 0
    assert hamming(a, Word.from_string("1010")) == 2
    with pytest.raises(ValueError):
        hamming(a, Word.from_string("110"))


def test_hamming_even_for_equal_weight():
    for a in enumerate_words(6, 3):
        for b in enumerate_words(6, 3):
            assert hamming(a, b) % 2 == 0


def test_transpose():
    # Paper positions are 1-based; the API is 0-based, so (1,3) -> (0,2).
    assert str(transpose(Word.from_string("1100"), 0, 2)) == "0110"
    assert str(transpose(Word.from_string("10"), 0, 1)) == "01"
    b = Word.from_string("10110")
    assert transpose(transpose(b, 0, 1), 1, 0) == b
    with pytest.raises(ValueError):
        transpose(b, 1, 0)  # needs a one at i and a zero at j


def test_neighbors_counts():
    for word in enumerate_words(4, 2):
        assert len(neighbors(word)) == 4
    for word in enumerate_words(5, 2):
        assert len(neighbors(word)) == 6


def test_neighbors_explicit():
    got = {str(w) for w in neighbors(Word.from_string("1100"))}
    assert got == {"0110", "0101", "1010", "1001"}


def test_neighbors_equals_distance_two_sphere():
    # Oracle: neighbors(x) must be exactly {y : hamming(x,y) = 2}.
    for n, w in [(4, 2), (5, 2), (6, 3)]:
        allw = enumerate_words(n, w)
        for x in allw:
            want = {y for y in allw if hamming(x, y) == 2}
            assert set(neighbors(x)) == want


def test_word_file_roundtrip(tmp_path):
    path = tmp_path / "code.txt"
    words = enumerate_words(5, 2)
    write_word_file(path, words)
    assert read_word_file(path) == words


def test_word_file_comments_and_errors(tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("# comment\n\n01101\n10101\n")
    assert [str(w) for w in read_word_file(path)] == ["01101", "10101"]
    path.write_text("0110\n01101\n")
    with pytest.raises(ValueError):
        read_word_file(path)
    path.write_text("")
    with pytest.raises(ValueError):
        read_word_file(path)
    path.write_text("01x0\n")
    with pytest.raises(ValueError):
        read_word_file(path)
