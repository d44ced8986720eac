from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from lightcodes import codes
from lightcodes.bounds import (
    BoundRecord,
    assemble_table,
    boundary_exact,
    gs_lower,
    johnson_upper,
    lightcode_critical,
)
from lightcodes.codes import exact_L, tau_class_sizes
from lightcodes.wilcoxon import critical_value, q_count, wmw_critical


def test_boundary_exact():
    assert boundary_exact(9, 1, 2) == 5
    assert boundary_exact(6, 4, 1) == 6  # complement of w=2
    assert boundary_exact(7, 3, 0) is None
    assert boundary_exact(5, 4, 2) == 5  # w = n-1
    assert boundary_exact(8, 2, 1) == 8


def test_johnson_upper_examples():
    assert johnson_upper(5, 2, 0) == 2
    assert johnson_upper(6, 3, 0) == 4
    assert johnson_upper(6, 3, 9) == comb(6, 3)  # W >= w(n-w) cap
    assert johnson_upper(7, 3, 0) <= comb(7, 3)


def test_johnson_upper_monotone_in_W():
    for n, w in [(7, 3), (8, 4), (9, 3)]:
        prev = 0
        for W in range(0, w * (n - w) + 1):
            cur = johnson_upper(n, w, W)
            assert cur >= prev
            prev = cur


def bottom_up_johnson_upper(n: int, w: int, W: int) -> int:
    """The recursion of ``johnson_upper``, filled row by row from n = 2 with
    no recursion; rows hold the weights v <= min(w, m/2) after complement."""
    w = min(w, n - w)
    table: dict[tuple[int, int], int] = {}

    def get(m, v):
        return table[m, min(v, m - v)]

    for m in range(2, n + 1):
        for v in range(1, min(w, m // 2) + 1):
            if W >= v * (m - v):
                table[m, v] = comb(m, v)
            elif v == 1:
                table[m, v] = min(2 * W + 1, m)
            elif v == 2:
                table[m, v] = min((W + 1) * m // 2, comb(m, 2))
            else:
                table[m, v] = min(get(m - 1, v - 1) * m // v, get(m - 1, v) * m // (m - v),
                                  comb(m, v))
    return get(n, w)


def test_johnson_upper_matches_the_bottom_up_recursion():
    for n in range(2, 30):
        for w in range(1, n):
            for W in range(4):
                assert johnson_upper(n, w, W) == bottom_up_johnson_upper(n, w, W), (n, w, W)


@pytest.mark.parametrize(
    "n, w, W", [(1200, 3, 1), (1200, 1197, 1), (2000, 5, 2), (129, 64, 2), (200, 100, 1)]
)
def test_johnson_upper_recursion_stays_shallow(n, w, W):
    assert johnson_upper(n, w, W) == bottom_up_johnson_upper(n, w, W)


def test_lightcode_critical_upper_at_large_n():
    crit = lightcode_critical(0.05, 1200, 3, "upper")
    assert crit is not None
    assert Fraction(bottom_up_johnson_upper(1200, 3, crit), comb(1200, 3)) < Fraction(1, 20)


def test_gs_lower():
    assert gs_lower(5, 2, 0) == 2
    assert gs_lower(6, 3, 1) == 5
    assert gs_lower(3, 1, 1) is None


def test_sandwich_on_enumerable_instances():
    for n in range(3, 7):
        for w in range(1, n):
            if comb(n, w) > 24:
                continue
            for W in range(0, 3):
                exact = exact_L(n, w, W)
                lo = gs_lower(n, w, W)
                if lo is not None:
                    assert lo <= exact, (n, w, W)
                assert exact <= johnson_upper(n, w, W), (n, w, W)
                assert exact >= q_count(W, n, w), (n, w, W)


def test_assemble_table():
    records = assemble_table(range(4, 7), range(1, 4), range(0, 3))
    assert all(rec.lower <= rec.upper for rec in records)
    by_key = {(r.n, r.w, r.W): r for r in records}
    assert by_key[(4, 2, 0)].exact == 2
    assert by_key[(4, 2, 0)].lower == 2
    assert by_key[(4, 2, 0)].upper == 2
    assert by_key[(5, 2, 1)].exact == 5
    # Generic w: no closed form without the search flag.
    assert by_key[(6, 3, 0)].exact is None
    with pytest.raises(ValueError, match="nonnegative"):
        assemble_table([4], [2], range(-1, 1))


def test_assemble_table_lower_is_the_largest_class_past_enumeration():
    # The pigeonhole bound ceil(C(20,10)/20) is 9,238; the largest class holds 9,252.
    assert assemble_table([20], [10], [0])[0].lower == 9252
    assert assemble_table([20], [8], [0])[0].lower == 6310


def test_assemble_table_enumerates_nothing(monkeypatch):
    def never(n, w):
        raise AssertionError(f"enumerated S({n},{w})")

    monkeypatch.setattr(codes, "iter_words", never)
    monkeypatch.setattr(codes, "enumerate_words", never)
    (record,) = assemble_table([40], [20], [2])
    assert record.lower == max(tau_class_sizes(40, 20, 2)) >= gs_lower(40, 20, 2)


def test_assemble_table_exact_when_small():
    records = assemble_table([6], [3], [0], exact_when_small=True)
    assert records[0].exact == exact_L(6, 3, 0)
    assert records[0].lower <= records[0].exact <= records[0].upper


def test_bound_record_validation():
    with pytest.raises(ValueError):
        BoundRecord(4, 2, 0, lower=3, upper=2, exact=None)
    with pytest.raises(ValueError):
        BoundRecord(4, 2, 0, lower=1, upper=5, exact=6)


def test_lightcode_critical_lower_matches_pigeonhole():
    # At W = 0 the lower bound is about C(n,w)/n, so the cell is set as
    # soon as 1/n-ish mass is below alpha.
    n, w = 12, 3
    crit = lightcode_critical(0.25, n, w, "lower")
    assert crit is not None
    bound = gs_lower(n, w, crit)
    assert Fraction(bound, comb(n, w)) < Fraction(1, 4)


def test_lightcode_critical_upper_not_larger_than_exact_based():
    for n, w in [(4, 2), (5, 2), (6, 1)]:
        up = lightcode_critical(0.3, n, w, "upper")
        ex = critical_value(0.3, comb(n, w), (exact_L(n, w, W) for W in range(w * (n - w) + 1)))
        if ex is None:
            assert up is None
        else:
            assert up is None or up <= ex


def test_lightcode_critical_upper_at_most_wmw():
    # L >= Q makes the code-based test more conservative than WMW.
    for n, w in [(8, 4), (10, 5), (12, 6)]:
        code_crit = lightcode_critical(0.05, n, w, "upper")
        wmw_crit = wmw_critical(0.05, n, w)
        if code_crit is not None:
            assert wmw_crit is not None and code_crit <= wmw_crit


def test_lightcode_critical_monotone_in_alpha():
    for kind in ("lower", "upper"):
        prev = -1
        for alpha in ("0.01", "0.05", "0.1", "0.3", "0.6"):
            cur = lightcode_critical(alpha, 10, 5, kind)
            val = -1 if cur is None else cur
            assert val >= prev
            prev = val


def test_lightcode_critical_bad_kind():
    with pytest.raises(ValueError):
        lightcode_critical(0.05, 4, 2, "weird")


def test_committed_bound_table_matches_library():
    # Rebuilt as demos/03_codes_and_bounds.py writes it, without running it.
    records = assemble_table(range(6, 9), range(3, 4), range(0, 3), exact_when_small=True)
    table = "n,w,W,lower,upper,exact\n" + "".join(
        f"{r.n},{r.w},{r.W},{r.lower},{r.upper},{'' if r.exact is None else r.exact}\n"
        for r in records
    )
    demo_out = Path(__file__).resolve().parents[1] / "demos" / "out"
    assert (demo_out / "bound_table.csv").read_bytes() == table.encode()
