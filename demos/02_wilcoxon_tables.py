#!/usr/bin/env python3
"""The exact fixed-score null distribution and its critical-value table.

Reproduces the two classic displays: the bell-shaped null of pairwise
error counts for a sample of 30 (half labeled 1), and the 20x20 grid of
one-sided critical values at the 5% level.  CSVs land in demos/out/.
"""

from fractions import Fraction
from math import comb
from pathlib import Path

from lightcodes import q_count, wmw_critical, wmw_critical_grid, wmw_distribution

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

n, w = 30, 15
dist = wmw_distribution(n, w)
total = comb(n, w)
print(f"Null distribution of error counts for n={n}, w={w}: {total} labelings")
print(f"  mean {float(dist.mean()):.1f}, std {float(dist.variance())**0.5:.2f},"
      f" symmetric: {dist.counts == dist.counts[::-1]}")

crit = wmw_critical("0.05", n, w)
mass = Fraction(q_count(crit, n, w), total)
print(f"  5% critical value: {crit} errors "
      f"(P(errors <= {crit}) = {float(mass):.4f} < 0.05 <= "
      f"{float(Fraction(q_count(crit + 1, n, w), total)):.4f})")

path = OUT / "wilcoxon_null_30_15.csv"
with open(path, "w") as fh:
    fh.write("errors,count\n")
    for k, c in enumerate(dist.counts):
        fh.write(f"{k},{c}\n")
print("  wrote", path)

print("\n5% critical grid (rows = ones, cols = zeros), sizes 1..20:")
path = OUT / "wilcoxon_criticals_20x20.csv"
grid = wmw_critical_grid("0.05", 20)
with open(path, "w") as fh:
    fh.write("w," + ",".join(str(z) for z in range(1, 21)) + "\n")
    for ones in range(1, 21):
        cells = [grid[(ones, zeros)] for zeros in range(1, 21)]
        fh.write(str(ones) + "," + ",".join("" if c is None else str(c) for c in cells) + "\n")
        if ones in (1, 5, 10, 20):
            shown = " ".join("." if c is None else f"{c:3d}" for c in cells)
            print(f"  w={ones:2d}: {shown}")
print("  wrote", path)
print("\nEmpty cells: even zero errors are not significant at that size.")
