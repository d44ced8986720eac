#!/usr/bin/env python3
"""Constant-weight words, the Johnson graph, and orientations.

Walks the smallest interesting graph J(4,2): enumerates its words, shows
the distance-2 adjacency, and contrasts three orientations (Eulerian,
random, and a witness for a target outdegree found by path reversal).
"""

from lightcodes import (
    JohnsonGraph,
    build_induced,
    count_w_light,
    enumerate_words,
    eulerian_orientation,
    hamming,
    min_max_outdegree,
    neighbors,
    orientation_feasible,
    outdegree,
    random_orientation,
)

words = enumerate_words(4, 2)
print("S(4,2) in canonical (colex) order:")
print(" ", " ".join(str(w) for w in words))

print("\nEach word has w(n-w) = 4 neighbors at Hamming distance 2, e.g.:")
w0 = words[0]
print(f"  {w0} ->", " ".join(str(x) for x in neighbors(w0)))
print("  distances:", [hamming(w0, x) for x in neighbors(w0)])

graph = JohnsonGraph(4, 2)
full = graph.full_subgraph()
print(f"\nJ(4,2): {graph.num_vertices} vertices, {len(full.edges)} edges, 4-regular")

euler = eulerian_orientation(full)
print("\nEulerian orientation splits every degree evenly:")
print("  outdegrees:", [outdegree(euler, r) for r in range(6)])
print("  2-light vertices:", count_w_light(euler, 2), "of 6")
print("  1-light vertices:", count_w_light(euler, 1), "of 6")

print("\nCan every vertex get outdegree <= 1?  Counting edges says no:")
ok, _ = orientation_feasible(full, 1)
print("  feasible at W=1:", ok, " (12 edges > 1*6 vertices)")
ok, witness = orientation_feasible(full, 2)
print("  feasible at W=2:", ok, " witness outdegrees:", [outdegree(witness, r) for r in range(6)])
print("  smallest feasible bound:", min_max_outdegree(full))

rand = random_orientation(graph, seed=42)
print("\nA random orientation (seed 42) is lopsided but conserves arcs:")
print("  outdegrees:", [outdegree(rand, r) for r in range(6)])
print("  total arcs:", sum(outdegree(rand, r) for r in range(6)), "= edge count")

sub = build_induced(graph, [words[0], words[-1]])
print(f"\n{words[0]} and {words[-1]} are at distance 4: induced edges =", len(sub.edges))
print("They form a 0-light code (a classical distance-4 code of size 2).")
