#!/usr/bin/env python3
"""Pedestrian walks, the refusal variant, and the adversarial ordering.

Every edge ordering of K_n admits an increasing walk of length n-1: put a
pedestrian on every vertex, call the edges out in ascending label order,
and swap the two pedestrians on each called edge.  Each pedestrian traces
an increasing walk, and together they take n(n-1) steps, so the longest
trajectory has at least n-1 edges.  Refusing every swap that would
revisit a vertex keeps the trajectories simple at the cost of a weaker
sqrt(n-1) guarantee.

The round-robin ordering (consecutive labels within perfect matchings)
shows the walk bound is tight: no increasing walk beats n-1 there.
"""

import math

from incpaths.core import matching_ordering, random_ordering
from incpaths.exact import has_increasing_ham_path, longest_increasing_path_len
from incpaths.walks import walk_lengths

n = 30
print(f"=== random orderings of K_{n} ===")
for seed in range(3):
    steps, lengths = walk_lengths(random_ordering(n, seed))
    print(
        f"seed {seed}: longest pedestrian walk {max(steps):3d}"
        f"  (guarantee {n - 1}),  total steps {sum(steps)}"
        f"  = n(n-1) = {n * (n - 1)}"
    )
    print(
        f"         longest refusal path   {max(lengths):3d}"
        f"  (guarantee {math.ceil(math.sqrt(n - 1))})"
    )

print()
print("=== adversarial round-robin ordering ===")
for n in (8, 12, 16):
    ordering = matching_ordering(n)
    longest_walk = max(walk_lengths(ordering)[0])
    longest_path = longest_increasing_path_len(ordering)
    ham = has_increasing_ham_path(ordering)
    print(
        f"n={n}: longest increasing walk {longest_walk} (= n-1 exactly),"
        f" longest increasing path {longest_path},"
        f" Hamiltonian increasing path exists: {ham}"
    )
