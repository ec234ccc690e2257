"""Exact small-n oracles for increasing paths.

All three main operations run one bit-parallel subset DP over states
(S, v) = "some increasing path visits exactly S and ends at v", processing
edges in ascending label order.  Labels are distinct, so each label step
adds one edge and new states never chain within a step.  The DP keeps one
big integer per end vertex v holding one w-bit field per subset S.
Existence and longest-path use 1-bit fields (the set of reachable S);
counting uses fields wide enough to hold the number of such paths.  The
longest path has as many vertices as the largest subset size whose mask
meets the reachable sets; all of it runs on Python integers.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .core import CapacityError, EdgeOrdering

DEFAULT_CAP = 20
BRUTE_FORCE_CAP = 8


def _count_width(n: int) -> int:
    """Field width that holds any count: a path through S ending at v is an
    order of the other |S|-1 vertices, so count[S, v] <= (n-1)! < 2**w and
    no field ever carries into its neighbour."""
    return math.factorial(n - 1).bit_length()


def _check_cap(n: int) -> None:
    if n > DEFAULT_CAP:
        # the widest DP, counting, in rows of w bits per subset: n field rows,
        # n mask rows, and 20 rows for what else its peak holds: the three
        # per-edge temporaries live at once, CPython's 30-bit digits in 4-byte
        # words (1/15 more) and freed rows the allocator keeps.  Calibrated on
        # the max RSS rise over one count at n = 18, 19 and 20: 52.4, 53.5 and
        # 56.7 rows (80, 177 and 404 MiB), against 56, 58 and 60 rows here.
        mem = (2 * n + 20) * (1 << n) * _count_width(n) / 8
        raise CapacityError(
            f"n={n} exceeds cap {DEFAULT_CAP}; raising the cap needs about "
            f"{mem / 2**20:.0f} MiB of state to count paths"
        )


@lru_cache(maxsize=2)  # the 1-bit and count masks of one n; 150 MB for counting at n=20
def _field_masks(n: int, width: int) -> tuple:
    """masks[v] has all bits of field S set for every subset index S with v
    not in S."""
    size = width << n
    masks = []
    for v in range(n):
        m = (1 << (width << v)) - 1
        span = width << (v + 1)
        while span < size:
            m |= m << span
            span <<= 1
        masks.append(m)
    return tuple(masks)


@lru_cache(maxsize=1)  # n + 1 masks of 2**n bits: 2.6 MiB at n=20
def _size_masks(n: int) -> tuple:
    """masks[s] has bit S set for every subset index S < 2**n with |S| = s."""
    masks = [1]  # subsets of no vertices: the empty set
    for v in range(n):  # a subset of 0..v either leaves out v or adds it
        masks = [a | (b << (1 << v)) for a, b in zip(masks + [0], [0] + masks)]
    return tuple(masks)


def _reach_sets(ordering: EdgeOrdering, width: int) -> list:
    """Bit-parallel subset DP: field S of reach[v] (bits width*S onwards)
    counts the increasing paths that visit exactly S and end at v.  Wider
    fields add counts; 1-bit fields OR them into sets, and the DP stops at
    the first edge that completes a Hamiltonian path (counting has 1-bit
    fields only at n=2, whose one edge is the last)."""
    n = ordering.n
    _check_cap(n)
    full_shift = width * ((1 << n) - 1)
    masks = _field_masks(n, width)
    reach = [1 << (width << v) for v in range(n)]  # singleton {v}: one path
    sets = width == 1
    us, vs = ordering.edges_by_label
    for u, v in zip(us.tolist(), vs.tolist()):
        add_v = (reach[u] & masks[v]) << (width << v)
        add_u = (reach[v] & masks[u]) << (width << u)
        if sets:
            reach[v] |= add_v
            reach[u] |= add_u
            if (add_v >> full_shift) or (add_u >> full_shift):
                break
        else:
            reach[v] += add_v
            reach[u] += add_u
    return reach


def _full_fields(ordering: EdgeOrdering, width: int) -> list:
    """Per end vertex, the DP's field of the full vertex set."""
    full_shift = width * ((1 << ordering.n) - 1)
    return [r >> full_shift for r in _reach_sets(ordering, width)]


def longest_increasing_path_len(ordering: EdgeOrdering) -> int:
    """Exact number of edges in the longest increasing simple path."""
    anywhere = 0
    for r in _reach_sets(ordering, 1):
        anywhere |= r
    masks = _size_masks(ordering.n)
    return max(s for s, mask in enumerate(masks) if anywhere & mask) - 1


def has_increasing_ham_path(ordering: EdgeOrdering) -> bool:
    """True iff an increasing Hamiltonian path exists; exits at first hit."""
    return any(_full_fields(ordering, 1))


def count_increasing_ham_paths(ordering: EdgeOrdering) -> int:
    """Exact number of vertex sequences visiting all n vertices with strictly
    increasing consecutive edge labels.

    Each undirected increasing Hamiltonian path with at least two edges
    contributes one sequence (its increasing direction); at n=2 the single
    edge contributes both directions.
    """
    return sum(_full_fields(ordering, _count_width(ordering.n)))


def brute_force_longest(ordering: EdgeOrdering) -> int:
    """Independent oracle: DFS over every increasing simple path."""
    n = ordering.n
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute force supports n <= {BRUTE_FORCE_CAP}, got n={n}")
    label = ordering.label
    best = 0

    def extend(v, last, visited, length):
        nonlocal best
        if length > best:
            best = length
        for w in range(n):
            if w not in visited and label(v, w) > last:
                visited.add(w)
                extend(w, label(v, w), visited, length + 1)
                visited.remove(w)

    for v0 in range(n):
        extend(v0, float("-inf"), {v0}, 0)
    return best
