"""Exact small-n oracles for increasing paths.

All three main operations process edges in ascending label order over
subset states (S, v) = "some increasing path visits exactly S and ends at
v".  Labels are distinct, so each label step adds one edge and new states
never chain within a step.  Existence and longest-path use bit-parallel
subset sets (one big integer per end vertex, one bit per subset).
Counting uses an int64 table viewed as a strided subset cube, one
length-2 axis per vertex, so each edge is two in-place slice additions.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import CapacityError, EdgeOrdering

DEFAULT_CAP = 20
BRUTE_FORCE_CAP = 8


def _check_cap(n: int, bytes_per_state: float) -> None:
    if n > DEFAULT_CAP:
        mem = n * (1 << n) * bytes_per_state
        raise CapacityError(
            f"n={n} exceeds cap {DEFAULT_CAP}; raising the cap needs about "
            f"{mem / 2**20:.0f} MiB of state"
        )


@lru_cache(maxsize=None)
def _subset_masks_without(n: int) -> tuple:
    """masks[v] has bit S set for every subset index S with v not in S."""
    size = 1 << n
    masks = []
    for v in range(n):
        m = (1 << (1 << v)) - 1
        width = 1 << (v + 1)
        while width < size:
            m |= m << width
            width <<= 1
        masks.append(m)
    return tuple(masks)


@lru_cache(maxsize=None)
def _popcounts(n: int) -> np.ndarray:
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.int64)


def _subsets_with(n: int, u: int, has_u: int, v: int, has_v: int) -> tuple:
    """Index of the subset cube's view where bit u is has_u and bit v is has_v."""
    index = [slice(None)] * n
    index[n - 1 - u] = has_u
    index[n - 1 - v] = has_v
    return tuple(index)


def _bitset_to_bool(bits: int, size: int) -> np.ndarray:
    raw = bits.to_bytes((size + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")[
        :size
    ].astype(bool)


def _reach_sets(ordering: EdgeOrdering, stop_at_full: bool):
    """Bit-parallel subset DP: reach[v] has bit S set iff some increasing
    path visits exactly S and ends at v.  With ``stop_at_full``, returns
    None at the first edge that completes a Hamiltonian path."""
    n = ordering.n
    _check_cap(n, 1 / 8)
    full_shift = (1 << n) - 1
    masks = _subset_masks_without(n)
    reach = [1 << (1 << v) for v in range(n)]  # singleton {v} reachable
    us, vs = ordering.edges_by_label
    for u, v in zip(us.tolist(), vs.tolist()):
        add_v = (reach[u] & masks[v]) << (1 << v)
        add_u = (reach[v] & masks[u]) << (1 << u)
        if stop_at_full and ((add_v >> full_shift) or (add_u >> full_shift)):
            return None
        reach[v] |= add_v
        reach[u] |= add_u
    return reach


def longest_increasing_path_len(ordering: EdgeOrdering) -> int:
    """Exact number of edges in the longest increasing simple path."""
    anywhere = 0
    for r in _reach_sets(ordering, stop_at_full=False):
        anywhere |= r
    n = ordering.n
    reachable = _bitset_to_bool(anywhere, 1 << n)
    return int(_popcounts(n)[reachable].max()) - 1


def has_increasing_ham_path(ordering: EdgeOrdering) -> bool:
    """True iff an increasing Hamiltonian path exists; exits at first hit."""
    return _reach_sets(ordering, stop_at_full=True) is None


def count_increasing_ham_paths(ordering: EdgeOrdering) -> int:
    """Exact number of vertex sequences visiting all n vertices with strictly
    increasing consecutive edge labels.

    Each undirected increasing Hamiltonian path with at least two edges
    contributes one sequence (its increasing direction); at n=2 the single
    edge contributes both directions.  Counts stay below 2**63 for n <= 20.
    """
    n = ordering.n
    _check_cap(n, 8)
    size = 1 << n
    counts = np.zeros((size, n), dtype=np.int64)
    for v in range(n):
        counts[1 << v, v] = 1
    # the same table as a cube with one length-2 axis per vertex: in C order,
    # axis n-1-b is bit b of the subset index
    cube = counts.reshape((2,) * n + (n,))
    us, vs = ordering.edges_by_label
    for u, v in zip(us.tolist(), vs.tolist()):
        # the written views (subsets holding u and v) and the read views
        # (subsets holding exactly one of them) are disjoint, so adding in
        # place reads only counts from before this edge
        both = _subsets_with(n, u, 1, v, 1)
        cube[both + (v,)] += cube[_subsets_with(n, u, 1, v, 0) + (u,)]
        cube[both + (u,)] += cube[_subsets_with(n, u, 0, v, 1) + (v,)]
    return int(counts[size - 1, :].sum())


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
