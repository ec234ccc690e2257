"""Pedestrian walk processes and the greedy increasing path.

The pedestrian process calls out edges in ascending label order and swaps
the two pedestrians standing on each called edge; every trajectory is an
increasing walk, and the longest one has at least n-1 edges.  The refusal
variant skips a swap whenever either pedestrian would revisit a vertex,
which keeps all trajectories simple at the cost of a weaker sqrt(n-1)
guarantee.

``walk_lengths`` runs both processes in one pass over the edges and keeps
only their lengths: the CLI's walk measures and the demos use it, with
O(n^2) bytes of state (one visited flag per pedestrian and vertex).
``pedestrian_walks`` and ``refusal_paths`` build the n full trajectories,
n(n-1) vertex entries in all; they remain as the tests' and the benchmark
replay's reference for ``walk_lengths``.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .core import (
    REAL,
    EdgeOrdering,
    UnsupportedModelError,
    walk_labels,
)


def _trajectories(ordering: EdgeOrdering, refuse: bool) -> list[list[int]]:
    """Pedestrian trajectories, indexed by start vertex, under the refusal
    rule if ``refuse``; the pedestrian process never refuses."""
    n = ordering.n
    walks = [[v] for v in range(n)]
    visited = [{v} for v in range(n)] if refuse else None
    who = list(range(n))  # who[x] = pedestrian currently standing at x
    us, vs = ordering.edges_by_label
    for u, v in zip(us.tolist(), vs.tolist()):
        a, b = who[u], who[v]
        if refuse:
            if v in visited[a] or u in visited[b]:
                continue
            visited[a].add(v)
            visited[b].add(u)
        walks[a].append(v)
        walks[b].append(u)
        who[u], who[v] = b, a
    return walks


def pedestrian_walks(ordering: EdgeOrdering) -> list[list[int]]:
    """Trajectories of all n pedestrians, indexed by start vertex.

    Total steps over all trajectories is exactly n(n-1): two per edge.
    """
    return _trajectories(ordering, refuse=False)


def refusal_paths(ordering: EdgeOrdering) -> list[list[int]]:
    """Pedestrian trajectories under the refusal rule: if either pedestrian
    on a called edge has already visited the other endpoint, both stay put.

    Every trajectory is a simple increasing path.
    """
    return _trajectories(ordering, refuse=True)


def walk_lengths(ordering: EdgeOrdering) -> tuple[list[int], list[int]]:
    """(pedestrian step counts, refusal path lengths), each indexed by start
    vertex and in edges: the trajectory lengths of ``pedestrian_walks`` and
    ``refusal_paths``, from one pass that builds no trajectory."""
    n = ordering.n
    steps = [0] * n
    lengths = [0] * n
    who = list(range(n))  # who[x] = pedestrian at x in the pedestrian process
    held = list(range(n))  # held[x] = pedestrian at x under the refusal rule
    visited = bytearray(n * n)  # visited[p * n + x]: refusal pedestrian p was at x
    visited[:: n + 1] = b"\x01" * n  # pedestrian p starts at p
    us, vs = ordering.edges_by_label
    for u, v in zip(memoryview(us), memoryview(vs)):
        a, b = who[u], who[v]
        steps[a] += 1
        steps[b] += 1
        who[u], who[v] = b, a
        a, b = held[u], held[v]
        av, bu = a * n + v, b * n + u
        if visited[av] or visited[bu]:
            continue
        visited[av] = visited[bu] = 1
        lengths[a] += 1
        lengths[b] += 1
        held[u], held[v] = b, a
    return steps, lengths


def greedy_path(ordering: EdgeOrdering, v0: int = 0) -> list[int]:
    """Greedy increasing path from v0: repeatedly exit along the
    lowest-labeled edge to an unvisited vertex that exceeds the previous
    label; stop when no such edge exists."""
    n = ordering.n
    if not 0 <= v0 < n:
        raise ValueError(f"start vertex {v0} out of range for n={n}")
    available = np.ones(n, dtype=bool)
    available[v0] = False
    path = [v0]
    last = float("-inf")
    v = v0
    while True:
        row = ordering.row(v)
        candidates = np.where(available & (row > last), row, np.inf)
        w = int(np.argmin(candidates))
        if candidates[w] == np.inf:
            return path
        path.append(w)
        available[w] = False
        last = row[w]
        v = w


JumpSequence = namedtuple("JumpSequence", "jumps prefix_sums")
JumpSequence.__doc__ = """Cyclic label gaps along a walk in the real model, with prefix sums.

The jump sum telescopes to f(e_last) + p where p counts the walk's
descents, so the walk is increasing iff the sum is at most 1."""


def jumps(ordering: EdgeOrdering, vertices) -> JumpSequence:
    """Jump decomposition X_1 = f(e_1), X_i = (f(e_i) - f(e_{i-1})) mod 1."""
    if ordering.model != REAL:
        raise UnsupportedModelError("jumps are defined for real-model orderings only")
    labels = np.array(walk_labels(ordering, vertices))
    if len(labels) == 0:
        raise ValueError("walk has no edges")
    diffs = np.diff(labels)
    steps = np.concatenate(([labels[0]], np.where(diffs > 0, diffs, 1.0 + diffs)))
    return JumpSequence(jumps=steps, prefix_sums=np.cumsum(steps))
