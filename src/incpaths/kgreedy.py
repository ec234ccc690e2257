"""Greedy path search with a k-edge look-ahead tree.

The algorithm grows a rooted tree T of candidate extensions from the tip
of the path P: while T has fewer than k edges, it commits the
minimum-label edge that leaves P-union-T with label at least the current
time tau (setting tau to that label); once T has k edges, the path
advances into the root child with the largest subtree, discarding the
rest of the tree.  Every root-to-leaf chain built this way carries
increasing labels, so P stays a simple increasing path throughout.

Because committed labels strictly increase, the whole run is equivalent
to a single pass over the edges in ascending label order, checking each
edge's eligibility against the current state.  Only edges at a tree
vertex can be committed, so this module merges the tree vertices' sorted
candidate rows with a heap instead of visiting all m edges:

* when a vertex first joins the tree, its row is gathered from the labels
  and the vertices off the path with a label above tau are sorted once;
  when it rejoins after its subtree was discarded, tau is found in that
  sorted row by binary search;
* the heap holds each tree vertex's next candidate as (label, vertex,
  row index).  Targets on the path are skipped as soon as they are
  reached (path membership is permanent); targets in the tree are checked
  only when popped, because a discarded subtree makes its vertices
  eligible again.  A popped entry is skipped unless its vertex is in the
  tree with that row index queued; one left from an earlier stay that
  passes this equals the current entry.

A run costs one row sort per distinct joined vertex plus O(log n) per
commit and per skipped candidate.

Termination when no eligible edge remains:

* ``strict``  -- return P as is.
* ``exhaust`` -- additionally walk down the remaining tree, repeatedly
  stepping into the largest root-child subtree, until no tree edge is
  left.  Each such step follows an increasing chain, so soundness is
  preserved.  This mode dominates strict in path length and is the
  default.

Ties between equal largest subtrees go to the earliest-added root child,
making runs fully deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import EXHAUST, STRICT
from .core import EdgeOrdering

MODES = (STRICT, EXHAUST)


@dataclass(frozen=True)
class KGreedyTrace:
    """One record per full-tree path extension.

    ``ell[i]`` is the path edge count after the extension,
    ``retained_subtree_size[i]`` the vertex count of the kept subtree (the
    statistic whose limiting law is the longest cycle of a random
    permutation of {1..k}), and ``waiting_time[i]`` the advance of tau
    since the previous extension.  Extensions made while exhausting a
    partial tree after the eligible-edge supply runs dry are not recorded.
    """

    ell: np.ndarray
    retained_subtree_size: np.ndarray
    waiting_time: np.ndarray

    def __len__(self):
        return len(self.ell)


def _subtree_vertices(root_child, children):
    vertices = [root_child]
    stack = [root_child]
    while stack:
        for c in children.get(stack.pop(), ()):
            vertices.append(c)
            stack.append(c)
    return vertices


def k_greedy_path(
    ordering: EdgeOrdering, v0: int = 0, k: int = 1, mode: str = EXHAUST
) -> tuple[list[int], KGreedyTrace]:
    """Run the k-look-ahead greedy search from v0.

    Returns the (simple, increasing) path as a vertex list together with
    the per-extension trace.  k=1 in exhaust mode reproduces the plain
    greedy path.
    """
    n = ordering.n
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if not 0 <= v0 < n:
        raise ValueError(f"start vertex {v0} out of range for n={n}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")

    path = [v0]
    children: dict[int, list[int]] = {v0: []}  # keys: the tree's vertices
    on_path = bytearray(n)
    on_path[v0] = True
    on_path_mask = np.frombuffer(on_path, dtype=bool)  # live view of on_path
    # rows[x]: (labels, targets) of x's candidates in ascending label order,
    # the vertices off the path with a label above tau at x's first join
    rows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    pos = [0] * n  # index of x's queued candidate in rows[x]
    heap: list[tuple[float, int, int]] = []

    tau = 0.0
    tau_prev = 0.0
    trace_ell: list[int] = []
    trace_retained: list[int] = []
    trace_waiting: list[float] = []

    def advance_into_largest_subtree():
        """Step the path into the largest root-child subtree; returns its
        vertex count.  Discarded subtree vertices leave P-union-T."""
        root = path[-1]
        subtrees = [_subtree_vertices(c, children) for c in children.pop(root)]
        kept = max(subtrees, key=len)  # earliest-added root child wins ties
        for sub in subtrees:
            if sub is not kept:
                for v in sub:
                    children.pop(v, None)
        del rows[root]  # root stays on the path and never rejoins
        path.append(kept[0])
        on_path[kept[0]] = True
        return len(kept)

    def queue_from(x, p):
        """Queue x's first candidate at index p or later that is off the path."""
        labels, targets = rows[x]
        size = len(targets)
        while p < size and on_path[targets.item(p)]:
            p += 1
        pos[x] = p
        if p < size:
            heapq.heappush(heap, (labels.item(p), x, p))

    def join(x):
        if x in rows:
            queue_from(x, int(rows[x][0].searchsorted(tau, side="right")))
            return
        row = ordering.row(x)
        keep = row > tau
        keep[x] = False
        keep &= ~on_path_mask
        targets = np.flatnonzero(keep)
        targets = targets[np.argsort(row[targets])]
        rows[x] = (row[targets], targets)
        queue_from(x, 0)

    join(v0)
    while heap:
        label, attach, p = heapq.heappop(heap)
        if attach not in children or p != pos[attach]:
            continue  # attach left the tree, or moved on, after this entry was queued
        child = rows[attach][1].item(p)
        if on_path[child] or child in children:
            queue_from(attach, p + 1)
            continue
        # commit the minimum eligible edge: everything below this label was
        # already committed or is excluded by the current state
        children[attach].append(child)
        children[child] = []
        tau = label
        if len(children) > k:  # the tree has len(children) - 1 edges
            retained = advance_into_largest_subtree()
            trace_ell.append(len(path) - 1)
            trace_retained.append(retained)
            trace_waiting.append(tau - tau_prev)
            tau_prev = tau
        if attach in children:
            queue_from(attach, p + 1)
        if child in children:
            join(child)

    if mode == EXHAUST:
        while len(children) > 1:
            advance_into_largest_subtree()

    trace = KGreedyTrace(
        ell=np.array(trace_ell, dtype=np.int64),
        retained_subtree_size=np.array(trace_retained, dtype=np.int64),
        waiting_time=np.array(trace_waiting),
    )
    return path, trace
