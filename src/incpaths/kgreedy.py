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
  and the vertices off the path with a label above tau are sorted once.
  The row is one ``array.array`` of targets in ascending label order,
  indexed without building numpy scalars, in the narrowest unsigned type
  that holds n - 1 (uint8 up to n = 256, uint16 up to the ordering cap):
  1 or 2 bytes an entry, not the 9 or 10 a float64 label beside its target
  would need.  When the vertex rejoins after its subtree was discarded, it
  searches its row from its queued index for the first entry above tau,
  galloping in spans of 16, 256, ... entries and bisecting the span that
  holds it, reading each probed entry's exact label from the ordering;
* the heap holds each tree vertex's next candidate as (label, vertex,
  row index), with the exact label read from the ordering as it is
  pushed, so commits, ties and tau are exact.  Targets on the path are
  skipped as soon as they are reached (path membership is permanent);
  targets in the tree are checked only when popped, because a discarded
  subtree makes its vertices eligible again.  A popped entry is skipped
  unless its vertex is in the tree with that row index queued; one left
  from an earlier stay that passes this equals the current entry.

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
from array import array
from bisect import bisect_right

import numpy as np

from . import EXHAUST, STRICT
from .core import EdgeOrdering, _row_offsets

MODES = (STRICT, EXHAUST)


class KGreedyTrace:
    """One record per full-tree path extension.

    ``ell[i]`` is the path edge count after the extension,
    ``retained_subtree_size[i]`` the vertex count of the kept subtree (the
    statistic whose limiting law is the longest cycle of a random
    permutation of {1..k}), and ``waiting_time[i]`` the advance of tau
    since the previous extension.  Extensions made while exhausting a
    partial tree after the eligible-edge supply runs dry are not recorded.
    """

    def __init__(self, ell: np.ndarray, retained_subtree_size: np.ndarray,
                 waiting_time: np.ndarray):
        self.ell, self.retained_subtree_size = ell, retained_subtree_size
        self.waiting_time = waiting_time

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


def _packed(values: np.ndarray) -> array:
    """``values`` as an ``array.array`` of the same unsigned type, allocated
    to size: one filled from bytes keeps 1/16 spare, its slice none."""
    return array(values.dtype.char, values.tobytes())[:]


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
    # rows[x]: x's candidates in ascending label order, the vertices off
    # the path with a label above tau at x's first join
    rows: dict[int, array] = {}
    target_type = np.min_scalar_type(n - 1)
    labels = memoryview(ordering.labels)  # indexed at half the cost of ndarray.item
    offsets = _row_offsets(n).tolist()
    pos = [0] * n  # index of x's queued candidate in rows[x]
    heap: list[tuple[float | int, int, int]] = []

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
        targets = rows[x]
        size = len(targets)
        while p < size and on_path[targets[p]]:
            p += 1
        pos[x] = p
        if p < size:
            t = targets[p]
            edge = offsets[x] + t if x < t else offsets[t] + x
            heapq.heappush(heap, (labels[edge], x, p))

    def join(x):
        if x in rows:
            # entries before pos[x] are on the path or were popped at a
            # label no greater than tau, so the search can start there; the
            # answer is a few entries on at large k, a few hundred at k = 10,
            # so it gallops to the first span whose last label passes tau
            targets = rows[x]
            o = offsets[x]
            lo, span = pos[x], 16
            hi = len(targets)
            while lo + span <= hi:
                t = targets[lo + span - 1]
                if labels[o + t if x < t else offsets[t] + x] > tau:
                    hi = lo + span - 1
                    break
                lo += span
                span <<= 4
            queue_from(x, bisect_right(
                targets, tau, lo, hi, key=lambda t: labels[o + t if x < t else offsets[t] + x]))
            return
        row = ordering.row(x)
        keep = row > tau
        keep[x] = False
        keep &= ~on_path_mask
        targets = np.flatnonzero(keep).astype(target_type)
        rows[x] = _packed(targets[np.argsort(row[targets])])
        queue_from(x, 0)

    join(v0)
    while heap:
        label, attach, p = heapq.heappop(heap)
        if attach not in children or p != pos[attach]:
            continue  # attach left the tree, or moved on, after this entry was queued
        child = rows[attach][p]
        if on_path[child] or child in children:
            queue_from(attach, p + 1)
            continue
        # commit the minimum eligible edge: everything below this label was
        # already committed or is excluded by the current state
        children[attach].append(child)
        children[child] = []
        tau = float(label)
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
