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
  The row keeps two ``array.array`` columns, indexed without building
  numpy scalars: the targets, in the narrowest unsigned type that holds
  n - 1 (uint8 up to n = 256, uint16 up to the ordering cap), and a uint16
  key per target, floor(label * 2^16 / s) with s = 1 for real labels and
  m + 1 for permutation labels, which is monotone in the label.  An entry
  takes 3 or 4 bytes, not the 9 or 10 a float64 label would need;
  when the vertex rejoins after its subtree was discarded, tau's position
  in the row is found by bisecting the keys, then among the entries whose
  key equals tau's (usually the committed edge's own) by their exact labels;
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
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from . import EXHAUST, STRICT
from .core import PERMUTATION, EdgeOrdering, _row_offsets, num_edges

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
    # rows[x]: (keys, targets) of x's candidates in ascending label order,
    # the vertices off the path with a label above tau at x's first join;
    # keys[i] is floor(label * key_scale), monotone in the label
    rows: dict[int, tuple[array, array]] = {}
    target_type = np.min_scalar_type(n - 1)
    key_scale = 2.0**16 / (num_edges(n) + 1 if ordering.model == PERMUTATION else 1)
    labels = ordering.labels
    if not (labels.dtype.isnative and labels.dtype.char in "bBhHiIlLqQfd"):
        labels = labels.astype(np.float64)  # a dtype memoryview cannot index
    labels = memoryview(labels)  # indexed at half the cost of ndarray.item
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
        targets = rows[x][1]
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
            keys, targets = rows[x]
            key = int(tau * key_scale)  # truncated, as the rows' keys were
            p = bisect_left(keys, key)
            size = len(keys)
            # keys below tau's hold labels below tau; equal keys need the labels
            while p < size and keys[p] == key:
                t = targets[p]
                edge = offsets[x] + t if x < t else offsets[t] + x
                if labels[edge] > tau:
                    break
                p += 1
            queue_from(x, p)
            return
        row = ordering.row(x)
        keep = row > tau
        keep[x] = False
        keep &= ~on_path_mask
        targets = np.flatnonzero(keep).astype(target_type)
        row = row[targets]
        order = np.argsort(row)
        keys = (row[order] * key_scale).astype(np.uint16)
        rows[x] = (_packed(keys), _packed(targets[order]))
        queue_from(x, 0)

    join(v0)
    while heap:
        label, attach, p = heapq.heappop(heap)
        if attach not in children or p != pos[attach]:
            continue  # attach left the tree, or moved on, after this entry was queued
        child = rows[attach][1][p]
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
