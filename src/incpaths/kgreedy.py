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
edge's eligibility against the current state; that is how this module
implements it (one O(m) scan per run instead of rescanning candidate
edges after every commit).

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

from dataclasses import dataclass

import numpy as np

from .core import EdgeOrdering

STRICT = "strict"
EXHAUST = "exhaust"
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
    children: dict[int, list[int]] = {v0: []}
    tree_edges = 0
    in_pt = [False] * n  # vertex in P or T
    in_tree = [False] * n
    in_pt[v0] = True
    in_tree[v0] = True

    tau = 0.0
    tau_prev = 0.0
    trace_ell: list[int] = []
    trace_retained: list[int] = []
    trace_waiting: list[float] = []

    def advance_into_largest_subtree():
        """Step the path into the largest root-child subtree; returns its
        vertex count.  Discarded subtree vertices leave P-union-T."""
        nonlocal tree_edges
        root = path[-1]
        best = None
        best_sub = None
        for child in children[root]:  # earliest-added wins ties
            sub = _subtree_vertices(child, children)
            if best_sub is None or len(sub) > len(best_sub):
                best, best_sub = child, sub
        keep = set(best_sub)
        for child in children[root]:
            if child == best:
                continue
            for v in _subtree_vertices(child, children):
                in_pt[v] = False
                in_tree[v] = False
                children.pop(v, None)
        children.pop(root)
        in_tree[root] = False  # root stays on the path
        path.append(best)
        tree_edges = len(keep) - 1
        return len(keep)

    us, vs = ordering.edges_by_label
    for a, b in zip(us.tolist(), vs.tolist()):
        if in_tree[a]:
            if in_pt[b]:
                continue
            child = b
            attach = a
        elif in_tree[b]:
            if in_pt[a]:
                continue
            child = a
            attach = b
        else:
            continue
        # commit the minimum eligible edge: everything below this label was
        # already committed or is excluded by the current state
        children[attach].append(child)
        children[child] = []
        in_pt[child] = True
        in_tree[child] = True
        tree_edges += 1
        tau = float(ordering.label(attach, child))
        if tree_edges == k:
            retained = advance_into_largest_subtree()
            trace_ell.append(len(path) - 1)
            trace_retained.append(retained)
            trace_waiting.append(tau - tau_prev)
            tau_prev = tau

    if mode == EXHAUST:
        while tree_edges > 0:
            advance_into_largest_subtree()

    trace = KGreedyTrace(
        ell=np.array(trace_ell, dtype=np.int64),
        retained_subtree_size=np.array(trace_retained, dtype=np.int64),
        waiting_time=np.array(trace_waiting),
    )
    return path, trace
