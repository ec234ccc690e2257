"""Tests for incpaths.kgreedy."""

import heapq
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest

from incpaths import core, kgreedy
from incpaths.core import random_ordering
from incpaths.cyclestats import longest_cycle_distribution
from incpaths.kgreedy import (
    EXHAUST,
    MODES,
    STRICT,
    KGreedyTrace,
    _subtree_vertices,
    k_greedy_path,
)
from incpaths.walks import greedy_path
from oracles import is_increasing, is_path, traced_peak


def k_greedy_reference(ordering, v0, k, mode):
    """Verbatim transcription of the search: recompute the eligible edge
    set S from scratch at every iteration."""
    n = ordering.n
    label = ordering.label
    path = [v0]
    children = {v0: []}
    tree = {v0}
    tau = 0.0
    tau_prev = 0.0
    records = []

    def subtree(v):
        out = {v}
        for c in children[v]:
            out |= subtree(c)
        return out

    def advance_largest():
        nonlocal tree
        root = path[-1]
        best_child = None
        best_sub = None
        for c in children[root]:
            sub = subtree(c)
            if best_sub is None or len(sub) > len(best_sub):
                best_child, best_sub = c, sub
        for c in list(children[root]):
            if c != best_child:
                for v in subtree(c):
                    del children[v]
        del children[root]
        path.append(best_child)
        tree = set(best_sub)
        return len(best_sub)

    while True:
        while len(tree) - 1 < k:
            blocked = set(path) | tree
            candidates = [
                (label(x, y), x, y)
                for x in tree
                for y in range(n)
                if y not in blocked and label(x, y) >= tau
            ]
            if not candidates:
                if mode == EXHAUST:
                    while len(tree) > 1:
                        advance_largest()
                return path, records
            lab, x, y = min(candidates)
            children[x].append(y)
            children[y] = []
            tree.add(y)
            tau = lab
        retained = advance_largest()
        records.append((len(path) - 1, retained, tau - tau_prev))
        tau_prev = tau


def k_greedy_scan_reference(ordering, v0=0, k=1, mode=EXHAUST):
    """The search as one pass over all m edges in ascending label order,
    checking each edge against the current state (the O(m) kernel that the
    candidate-row heap replaced, kept verbatim as a reference)."""
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


@pytest.mark.parametrize("mode", [STRICT, EXHAUST])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_matches_reference_implementation(k, mode):
    for seed in range(8):
        ordering = random_ordering(14, seed, core.REAL)
        path, trace = k_greedy_path(ordering, 0, k, mode)
        ref_path, ref_records = k_greedy_reference(ordering, 0, k, mode)
        assert path == ref_path
        assert list(trace.ell) == [r[0] for r in ref_records]
        assert list(trace.retained_subtree_size) == [r[1] for r in ref_records]
        assert np.allclose(trace.waiting_time, [r[2] for r in ref_records], atol=1e-15)


def test_matches_reference_permutation_model():
    for seed in range(5):
        ordering = random_ordering(12, seed)
        path, trace = k_greedy_path(ordering, 3, 3, EXHAUST)
        ref_path, _ = k_greedy_reference(ordering, 3, 3, EXHAUST)
        assert path == ref_path


def assert_same_run_as_scan(ordering, v0, k, mode):
    path, trace = k_greedy_path(ordering, v0, k, mode)
    ref_path, ref_trace = k_greedy_scan_reference(ordering, v0, k, mode)
    assert path == ref_path
    for field in ("ell", "retained_subtree_size", "waiting_time"):
        got, want = getattr(trace, field), getattr(ref_trace, field)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("model", core.MODELS)
@pytest.mark.parametrize("n", [2, 3, 4, 7, 15, 60, 250, 256, 257])
def test_matches_scan_reference(n, model):
    # 5 look-aheads x 2 modes x 5 seeds with varied start vertices per
    # (n, model): 900 runs over the whole grid; 256 and 257 straddle the
    # uint8/uint16 boundary of the stored row targets
    for k in (1, 2, 3, 7, 25):
        for mode in MODES:
            for seed in range(5):
                ordering = random_ordering(n, seed, model)
                assert_same_run_as_scan(ordering, (7 * seed + k) % n, k, mode)


@pytest.mark.parametrize("k, mode", [(10, EXHAUST), (172, STRICT)])
def test_matches_scan_reference_at_scale(k, mode):
    assert_same_run_as_scan(random_ordering(2000, 3, core.REAL), 0, k, mode)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [6, 20, 60])
def test_matches_scan_reference_in_one_key_bucket(n, mode):
    # real labels 0.5 + rank * 2^-40, neighbours 2^-40 apart: a rejoin's
    # bisect and every heap comparison separate them only by exact labels
    m = core.num_edges(n)
    for seed in range(3):
        ranks = np.random.default_rng(seed).permutation(m)
        ordering = core.EdgeOrdering(n=n, model=core.REAL, labels=0.5 + ranks * 2.0**-40)
        for k in (1, 3, 10):
            assert_same_run_as_scan(ordering, seed, k, mode)


@pytest.mark.parametrize("k", [1, 10, 50, 172])
def test_matches_scan_reference_with_colliding_permutation_keys(k):
    # dense permutation labels 1..m (m = 79800), neighbours 1 apart, so a
    # rejoin's bisect separates them only by exact comparison; k = 172
    # rejoins most often
    for seed in range(2):
        assert_same_run_as_scan(random_ordering(400, seed), 0, k, EXHAUST)


@pytest.mark.parametrize("n", [200, 400])
@pytest.mark.parametrize("k, bytes_per_edge", [(10, 3), (172, 6)])
def test_candidate_rows_trace_little_memory(n, k, bytes_per_edge):
    # calibrated on these orderings, whose rows hold uint8 targets at
    # n = 200 and uint16 at n = 400: rows of targets alone peaked at 2.55
    # and 5.41 bytes per edge at k = 10 and 172 for n = 200, and at 2.39
    # and 5.23 for n = 400; a uint16 key per entry beside the targets
    # peaked at 4.28, 9.92, 4.07 and 9.32, float64 labels at 8.61 and
    # 20.66 (n = 400), so even a uint8 key per entry would cross the bound
    ordering = random_ordering(n, 0, core.REAL)
    k_greedy_path(ordering, 0, k)  # first-call setup is not the run's
    assert traced_peak(lambda: k_greedy_path(ordering, 0, k)) < bytes_per_edge * core.num_edges(n)


@pytest.mark.parametrize("model, dtype", [(core.REAL, ">f8"), (core.REAL, "f2"), (core.PERMUTATION, ">i8")])
def test_labels_of_other_dtypes_run_as_native(model, dtype):
    # labels a memoryview cannot index are read from a float64 copy
    n = 20
    native = random_ordering(n, 1, core.PERMUTATION)
    if model == core.REAL:
        native = core.EdgeOrdering(n=n, model=model, labels=native.labels / 256)
    other = core.EdgeOrdering(n=n, model=model, labels=native.labels.astype(dtype))
    for k in (1, 3, 10):
        path, trace = k_greedy_path(other, 0, k)
        native_path, native_trace = k_greedy_path(native, 0, k)
        assert path == native_path
        assert np.array_equal(trace.waiting_time, native_trace.waiting_time)


def test_acted_on_entries_carry_the_queued_row_index(monkeypatch):
    # The row-index half of the heap staleness rule, which the paths cannot
    # show: an entry left from an earlier stay of its vertex, if acted on,
    # re-handles a candidate already passed and queues a duplicate.  An
    # entry acted on is continued by a push for its vertex right after the
    # pop; the popped row index must be the one last pushed for the vertex.
    events = []  # (pushed, vertex, row index) in call order

    def heappush(heap, entry):
        events.append((True, entry[1], entry[2]))
        heapq.heappush(heap, entry)

    def heappop(heap):
        entry = heapq.heappop(heap)
        events.append((False, entry[1], entry[2]))
        return entry

    monkeypatch.setattr(kgreedy, "heapq", SimpleNamespace(heappush=heappush, heappop=heappop))
    continuations = 0
    grid = itertools.product((10, 30, 60, 200), (1, 2, 5, 20), core.MODELS, MODES, range(5))
    for n, k, model, mode, seed in grid:
        events.clear()
        k_greedy_path(random_ordering(n, seed, model), 0, k, mode)
        last_pushed, popped = {}, None
        for pushed, x, p in events:
            if not pushed:
                popped = (x, p)
                continue
            if popped is not None and popped[0] == x:  # a continuation
                assert popped[1] == last_pushed[x], (n, k, model, mode, seed)
                continuations += 1
            last_pushed[x] = p
            popped = None
    assert continuations > 0


@pytest.mark.parametrize("model", core.MODELS)
@pytest.mark.parametrize("n", [50, 300])
@pytest.mark.parametrize("k", [1, 2])
def test_small_k_exhaust_equals_greedy(k, n, model):
    for seed in range(30):
        ordering = random_ordering(n, seed, model)
        path, _ = k_greedy_path(ordering, 0, k, EXHAUST)
        assert path == greedy_path(ordering, 0), seed


def test_output_simple_and_increasing():
    for k in (1, 4, 10):
        for mode in (STRICT, EXHAUST):
            for seed in range(5):
                ordering = random_ordering(60, seed, core.REAL)
                path, _ = k_greedy_path(ordering, 0, k, mode)
                assert is_path(path)
                assert is_increasing(ordering, path)


def test_deterministic():
    ordering = random_ordering(40, 5, core.REAL)
    first = k_greedy_path(ordering, 0, 6)
    second = k_greedy_path(ordering, 0, 6)
    assert first[0] == second[0]
    assert np.array_equal(first[1].retained_subtree_size, second[1].retained_subtree_size)
    assert np.array_equal(first[1].waiting_time, second[1].waiting_time)


def test_strict_is_prefix_of_exhaust():
    for seed in range(10):
        ordering = random_ordering(30, seed, core.REAL)
        strict_path, _ = k_greedy_path(ordering, 0, 4, STRICT)
        exhaust_path, _ = k_greedy_path(ordering, 0, 4, EXHAUST)
        assert exhaust_path[: len(strict_path)] == strict_path
        assert len(exhaust_path) >= len(strict_path)


def test_trace_fields():
    k = 5
    ordering = random_ordering(80, 2, core.REAL)
    path, trace = k_greedy_path(ordering, 0, k)
    assert len(trace) > 0
    assert all(1 <= s <= k for s in trace.retained_subtree_size)
    assert all(w > 0 for w in trace.waiting_time)
    assert list(trace.ell) == sorted(trace.ell)
    # tau after all recorded extensions is the waiting-time total, below 1
    assert trace.waiting_time.sum() <= 1.0


def test_invalid_arguments():
    ordering = random_ordering(10, 0)
    with pytest.raises(ValueError):
        k_greedy_path(ordering, 0, 0)
    with pytest.raises(ValueError):
        k_greedy_path(ordering, 10, 2)
    with pytest.raises(ValueError):
        k_greedy_path(ordering, 0, 2, mode="lazy")


def test_deeper_look_ahead_wins_at_scale():
    # paired runs at n=2000: k=100 mean fraction is 0.818 here (it climbs
    # toward the 0.848 asymptote only as n grows: 0.792/0.818/0.836/0.841
    # at n=1000/2000/4000/8000), and beats k=10, which beats k=1
    n = 2000
    means = {}
    for k in (1, 10, 100):
        fractions = []
        for seed in range(6):
            ordering = random_ordering(n, seed, core.REAL)
            path, _ = k_greedy_path(ordering, 0, k)
            fractions.append((len(path) - 1) / n)
        means[k] = float(np.mean(fractions))
    assert means[1] < means[10] < means[100]
    assert means[100] >= 0.81


def test_retained_sizes_follow_longest_cycle_law():
    # pooled retained-subtree sizes against the exact longest-cycle pmf,
    # three-sigma binomial tolerance per mass point
    k = 5
    sizes = []
    for seed in range(8):
        ordering = random_ordering(1200, seed, core.REAL)
        _, trace = k_greedy_path(ordering, 0, k)
        sizes.extend(trace.retained_subtree_size.tolist())
    sizes = np.array(sizes)
    total = len(sizes)
    exact = [float(p) for p in longest_cycle_distribution(k).pmf]
    for s in range(1, k + 1):
        p = exact[s]
        freq = float(np.mean(sizes == s))
        assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / total)
