"""Tests for incpaths.kgreedy."""

import math

import numpy as np
import pytest

from incpaths import core
from incpaths.core import is_increasing, is_path, random_ordering
from incpaths.cyclestats import longest_cycle_distribution
from incpaths.kgreedy import EXHAUST, STRICT, KGreedyTrace, k_greedy_path
from incpaths.walks import greedy_path


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


def test_k1_exhaust_equals_greedy():
    for seed in range(30):
        ordering = random_ordering(25, seed, core.REAL)
        path, _ = k_greedy_path(ordering, 0, 1, EXHAUST)
        assert path == greedy_path(ordering, 0)


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
