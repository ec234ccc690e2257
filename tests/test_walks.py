"""Tests for incpaths.walks."""

import math

import numpy as np
import pytest

from incpaths import core
from incpaths.core import UnsupportedModelError, matching_ordering, random_ordering
from incpaths.walks import greedy_path, jumps, pedestrian_walks, refusal_paths, walk_lengths
from oracles import is_increasing, is_path, to_permutation_model

TELESCOPE_TOL = 2.0**-40


def final_positions_by_transpositions(ordering):
    """Oracle: compose the edge transpositions in label order."""
    pos = list(range(ordering.n))  # pos[pedestrian] = current vertex
    us, vs = ordering.edges_by_label
    for u, v in zip(us.tolist(), vs.tolist()):
        for s in range(ordering.n):
            if pos[s] == u:
                pos[s] = v
            elif pos[s] == v:
                pos[s] = u
    return pos


def greedy_replay_oracle(ordering, v0):
    """Direct transcription of the greedy rule on a label dictionary."""
    n = ordering.n
    label = {(u, v): ordering.label(u, v) for u in range(n) for v in range(n) if u != v}
    path = [v0]
    last = None
    while True:
        v = path[-1]
        options = [
            (label[(v, x)], x)
            for x in range(n)
            if x not in path and (last is None or label[(v, x)] > last)
        ]
        if not options:
            return path
        last, nxt = min(options)
        path.append(nxt)


def smallest_jump_sequence(ordering, v0):
    """Hamiltonian vertex sequence choosing the smallest cyclic jump each step."""
    n = ordering.n
    seq = [v0]
    last = 0.0
    while len(seq) < n:
        v = seq[-1]
        best = None
        for x in range(n):
            if x in seq:
                continue
            gap = (ordering.label(v, x) - last) % 1.0
            if best is None or gap < best[0]:
                best = (gap, x)
        seq.append(best[1])
        last = ordering.label(seq[-2], seq[-1])
    return seq


def test_pedestrian_n2():
    walks = pedestrian_walks(random_ordering(2, 0))
    assert walks == [[0, 1], [1, 0]]


def test_pedestrian_total_steps_and_guarantee():
    n = 30
    for seed in range(20):
        walks = pedestrian_walks(random_ordering(n, seed))
        assert sum(len(w) - 1 for w in walks) == n * (n - 1)
        assert max(len(w) - 1 for w in walks) >= n - 1


def test_pedestrian_walks_are_increasing():
    for seed in range(5):
        ordering = random_ordering(12, seed, core.REAL)
        for walk in pedestrian_walks(ordering):
            assert is_increasing(ordering, walk)


def test_pedestrian_matches_transposition_composition():
    for seed in range(5):
        ordering = random_ordering(15, seed)
        walks = pedestrian_walks(ordering)
        assert [w[-1] for w in walks] == final_positions_by_transpositions(ordering)


def test_pedestrian_on_matching_ordering_is_tight():
    walks = pedestrian_walks(matching_ordering(10))
    assert max(len(w) - 1 for w in walks) == 9


def test_refusal_n2():
    assert refusal_paths(random_ordering(2, 0)) == [[0, 1], [1, 0]]


def test_refusal_paths_are_simple_increasing():
    for seed in range(10):
        ordering = random_ordering(25, seed)
        for path in refusal_paths(ordering):
            assert is_path(path)
            assert is_increasing(ordering, path)


def test_refusal_guarantee_n50():
    bound = math.isqrt(49)
    for seed in range(30):
        paths = refusal_paths(random_ordering(50, seed))
        assert max(len(p) - 1 for p in paths) >= bound


def test_refusal_each_edge_classified_once():
    # a called edge is either walked (one simultaneous swap: two steps on that
    # edge, never again) or refused; so walked + refused = n(n-1)/2
    from collections import Counter

    for seed in range(10):
        n = 20
        ordering = random_ordering(n, seed)
        walks = refusal_paths(ordering)
        traversed = Counter(
            frozenset((a, b)) for w in walks for a, b in zip(w, w[1:])
        )
        assert all(times == 2 for times in traversed.values())
        assert sum(len(w) - 1 for w in walks) == 2 * len(traversed)
        assert len(traversed) <= core.num_edges(n)


def trajectory_lengths(ordering):
    """Reference for walk_lengths: the lengths of the full trajectories."""
    return (
        [len(w) - 1 for w in pedestrian_walks(ordering)],
        [len(p) - 1 for p in refusal_paths(ordering)],
    )


@pytest.mark.parametrize("model", core.MODELS)
@pytest.mark.parametrize("n", [2, 3, 4, 7, 30, 61])
def test_walk_lengths_match_trajectories(n, model):
    for seed in range(5):
        ordering = random_ordering(n, seed, model)
        assert walk_lengths(ordering) == trajectory_lengths(ordering)


@pytest.mark.parametrize("n", [2, 4, 10, 30, 64])
def test_walk_lengths_match_trajectories_on_matching_ordering(n):
    ordering = matching_ordering(n)
    steps, lengths = walk_lengths(ordering)
    assert (steps, lengths) == trajectory_lengths(ordering)
    assert max(steps) == n - 1


def test_greedy_n2():
    assert greedy_path(random_ordering(2, 3), 0) == [0, 1]


def test_greedy_matches_replay_oracle():
    for seed in range(50):
        ordering = random_ordering(6, seed)
        for v0 in range(6):
            assert greedy_path(ordering, v0) == greedy_replay_oracle(ordering, v0)


def test_greedy_real_matches_induced_permutation():
    for seed in range(20):
        ordering = random_ordering(12, seed, core.REAL)
        assert greedy_path(ordering, 0) == greedy_path(to_permutation_model(ordering), 0)


def test_greedy_output_is_simple_increasing():
    for seed in range(10):
        ordering = random_ordering(30, seed, core.REAL)
        path = greedy_path(ordering, 0)
        assert is_path(path)
        assert is_increasing(ordering, path)


def test_greedy_rejects_bad_start():
    with pytest.raises(ValueError):
        greedy_path(random_ordering(5, 0), 5)


def test_greedy_is_prefix_of_smallest_jump_sequence():
    for seed in range(20):
        ordering = random_ordering(10, seed, core.REAL)
        seq = smallest_jump_sequence(ordering, 0)
        labels = [ordering.label(a, b) for a, b in zip(seq, seq[1:])]
        k = len(labels)
        for i in range(1, len(labels)):
            if labels[i] < labels[i - 1]:
                k = i
                break
        assert greedy_path(ordering, 0) == seq[: k + 1]


def test_jumps_single_edge():
    ordering = random_ordering(5, 9, core.REAL)
    js = jumps(ordering, [2, 4])
    assert js.jumps[0] == ordering.label(2, 4)
    assert len(js.jumps) == 1


def test_jumps_rejects_permutation_model():
    with pytest.raises(UnsupportedModelError):
        jumps(random_ordering(5, 0), [0, 1])


def test_jumps_telescoping_identity():
    rng = np.random.default_rng(11)
    for seed in range(20):
        n = 15
        ordering = random_ordering(n, seed, core.REAL)
        walk = [int(rng.integers(n))]
        while len(walk) < 12:
            w = int(rng.integers(n))
            # avoid re-traversing the previous edge, which would give a jump
            # of exactly 1; jumps live in [0, 1) only when consecutive edges
            # differ
            if w != walk[-1] and (len(walk) < 2 or w != walk[-2]):
                walk.append(w)
        labels = [ordering.label(a, b) for a, b in zip(walk, walk[1:])]
        descents = sum(1 for a, b in zip(labels, labels[1:]) if b <= a)
        js = jumps(ordering, walk)
        assert np.all(js.jumps >= 0) and np.all(js.jumps < 1)
        assert abs(js.prefix_sums[-1] - (labels[-1] + descents)) < TELESCOPE_TOL


def test_jump_sum_below_one_iff_increasing():
    rng = np.random.default_rng(7)
    for seed in range(30):
        n = 10
        ordering = random_ordering(n, seed, core.REAL)
        walk = [int(rng.integers(n))]
        while len(walk) < 6:
            w = int(rng.integers(n))
            if w != walk[-1]:
                walk.append(w)
        js = jumps(ordering, walk)
        assert (js.prefix_sums[-1] <= 1.0) == is_increasing(ordering, walk)
