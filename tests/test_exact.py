"""Tests for incpaths.exact."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incpaths import core
from incpaths.core import (
    CapacityError,
    EdgeOrdering,
    matching_ordering,
    random_ordering,
)
from incpaths.exact import (
    _field_masks,
    _size_masks,
    brute_force_longest,
    count_increasing_ham_paths,
    has_increasing_ham_path,
    longest_increasing_path_len,
)
from incpaths.kgreedy import MODES, k_greedy_path
from incpaths.secondmoment import exact_moments
from oracles import all_orderings, is_increasing, is_path

# a coarse grid whose repeats become one-ulp ladders (ladder_labels); the
# ladder above zero runs through the subnormals
LABEL_GRID = [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.875]


def ladder_labels(grid_labels):
    """Distinct labels in (0,1) near ties: the r-th occurrence of a grid
    value g becomes g raised r ulps, so each value's repeats climb a
    one-ulp ladder that stays below the next grid value."""
    rung = {}
    for g in grid_labels:
        rung[g] = float(np.nextafter(rung.get(g, g), 1.0))
        yield rung[g]


def count_by_permutations(ordering):
    """Oracle: vertex orders of all n vertices whose consecutive edge
    labels strictly increase, by trying every one of the n! orders."""
    label = ordering.label
    return sum(
        all(label(a, b) < label(b, c) for a, b, c in zip(seq, seq[1:], seq[2:]))
        for seq in itertools.permutations(range(ordering.n))
    )


def count_by_index_tables(ordering):
    """Reference: the counting DP that gathers and scatters through index
    arrays of the subsets holding one endpoint of the edge but not the other."""
    n = ordering.n
    subsets = np.arange(1 << n, dtype=np.int64)
    holds = [((subsets >> v) & 1) == 1 for v in range(n)]
    counts = np.zeros((1 << n, n), dtype=np.int64)
    for v in range(n):
        counts[1 << v, v] = 1
    us, vs = ordering.edges_by_label
    for u, v in zip(us.tolist(), vs.tolist()):
        src_u = subsets[holds[u] & ~holds[v]]
        src_v = subsets[holds[v] & ~holds[u]]
        add_v = counts[src_u, u]
        add_u = counts[src_v, v]
        counts[src_u + (1 << v), v] += add_v
        counts[src_v + (1 << u), u] += add_u
    return int(counts[-1].sum())


def k3_ordering():
    # f(01)=1, f(12)=2, f(02)=3
    return EdgeOrdering(n=3, model=core.PERMUTATION, labels=np.array([1, 3, 2], dtype=np.int64))


def complement_labels(ordering):
    m = core.num_edges(ordering.n)
    return EdgeOrdering(n=ordering.n, model=core.PERMUTATION,
                        labels=m + 1 - np.asarray(ordering.labels))


def test_longest_n2():
    assert longest_increasing_path_len(random_ordering(2, 0)) == 1


def test_longest_k3_example():
    assert longest_increasing_path_len(k3_ordering()) == 2


def test_count_k3_example():
    # increasing sequences: 0-1-2 (1,2), 1-2-0 (2,3), 1-0-2 (1,3)
    assert count_increasing_ham_paths(k3_ordering()) == 3


def test_count_n2_both_directions():
    # a single edge is vacuously increasing as a sequence either way,
    # keeping E[H_n] = n at n = 2
    assert count_increasing_ham_paths(random_ordering(2, 5)) == 2


def test_mean_count_over_all_k3_orderings():
    total = sum(count_increasing_ham_paths(o) for o in all_orderings(3))
    assert Fraction(total, 6) == 3


def test_mean_count_over_all_k4_orderings():
    total = sum(count_increasing_ham_paths(o) for o in all_orderings(4))
    assert Fraction(total, 720) == 4


@pytest.mark.parametrize("model", core.MODELS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_count_matches_permutation_brute_force(n, model):
    counts = []
    for seed in range(8):
        ordering = random_ordering(n, seed, model)
        counts.append(count_increasing_ham_paths(ordering))
        assert counts[-1] == count_by_permutations(ordering)
    assert max(counts) > 0


@pytest.mark.parametrize("model", core.MODELS)
@pytest.mark.parametrize("n", [13, 14, 16])
def test_count_matches_index_table_dp(n, model):
    # n = 16 runs 41-bit fields, one seed per model
    counts = []
    for seed in range(1 if n == 16 else 4):
        ordering = random_ordering(n, seed, model)
        counts.append(count_increasing_ham_paths(ordering))
        assert counts[-1] == count_by_index_tables(ordering)
    assert max(counts) > 0


@pytest.mark.parametrize("n", [3, 4])
def test_every_small_ordering_against_permutation_oracle(n):
    # at n = 3 some end vertex is reached by (n-1)! = 2 paths, so a
    # narrower count field would carry or saturate here
    counts = []
    for ordering in all_orderings(n):
        counts.append(count_increasing_ham_paths(ordering))
        assert counts[-1] == count_by_permutations(ordering)
        assert has_increasing_ham_path(ordering) == (counts[-1] > 0)
    assert len(counts) == math.factorial(core.num_edges(n))


def test_paley_zygmund_bound_over_all_k4_orderings():
    counts = [count_increasing_ham_paths(o) for o in all_orderings(4)]
    second_moment = Fraction(sum(c * c for c in counts), len(counts))
    assert second_moment == exact_moments(4).second_moment == Fraction(296, 15)
    p_positive = Fraction(sum(c > 0 for c in counts), len(counts))
    assert p_positive == Fraction(14, 15)
    assert p_positive >= Fraction(4**2) / second_moment == Fraction(30, 37)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_dp_matches_brute_force(n):
    for seed in range(10):
        ordering = random_ordering(n, seed)
        assert longest_increasing_path_len(ordering) == brute_force_longest(ordering)


def test_dp_matches_brute_force_real_model():
    for seed in range(10):
        ordering = random_ordering(6, seed, core.REAL)
        assert longest_increasing_path_len(ordering) == brute_force_longest(ordering)


@given(
    st.integers(2, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.sampled_from(LABEL_GRID),
                min_size=core.num_edges(n),
                max_size=core.num_edges(n),
            ),
        )
    ),
    st.integers(1, 4),
    st.sampled_from(MODES),
)
@settings(max_examples=150, deadline=None)
def test_detied_grid_labels(n_and_labels, k, mode):
    n, grid_labels = n_and_labels
    labels = np.fromiter(ladder_labels(grid_labels), dtype=np.float64)
    ordering = EdgeOrdering(n=n, model=core.REAL, labels=labels)
    assert longest_increasing_path_len(ordering) == brute_force_longest(ordering)
    path, _ = k_greedy_path(ordering, 0, k, mode)
    assert is_path(path)
    assert is_increasing(ordering, path)


def test_brute_force_on_all_k3_orderings():
    for ordering in all_orderings(3):
        assert longest_increasing_path_len(ordering) == brute_force_longest(ordering)


def test_existence_agrees_with_count():
    for seed in range(200):
        ordering = random_ordering(10, seed)
        assert has_increasing_ham_path(ordering) == (count_increasing_ham_paths(ordering) > 0)


def test_existence_n2():
    assert has_increasing_ham_path(random_ordering(2, 1))


def test_label_reversal_invariance():
    for seed in range(20):
        ordering = random_ordering(6, seed)
        flipped = complement_labels(ordering)
        assert longest_increasing_path_len(ordering) == longest_increasing_path_len(flipped)
        assert count_increasing_ham_paths(ordering) == count_increasing_ham_paths(flipped)


def test_brute_force_label_reversal_invariance():
    for seed in range(10):
        ordering = random_ordering(6, seed)
        assert brute_force_longest(ordering) == brute_force_longest(complement_labels(ordering))


def test_monotone_relabeling_invariance():
    for seed in range(10):
        ordering = random_ordering(7, seed, core.REAL)
        mapped = EdgeOrdering(n=7, model=core.REAL, labels=0.5 * np.asarray(ordering.labels) + 0.25)
        assert longest_increasing_path_len(ordering) == longest_increasing_path_len(mapped)
        assert count_increasing_ham_paths(ordering) == count_increasing_ham_paths(mapped)


def test_capacity_message_states_count_dp_memory():
    # 2n + 20 = 62 rows of 62-bit count fields at n = 21: an upper bound on
    # the max RSS rise of counting, calibrated at n = 18, 19 and 20
    with pytest.raises(CapacityError, match="about 961 MiB"):
        has_increasing_ham_path(random_ordering(21, 0))


def test_field_mask_cache_is_bounded():
    for n in range(2, 12):
        count_increasing_ham_paths(random_ordering(n, 0))
        has_increasing_ham_path(random_ordering(n, 0))
    info = _field_masks.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize


@pytest.mark.parametrize("n", range(13))
def test_size_masks_mark_each_subset_by_its_size(n):
    masks = _size_masks(n)
    assert len(masks) == n + 1
    for s, mask in enumerate(masks):
        assert mask >> (1 << n) == 0
        assert all((mask >> S & 1) == (bin(S).count("1") == s) for S in range(1 << n))


def test_size_mask_cache_holds_one_n():
    for n in range(2, 12):
        longest_increasing_path_len(random_ordering(n, 0))
    info = _size_masks.cache_info()
    assert info.maxsize == 1 and info.currsize == 1


def test_capacity_errors():
    ordering = random_ordering(21, 0)
    with pytest.raises(CapacityError):
        longest_increasing_path_len(ordering)
    with pytest.raises(CapacityError):
        count_increasing_ham_paths(ordering)
    with pytest.raises(CapacityError):
        has_increasing_ham_path(ordering)
    with pytest.raises(CapacityError):
        brute_force_longest(random_ordering(9, 0))


def test_matching_ordering_n8_existence_regression():
    # deterministic instance; frozen value, asserted stable across runs
    value = has_increasing_ham_path(matching_ordering(8))
    assert value == has_increasing_ham_path(matching_ordering(8))
    assert value is False
    assert longest_increasing_path_len(matching_ordering(8)) == 6
