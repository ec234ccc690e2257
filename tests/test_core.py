"""Tests for incpaths.core."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from incpaths import core
from incpaths.core import (
    EdgeOrdering,
    edge_endpoints,
    edge_index,
    is_increasing,
    matching_ordering,
    num_edges,
    random_ordering,
    read_ordering,
    to_permutation_model,
    write_ordering,
)


def longest_increasing_walk_exhaustive(ordering):
    """Oracle: DFS over every increasing walk (walks may revisit vertices)."""
    n = ordering.n
    best = 0

    def extend(v, last, length):
        nonlocal best
        best = max(best, length)
        for w in range(n):
            if w != v and ordering.label(v, w) > last:
                extend(w, ordering.label(v, w), length + 1)

    for v in range(n):
        extend(v, float("-inf"), 0)
    return best


def test_edge_index_examples():
    assert edge_index(0, 1, 5) == 0
    assert edge_index(3, 4, 5) == 9
    assert edge_index(1, 3, 5) == 5
    assert edge_index(3, 1, 5) == 5  # unordered


def test_edge_index_errors():
    with pytest.raises(ValueError):
        edge_index(2, 2, 5)
    with pytest.raises(ValueError):
        edge_index(0, 5, 5)
    with pytest.raises(ValueError):
        edge_index(-1, 0, 5)


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
def test_edge_index_bijection(n):
    seen = set()
    for idx in range(num_edges(n)):
        u, v = edge_endpoints(idx, n)
        assert 0 <= u < v < n
        assert edge_index(u, v, n) == idx
        seen.add((u, v))
    assert len(seen) == num_edges(n)


def test_random_ordering_permutation_is_bijection():
    for seed in range(5):
        ordering = random_ordering(6, seed)
        assert sorted(ordering.labels) == list(range(1, num_edges(6) + 1))


def test_random_ordering_deterministic():
    for model in core.MODELS:
        a = random_ordering(9, 123, model)
        b = random_ordering(9, 123, model)
        assert np.array_equal(a.labels, b.labels)
    a = random_ordering(9, 123)
    b = random_ordering(9, 124)
    assert not np.array_equal(a.labels, b.labels)


def test_random_ordering_real_labels():
    ordering = random_ordering(3, 7, core.REAL)
    assert len(set(ordering.labels)) == 3
    assert all(0.0 < x < 1.0 for x in ordering.labels)


def test_random_ordering_rejects_small_n():
    with pytest.raises(ValueError):
        random_ordering(1, 0)


def test_random_real_labels_are_the_detied_draw(monkeypatch):
    # construction accepts a draw without zeros or ties as it is, which is
    # what _detie_real returns for it
    for seed in range(20):
        raw = np.random.default_rng(seed).random(num_edges(30))
        assert np.array_equal(random_ordering(30, seed, core.REAL).labels, core._detie_real(raw))
    # a draw with a zero and a tie is rejected at construction and detied
    class TiedRng:
        def random(self, m):
            return np.array([0.5, 0.0, 0.5])

    monkeypatch.setattr(core.np.random, "default_rng", lambda seed: TiedRng())
    labels = random_ordering(3, 0, core.REAL).labels
    assert np.array_equal(labels, core._detie_real(TiedRng().random(3)))


def _seeded_draw(n, seed, model):
    """The labels of random_ordering(n, seed, model), drawn plainly."""
    rng = np.random.default_rng(seed)
    if model == core.PERMUTATION:
        return rng.permutation(num_edges(n)).astype(np.int64) + 1
    return rng.random(num_edges(n))


@pytest.mark.parametrize("model", core.MODELS)
@pytest.mark.parametrize("n", [2, 3, 7, 30, 400])
def test_random_ordering_labels_are_the_seeded_draw(n, model):
    for seed in range(5):
        ordering = random_ordering(n, seed, model)
        expected = _seeded_draw(n, seed, model)
        assert ordering.labels.dtype == expected.dtype
        assert np.array_equal(ordering.labels, expected)
        # the same as an ordering whose labels the constructor checked
        checked = EdgeOrdering(n=n, model=model, labels=expected)
        assert not ordering.labels.flags.writeable
        for v in range(n):
            assert np.array_equal(ordering.row(v), checked.row(v))
        for ours, theirs in zip(ordering.edges_by_label, checked.edges_by_label):
            assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("model", core.MODELS)
def test_random_ordering_holds_one_label_array(model):
    random_ordering(3, 0, model)  # first-call setup is not the build's
    n = 1000
    tracemalloc.start()
    try:
        random_ordering(n, 1, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the labels plus an m-byte mask; a second m-sized array would be 2x
    assert peak < 1.25 * 8 * num_edges(n)


@pytest.mark.parametrize("draw", [
    [0.5, 0.0, 0.25],  # a zero
    [0.5, 0.25, 0.5],  # a tie
    [0.5, np.nextafter(1.0, 0.0), np.nextafter(1.0, 0.0)],  # a tie at the top double
])
def test_random_real_detie_each_fault(monkeypatch, draw):
    class FaultyRng:
        def random(self, m):
            return np.array(draw)

    monkeypatch.setattr(core.np.random, "default_rng", lambda seed: FaultyRng())
    labels = random_ordering(3, 0, core.REAL).labels
    assert np.array_equal(labels, core._detie_real(np.array(draw)))


def test_detie_breaks_exact_ties_upward():
    labels = np.array([0.5, 0.25, 0.5, 0.0, 0.25])
    fixed = core._detie_real(labels)
    assert len(set(fixed)) == len(fixed)
    assert all(0.0 < x < 1.0 for x in fixed)
    # lower edge index keeps the sampled value, higher one is bumped up
    assert fixed[0] == 0.5 and fixed[2] == np.nextafter(0.5, 1.0)
    assert fixed[1] == 0.25 and fixed[4] == np.nextafter(0.25, 1.0)


def test_detie_breaks_a_tie_at_the_top_double_downward():
    top = np.nextafter(1.0, 0.0)
    fixed = core._detie_real(np.array([0.5, top, top]))
    assert len(set(fixed)) == len(fixed)
    assert all(0.0 < x < 1.0 for x in fixed)
    # the higher edge index keeps the top double, the lower one steps down
    assert fixed[0] == 0.5 and fixed[1] == np.nextafter(top, 0.0) and fixed[2] == top
    EdgeOrdering(n=3, model=core.REAL, labels=fixed)
    fixed = core._detie_real(np.array([top, top, top, np.nextafter(top, 0.0)]))
    assert len(set(fixed)) == 4 and fixed.max() == top
    assert list(np.argsort(fixed, kind="stable")) == [3, 0, 1, 2]


def detie_real_loop(labels):
    """The element-by-element _detie_real, kept as the reference for the
    vectorised one."""
    labels = labels.copy()
    labels[labels <= 0.0] = np.nextafter(0.0, 1.0)
    order = np.argsort(labels, kind="stable")
    prev = 0.0
    for i in order:
        if labels[i] <= prev:
            labels[i] = np.nextafter(prev, np.inf)
        prev = labels[i]
    ceiling = 1.0
    for i in order[::-1]:
        if labels[i] < ceiling:
            break
        labels[i] = ceiling = np.nextafter(ceiling, 0.0)
    return labels


def assert_detie_matches_loop(labels):
    labels = np.array(labels, dtype=np.float64)
    fixed, expected = core._detie_real(labels), detie_real_loop(labels)
    assert fixed.dtype == np.float64
    assert np.array_equal(fixed.view(np.int64), expected.view(np.int64))


_TOP = float(np.nextafter(1.0, 0.0))
_BELOW_TOP = float(np.nextafter(_TOP, 0.0))
_QUARTER_UP = float(np.nextafter(0.25, 1.0))
# zeros and negatives, subnormals, one-ulp neighbours and the top doubles
_DETIE_GRID = [-0.5, -0.0, 0.0, 5e-324, 1e-323, float(np.nextafter(0.25, 0.0)), 0.25,
               _QUARTER_UP, 0.5, _BELOW_TOP, _TOP]


@pytest.mark.parametrize(
    "labels",
    [
        [],
        [0.0],
        [0.0] * 6,
        [0.3] * 8,
        [-0.0, -1.0, 0.0, 5e-324, 5e-324],
        [0.5, 0.25, 0.5, 0.0, 0.25],
        # a one-ulp cascade: each bump lands on the next sampled value
        [0.25, 0.25, _QUARTER_UP, float(np.nextafter(_QUARTER_UP, 1.0)), 0.25, 0.5],
        [_TOP] * 5,
        [0.5, _TOP, _TOP],
        [_TOP, _TOP, _TOP, _BELOW_TOP],
        # the downward walk passes the top ties and stops above 0.1
        [_TOP, _BELOW_TOP, _TOP, _BELOW_TOP, _TOP, 0.1, 0.1],
    ],
)
def test_detie_matches_loop_on_crafted_arrays(labels):
    assert_detie_matches_loop(labels)


@given(
    st.lists(
        st.one_of(st.sampled_from(_DETIE_GRID), st.floats(0.0, 1.0, exclude_max=True)),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=300, deadline=None)
def test_detie_matches_loop_on_fuzzed_arrays(labels):
    assert_detie_matches_loop(labels)


def test_matching_ordering_k4_blocks():
    ordering = matching_ordering(4)
    by_label = {}
    for idx, lab in enumerate(ordering.labels):
        by_label[int(lab)] = edge_endpoints(idx, 4)
    # three matchings of two vertex-disjoint edges, label blocks {1,2},{3,4},{5,6}
    for block in ((1, 2), (3, 4), (5, 6)):
        verts = [w for lab in block for w in by_label[lab]]
        assert sorted(verts) == [0, 1, 2, 3]


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_matching_ordering_blocks_vertex_disjoint(n):
    ordering = matching_ordering(n)
    edges_of = {int(lab): edge_endpoints(i, n) for i, lab in enumerate(ordering.labels)}
    half = n // 2
    for block_start in range(1, num_edges(n) + 1, half):
        verts = [w for lab in range(block_start, block_start + half) for w in edges_of[lab]]
        assert sorted(verts) == list(range(n))


def test_matching_ordering_k4_longest_walk_is_tight():
    assert longest_increasing_walk_exhaustive(matching_ordering(4)) == 3


def test_matching_ordering_rejects_odd_n():
    with pytest.raises(ValueError):
        matching_ordering(5)


def test_is_increasing_examples():
    labels = np.array([1, 3, 2], dtype=np.int64)  # f(01)=1, f(12)=2, f(02)=3
    ordering = EdgeOrdering(n=3, model=core.PERMUTATION, labels=labels)
    assert is_increasing(ordering, [0, 1])  # single edge
    assert is_increasing(ordering, [2])  # single vertex
    assert is_increasing(ordering, [0, 1, 2])  # labels 1, 2
    assert not is_increasing(ordering, [2, 1, 0])  # labels 2, 1


def test_walk_validation():
    ordering = random_ordering(4, 0)
    with pytest.raises(ValueError):
        is_increasing(ordering, [])
    with pytest.raises(ValueError):
        is_increasing(ordering, [0, 0])
    with pytest.raises(ValueError):
        is_increasing(ordering, [0, 4])


@given(st.integers(2, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_order_isomorphism(n, seed):
    # converting real labels to their ranks never changes is_increasing
    real = random_ordering(n, seed, core.REAL)
    perm = to_permutation_model(real)
    rng = np.random.default_rng(seed)
    for _ in range(10):
        length = int(rng.integers(1, 2 * n))
        walk = [int(rng.integers(n))]
        while len(walk) < length:
            w = int(rng.integers(n))
            if w != walk[-1]:
                walk.append(w)
        assert is_increasing(real, walk) == is_increasing(perm, walk)


@pytest.mark.parametrize("model", core.MODELS)
@pytest.mark.parametrize("n", [2, 3, 7, 50])
def test_row_equals_matrix_row(n, model):
    ordering = random_ordering(n, 4, model)
    for v in range(n):
        row = ordering.row(v)
        assert row.dtype == np.float64
        assert np.array_equal(row, ordering.matrix[v])


@pytest.mark.parametrize("model", core.MODELS)
def test_edges_by_label_ascending(model):
    ordering = random_ordering(30, 2, model)
    us, vs = (a.astype(np.int64) for a in ordering.edges_by_label)
    index = us * ordering.n - us * (us + 1) // 2 + (vs - us - 1)
    assert np.array_equal(np.sort(index), np.arange(num_edges(ordering.n)))
    assert np.all(np.diff(ordering.labels[index]) > 0)


def test_matrix_symmetric_inf_diagonal():
    ordering = random_ordering(7, 1, core.REAL)
    mat = ordering.matrix
    assert np.array_equal(mat, mat.T)
    assert np.all(np.isinf(np.diag(mat)))
    assert mat[1, 3] == ordering.label(1, 3)


@pytest.mark.parametrize("model", core.MODELS)
def test_ordering_file_roundtrip(tmp_path, model):
    ordering = random_ordering(11, 42, model)
    path = tmp_path / "ordering.txt"
    write_ordering(ordering, path)
    back = read_ordering(path)
    assert back.n == ordering.n
    assert back.model == ordering.model
    assert np.array_equal(back.labels, ordering.labels)  # bit-exact


def test_read_ordering_rejects_truncated_file(tmp_path):
    path = tmp_path / "ordering.txt"
    path.write_text(f"n 4 {core.PERMUTATION}\n0 1 3\n")
    with pytest.raises(ValueError, match="missing"):
        read_ordering(path)


def test_read_ordering_rejects_repeated_edge(tmp_path):
    ordering = random_ordering(4, 1, core.PERMUTATION)
    path = tmp_path / "ordering.txt"
    write_ordering(ordering, path)
    lines = path.read_text().splitlines()
    # the last line names (1, 0): edge (0, 1) a second time
    path.write_text("\n".join(lines[:-1] + ["1 0 " + lines[-1].split()[2]]) + "\n")
    with pytest.raises(ValueError, match="twice"):
        read_ordering(path)


@pytest.mark.parametrize(
    "n, labels",
    [
        # all labels equal: the subset DP would report 3 edges, brute force 1
        (4, [1, 1, 1, 1, 1, 1]),
        (3, [1, 7, 2]),
    ],
)
def test_rejects_labels_other_than_one_to_m(n, labels):
    with pytest.raises(ValueError, match="exactly the integers 1.."):
        EdgeOrdering(n=n, model=core.PERMUTATION, labels=np.array(labels, dtype=np.int64))


@pytest.mark.parametrize("bad", [np.nan, 1.5, -1.0])
def test_rejects_real_label_outside_unit_interval(bad):
    labels = np.array([0.25, bad, 0.75])
    with pytest.raises(ValueError, match="inside"):
        EdgeOrdering(n=3, model=core.REAL, labels=labels)


def test_read_ordering_rejects_nan_label(tmp_path):
    path = tmp_path / "ordering.txt"
    path.write_text(f"n 3 {core.REAL}\n0 1 0.25\n0 2 nan\n1 2 0.75\n")
    with pytest.raises(ValueError, match="inside"):
        read_ordering(path)


def test_rejects_tied_real_labels():
    with pytest.raises(ValueError, match="tied"):
        EdgeOrdering(n=3, model=core.REAL, labels=np.array([0.25, 0.75, 0.25]))


def test_read_ordering_rejects_n_over_cap_before_allocating(tmp_path):
    path = tmp_path / "ordering.txt"
    path.write_text(f"n 1000000 {core.REAL}\n")
    with pytest.raises(core.CapacityError, match="n <= 10000"):
        read_ordering(path)


def test_read_ordering_rejects_tied_real_labels(tmp_path):
    path = tmp_path / "ordering.txt"
    path.write_text(f"n 3 {core.REAL}\n0 1 0.25\n0 2 0.75\n1 2 0.25\n")
    with pytest.raises(ValueError, match="tied"):
        read_ordering(path)


def test_labels_immutable():
    ordering = random_ordering(5, 3)
    with pytest.raises(ValueError):
        ordering.labels[0] = 99
