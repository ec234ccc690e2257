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
    all_edges,
    edge_index,
    matching_ordering,
    num_edges,
    random_ordering,
)
from oracles import is_increasing, redraw_real_loop, to_permutation_model


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
    # all_edges(n) lists m distinct pairs u < v < n, so they are every edge,
    # and edge_index numbers them 0..m-1 in that order
    us, vs = all_edges(n)
    edges = list(zip(us.tolist(), vs.tolist()))
    assert len(edges) == len(set(edges)) == num_edges(n)
    for idx, (u, v) in enumerate(edges):
        assert 0 <= u < v < n
        assert edge_index(u, v, n) == idx


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


def traced_peak(build):
    """Peak bytes that tracemalloc sees allocated while ``build()`` runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class QueuedRng:
    """Stands in for ``np.random.default_rng(seed)``: its stream is the
    given draws end to end, and each new generator reads it from the start,
    as each new generator from the same seed would."""

    def __init__(self, stream):
        self.stream = stream
        self.position = 0
        self.bit_generator = self  # for advance

    def advance(self, delta):
        self.position += delta

    def random(self, size=None, out=None):
        m = len(out) if out is not None else size
        block = self.stream[self.position : self.position + m]
        assert len(block) == m, "the draw ran past the queued stream"
        self.position += m
        if out is None:
            return block.copy()
        out[...] = block
        return out


def queue_draws(monkeypatch, *draws):
    """Make every generator ``random_ordering`` makes draw ``draws`` in turn."""
    stream = np.concatenate([np.asarray(draw, dtype=np.float64) for draw in draws])
    monkeypatch.setattr(core.np.random, "default_rng", lambda seed: QueuedRng(stream))


def build_from_draws(monkeypatch, n, *draws):
    """random_ordering(n, ...) of the real model, drawing ``draws`` in turn."""
    queue_draws(monkeypatch, *draws)
    return random_ordering(n, 0, core.REAL).labels


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
    peak = traced_peak(lambda: random_ordering(n, 1, model))
    # the labels, plus an m-byte mask for a permutation; the real check
    # compares neighbours a block at a time.  A second m-sized array would
    # be 2x
    bytes_per_label = 8.5 if model == core.REAL else 10
    assert peak < bytes_per_label * num_edges(n)


@pytest.mark.parametrize("n, bytes_per_edge", [(200, 2.5), (1000, 4.5)])
def test_all_edges_builds_only_its_endpoint_arrays(n, bytes_per_edge):
    all_edges.cache_clear()
    all_edges(4)  # first-call setup is not the build's
    # two uint8 endpoint arrays at n = 200, two uint16 ones at n = 1000;
    # np.triu_indices' two int64 arrays would be 16 bytes an edge
    assert traced_peak(lambda: all_edges(n)) <= bytes_per_edge * num_edges(n)


def test_permutation_edges_by_label_holds_only_its_outputs():
    n = 1000
    random_ordering(3, 0).edges_by_label  # first-call setup is not the sort's
    ordering = random_ordering(n, 1)
    all_edges(n)
    peak = traced_peak(lambda: ordering.edges_by_label)
    # two uint16 arrays of m + 1 slots; an int64 sort permutation alone
    # would be 8 bytes an edge
    assert peak <= 4.5 * num_edges(n)


_TOP = float(np.nextafter(1.0, 0.0))
_BELOW_TOP = float(np.nextafter(_TOP, 0.0))
_QUARTER_UP = float(np.nextafter(0.25, 1.0))
# faults a real draw can hold, each put at random positions of a clean draw
_FAULTS = {
    "zero": [0.0],
    "two zeros": [0.0, 0.0],
    "2-way tie": [0.5, 0.5],
    "3-way tie": [0.75, 0.75, 0.75],
    # a tie inside a run of one-ulp neighbours: no label of the run can
    # move one ulp without landing on another
    "one-ulp cascade": [0.25, 0.25, _QUARTER_UP, float(np.nextafter(_QUARTER_UP, 1.0))],
    "top tie": [_TOP, _TOP],
    "3-way top tie": [_TOP, _TOP, _TOP],
    "below-top tie": [_BELOW_TOP, _BELOW_TOP, _TOP],
}


def _faulty(rng, m, fault):
    """A draw of m values from ``rng`` with ``fault`` put at random positions."""
    draw = rng.random(m)
    values = _FAULTS[fault][:m]
    draw[rng.permutation(m)[: len(values)]] = values
    return draw


@pytest.mark.parametrize("fault", list(_FAULTS))
@pytest.mark.parametrize("n", [3, 7, 30])
@pytest.mark.parametrize("block", [core._BLOCK, 2], ids=["default-block", "block-2"])
def test_tie_repair_equals_the_loop(monkeypatch, n, fault, block):
    # block 2 puts ties across the check's block boundaries
    monkeypatch.setattr(core, "_BLOCK", block)
    m = num_edges(n)
    rng = np.random.default_rng(n)  # made before build_from_draws patches numpy
    for _ in range(5):
        clean = rng.random(m)
        draws = [_faulty(rng, m, fault), _faulty(rng, m, fault), clean, rng.random(m)]
        labels = build_from_draws(monkeypatch, n, *draws)
        expected = redraw_real_loop(draws)
        assert np.array_equal(expected, clean)  # both faulty draws are rejected
        assert np.array_equal(labels.view(np.int64), expected.view(np.int64))


def test_random_real_rejection_holds_one_label_array(monkeypatch):
    n = 1000
    m = num_edges(n)
    rng = np.random.default_rng(1)
    tied, clean = rng.random(m), rng.random(m)
    tied[[3, m // 2, m - 1, 11]] = tied[[m - 2, 7, 0, 7]]  # 2-way and 3-way ties
    tied[5] = 0.0
    build_from_draws(monkeypatch, 3, [0.5, 0.0, 0.5], [0.5, 0.25, 0.75])  # first-call setup
    queue_draws(monkeypatch, tied, clean)
    labels = []
    peak = traced_peak(lambda: labels.append(random_ordering(n, 0, core.REAL).labels))
    # the draws are checked in one buffer, released, and the kept block
    # drawn: one m-sized array at a time.  A second would be 16 bytes a label
    assert peak < 8.5 * m
    assert np.array_equal(labels[0], clean)


# values a generator of [0,1) can return: zero, subnormals, one-ulp
# neighbours and the top doubles
_DRAW_GRID = [0.0, 5e-324, 1e-323, float(np.nextafter(0.25, 0.0)), 0.25, _QUARTER_UP, 0.5,
              _BELOW_TOP, _TOP]


@given(
    st.integers(2, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.one_of(st.sampled_from(_DRAW_GRID), st.floats(0.0, 1.0, exclude_max=True)),
                min_size=num_edges(n),
                max_size=num_edges(n),
            ),
        )
    ),
    st.sampled_from([core._BLOCK, 1, 2, 3]),
)
@settings(max_examples=300, deadline=None)
def test_tie_repair_matches_loop_on_fuzzed_draws(n_and_draw, block):
    # a draw is kept exactly when it has no zero and no tie
    n, draw = n_and_draw
    m = num_edges(n)
    draw = np.array(draw, dtype=np.float64)
    clean = np.arange(1, m + 1) / (m + 1)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(core, "_BLOCK", block)
        labels = build_from_draws(monkeypatch, n, draw, clean)
    expected = redraw_real_loop([draw, clean])
    assert np.array_equal(labels.view(np.int64), expected.view(np.int64))


@pytest.mark.slow
def test_random_real_natural_tie_takes_the_next_block():
    n, seed, chunk = 8000, 3, 1 << 20
    m = num_edges(n)
    rng = np.random.default_rng(seed)
    first = rng.random(m)
    first.sort()
    assert first[0] == 0 or np.any(first[1:] == first[:-1])  # seed 3 ties at n = 8000
    del first
    labels = random_ordering(n, seed, core.REAL).labels
    # the second m-block, drawn on in chunks after the first
    for start in range(0, m, chunk):
        block = rng.random(min(chunk, m - start))
        assert np.array_equal(labels[start : start + len(block)], block)


def endpoints_by_label(ordering):
    """label -> (u, v), read off the all_edges tables."""
    us, vs = all_edges(ordering.n)
    return dict(zip(ordering.labels.tolist(), zip(us.tolist(), vs.tolist())))


def test_matching_ordering_k4_blocks():
    by_label = endpoints_by_label(matching_ordering(4))
    # three matchings of two vertex-disjoint edges, label blocks {1,2},{3,4},{5,6}
    for block in ((1, 2), (3, 4), (5, 6)):
        verts = [w for lab in block for w in by_label[lab]]
        assert sorted(verts) == [0, 1, 2, 3]


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_matching_ordering_blocks_vertex_disjoint(n):
    edges_of = endpoints_by_label(matching_ordering(n))
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


def test_rejects_tied_real_labels():
    with pytest.raises(ValueError, match="tied"):
        EdgeOrdering(n=3, model=core.REAL, labels=np.array([0.25, 0.75, 0.25]))


def test_labels_immutable():
    ordering = random_ordering(5, 3)
    with pytest.raises(ValueError):
        ordering.labels[0] = 99


@pytest.mark.parametrize("model", core.MODELS)
def test_ordering_refuses_attribute_assignment(model):
    ordering = random_ordering(5, 3, model)
    ordering.matrix  # a cached property still fills in
    for name, value in (("n", 6), ("labels", ordering.labels.copy()), ("matrix", None)):
        with pytest.raises(AttributeError):
            setattr(ordering, name, value)
        with pytest.raises(AttributeError):
            delattr(ordering, name)
    assert ordering.n == 5 and "matrix" in vars(ordering)
