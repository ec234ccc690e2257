"""Edge orderings of K_n: canonical edge indexing, ordering generation, and
the labels along a walk.

An edge ordering assigns every edge of the complete graph K_n a distinct
label; only the relative order of labels matters.  Two label models are
supported: ``permutation`` (labels are a bijection onto 1..n(n-1)/2,
stored as int64) and ``real`` (distinct reals in the open interval (0,1),
stored as float64).
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from . import PERMUTATION, REAL, CapacityError

MODELS = (PERMUTATION, REAL)

#: Largest n for which an ordering is built: about 5e7 labels, 381 MiB to
#: build by the memory model in ``_check_size``.
ORDERING_CAP = 10_000


class UnsupportedModelError(ValueError):
    """The operation requires the other label model."""


def num_edges(n: int) -> int:
    return n * (n - 1) // 2


def edge_index(u: int, v: int, n: int) -> int:
    """Rank of the unordered pair {u, v} in lexicographic (min, max) order.

    Bijective onto 0..n(n-1)/2 - 1; every module uses this as the canonical
    edge numbering.
    """
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"vertex out of range for n={n}: ({u}, {v})")
    if u == v:
        raise ValueError(f"self-loop ({u}, {u}) is not an edge")
    if u > v:
        u, v = v, u
    return u * n - u * (u + 1) // 2 + (v - u - 1)


@lru_cache(maxsize=8)
def all_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (us, vs) for all edges in edge_index order, in the
    narrowest unsigned type that holds n - 1 (uint8 up to n = 256, uint16
    up to ``ORDERING_CAP``): 2 bytes an edge, or 4, filled row by row."""
    endpoint_type = np.min_scalar_type(n - 1)
    m = num_edges(n)
    us = np.empty(m, dtype=endpoint_type)
    vs = np.empty(m, dtype=endpoint_type)
    vertices = np.arange(n, dtype=endpoint_type)
    start = 0
    for u in range(n - 1):  # row u holds the edges (u, u+1) .. (u, n-1)
        us[start : start + n - 1 - u] = u
        vs[start : start + n - 1 - u] = vertices[u + 1 :]
        start += n - 1 - u
    us.setflags(write=False)
    vs.setflags(write=False)
    return us, vs


@lru_cache(maxsize=8)
def _row_offsets(n: int) -> np.ndarray:
    """offsets[w] with edge_index(w, v) == offsets[w] + v for every w < v."""
    w = np.arange(n, dtype=np.int64)
    offsets = w * n - w * (w + 1) // 2 - w - 1
    offsets.setflags(write=False)
    return offsets


def _is_one_to_m(labels: np.ndarray, m: int) -> bool:
    """True iff the int64 array ``labels`` holds each of 1..m exactly once."""
    if labels.min() != 1 or labels.max() != m:
        return False
    # a presence mask takes half the time of np.bincount at n=2000
    seen = np.zeros(m + 1, dtype=bool)
    seen[labels] = True
    return bool(seen[1:].all())


#: Labels per block in the real check, so that its temporaries stay the
#: same size whatever m is.
_BLOCK = 1 << 14


def _check_real(ranked: np.ndarray) -> None:
    """Raise ValueError unless the ascending real labels ``ranked`` lie
    strictly inside (0,1) and are pairwise distinct."""
    if not (ranked[0] > 0 and ranked[-1] < 1):  # NaN sorts last
        raise ValueError("real labels must lie strictly inside (0,1)")
    for start in range(0, len(ranked) - 1, _BLOCK):
        block = ranked[start : start + _BLOCK + 1]
        if np.any(block[1:] == block[:-1]):
            raise ValueError("tied real labels")


class EdgeOrdering:
    """An edge ordering of K_n.

    ``labels[i]`` is the label of the edge with canonical index i: an
    int64 in 1..n(n-1)/2 for the permutation model, a float64 in (0,1) for
    the real model.  Instances are immutable and safe to share across
    threads.

    Labels from outside are copied once into the model's dtype and
    checked as stored, so the check sees what the kernels read and no
    ordering shares memory with a caller's array.  It rejects permutation
    labels that are not integers exactly 1..m, and real labels that are
    not floats, are tied or lie outside the open interval (0,1), NaN
    included.  ``random_ordering`` and ``matching_ordering`` draw valid
    labels and adopt them through ``_unchecked``, uncopied.

    No command builds the n-by-n ``matrix``: the greedy and k-greedy
    searches gather ``row``s, and the walks and the exact DPs read
    ``edges_by_label``.  ``matrix`` remains as the tests' and the
    benchmark replay's reference.

    ``n``, ``model`` and ``labels`` cannot be reassigned, and ``labels``
    is read-only.
    """

    def __init__(self, n: int, model: str, labels: np.ndarray):
        _check_size(n, model)
        m = num_edges(n)
        if labels.shape != (m,):
            raise ValueError("label array length != n(n-1)/2")
        if model == PERMUTATION:
            # a float is refused before the copy, never truncated into 1..m
            labels = labels.astype(np.int64) if labels.dtype.kind in "iu" else None
            if labels is None or not _is_one_to_m(labels, m):
                raise ValueError(f"permutation labels must be exactly the integers 1..{m}")
        elif labels.dtype.kind != "f":  # a complex label would lose its imaginary part
            raise ValueError("real labels must be floats")
        else:
            labels = labels.astype(np.float64)
            _check_real(np.sort(labels))
        self.__dict__.update(n=n, model=model, labels=labels)
        labels.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: an EdgeOrdering is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: an EdgeOrdering is immutable")

    @classmethod
    def _unchecked(cls, n: int, model: str, labels: np.ndarray) -> EdgeOrdering:
        """An ordering that adopts ``labels``, valid and in the model's
        dtype by construction, without the constructor's checks and copy."""
        ordering = object.__new__(cls)
        ordering.__dict__.update(n=n, model=model, labels=labels)
        labels.setflags(write=False)
        return ordering

    def label(self, u: int, v: int):
        """Label of edge {u, v} (int for permutation model, float for real)."""
        return self.labels[edge_index(u, v, self.n)].item()

    def row(self, v: int) -> np.ndarray:
        """Row v of ``matrix`` (float64, +inf at v), gathered in O(n) from
        ``labels`` without building the matrix."""
        n = self.n
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        offsets = _row_offsets(n)
        out = np.empty(n)
        out[:v] = self.labels[offsets[:v] + v]
        out[v] = np.inf
        start = offsets[v] + v + 1  # edge_index(v, v + 1)
        out[v + 1 :] = self.labels[start : start + n - 1 - v]
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        """Symmetric n-by-n label matrix (float64) with +inf on the diagonal.

        Permutation labels fit float64 exactly for any practical n.
        """
        mat = np.full((self.n, self.n), np.inf)
        us, vs = all_edges(self.n)
        mat[us, vs] = self.labels
        mat[vs, us] = self.labels
        return mat

    @cached_property
    def edges_by_label(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (us, vs) of all edges sorted by ascending label,
        in the narrow type of ``all_edges``: 2 or 4 bytes an edge for a
        permutation ordering, 10 or 12 while a real one sorts."""
        us, vs = all_edges(self.n)
        if self.model == REAL:
            order = np.argsort(self.labels)  # labels are distinct
            return us[order], vs[order]
        # labels are exactly 1..m: each endpoint goes straight to its
        # label's slot, and slot 0 stays unused
        sorted_us = np.empty(len(us) + 1, dtype=us.dtype)
        sorted_vs = np.empty_like(sorted_us)
        sorted_us[self.labels] = us
        sorted_vs[self.labels] = vs
        return sorted_us[1:], sorted_vs[1:]


def _check_size(n: int, model: str) -> None:
    """Reject an ordering that cannot be built, before a draw allocates
    its labels."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if model not in MODELS:
        raise ValueError(f"unknown label model {model!r}")
    if n > ORDERING_CAP:
        # one 8-byte label per edge, 8m bytes for either model.  Calibrated
        # on the max RSS rise of one random_ordering at n = 2000, 4000 and
        # 8000: 15.2, 60.9 and 244.0 MiB permutation and 15.3, 61.1 and
        # 244.2 MiB real, against 15.3, 61.0 and 244.1 here.
        mem = 8 * num_edges(n)
        raise CapacityError(
            f"orderings support n <= {ORDERING_CAP}, got n={n}; a {model} ordering "
            f"at n={n} needs about {mem / 2**20:.0f} MiB to build"
        )


def random_ordering(n: int, seed: int, model: str = PERMUTATION) -> EdgeOrdering:
    """Uniformly random edge ordering, deterministic given (n, seed, model).

    The build holds one m-sized label array at a time, 8m bytes.  A
    permutation draw is shifted to 1..m in place.  A real draw is sorted in
    place and checked for range and ties, then released and drawn again
    from the same seed, in edge order, for the ordering to keep.  A real
    draw with a zero or a tie is rejected, and the next m values of the
    same stream take its place.  Whether a block is rejected depends only
    on its set of values, so the accepted block's order is exactly uniform.
    """
    _check_size(n, model)
    m = num_edges(n)
    if model == PERMUTATION:
        labels = np.random.default_rng(seed).permutation(m).astype(np.int64, copy=False)
        labels += 1
        return EdgeOrdering._unchecked(n, model, labels)
    rng = np.random.default_rng(seed)
    ranked = np.empty(m)
    attempt = 0
    while True:
        rng.random(out=ranked)
        ranked.sort()
        try:
            _check_real(ranked)
            break
        except ValueError:  # a zero or a tie: about 1 draw in 4500 at n=2000
            attempt += 1
    del ranked
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(attempt * m)  # PCG64 spends one output a double
    return EdgeOrdering._unchecked(n, model, rng.random(m))


def matching_ordering(n: int) -> EdgeOrdering:
    """Adversarial ordering from a round-robin 1-factorization of K_n.

    K_n (n even) splits into n-1 perfect matchings by the circle method
    (vertex n-1 fixed, the rest rotating); matching i receives the label
    block i*(n/2)+1 .. (i+1)*(n/2), assigned in ascending edge_index order
    within the block.  The longest increasing walk is then exactly n-1.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"need even n >= 2, got n={n}")
    _check_size(n, PERMUTATION)
    labels = np.zeros(num_edges(n), dtype=np.int64)
    label = 1
    for r in range(n - 1):
        matching = [(n - 1, r)]
        for i in range(1, n // 2):
            matching.append(((r + i) % (n - 1), (r - i) % (n - 1)))
        for idx in sorted(edge_index(u, v, n) for u, v in matching):
            labels[idx] = label
            label += 1
    return EdgeOrdering._unchecked(n, PERMUTATION, labels)


def walk_labels(ordering: EdgeOrdering, vertices) -> list:
    """Labels of the walk's edges, in traversal order.  Raise ValueError
    unless ``vertices`` is a valid walk in K_n: at least one vertex, each
    in range, and no two consecutive ones equal."""
    n = ordering.n
    if len(vertices) < 1:
        raise ValueError("walk must contain at least one vertex")
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
    for a, b in zip(vertices, vertices[1:]):
        if a == b:
            raise ValueError("consecutive walk vertices must differ")
    return [ordering.label(a, b) for a, b in zip(vertices, vertices[1:])]
