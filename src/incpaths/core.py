"""Edge orderings of K_n: canonical edge indexing, ordering generation, and
increasing-walk validation.

An edge ordering assigns every edge of the complete graph K_n a distinct
label; only the relative order of labels matters.  Two label models are
supported: ``permutation`` (labels are a bijection onto 1..n(n-1)/2) and
``real`` (distinct reals in the open interval (0,1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import PERMUTATION, REAL, CapacityError

MODELS = (PERMUTATION, REAL)

#: Largest n for which an ordering is built: about 5e7 labels, 429 MiB to
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


def edge_endpoints(index: int, n: int) -> tuple[int, int]:
    """Inverse of edge_index."""
    m = num_edges(n)
    if not 0 <= index < m:
        raise ValueError(f"edge index {index} out of range for n={n}")
    u = 0
    # row u holds n-1-u consecutive indices
    while index >= n - 1 - u:
        index -= n - 1 - u
        u += 1
    return u, u + 1 + index


@lru_cache(maxsize=8)
def all_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (us, vs) for all edges in edge_index order, in the
    narrowest unsigned type that holds n - 1 (uint8 up to n = 256, uint16
    up to ``ORDERING_CAP``)."""
    endpoint_type = np.min_scalar_type(n - 1)
    us, vs = np.triu_indices(n, k=1)
    us = us.astype(endpoint_type)
    vs = vs.astype(endpoint_type)
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
    """True iff the integer array ``labels`` holds each of 1..m exactly once."""
    if labels.dtype.kind not in "iu" or labels.min() != 1 or labels.max() != m:
        return False
    # a presence mask takes half the time of np.bincount at n=2000
    seen = np.zeros(m + 1, dtype=bool)
    seen[labels] = True
    return bool(seen[1:].all())


def _check_real(ranked: np.ndarray) -> None:
    """Raise ValueError unless the ascending real labels ``ranked`` lie
    strictly inside (0,1) and are pairwise distinct."""
    if not (ranked[0] > 0 and ranked[-1] < 1):  # NaN sorts last
        raise ValueError("real labels must lie strictly inside (0,1)")
    if np.any(ranked[1:] == ranked[:-1]):
        raise ValueError("tied real labels")


@dataclass(frozen=True)
class EdgeOrdering:
    """An edge ordering of K_n.

    ``labels[i]`` is the label of the edge with canonical index i: an
    integer in 1..n(n-1)/2 for the permutation model, a real in (0,1) for
    the real model.  Instances are immutable and safe to share across
    threads.

    Construction rejects permutation labels that are not exactly 1..m, and
    real labels that are tied or lie outside the open interval (0,1), NaN
    included.  The permutation check is one m-byte presence mask; the real
    check sorts a copy of the labels, leaving the caller's array as it is.
    ``random_ordering`` checks its real draw itself, sorted in place, and
    builds the ordering through ``_unchecked``.
    """

    n: int
    model: str
    labels: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if self.model not in MODELS:
            raise ValueError(f"unknown label model {self.model!r}")
        m = num_edges(self.n)
        if self.labels.shape != (m,):
            raise ValueError("label array length != n(n-1)/2")
        if self.model == PERMUTATION:
            if not _is_one_to_m(self.labels, m):
                raise ValueError(f"permutation labels must be exactly the integers 1..{m}")
        else:
            _check_real(np.sort(self.labels))
        self.labels.setflags(write=False)

    @classmethod
    def _unchecked(cls, n: int, model: str, labels: np.ndarray) -> EdgeOrdering:
        """An ordering of labels its caller has already checked, built
        without ``__post_init__``.  Only ``random_ordering`` calls it."""
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
        in the narrow type of ``all_edges``."""
        if self.model == PERMUTATION:
            # labels are exactly 1..m, so the sort is an inverse permutation
            order = np.empty(len(self.labels), dtype=np.int64)
            order[self.labels - 1] = np.arange(len(self.labels))
        else:
            order = np.argsort(self.labels)  # labels are distinct
        us, vs = all_edges(self.n)
        return us[order], vs[order]


def _detie_real(labels: np.ndarray) -> np.ndarray:
    """Make real labels pairwise distinct and strictly inside (0,1).

    Ties are broken by perturbing the higher-edge-index label upward by the
    smallest representable increment; a stable sort puts the lower edge
    index first within each tie group, so the bump lands on the higher one.
    Bumps that reach 1.0 are walked back down from the top, so a tie at the
    largest double below 1 lowers the lower-index label instead.

    Both walks act on the sorted bit patterns b, which order as positive
    doubles do, one pattern per ulp.  Upward, c[i] = max(b[i], c[i-1] + 1)
    = i + cummax(b[j] - j).  Downward, d[i] = min(c[i], d[i+1] - 1) from
    d[m] = bits(1.0); as c[i] - i never falls, d[i] = min(c[i], bits(1.0) - m + i).
    """
    labels = np.maximum(labels, np.nextafter(0.0, 1.0))  # a float64 copy
    order = np.argsort(labels, kind="stable")
    index = np.arange(len(labels))
    walk = labels[order].view(np.int64) - index  # b - i, then c - i, then d - i
    np.maximum.accumulate(walk, out=walk)
    np.minimum(walk, np.float64(1.0).view(np.int64) - len(labels), out=walk)
    walk += index
    labels[order] = walk.view(np.float64)
    return labels


def _check_size(n: int, model: str) -> None:
    """Reject an ordering request before its n(n-1)/2 labels are allocated."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    if n > ORDERING_CAP:
        # one 8-byte label per edge and an m-byte check mask: 9m bytes, for
        # either model.  Calibrated on the max RSS rise of one random_ordering
        # at n = 2000, 4000 and 8000: 17.2, 68.7 and 274.7 MiB permutation,
        # 17.3, 68.8 and 274.9 MiB real, against 17.2, 68.6 and 274.6 here.
        mem = 9 * num_edges(n)
        raise CapacityError(
            f"orderings support n <= {ORDERING_CAP}, got n={n}; an ordering at "
            f"n={n} needs about {mem / 2**20:.0f} MiB to build"
        )
    if model not in MODELS:
        raise ValueError(f"unknown label model {model!r}")


def random_ordering(n: int, seed: int, model: str = PERMUTATION) -> EdgeOrdering:
    """Uniformly random edge ordering, deterministic given (n, seed, model).

    Each draw is checked for range and ties before it is used, and the
    build holds one m-sized label array, plus an m-byte mask, at a time.  A
    permutation draw is shifted to 1..m in place and checked by the
    constructor.  A real draw is sorted in place and checked, then released
    and drawn again from the same seed, in edge order, for the ordering to
    keep; a draw with a zero or a tie is detied and checked by the
    constructor instead.
    """
    _check_size(n, model)
    m = num_edges(n)
    if model == PERMUTATION:
        labels = np.random.default_rng(seed).permutation(m).astype(np.int64, copy=False)
        labels += 1
        return EdgeOrdering(n=n, model=model, labels=labels)
    ranked = np.random.default_rng(seed).random(m)
    ranked.sort()
    try:
        _check_real(ranked)
    except ValueError:  # a zero or a tie: about 1 draw in 4500 at n=2000
        del ranked
        labels = _detie_real(np.random.default_rng(seed).random(m))
        return EdgeOrdering(n=n, model=model, labels=labels)
    del ranked
    return EdgeOrdering._unchecked(n, model, np.random.default_rng(seed).random(m))


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
    return EdgeOrdering(n=n, model=PERMUTATION, labels=labels)


def check_walk(n: int, vertices: Sequence[int]) -> None:
    """Raise ValueError unless ``vertices`` is a valid walk in K_n."""
    if len(vertices) < 1:
        raise ValueError("walk must contain at least one vertex")
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
    for a, b in zip(vertices, vertices[1:]):
        if a == b:
            raise ValueError("consecutive walk vertices must differ")


def is_path(vertices: Sequence[int]) -> bool:
    """True iff the walk is self-avoiding."""
    return len(set(vertices)) == len(vertices)


def walk_labels(ordering: EdgeOrdering, vertices: Sequence[int]) -> list:
    """Labels of the walk's edges, in traversal order."""
    check_walk(ordering.n, vertices)
    return [ordering.label(a, b) for a, b in zip(vertices, vertices[1:])]


def is_increasing(ordering: EdgeOrdering, vertices: Sequence[int]) -> bool:
    """True iff consecutive edge labels strictly increase along the walk.

    Single-vertex and single-edge walks are vacuously increasing.
    """
    labels = walk_labels(ordering, vertices)
    return all(a < b for a, b in zip(labels, labels[1:]))


def to_permutation_model(ordering: EdgeOrdering) -> EdgeOrdering:
    """Permutation-model ordering inducing the same relative label order."""
    ranks = np.empty(len(ordering.labels), dtype=np.int64)
    ranks[np.argsort(ordering.labels)] = np.arange(1, len(ordering.labels) + 1)
    return EdgeOrdering(n=ordering.n, model=PERMUTATION, labels=ranks)


def write_ordering(ordering: EdgeOrdering, path) -> None:
    """Write the text format: "n <n> <model>", then "<u> <v> <label>" per
    edge in edge_index order.  Real labels round-trip bit-exactly."""
    us, vs = all_edges(ordering.n)
    with open(path, "w") as fh:
        fh.write(f"n {ordering.n} {ordering.model}\n")
        for u, v, lab in zip(us, vs, ordering.labels):
            if ordering.model == PERMUTATION:
                fh.write(f"{u} {v} {lab}\n")
            else:
                fh.write(f"{u} {v} {lab:.17g}\n")


def read_ordering(path) -> EdgeOrdering:
    """Read an ordering written by write_ordering.  Every edge must appear
    exactly once: a missing or repeated edge is a ValueError."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "n":
            raise ValueError(f"bad ordering file header: {header}")
        n, model = int(header[1]), header[2]
        _check_size(n, model)
        dtype = np.int64 if model == PERMUTATION else np.float64
        labels = np.zeros(num_edges(n), dtype=dtype)
        seen = np.zeros(num_edges(n), dtype=bool)
        for line in fh:
            u, v, lab = line.split()
            idx = edge_index(int(u), int(v), n)
            if seen[idx]:
                raise ValueError(f"edge ({u}, {v}) appears twice in {path}")
            seen[idx] = True
            labels[idx] = int(lab) if model == PERMUTATION else float(lab)
    if not seen.all():
        u, v = edge_endpoints(int(np.argmin(seen)), n)
        missing = num_edges(n) - int(seen.sum())
        raise ValueError(f"{missing} edges missing from {path}, first ({u}, {v})")
    return EdgeOrdering(n=n, model=model, labels=labels)
