"""Reference implementations the tests compare the package against: code
that ``src/`` has replaced, and the walk checks and lemma bounds that
``src/`` no longer exports."""

import math
from fractions import Fraction

import numpy as np

from incpaths.core import PERMUTATION, EdgeOrdering, walk_labels


def is_path(vertices):
    """True iff the walk is self-avoiding."""
    return len(set(vertices)) == len(vertices)


def is_increasing(ordering, vertices):
    """True iff consecutive edge labels strictly increase along the walk,
    which ``core.walk_labels`` validates first.

    Single-vertex and single-edge walks are vacuously increasing.
    """
    labels = walk_labels(ordering, vertices)
    return all(a < b for a, b in zip(labels, labels[1:]))


def to_permutation_model(ordering):
    """Permutation-model ordering inducing the same relative label order."""
    ranks = np.empty(len(ordering.labels), dtype=np.int64)
    ranks[np.argsort(ordering.labels)] = np.arange(1, len(ordering.labels) + 1)
    return EdgeOrdering(n=ordering.n, model=PERMUTATION, labels=ranks)


def _detie_real(labels):
    """Make real labels pairwise distinct and strictly inside (0,1): the
    vectorised whole-array repair that ``core.random_ordering`` replaced with
    its block-by-block walk over the sorted draw.

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


def interleaving_extension_count_reference(match) -> int:
    """Linear extensions of a matched path pair (``secondmoment._match_pair``)
    by an interleaving DP over prefix pairs (i, j), the reference for
    ``secondmoment._extension_count``'s product of gap binomials.  The last
    element is A's i-th edge (if unshared), B's j-th edge (if unshared), or
    their shared edge when A's i-th and B's j-th coincide.  Crossed
    identifications never reach a nonzero state, so incompatible pairs
    count 0.  Only the previous row is kept; row 0 extends a virtual row
    [1, 0, ...] through the unused match[0] = 0, which makes the empty
    prefix pair count 1."""
    p = len(match) - 1
    shared_b = set(match)
    row = [1] + [0] * p
    for i in range(p + 1):
        prev_row, row = row, [0] * (p + 1)
        for j in range(p + 1):
            total = prev_row[j] if match[i] == 0 else 0
            if j and j not in shared_b:
                total += row[j - 1]
            if j and match[i] == j:
                total += prev_row[j - 1]
            row[j] = total
    return row[p]


# The per-term split sum that secondmoment.s_sum_bounds ran before its terms
# were stepped in k, word for word, as the reference for
# secondmoment._split_sum; the acceptance suite checks its log-space terms
# against _split_term.


def _split_k_factor(c, k, n, fact):
    """The factor of a split term that varies with k: 2^k C(c-1, k-1)
    C(2m+k, k) (n-c-k)! with m = n-c-1."""
    m = n - c - 1
    return 2**k * math.comb(c - 1, k - 1) * math.comb(2 * m + k, k) * fact[n - c - k]


def _split_term(c, k, n, fact):
    """2^k C(c-1, k-1) multinomial(2(n-c-1)+k; ...) n!(n-c-k)!/(2n-c-2)!"""
    m = n - c - 1
    num = _split_k_factor(c, k, n, fact) * math.comb(2 * m, m) * fact[n]
    return Fraction(num, fact[2 * n - c - 2])


def _split_sum(c_range, n, fact, up):
    """Sum of ``_split_term`` over c in c_range and 1 <= k <= min(c, n-c),
    as an integer over (2n-2)!; factors free of k are applied once per c."""
    total = 0
    for c in c_range:
        m = n - c - 1
        inner = sum(_split_k_factor(c, k, n, fact) for k in range(1, min(c, n - c) + 1))
        total += inner * math.comb(2 * m, m) * up[c]
    return total * fact[n]


# The labeled-profile and embedding bounds, with their helpers, that
# secondmoment.s_sum_bounds summed term by term for its small-c part before
# it read the segment counts off secondmoment._segment_rows, word for word:
# the reference for secondmoment._small_sum and the lemma bounds the
# census classes are checked against.


def _check_signature(c, k, ell, n=None):
    if not (0 <= ell <= k <= c or (c == k == ell == 0)):
        raise ValueError(f"invalid signature (c={c}, k={k}, ell={ell})")
    if ell < 2 * k - c:
        raise ValueError(f"invalid signature: ell={ell} < 2k-c={2 * k - c}")
    if n is not None:
        if n < 2 or c > n - 1 or k > n - c:
            raise ValueError(f"signature (c={c}, k={k}, ell={ell}) impossible for n={n}")


def _compositions_min2(total, parts):
    """Compositions of ``total`` into ``parts`` ordered parts, each >= 2."""
    if parts == 0:
        return 1 if total == 0 else 0
    if total < 2 * parts:
        return 0
    return math.comb(total - parts - 1, parts - 1)


def _multinomial_two_plus_k(m, k):
    """(2m+k)! / (m! m! k!)"""
    return math.comb(2 * m + k, k) * math.comb(2 * m, m)


def labeled_profile_bound(c: int, k: int, ell: int, n: int) -> int:
    """Upper bound on the number of labeled profiles with signature
    (c, k, ell): 2^ell * C(k, ell) * #compositions of the c-ell non-single
    shared edges into k-ell segments of length >= 2, times the number of
    interleavings of the two private edge sets and the k segments."""
    _check_signature(c, k, ell, n)
    comp = _compositions_min2(c - ell, k - ell)
    if comp == 0:
        return 0
    m = n - c - 1
    return 2**ell * math.comb(k, ell) * comp * _multinomial_two_plus_k(m, k)


def embedding_bound(c: int, k: int, n: int) -> int:
    """Upper bound n! (n-c-k)! on the number of path pairs fitting any one
    profile with c shared edges in k segments."""
    if not (0 <= c <= n - 1) or not (0 <= k <= min(c, n - c)):
        raise ValueError(f"invalid (c={c}, k={k}) for n={n}")
    return math.factorial(n) * math.factorial(n - c - k)
