"""Second-moment machinery for counts of increasing Hamiltonian paths.

A Hamiltonian path here is a directed vertex sequence (a permutation of
the n vertices).  For an ordered pair (A, B), the probability that a
uniformly random edge ordering makes both increasing is

    (number of linear extensions of the two-chain poset) / (2n-c-2)!

where the poset consists of A's edge chain and B's edge chain with the c
shared edges identified, and 2(n-1)-c is the size of the union.  The
extension count comes from the classic interleaving DP over prefix pairs,
which also yields 0 automatically for incompatible shared-edge orders or
a >= 2-edge shared segment traversed in opposite directions.

Pairs are grouped by intersection profile signature (c, k, l): shared
edge count, number of shared segments (connected runs of shared edges,
necessarily contiguous in both paths), and number of single-edge
segments.  Closed-form upper bounds on class sizes and the exactly
evaluated split sums over small/medium/large c reproduce the structure
of the second-moment estimate E[H_n^2] ~ e * n^2, whose inner constant
is sum_k 3^k/k! = e^3.

All bound and census arithmetic is exact (Python ints and Fractions); the
split sums are integers over the common denominator (2n-2)!.  No floating
point enters except where an explicit e^{-2} scale factor is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .core import CapacityError

MOMENTS_CAP = 7


@dataclass(frozen=True, order=True)
class ProfileSignature:
    """Intersection profile of an ordered pair of Hamiltonian paths:
    c shared edges forming k maximal segments, ell of them single edges."""

    c: int
    k: int
    ell: int


@dataclass(frozen=True)
class CensusClass:
    pair_count: int
    mass: int  # summed linear-extension counts over the class's pairs


@dataclass(frozen=True)
class MomentReport:
    n: int
    first_moment: Fraction
    second_moment: Fraction
    census: dict


def _check_hamiltonian(seq, n=None):
    if n is None:
        n = len(seq)
    if len(seq) != n or sorted(seq) != list(range(n)) or n < 2:
        raise ValueError(f"not a Hamiltonian vertex sequence on 0..{n - 1}: {seq}")
    return n


def _path_edges(seq):
    return [frozenset(e) for e in zip(seq, seq[1:])]


def classify_pair(a_seq, b_seq) -> ProfileSignature:
    """Signature (c, k, ell) of an ordered pair of Hamiltonian sequences.

    Shared edges form vertex-disjoint paths; each such component is
    automatically a contiguous run in both sequences, so segments are the
    maximal runs of shared edges along A.
    """
    n = _check_hamiltonian(a_seq)
    _check_hamiltonian(b_seq, n)
    a_edges = _path_edges(a_seq)
    shared = set(a_edges) & set(_path_edges(b_seq))
    c = len(shared)
    k = ell = 0
    run = 0
    for edge in a_edges:
        if edge in shared:
            run += 1
        elif run:
            k += 1
            ell += run == 1
            run = 0
    if run:
        k += 1
        ell += run == 1
    return ProfileSignature(c=c, k=k, ell=ell)


def linear_extension_count(a_seq, b_seq) -> int:
    """Number of orderings of the union of both edge chains that are
    increasing along A and along B (shared edges identified).

    Interleaving DP over prefix pairs (i, j): the last element is A's i-th
    edge (if unshared), B's j-th edge (if unshared), or their shared edge
    when A's i-th and B's j-th coincide.  Crossed identifications never
    reach a nonzero state, so incompatible pairs count 0.
    """
    n = _check_hamiltonian(a_seq)
    _check_hamiltonian(b_seq, n)
    a_edges = _path_edges(a_seq)
    b_edges = _path_edges(b_seq)
    pos_b = {e: j for j, e in enumerate(b_edges, 1)}
    p = q = n - 1
    match_a = [0] * (p + 1)
    match_b = [0] * (q + 1)
    for i, e in enumerate(a_edges, 1):
        j = pos_b.get(e)
        if j:
            match_a[i] = j
            match_b[j] = i
    f = [[0] * (q + 1) for _ in range(p + 1)]
    f[0][0] = 1
    for i in range(p + 1):
        row = f[i]
        prev_row = f[i - 1] if i else None
        for j in range(q + 1):
            if i == 0 and j == 0:
                continue
            total = 0
            if i and match_a[i] == 0:
                total += prev_row[j]
            if j and match_b[j] == 0:
                total += row[j - 1]
            if i and j and match_a[i] == j:
                total += prev_row[j - 1]
            row[j] = total
    return f[p][q]


def pair_probability(a_seq, b_seq) -> Fraction:
    """Probability that a uniform edge ordering makes both sequences
    increasing: extensions / (2n-c-2)!."""
    sig = classify_pair(a_seq, b_seq)
    n = len(a_seq)
    union = 2 * (n - 1) - sig.c
    return Fraction(linear_extension_count(a_seq, b_seq), math.factorial(union))


def profile_census(n: int) -> dict[ProfileSignature, CensusClass]:
    """Exhaustive classification of all (n!)^2 ordered pairs by signature."""
    if n > MOMENTS_CAP:
        raise CapacityError(f"census supports n <= {MOMENTS_CAP}, got n={n}")
    return exact_moments(n).census


def exact_moments(n: int) -> MomentReport:
    """Exact E[H_n] and E[H_n^2] by summing pair probabilities, plus the
    census of all ordered pairs."""
    if n > MOMENTS_CAP:
        raise CapacityError(f"exact moments support n <= {MOMENTS_CAP}, got n={n}")
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    # pairs (identity, B) stand for all pairs: classify and the extension
    # count are invariant under simultaneous relabeling, so full-class
    # values are these times n!
    identity = tuple(range(n))
    second = Fraction(0)
    counts: dict[ProfileSignature, int] = {}
    masses: dict[ProfileSignature, int] = {}
    for b_seq in permutations(range(n)):
        sig = classify_pair(identity, b_seq)
        ext = linear_extension_count(identity, b_seq)
        union = 2 * (n - 1) - sig.c
        second += Fraction(ext, math.factorial(union))
        counts[sig] = counts.get(sig, 0) + 1
        masses[sig] = masses.get(sig, 0) + ext
    scale = math.factorial(n)
    census = {
        sig: CensusClass(pair_count=scale * counts[sig], mass=scale * masses[sig])
        for sig in sorted(counts)
    }
    return MomentReport(
        n=n,
        first_moment=Fraction(scale, math.factorial(n - 1)),
        second_moment=scale * second,
        census=census,
    )


# ---------------------------------------------------------------------------
# closed-form bounds and split sums
# ---------------------------------------------------------------------------


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


def _falling_to_common(n):
    """up[c] = (2n-2)!/(2n-c-2)!, which lifts a term over (2n-c-2)! to one
    over the common denominator (2n-2)!, for c = 0..n-1."""
    up = [1]
    for c in range(1, n):
        up.append(up[-1] * (2 * n - 1 - c))
    return up


def _split_sum(c_range, n, fact, up):
    """Sum of ``_split_term`` over c in c_range and 1 <= k <= min(c, n-c),
    as an integer over (2n-2)!; factors free of k are applied once per c."""
    total = 0
    for c in c_range:
        m = n - c - 1
        inner = sum(_split_k_factor(c, k, n, fact) for k in range(1, min(c, n - c) + 1))
        total += inner * math.comb(2 * m, m) * up[c]
    return total * fact[n]


def s_sum_bounds(n: int) -> tuple[float, float, float]:
    """Exactly evaluated split of the second-moment sum by shared-edge
    count: the e^{-2}-scaled small-c part (c <= floor(ln n), asymptotically
    e n^2), and upper bounds for the medium part (c <= floor(9n/10)) and
    the large-c tail.

    Every term's denominator (2n-c-2)! divides (2n-2)!, so each sum is
    accumulated as an integer over (2n-2)! and becomes one exact rational
    at the end; the small-c value carries the irrational e^{-2} factor.
    """
    if n < 10:
        raise ValueError(f"need n >= 10, got n={n}")
    fact = [math.factorial(i) for i in range(2 * n)]
    up = _falling_to_common(n)
    c_small = int(math.floor(math.log(n)))
    c_mid = 9 * n // 10

    small = 0
    for c in range(c_small + 1):
        for k in range(min(c, n - c) + 1):
            for ell in range(max(0, 2 * k - c), k + 1):
                bound = labeled_profile_bound(c, k, ell, n) * embedding_bound(c, k, n)
                small += bound * up[c]
    mid = _split_sum(range(c_small + 1, c_mid + 1), n, fact, up)
    tail = _split_sum(range(c_mid + 1, n), n, fact, up)
    common = fact[2 * n - 2]
    return (
        math.exp(-2) * float(Fraction(small, common)),
        float(Fraction(mid, common)),
        float(Fraction(tail, common)),
    )


def constant_C_partial(c_max: int) -> Fraction:
    """Partial sum, over shared-edge counts c <= c_max, of the limiting
    inner constant sum_{k,ell} C(k,ell) #comps 2^{ell-c+k} / k!; converges
    to e^3 = 20.0855... as c_max grows.  Exact rational."""
    if c_max < 0:
        raise ValueError(f"need c_max >= 0, got {c_max}")
    total = Fraction(0)
    for c in range(c_max + 1):
        for k in range(0, c + 1):
            inner = 0
            for ell in range(max(0, 2 * k - c), k + 1):
                inner += math.comb(k, ell) * _compositions_min2(c - ell, k - ell) * 2**ell
            if inner:
                total += Fraction(inner * 2**k, math.factorial(k) * 2**c)
    return total


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def _fraction_dict(x: Fraction) -> dict:
    return {"numerator": str(x.numerator), "denominator": str(x.denominator)}


def moment_report_to_dict(report: MomentReport) -> dict:
    return {
        "n": report.n,
        "first_moment": _fraction_dict(report.first_moment),
        "second_moment": _fraction_dict(report.second_moment),
        "census": [
            {
                "c": sig.c,
                "k": sig.k,
                "l": sig.ell,
                "pair_count": cls.pair_count,
                "mass_numerator": str(cls.mass),
                "mass_denominator": "1",
            }
            for sig, cls in report.census.items()
        ],
    }


def write_census_csv(census: dict, path) -> None:
    """Columns: c, k, l, pair_count, mass_numerator, mass_denominator."""
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["c", "k", "l", "pair_count", "mass_numerator", "mass_denominator"])
        for sig in sorted(census):
            cls = census[sig]
            writer.writerow([sig.c, sig.k, sig.ell, cls.pair_count, str(cls.mass), "1"])
