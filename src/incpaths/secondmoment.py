"""Second-moment machinery for counts of increasing Hamiltonian paths.

A Hamiltonian path here is a directed vertex sequence (a permutation of
the n vertices).  For an ordered pair (A, B), the probability that a
uniformly random edge ordering makes both increasing is

    (number of linear extensions of the two-chain poset) / (2n-c-2)!

where the poset consists of A's edge chain and B's edge chain with the c
shared edges identified, and 2(n-1)-c is the size of the union.  When
the shared edges come in the same order along both paths they form a
chain, and each gap between consecutive shared edges interleaves A's a
private edges there with B's b freely, so the extension count is the
product of C(a + b, a) over the gaps.  Otherwise (crossed shared edges,
or a >= 2-edge shared segment traversed in opposite directions) it is 0.

Pairs are grouped by intersection profile signature (c, k, l): shared
edge count, number of shared segments (connected runs of shared edges,
necessarily contiguous in both paths), and number of single-edge
segments.  The exactly evaluated split sums over small/medium/large c
reproduce the structure of the second-moment estimate
E[H_n^2] ~ e * n^2, whose inner constant is sum_k 3^k/k! = e^3.

Input is validated only at the public edge: ``classify_pair`` and
``pair_probability`` check both sequences once, and ``exact_moments``
enumerates permutations, which are valid by construction, so the inner
matching checks nothing.  Each pair's edges are matched once; the
signature and the extension count are both read from that matching.
All sum and census arithmetic is exact (Python ints and Fractions):
E[H_n^2] and the split sums are integers over the common denominator
(2n-2)!; E[H_n^2] becomes one Fraction and each split sum one correctly
rounded division at the end.  No other floating point enters except
where an explicit e^{-2} scale factor is applied.  ``fractions`` is
imported only by the functions that return a Fraction, so the split sums
run without it.  The report blocks of ``moments``, ``census`` and
``constant-c`` (exact rationals, census classes and CSV rows) are all
written by the functions at the end of this module.

The segment counts inner(c, k) = [x^c] (2x + x^2/(1-x))^k, the ways to
lay k shared segments over c shared edges, come off one prefix-sum row
per k; the small-c split sum and the e^3 partial sums (summed over k by
Horner's rule) both read them.

The medium and large-c split sums compute no binomial per term: the
k-factor a_k = 2^k C(c-1, k-1) C(2m+k, k) is stepped from a_{k-1},

    a_k = a_{k-1} * 2 (c-k+1)(2m+k) / ((k-1) k),    a_1 = 2(2m+1),

and sum_k a_k (n-c-k)! runs by Horner's rule too.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from itertools import accumulate, permutations
from operator import mul

from . import CapacityError

MOMENTS_CAP = 7
# round sizes whose max RSS stays under 1 GiB by the memory models in
# s_sum_bounds and constant_C_partial: 953 and 997 MiB, interpreter
# included; s_sum_bounds' tables alone peaked at 953 MiB at n = 15000
BOUNDS_CAP = 15000
CONSTANT_C_CAP = 70000


ProfileSignature = namedtuple("ProfileSignature", "c k ell")
ProfileSignature.__doc__ = """Intersection profile of an ordered pair of Hamiltonian paths:
c shared edges forming k maximal segments, ell of them single edges."""
# mass: the summed linear-extension counts over the class's pairs
CensusClass = namedtuple("CensusClass", "pair_count mass")
MomentReport = namedtuple("MomentReport", "n first_moment second_moment census")


def _checked_match(a_seq, b_seq) -> list[int]:
    """``_match_pair`` of two sequences checked to be Hamiltonian on the
    same vertices 0..n-1, n >= 2."""
    n = len(a_seq)
    for seq in (a_seq, b_seq):
        if len(seq) != n or sorted(seq) != list(range(n)) or n < 2:
            raise ValueError(f"not a Hamiltonian vertex sequence on 0..{n - 1}: {seq}")
    return _match_pair(a_seq, b_seq)


def _match_pair(a_seq, b_seq) -> list[int]:
    """Match A's edges to B's in an ordered pair of Hamiltonian sequences:
    match[i] = j when A's i-th edge is B's j-th (both 1-based), else 0;
    match[0] is unused."""
    pos_b = {}
    for j, (u, v) in enumerate(zip(b_seq, b_seq[1:]), 1):
        pos_b[u, v] = pos_b[v, u] = j
    return [0, *(pos_b.get(e, 0) for e in zip(a_seq, a_seq[1:]))]


def _signature(match) -> ProfileSignature:
    """Shared edges form vertex-disjoint paths; each such component is
    automatically a contiguous run in both sequences, so segments are the
    maximal runs of shared edges along A."""
    c = k = ell = run = 0
    for j in [*match[1:], 0]:  # the trailing 0 closes a final run
        if j:
            c += 1
            run += 1
        elif run:
            k += 1
            ell += run == 1
            run = 0
    return ProfileSignature(c=c, k=k, ell=ell)


def _extension_count(match) -> int:
    """Number of orderings of the union of both edge chains that are
    increasing along A and along B (shared edges identified): the product
    over the gaps between consecutive shared edges (and the path ends) of
    C(a + b, a), a and b the private edges of A and of B in the gap; 0 when
    the shared edges are not in the same order along B."""
    p = len(match) - 1
    shared = [(i, j) for i, j in enumerate(match) if j]
    count = 1
    i_prev = j_prev = 0
    for i, j in [*shared, (p + 1, p + 1)]:  # the sentinel closes the last gap
        if j <= j_prev:
            return 0
        a, b = i - i_prev - 1, j - j_prev - 1
        count *= math.comb(a + b, a)
        i_prev, j_prev = i, j
    return count


def classify_pair(a_seq, b_seq) -> ProfileSignature:
    """Signature (c, k, ell) of an ordered pair of Hamiltonian sequences."""
    return _signature(_checked_match(a_seq, b_seq))


def pair_probability(a_seq, b_seq) -> Fraction:
    """Probability that a uniform edge ordering makes both sequences
    increasing: extensions / (2n-c-2)!."""
    from fractions import Fraction

    match = _checked_match(a_seq, b_seq)
    union = 2 * (len(a_seq) - 1) - _signature(match).c
    return Fraction(_extension_count(match), math.factorial(union))


def profile_census(n: int) -> dict[ProfileSignature, CensusClass]:
    """Exhaustive classification of all (n!)^2 ordered pairs by signature."""
    return exact_moments(n).census


def exact_moments(n: int) -> MomentReport:
    """Exact E[H_n] and E[H_n^2] by summing pair probabilities, plus the
    census of all ordered pairs."""
    if n > MOMENTS_CAP:
        raise CapacityError(f"exact moments support n <= {MOMENTS_CAP}, got n={n}")
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    from fractions import Fraction

    # pairs (identity, B) stand for all pairs: classify and the extension
    # count are invariant under simultaneous relabeling, so full-class
    # values are these times n!
    identity = tuple(range(n))
    counts: dict[ProfileSignature, int] = {}
    masses: dict[ProfileSignature, int] = {}
    for b_seq in permutations(range(n)):
        match = _match_pair(identity, b_seq)
        sig = _signature(match)
        counts[sig] = counts.get(sig, 0) + 1
        masses[sig] = masses.get(sig, 0) + _extension_count(match)
    scale = math.factorial(n)
    census = {
        sig: CensusClass(pair_count=scale * counts[sig], mass=scale * masses[sig])
        for sig in sorted(counts)
    }
    # E[H^2] = sum over classes of mass / (2n-c-2)!, one integer over (2n-2)!
    up = _falling_to_common(n)
    second = sum(cls.mass * up[sig.c] for sig, cls in census.items())
    return MomentReport(
        n=n,
        first_moment=n,  # n! paths, each increasing with probability 1/(n-1)!
        second_moment=Fraction(second, math.factorial(2 * n - 2)),
        census=census,
    )


# ---------------------------------------------------------------------------
# split sums
# ---------------------------------------------------------------------------


def _falling_to_common(n):
    """up[c] = (2n-2)!/(2n-c-2)!, which lifts a term over (2n-c-2)! to one
    over the common denominator (2n-2)!, for c = 0..n-1."""
    up = [1]
    for c in range(1, n):
        up.append(up[-1] * (2 * n - 1 - c))
    return up


def _split_sum(c_range, n, fact, up):
    """Sum of the split terms 2^k C(c-1, k-1) multinomial(2m+k; m, m, k)
    n! (n-c-k)!/(2n-c-2)!, m = n-c-1, over c in c_range and
    1 <= k <= min(c, n-c), as an integer over (2n-2)!: a_k stepped in k
    and summed by Horner's rule, the factors free of k once per c."""
    total = 0
    for c in c_range:
        m = n - c - 1
        top = min(c, n - c)
        a = horner = 2 * (2 * m + 1)  # a_1
        for k in range(2, top + 1):
            a = a * 2 * (c - k + 1) * (2 * m + k) // ((k - 1) * k)
            horner = horner * (n - c - k + 1) + a
        total += horner * fact[n - c - top] * math.comb(2 * m, m) * up[c]
    return total * fact[n]


def _small_sum(c_small, n, fact, up):
    """Sum of the small-c terms inner(c, k) multinomial(2m+k; m, m, k)
    n! (n-c-k)!/(2n-c-2)!, m = n-c-1, over 0 <= k <= c <= c_small, as an
    integer over (2n-2)!, inner(c, k) read off the ``_segment_rows``.
    Callers keep c_small <= ln n < n/2, so k <= n-c holds throughout."""
    total = 0
    for k, tail in enumerate(_segment_rows(c_small)):
        for c, inner in enumerate(tail, k):
            m = n - c - 1
            total += inner * math.comb(2 * m + k, k) * math.comb(2 * m, m) * fact[n - c - k] * up[c]
    return total * fact[n]


def s_sum_bounds(n: int) -> tuple[float, float, float]:
    """Exactly evaluated split of the second-moment sum by shared-edge
    count: the e^{-2}-scaled small-c part (c <= floor(ln n), asymptotically
    e n^2), and upper bounds for the medium part (c <= floor(9n/10)) and
    the large-c tail.  The small-c part weights each (c, k) term by the
    segment count inner(c, k) from ``_segment_rows``; the other two weight
    it by 2^k C(c-1, k-1), which bounds that count.

    Every term's denominator (2n-c-2)! divides (2n-2)!, so each sum is
    accumulated as an integer over (2n-2)! and becomes one correctly
    rounded float division at the end; the small-c value carries the
    irrational e^{-2} factor.
    """
    if n < 10:
        raise ValueError(f"need n >= 10, got n={n}")
    if n > BOUNDS_CAP:
        # 0!..(2n-1)! and the n lifts up[c] in CPython's 30-bit digits, 4-byte
        # words: 0.314 n^2 log2(n) bytes.  Calibrated on the max RSS rise
        # over the bare interpreter for bounds at n = 1000, 2000 and 4000:
        # 2.4, 12.7 and 57.0 MiB, against 3.0, 13.1 and 57.2 MiB here.
        mem = 0.314 * n * n * math.log2(n)
        raise CapacityError(
            f"n={n} exceeds cap {BOUNDS_CAP}; raising the cap needs about "
            f"{mem / 2**20:.0f} MiB of factorial tables"
        )
    up = _falling_to_common(n)
    fact = [1, *accumulate(range(1, 2 * n), mul)]
    c_small = int(math.floor(math.log(n)))
    c_mid = 9 * n // 10

    small = _small_sum(c_small, n, fact, up)
    mid = _split_sum(range(c_small + 1, c_mid + 1), n, fact, up)
    tail = _split_sum(range(c_mid + 1, n), n, fact, up)
    common = fact[2 * n - 2]
    return math.exp(-2) * (small / common), mid / common, tail / common


def _segment_rows(c_max):
    """Row tails inner(., k) for k = 0..c_max, each over c = k..c_max, where
    inner(c, k) = sum_ell C(k, ell) #comps(c-ell, k-ell) 2^ell =
    [x^c] (2x + x^2/(1-x))^k counts the ways to lay k segments over c
    shared edges, each a single edge (2 orientations) or a run of >= 2.
    k segments cover at least k edges, so the entries for c < k, all
    zero, are never built."""
    tail = [1] + [0] * c_max
    for _ in range(c_max + 1):
        yield tail
        # times 2x + x^2/(1-x): next[c] = 2 row[c-1] + row[k] + ... + row[c-2]
        # for c = k+1..c_max, one entry shorter
        tail = [2 * x + below for x, below in zip(tail[:-1], accumulate(tail, initial=0))]


def constant_C_partial(c_max: int) -> Fraction:
    """Partial sum, over shared-edge counts c <= c_max, of the limiting
    inner constant sum_{k,ell} C(k,ell) #comps 2^{ell-c+k} / k!; converges
    to e^3 = 20.0855... as c_max grows.  Exact rational."""
    if c_max < 0:
        raise ValueError(f"need c_max >= 0, got {c_max}")
    if c_max > CONSTANT_C_CAP:
        # two row tails of segment counts, the largest of them near
        # k = c_max/3: 0.21 c_max^2 bytes.  Calibrated on the max RSS rise
        # over constant-c at c_max = 1 for constant-c at c_max = 2000, 4000
        # and 8000: 0.82, 3.68 and 12.75 MiB, against 0.80, 3.20 and 12.82
        # MiB here.
        mem = 0.21 * c_max * c_max
        raise CapacityError(
            f"c_max={c_max} exceeds cap {CONSTANT_C_CAP}; raising the cap needs "
            f"about {mem / 2**20:.0f} MiB of segment counts"
        )
    from fractions import Fraction

    # each term inner 2^k / (k! 2^c) as an integer over c_max! 2^c_max, by
    # Horner's rule in k: total_k = k total_{k-1} + 2^k sum_c inner 2^(c_max-c)
    total = 0
    for k, tail in enumerate(_segment_rows(c_max)):
        total = total * k + (sum(x << (c_max - c) for c, x in enumerate(tail, k)) << k)
    return Fraction(total, math.factorial(c_max) << c_max)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def fraction_dict(x: Fraction) -> dict:
    """x's numerator and denominator as decimal strings, however long:
    CPython's int-to-str digit limit (4300 from 3.10.7 on, which the
    constant-c numerator passes from c_max = 1559) is lifted meanwhile."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_limit(0)
    try:
        return {"numerator": str(x.numerator), "denominator": str(x.denominator)}
    finally:
        set_limit(limit)


def census_classes(census: dict) -> list[dict]:
    """The census classes in signature order, each mass an integer string:
    the ``classes`` of the census report."""
    return [{"c": sig.c, "k": sig.k, "l": sig.ell, "pair_count": cls.pair_count,
             "mass": str(cls.mass)} for sig, cls in sorted(census.items())]


def census_rows(classes: list[dict]) -> list[dict]:
    """``census_classes`` under the columns of the census CSV, which are
    also the ``census`` rows of a moment report; every mass is an integer."""
    return [{"c": cls["c"], "k": cls["k"], "l": cls["l"], "pair_count": cls["pair_count"],
             "mass_numerator": cls["mass"], "mass_denominator": "1"} for cls in classes]


def moment_report_to_dict(report: MomentReport) -> dict:
    return {
        "n": report.n,
        "first_moment": fraction_dict(report.first_moment),
        "second_moment": fraction_dict(report.second_moment),
        "census": census_rows(census_classes(report.census)),
    }
