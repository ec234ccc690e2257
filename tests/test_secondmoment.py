"""Tests for incpaths.secondmoment."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from incpaths import core, secondmoment
from incpaths.core import CapacityError, EdgeOrdering
from incpaths.exact import count_increasing_ham_paths
from incpaths.harness import ExperimentConfig, main, run
from incpaths.secondmoment import (
    CensusClass,
    MomentReport,
    ProfileSignature,
    _extension_count,
    _match_pair,
    classify_pair,
    constant_C_partial,
    exact_moments,
    moment_report_to_dict,
    pair_probability,
    profile_census,
    s_sum_bounds,
)
from oracles import (
    _compositions_min2,
    _split_sum,
    _split_term,
    embedding_bound,
    interleaving_extension_count_reference,
    is_increasing,
    labeled_profile_bound,
)


def enumerate_second_moment(n):
    """Oracle: mean of H^2 over all n(n-1)/2 factorial label assignments."""
    m = core.num_edges(n)
    total = 0
    count = 0
    for perm in itertools.permutations(range(1, m + 1)):
        ordering = EdgeOrdering(n=n, model=core.PERMUTATION, labels=np.array(perm, dtype=np.int64))
        h = count_increasing_ham_paths(ordering)
        total += h * h
        count += 1
    return Fraction(total, count)


def random_hamiltonian_pair(rng, n):
    a = list(rng.permutation(n))
    b = list(rng.permutation(n))
    return [int(x) for x in a], [int(x) for x in b]


def classify_pair_by_edge_sets(a_seq, b_seq):
    """Reference: the signature from A's edges intersected with B's as sets,
    segments being the maximal runs of shared edges along A."""
    a_edges = [frozenset(e) for e in zip(a_seq, a_seq[1:])]
    shared = set(a_edges) & {frozenset(e) for e in zip(b_seq, b_seq[1:])}
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


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_classify_matches_edge_set_reference_on_every_pair(n):
    seqs = list(itertools.permutations(range(n)))
    for a in seqs:
        for b in seqs:
            assert classify_pair(a, b) == classify_pair_by_edge_sets(a, b)


def test_classify_identical():
    for n in (3, 5, 8):
        a = list(range(n))
        assert classify_pair(a, a) == ProfileSignature(n - 1, 1, 0)


def test_classify_edge_disjoint():
    assert classify_pair([0, 1, 2, 3], [2, 0, 3, 1]) == ProfileSignature(0, 0, 0)


def test_classify_figure_shape():
    # two 8-edge paths sharing segments 0-1-2 (length 2) and 4-5 (length 1)
    a = list(range(9))
    b = [0, 1, 2, 6, 4, 5, 8, 3, 7]
    assert classify_pair(a, b) == ProfileSignature(3, 2, 1)


@pytest.mark.parametrize("public", [classify_pair, pair_probability],
                         ids=lambda public: public.__name__)
def test_classify_rejects_non_hamiltonian(public):
    # the public functions validate; the matching under them checks nothing
    for a, b in (([0, 1, 2], [0, 1, 1]), ([0, 1], [0, 1, 2]), ([0, 1, 1], [0, 1, 2]),
                 ([0], [0]), ([1, 2, 3], [1, 2, 3])):
        with pytest.raises(ValueError, match="not a Hamiltonian vertex sequence"):
            public(a, b)


def test_classify_relabeling_invariance():
    rng = np.random.default_rng(3)
    for _ in range(30):
        n = 6
        a, b = random_hamiltonian_pair(rng, n)
        sigma = list(rng.permutation(n))
        a2 = [sigma[v] for v in a]
        b2 = [sigma[v] for v in b]
        assert classify_pair(a, b) == classify_pair(a2, b2)


def test_pair_probability_identical():
    a = [0, 1, 2, 3]
    assert pair_probability(a, a) == Fraction(1, 6)


def test_pair_probability_edge_disjoint_is_shuffle_count():
    assert pair_probability([0, 1, 2, 3], [2, 0, 3, 1]) == Fraction(20, 720)


def test_pair_probability_opposite_segment_zero():
    # B traverses the shared segment 0-1-2 backwards
    assert pair_probability([0, 1, 2, 3], [2, 1, 0, 3]) == 0
    assert pair_probability([0, 1, 2, 3], [3, 2, 1, 0]) == 0


def test_extension_count_matches_interleaving_dp():
    # every ordered pair for n <= 5; (identity, B) stands for all at n = 6, 7
    pairs = [
        (a, b)
        for n in range(2, 6)
        for a in itertools.permutations(range(n))
        for b in itertools.permutations(range(n))
    ]
    pairs += [(tuple(range(n)), b) for n in (6, 7) for b in itertools.permutations(range(n))]
    for a, b in pairs:
        match = _match_pair(a, b)
        assert _extension_count(match) == interleaving_extension_count_reference(match), (a, b)


def test_extension_count_one_shared_middle_edge():
    # A = 0-1-2-3-4, B = 2-3-0-4-1 share only edge 2-3: A's third edge and
    # B's first.  Before it A has 2 private edges and B none, C(2, 2) = 1;
    # after it A has 1 and B 3, C(4, 1) = 4.  The union has 7 edges.
    a, b = [0, 1, 2, 3, 4], [2, 3, 0, 4, 1]
    assert classify_pair(a, b) == ProfileSignature(1, 1, 1)
    assert _extension_count(_match_pair(a, b)) == 4
    assert pair_probability(a, b) == Fraction(4, math.factorial(7))


def test_pair_probability_symmetric():
    rng = np.random.default_rng(11)
    for _ in range(25):
        a, b = random_hamiltonian_pair(rng, 6)
        assert pair_probability(a, b) == pair_probability(b, a)


def test_pair_probability_against_full_enumeration():
    # every ordered pair at n=4, checked against the 720-ordering oracle
    n = 4
    m = core.num_edges(n)
    orderings = [
        EdgeOrdering(n=n, model=core.PERMUTATION, labels=np.array(perm, dtype=np.int64))
        for perm in itertools.permutations(range(1, m + 1))
    ]
    for b in itertools.permutations(range(n)):
        a = list(range(n))
        b = list(b)
        hits = sum(
            1
            for o in orderings
            if is_increasing(o, a) and is_increasing(o, b)
        )
        assert pair_probability(a, b) == Fraction(hits, len(orderings))


def test_exact_moments_n4():
    report = exact_moments(4)
    assert report.first_moment == 4
    assert report.second_moment == enumerate_second_moment(4)
    assert report.second_moment == Fraction(296, 15)


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_second_moment_jensen(n):
    report = exact_moments(n)
    assert report.first_moment == n and type(report.first_moment) is int
    assert report.second_moment >= n * n


def test_census_totals_n5():
    census = profile_census(5)
    assert sum(cls.pair_count for cls in census.values()) == math.factorial(5) ** 2


def test_census_full_overlap_class():
    # B shares all edges of A iff B is A or A reversed, so the top class
    # holds 2 * n! ordered pairs; only the aligned half carries extensions
    census = profile_census(5)
    top = census[ProfileSignature(4, 1, 0)]
    assert top.pair_count == 2 * math.factorial(5)
    assert top.mass == math.factorial(5)


def test_census_recombination_matches_moments():
    for n in (4, 5):
        census = profile_census(n)
        recombined = sum(
            Fraction(cls.mass, math.factorial(2 * n - sig.c - 2))
            for sig, cls in census.items()
        )
        assert recombined == exact_moments(n).second_moment


def test_census_classes_within_lemma_bounds():
    # summed extension mass and labelable pair count per class are both
    # at most (labeled-profile bound) * (embedding bound)
    n = 6
    census = profile_census(n)
    identity = tuple(range(n))
    labelable = {}
    for b in itertools.permutations(range(n)):
        if pair_probability(identity, b) > 0:
            sig = classify_pair(identity, b)
            labelable[sig] = labelable.get(sig, 0) + math.factorial(n)
    for sig, cls in census.items():
        cap = labeled_profile_bound(sig.c, sig.k, sig.ell, n) * embedding_bound(sig.c, sig.k, n)
        assert cls.mass <= cap
        assert labelable.get(sig, 0) <= cap


def test_moments_capacity_error():
    with pytest.raises(CapacityError):
        exact_moments(8)
    with pytest.raises(CapacityError):
        profile_census(8)


def test_labeled_profile_bound_examples():
    # composition factor C(0,0)=1: one part of size 2
    assert labeled_profile_bound(2, 1, 0, 6) == _multinomial(6, 2, 1)
    # k == ell == c == 1: zero parts of zero remaining edges
    assert labeled_profile_bound(1, 1, 1, 6) == 2 * _multinomial(6, 1, 1)
    # valid signature whose composition count vanishes gives 0
    assert labeled_profile_bound(3, 1, 1, 8) == 0


def _multinomial(n, c, k):
    m = n - c - 1
    return math.comb(2 * m + k, k) * math.comb(2 * m, m)


def test_labeled_profile_bound_rejects_invalid():
    with pytest.raises(ValueError):
        labeled_profile_bound(2, 3, 0, 8)  # k > c
    with pytest.raises(ValueError):
        labeled_profile_bound(3, 2, 0, 8)  # ell < 2k - c
    with pytest.raises(ValueError):
        labeled_profile_bound(5, 2, 1, 6)  # k > n - c


def test_binomial_composition_identity():
    # sum over ell of C(k,ell) * comps(c-ell, k-ell) counts all compositions
    # of c into k positive parts, and the 2^ell-weighted sum stays below
    # the 2^k-weighted aggregate
    for c in range(1, 13):
        for k in range(1, c + 1):
            plain = sum(
                math.comb(k, ell) * _compositions_min2(c - ell, k - ell)
                for ell in range(0, k + 1)
            )
            assert plain == math.comb(c - 1, k - 1)
            weighted = sum(
                2**ell * math.comb(k, ell) * _compositions_min2(c - ell, k - ell)
                for ell in range(0, k + 1)
            )
            assert weighted <= 2**k * math.comb(c - 1, k - 1)


def test_embedding_bound_values():
    assert embedding_bound(0, 0, 5) == 120 * 120
    assert embedding_bound(2, 1, 5) == 120 * 2
    with pytest.raises(ValueError):
        embedding_bound(5, 1, 5)
    with pytest.raises(ValueError):
        embedding_bound(2, 4, 5)


def test_s_sum_bounds_nonnegative_and_small_c_ratio():
    s1, s2, s3 = s_sum_bounds(100)
    assert s1 >= 0 and s2 >= 0 and s3 >= 0
    ratio = s1 / (math.e * 100 * 100)
    assert 0.5 <= ratio <= 2


def test_s_sum_small_c_ratio_approaches_one():
    ratios = {}
    for n in (50, 400):
        s1, _, _ = s_sum_bounds(n)
        ratios[n] = s1 / (math.e * n * n)
    assert abs(ratios[400] - 1) < abs(ratios[50] - 1)


def s_sum_fractions(n):
    """Oracle: the three split sums of s_sum_bounds(n), each term an exact
    Fraction over its own (2n-c-2)!, summed in Fractions."""
    fact = [math.factorial(i) for i in range(2 * n)]
    c_small = int(math.floor(math.log(n)))
    c_mid = 9 * n // 10
    small = sum(
        Fraction(
            labeled_profile_bound(c, k, ell, n) * embedding_bound(c, k, n),
            fact[2 * n - c - 2],
        )
        for c in range(c_small + 1)
        for k in range(min(c, n - c) + 1)
        for ell in range(max(0, 2 * k - c), k + 1)
    )

    def split(c_range):
        return sum(
            (_split_term(c, k, n, fact) for c in c_range for k in range(1, min(c, n - c) + 1)),
            Fraction(0),
        )

    return small, split(range(c_small + 1, c_mid + 1)), split(range(c_mid + 1, n))


@pytest.mark.parametrize("n", [10, 50, 100])
def test_s_sum_bounds_equal_fraction_sums(n):
    small, mid, tail = s_sum_fractions(n)
    assert s_sum_bounds(n) == (math.exp(-2) * float(small), float(mid), float(tail))


@pytest.mark.parametrize("n", [10, 11, 57, 400])
def test_split_sums_equal_per_term_binomials(n):
    fact = [math.factorial(i) for i in range(2 * n)]
    up = secondmoment._falling_to_common(n)
    c_small = int(math.floor(math.log(n)))
    c_mid = 9 * n // 10
    mid_range, tail_range = range(c_small + 1, c_mid + 1), range(c_mid + 1, n)
    small = sum(
        labeled_profile_bound(c, k, ell, n) * embedding_bound(c, k, n) * up[c]
        for c in range(c_small + 1)
        for k in range(min(c, n - c) + 1)
        for ell in range(max(0, 2 * k - c), k + 1)
    )
    mid = _split_sum(mid_range, n, fact, up)
    tail = _split_sum(tail_range, n, fact, up)
    assert secondmoment._small_sum(c_small, n, fact, up) == small
    assert secondmoment._split_sum(mid_range, n, fact, up) == mid
    assert secondmoment._split_sum(tail_range, n, fact, up) == tail
    common = fact[2 * n - 2]
    assert s_sum_bounds(n) == (math.exp(-2) * (small / common), mid / common, tail / common)


def _refuse(*args):
    raise AssertionError("built a table before the capacity check")


def test_s_sum_bounds_refuses_n_past_cap_before_building(monkeypatch):
    monkeypatch.setattr(secondmoment, "_falling_to_common", _refuse)
    n = secondmoment.BOUNDS_CAP + 1
    with pytest.raises(CapacityError, match=f"n={n} exceeds cap"):
        s_sum_bounds(n)
    assert main(["bounds", "--n", str(n)]) == 3


def test_s_sum_rejects_small_n():
    with pytest.raises(ValueError):
        s_sum_bounds(9)


def test_exact_moments_rejects_small_n():
    with pytest.raises(ValueError, match="need n >= 2"):
        exact_moments(1)


def test_constant_c_partial():
    assert constant_C_partial(0) == 1
    values = [constant_C_partial(c) for c in range(0, 12)]
    assert all(b >= a for a, b in zip(values, values[1:]))  # nondecreasing
    import mpmath

    mpmath.mp.dps = 40
    e_cubed = mpmath.e**3
    c80 = constant_C_partial(80)
    err = abs(mpmath.mpf(c80.numerator) / c80.denominator - e_cubed)
    assert err < mpmath.mpf("1e-6")


def constant_C_fraction_sum(c_max):
    """Reference: the partial sum with one Fraction addition per (c, k)."""
    total = Fraction(0)
    for c in range(c_max + 1):
        for k in range(0, c + 1):
            inner = 0
            for ell in range(max(0, 2 * k - c), k + 1):
                inner += math.comb(k, ell) * _compositions_min2(c - ell, k - ell) * 2**ell
            if inner:
                total += Fraction(inner * 2**k, math.factorial(k) * 2**c)
    return total


@pytest.mark.parametrize("c_max", [0, 1, 2, 5, 30, 80, 120])
def test_constant_c_partial_equals_fraction_sum(c_max):
    assert constant_C_partial(c_max) == constant_C_fraction_sum(c_max)


def constant_C_triple_loop(c_max: int) -> Fraction:
    """The triple loop of binomials that constant_C_partial ran before the
    segment-count rows, word for word: the oracle for its exact value."""
    if c_max < 0:
        raise ValueError(f"need c_max >= 0, got {c_max}")
    # each term inner 2^k / (k! 2^c) as an integer over c_max! 2^c_max
    up = [math.factorial(c_max) // math.factorial(k) for k in range(c_max + 1)]
    total = 0
    for c in range(c_max + 1):
        for k in range(0, c + 1):
            inner = 0
            for ell in range(max(0, 2 * k - c), k + 1):
                inner += math.comb(k, ell) * _compositions_min2(c - ell, k - ell) * 2**ell
            total += inner * up[k] << (k + c_max - c)
    return Fraction(total, up[0] << c_max)


def test_constant_c_partial_equals_triple_loop():
    for c_max in range(121):
        assert constant_C_partial(c_max) == constant_C_triple_loop(c_max)


def test_constant_c_refuses_c_max_past_cap_before_building(monkeypatch):
    monkeypatch.setattr(secondmoment, "_segment_rows", _refuse)
    c_max = secondmoment.CONSTANT_C_CAP + 1
    with pytest.raises(CapacityError, match=f"c_max={c_max} exceeds cap"):
        constant_C_partial(c_max)
    assert main(["constant-c", "--k", str(c_max)]) == 3


def test_constant_c_rejects_negative():
    with pytest.raises(ValueError):
        constant_C_partial(-1)


def test_moment_report_serialization():
    report = exact_moments(4)
    d = moment_report_to_dict(report)
    assert d["first_moment"] == {"numerator": "4", "denominator": "1"}
    assert d["second_moment"] == {"numerator": "296", "denominator": "15"}
    assert sum(row["pair_count"] for row in d["census"]) == 576


def test_census_csv(tmp_path):
    path = tmp_path / "census.csv"
    run(ExperimentConfig(command="census", n=4, out=str(path)))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "c,k,l,pair_count,mass_numerator,mass_denominator"
    total = sum(int(line.split(",")[3]) for line in lines[1:])
    assert total == 576
    rows = moment_report_to_dict(exact_moments(4))["census"]
    assert lines[1:] == [",".join(str(v) for v in row.values()) for row in rows]
