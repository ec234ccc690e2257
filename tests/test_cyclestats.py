"""Tests for incpaths.cyclestats."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from incpaths import cyclestats
from incpaths.core import CapacityError
from incpaths.cyclestats import (
    FLOAT,
    FLOAT_CAP,
    RATIONAL,
    RATIONAL_CAP,
    alpha,
    alpha_limit_estimate,
    alpha_table,
    golomb_dickman_estimate,
    longest_cycle_distribution,
    predicted_fraction,
    sample_longest_cycle,
    write_alpha_rows,
)


def longest_cycle_pmf_enumeration(k):
    """Oracle: longest-cycle pmf by enumerating all k! permutations."""
    counts = Counter()
    for perm in itertools.permutations(range(k)):
        seen = [False] * k
        longest = 0
        for i in range(k):
            if not seen[i]:
                length = 0
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    length += 1
                longest = max(longest, length)
        counts[longest] += 1
    total = math.factorial(k)
    return {s: Fraction(c, total) for s, c in counts.items()}


def longest_cycle_fraction_rows(k_max):
    """Oracle: pmf and cdf rows 0..k_max of L_k from the module docstring's
    recurrence, evaluated in Fractions term by term."""
    pmf_rows = [[Fraction(1)]]
    cdf_rows = [[Fraction(1)]]
    for n in range(1, k_max + 1):
        pmf = [Fraction(0)] * (n + 1)
        for s in range(1, n + 1):
            for j in range(1, n // s + 1):
                rest = n - s * j
                below = cdf_rows[rest][s - 1] if s - 1 <= rest else Fraction(1)
                pmf[s] += Fraction(1, math.factorial(j) * s**j) * below
        pmf_rows.append(pmf)
        cdf_rows.append(list(itertools.accumulate(pmf)))
    return pmf_rows, cdf_rows


def harmonic_numbers(k):
    hs = [Fraction(0)]
    for i in range(1, k + 1):
        hs.append(hs[-1] + Fraction(1, i))
    return hs


def alpha_from_pmf(pmf, k):
    hs = harmonic_numbers(k)
    return sum(p * (hs[k] - hs[s - 1]) for s, p in pmf.items())


def shifted_alpha_from_pmf(pmf, k):
    """E[1/(L_k+1) + ... + 1/(k+1)]: alpha_k with every index shifted by one."""
    hs = harmonic_numbers(k + 1)
    return sum(p * (hs[k + 1] - hs[s]) for s, p in pmf.items())


def test_k1_pmf():
    table = longest_cycle_distribution(1)
    assert table.pmf[1] == 1


def test_k3_pmf_matches_enumeration():
    oracle = longest_cycle_pmf_enumeration(3)
    assert oracle == {1: Fraction(1, 6), 2: Fraction(1, 2), 3: Fraction(1, 3)}
    table = longest_cycle_distribution(3)
    assert table.pmf[1] == Fraction(1, 6)
    assert table.pmf[2] == Fraction(1, 2)
    assert table.pmf[3] == Fraction(1, 3)


@pytest.mark.parametrize("k", list(range(1, 10)))
def test_recurrence_matches_enumeration(k):
    oracle = longest_cycle_pmf_enumeration(k)
    table = longest_cycle_distribution(k)
    for s in range(1, k + 1):
        assert table.pmf[s] == oracle.get(s, Fraction(0))


def test_integer_tables_match_fraction_recurrence():
    pmf_rows, cdf_rows = longest_cycle_fraction_rows(60)
    for k in range(1, 61):
        table = longest_cycle_distribution(k)
        assert table.pmf == tuple(pmf_rows[k])
        assert table.cdf == tuple(cdf_rows[k])
        assert all(isinstance(p, Fraction) for p in table.pmf + table.cdf)
    for k in (1, 10, 60):
        pmf = dict(enumerate(pmf_rows[k]))
        assert alpha(k) == alpha_from_pmf(pmf, k)
        assert golomb_dickman_estimate(k) == sum(Fraction(s, k) * p for s, p in pmf.items())


def test_pmf_normalization_rational():
    for k in (1, 2, 7, 40):
        table = longest_cycle_distribution(k)
        assert sum(table.pmf) == 1
        assert table.cdf[k] == 1


def test_pmf_normalization_float():
    for k in (10, 300):
        table = longest_cycle_distribution(k, FLOAT)
        assert abs(sum(table.pmf) - 1.0) < 1e-12


def test_alpha_small_exact():
    assert alpha(1) == 1
    assert alpha(2) == 1
    assert alpha(3) == Fraction(5, 6)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_alpha_matches_enumeration(k):
    assert alpha(k) == alpha_from_pmf(longest_cycle_pmf_enumeration(k), k)


def test_alpha_100_exact_value_region():
    # exact rational value of the defining sum E[1/L + ... + 1/k] at k=100;
    # the sequence is still 0.0089 above its limit (about 0.5219) here and
    # first drops below 0.523 at k=816 (acceptance criterion 3)
    a = alpha(100)
    assert isinstance(a, Fraction)
    assert Fraction(5308, 10000) < a < Fraction(5309, 10000)


def test_predicted_fraction_values():
    assert abs(predicted_fraction(1) - (1 - 1 / math.e)) < 1e-12
    assert abs(predicted_fraction(2) - (1 - 1 / math.e)) < 1e-12
    # at k=100 the exact prediction is 0.84800; it first passes 0.85 at
    # k=172 (acceptance criterion 3)
    assert abs(predicted_fraction(100) - 0.848) < 5e-4
    assert predicted_fraction(200, FLOAT) > 0.85


def test_inherited_targets_fit_the_shifted_sum():
    # the inherited pair alpha_100 < 0.523 with predicted fraction > 0.85 is
    # what the index-shifted sum gives at k=100; that sum is not this
    # search's constant, since at k=1 it would predict 1 - e^-2, not greedy's
    # 1 - 1/e
    pmf = dict(enumerate(longest_cycle_distribution(100).pmf))
    shifted = shifted_alpha_from_pmf(pmf, 100)
    assert shifted < Fraction(523, 1000)
    assert abs((1 - math.exp(-1 / float(shifted))) - 0.85222) < 1e-5
    pmf = dict(enumerate(longest_cycle_distribution(1).pmf))
    assert shifted_alpha_from_pmf(pmf, 1) == Fraction(1, 2)
    assert abs(predicted_fraction(1) - (1 - 1 / math.e)) < 1e-12


def test_golomb_dickman_small():
    assert golomb_dickman_estimate(1) == 1
    assert golomb_dickman_estimate(3) == Fraction(13, 18)


def test_alpha_monotone_and_bounded_float():
    values = [row["alpha"] for row in alpha_table(500, FLOAT)]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-13
    assert all(a > 0.52 for a in values)


def test_float_table_built_once_equals_cold_builds(monkeypatch):
    rows = alpha_table(60, FLOAT)
    for k in range(1, 61):
        # an empty cache makes alpha(k) build the float tables at size k
        monkeypatch.setattr(cyclestats, "_float_cache", {"k": 0})
        a = alpha(k, FLOAT)
        assert rows[k - 1]["alpha"] == a
        assert rows[k - 1]["predicted_fraction"] == 1.0 - math.exp(-1.0 / a)
        assert rows[k - 1]["mean_ratio"] == golomb_dickman_estimate(k, FLOAT)


def test_float_matches_rational():
    for k in (50, 200):
        a_rat = alpha(k)
        a_flt = alpha(k, FLOAT)
        assert abs(a_flt - float(a_rat)) <= 1e-12 * float(a_rat)
        g_rat = golomb_dickman_estimate(k)
        g_flt = golomb_dickman_estimate(k, FLOAT)
        assert abs(g_flt - float(g_rat)) <= 1e-12 * float(g_rat)
        t_rat = longest_cycle_distribution(k)
        t_flt = longest_cycle_distribution(k, FLOAT)
        for s in range(1, k + 1):
            exact = t_rat.pmf[s]
            if exact > Fraction(1, 10**200):
                assert abs(t_flt.pmf[s] - float(exact)) <= 1e-12 * float(exact)


def test_sampler_k1():
    pmf = sample_longest_cycle(1, 100, seed=0)
    assert pmf[1] == 1.0


def test_sampler_deterministic():
    a = sample_longest_cycle(6, 500, seed=42)
    b = sample_longest_cycle(6, 500, seed=42)
    assert np.array_equal(a, b)
    c = sample_longest_cycle(6, 500, seed=43)
    assert not np.array_equal(a, c)


def test_sampler_chunking_consistent():
    # chunk size must not change the sampled stream
    a = sample_longest_cycle(6, 1000, seed=9, _chunk_budget=6 * 64)
    b = sample_longest_cycle(6, 1000, seed=9, _chunk_budget=6 * 64)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("k,trials", [(5, 200_000), (100, 50_000)])
def test_sampler_matches_exact_within_3_sigma(k, trials):
    precision = RATIONAL if k <= RATIONAL_CAP else FLOAT
    exact = [float(p) for p in longest_cycle_distribution(k, precision).pmf]
    empirical = sample_longest_cycle(k, trials, seed=2024)
    for s in range(1, k + 1):
        p = exact[s]
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(empirical[s] - p) <= 3 * sigma + 1e-15


def test_alpha_table_and_csv(tmp_path):
    rows = alpha_table(12)
    assert [row["k"] for row in rows] == list(range(1, 13))
    assert rows[0]["alpha"] == 1.0
    path = tmp_path / "alpha.csv"
    write_alpha_rows(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,alpha,predicted_fraction,mean_ratio"
    assert len(lines) == 13
    last = lines[-1].split(",")
    assert int(last[0]) == 12
    assert abs(float(last[1]) - float(alpha(12))) < 1e-15


def test_alpha_limit_estimate():
    est = alpha_limit_estimate(1000)
    assert est["alpha_at_k"] > est["richardson"]  # decreasing sequence
    assert abs(est["richardson"] - 0.5219) < 2e-4
    with pytest.raises(CapacityError):
        alpha_limit_estimate(FLOAT_CAP)


def test_alpha_limit_estimate_builds_float_tables_once(monkeypatch):
    builds = []

    class CountingCache(dict):
        def update(self, **tables):
            builds.append(tables["k"])
            super().update(**tables)

    monkeypatch.setattr(cyclestats, "_float_cache", CountingCache(k=0))
    est = alpha_limit_estimate(50)
    assert builds == [100]
    # row 50 of the table built at 100 equals a cold build at 50
    monkeypatch.setattr(cyclestats, "_float_cache", {"k": 0})
    assert est["alpha_at_k"] == alpha(50, FLOAT)


def test_capacity_and_argument_errors():
    with pytest.raises(CapacityError):
        longest_cycle_distribution(RATIONAL_CAP + 1, RATIONAL)
    with pytest.raises(CapacityError):
        longest_cycle_distribution(FLOAT_CAP + 1, FLOAT)
    with pytest.raises(ValueError):
        longest_cycle_distribution(0)
    with pytest.raises(ValueError):
        longest_cycle_distribution(5, "decimal")
    with pytest.raises(ValueError):
        sample_longest_cycle(3, 0, seed=1)
