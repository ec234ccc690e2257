"""Tests for incpaths.cyclestats."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from incpaths import cyclestats
from incpaths.core import CapacityError
from incpaths.cyclestats import (
    _CHUNK_SEATS,
    _MIN_DENOM,
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
)
from incpaths.harness import ExperimentConfig, run


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


def sample_longest_cycle_bincount_reference(k: int, trials: int, seed: int) -> np.ndarray:
    """Oracle: the sampler as it once was, one int32 part-id matrix per
    chunk, an int64 copy of it with row offsets, and one bincount over
    the whole chunk.  Same random stream as the module's sampler."""
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_SEATS // k)
    counts = np.zeros(k + 1, dtype=np.int64)
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        part = np.zeros((t, k), dtype=np.int32)  # part id of each seat
        rows = np.arange(t)
        for j in range(2, k + 1):
            u = rng.integers(0, j, size=t)
            part[:, j - 1] = np.where(u == j - 1, j - 1, part[rows, u])
        flat = part + (rows * k)[:, None]
        sizes = np.bincount(flat.ravel(), minlength=t * k).reshape(t, k)
        largest = sizes.max(axis=1)
        counts += np.bincount(largest, minlength=k + 1)
        done += t
    return counts / trials


_float_cache: dict = {"k": 0, "P": np.zeros((1, 1)), "C": np.ones((1, 1))}


def _float_tables(k: int):
    """Reference: the float pmf and cdf tables as a (k+1)^2 pair, built as
    the module once built them (Kahan-compensated, one column s at a time)."""
    if k <= _float_cache["k"]:
        return _float_cache["P"], _float_cache["C"]
    P = np.zeros((k + 1, k + 1))
    C = np.zeros((k + 1, k + 1))
    C[0, :] = 1.0  # L_0 = 0
    comp = np.empty(k + 1)
    acc = np.empty(k + 1)
    contrib = np.empty(k + 1)
    for s in range(1, k + 1):
        acc[:] = 0.0
        comp[:] = 0.0
        for j in range(1, k // s + 1):
            denom = math.factorial(j) * s**j
            if denom > _MIN_DENOM:
                break
            coef = 1.0 / denom
            contrib[:] = 0.0
            contrib[s * j :] = coef * C[: k + 1 - s * j, s - 1]
            y = contrib - comp
            t = acc + y
            comp = (t - acc) - y
            acc = t
        P[:, s] = acc
        C[:, s] = C[:, s - 1] + acc
    _float_cache.update(k=k, P=P, C=C)
    return P, C


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


# The j-sum recurrence that filled the cdf counts before the stepped one,
# as their oracle, with its factorials from math.factorial.
def _j_sum_rows(k: int) -> list[list[int]]:
    """N_n(s) = sum_j n!/((n-sj)! j! s^j) * A_{n-sj}(s-1): choose the j
    cycles of length s, then permute the rest with cycles shorter than s."""
    counts = [[1]]
    for n in range(1, k + 1):
        row = [0] * (n + 1)
        for s in range(1, n + 1):
            total = 0
            ways = 1  # n!/((n-sj)! j! s^j), stepped in j
            rest = n
            cycle = math.factorial(s - 1)  # (s-1)! cyclic orders of s chosen elements
            for j in range(1, n // s + 1):
                ways = ways * math.comb(rest, s) * cycle // j
                rest -= s
                total += ways * (counts[rest][s - 1] if s - 1 <= rest else math.factorial(rest))
            row[s] = total
        counts.append(list(itertools.accumulate(row)))
    return counts


def test_cdf_counts_equal_j_sum_recurrence():
    assert cyclestats._count_rows(RATIONAL_CAP) == _j_sum_rows(RATIONAL_CAP)


# bytes still traced once alpha_table(200) and longest_cycle_distribution(200)
# have returned and their results are dropped
_TRACED_CALLS = """
import tracemalloc
from incpaths.cyclestats import alpha_table, longest_cycle_distribution
tracemalloc.start()
alpha_table(200)
longest_cycle_distribution(200)
print(tracemalloc.get_traced_memory()[0])
"""


def test_exact_calls_keep_no_table():
    # a fresh interpreter, so that nothing an earlier test built is in the
    # way; the module-wide memo this replaced held 2.6 MiB after these calls
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    child = subprocess.run([sys.executable, "-c", _TRACED_CALLS], env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    assert int(child.stdout) < 256 * 2**10


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


def test_float_rows_equal_two_table_reference():
    for k in (1, 7, 60, 400, 816):
        P, C = _float_tables(k)
        table = longest_cycle_distribution(k, FLOAT)
        assert table.pmf == tuple(P[k, : k + 1])
        assert table.cdf == tuple(C[k, : k + 1])
        pmf = np.array(P[k, : k + 1])
        hs = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, k + 1))))
        assert alpha(k, FLOAT) == float(np.dot(pmf[1:], hs[k] - hs[:k]))
        assert golomb_dickman_estimate(k, FLOAT) == float(np.dot(np.arange(k + 1), pmf) / k)


def test_float_table_built_once_equals_cold_builds():
    rows = alpha_table(60, FLOAT)
    for k in range(1, 61):
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


def test_sampler_multi_chunk_deterministic():
    k, trials = 2000, 5000
    assert trials > 2 * (_CHUNK_SEATS // k)  # at least three chunks
    a = sample_longest_cycle(k, trials, seed=9)
    b = sample_longest_cycle(k, trials, seed=9)
    assert np.array_equal(a, b)
    assert np.rint(a * trials).sum() == trials


# one chunk with a partial last block; (20, 209_800), (2000, 2200): two
# chunks, the last one partial; 128 and 129 sit either side of the
# int8/int16 part-id boundary
@pytest.mark.parametrize("k,trials", [
    (1, 1000), (2, 999), (3, 70_000), (20, 100_000), (20, 209_800),
    (128, 3000), (129, 3000), (2000, 2200), (5000, 100),
])
def test_sampler_equals_bincount_reference(k, trials):
    for seed in (0, 7):
        new = sample_longest_cycle(k, trials, seed)
        old = sample_longest_cycle_bincount_reference(k, trials, seed)
        assert new.dtype == old.dtype == np.float64
        assert np.array_equal(new, old), (k, trials, seed)


@pytest.mark.parametrize("k,trials,limit_mib", [(20, 100_000, 12), (2000, 5000, 24)])
def test_sampler_working_set(k, trials, limit_mib):
    # numpy reports its buffers to tracemalloc; the chunk-wide bincount
    # sampler peaked at 40 and 112 MiB here
    tracemalloc.start()
    try:
        sample_longest_cycle(k, trials, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mib * 2**20


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
    run(ExperimentConfig(command="alpha-table", k=12, out=str(path)))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,alpha,predicted_fraction,mean_ratio"
    assert len(lines) == 13
    last = lines[-1].split(",")
    assert int(last[0]) == 12
    assert abs(float(last[1]) - float(alpha(12))) < 1e-15


def test_rational_alpha_table_rows_are_the_fractions_rounded():
    # the rows divide each integer numerator by its denominator, which
    # rounds as float() of the reduced Fraction does
    for row in alpha_table(RATIONAL_CAP, RATIONAL):
        k = row["k"]
        assert row["alpha"] == float(alpha(k))
        assert row["mean_ratio"] == float(golomb_dickman_estimate(k))


def test_alpha_limit_estimate(monkeypatch):
    builds = []
    float_pmf = cyclestats._float_pmf
    monkeypatch.setattr(cyclestats, "_float_pmf", lambda k: builds.append(k) or float_pmf(k))
    est = alpha_limit_estimate(1000)
    assert builds == [2000]  # both alphas come off one table
    monkeypatch.undo()
    assert est["alpha_at_k"] > est["richardson"]  # decreasing sequence
    assert abs(est["richardson"] - 0.5219) < 2e-4
    with pytest.raises(CapacityError):
        alpha_limit_estimate(FLOAT_CAP)
    for k, precision in ((1000, FLOAT), (50, FLOAT), (100, RATIONAL), (7, RATIONAL)):
        est = alpha_limit_estimate(k, precision)
        at_k, at_2k = float(alpha(k, precision)), float(alpha(2 * k, precision))
        assert est["alpha_at_k"] == at_k
        assert est["richardson"] == 2 * at_2k - at_k


# values README.md states, each with the digits it states them to
README_VALUES = {
    "alpha_100": (lambda: alpha(100), "0.53082"),
    "predicted_fraction_100": (lambda: predicted_fraction(100), "0.84800"),
    "predicted_fraction_10": (lambda: predicted_fraction(10), "0.8049"),
    "richardson_limit": (lambda: alpha_limit_estimate(1000)["richardson"], "0.5219"),
}


@pytest.mark.parametrize("name", README_VALUES)
def test_readme_values_round_to_stated_digits(name):
    value, stated = README_VALUES[name]
    digits = len(stated.split(".")[1])
    assert f"{float(value()):.{digits}f}" == stated


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
