"""Longest-cycle statistics of a uniformly random permutation.

L_k is the length of the longest cycle of a uniform permutation of
{1..k}.  Its distribution satisfies

    Pr[L_n = s] = sum_{j=1..floor(n/s)} 1/(j! s^j) * Pr[L_{n-sj} <= s-1]

with L_0 identically 0, which is evaluated bottom-up either exactly, as
integer counts of permutations by longest cycle (authoritative,
k <= 200), or vectorized float64 with Kahan compensation (k <= 5000).
Exact values are those counts over k!.  From the tables come alpha_k =
E[1/L_k + 1/(L_k+1) + ... + 1/k], the predicted path fraction
1 - exp(-1/alpha_k), and E[L_k/k] (whose limit is the Golomb-Dickman
constant, about 0.6243).

All computed tables are memoized module-wide; the exact ones grow a row
at a time, and the float ones are built once at the largest k asked for
(alpha_table builds them at k_max before its first row).  Construction
is single-threaded, reads are safe to share.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import CapacityError

RATIONAL_CAP = 200
FLOAT_CAP = 5000
RATIONAL = "rational"
FLOAT = "float"

# float64 cannot represent 1/denom past this; dropped tail terms are far
# below 1e-300 and irrelevant at the 1e-12 validation level
_MIN_DENOM = 1 << 1020


@dataclass(frozen=True)
class CycleLengthTable:
    """pmf[s] = Pr[L_k = s] and cdf[s] = Pr[L_k <= s], for s = 0..k."""

    k: int
    precision: str
    pmf: tuple
    cdf: tuple

    def mean(self):
        return sum(s * p for s, p in enumerate(self.pmf))


def _check_k(k: int, precision: str) -> None:
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if precision == RATIONAL:
        if k > RATIONAL_CAP:
            raise CapacityError(f"rational mode supports k <= {RATIONAL_CAP}, got {k}")
    elif precision == FLOAT:
        if k > FLOAT_CAP:
            raise CapacityError(f"float mode supports k <= {FLOAT_CAP}, got {k}")
    else:
        raise ValueError(f"unknown precision {precision!r}")


# ---------------------------------------------------------------------------
# exact tables as integer permutation counts, grown row by row on demand
# ---------------------------------------------------------------------------

# _exact[r][s]: permutations of r elements whose longest cycle is exactly s;
# _counts[r][t]: those whose cycles all have length at most t (t = 0..r)
_exact: list[list[int]] = [[1]]
_counts: list[list[int]] = [[1]]
_factorials: list[int] = [1]


def _factorial(j: int) -> int:
    while len(_factorials) <= j:
        _factorials.append(_factorials[-1] * len(_factorials))
    return _factorials[j]


def _grow_exact(k: int) -> None:
    """N_n(s) = sum_j n!/((n-sj)! j! s^j) * A_{n-sj}(s-1): choose the j
    cycles of length s, then permute the rest with cycles shorter than s."""
    _factorial(k)
    for n in range(len(_exact), k + 1):
        row = [0] * (n + 1)
        for s in range(1, n + 1):
            total = 0
            ways = 1  # n!/((n-sj)! j! s^j), stepped in j
            rest = n
            cycle = _factorials[s - 1]  # (s-1)! cyclic orders of s chosen elements
            for j in range(1, n // s + 1):
                ways = ways * math.comb(rest, s) * cycle // j
                rest -= s
                total += ways * (_counts[rest][s - 1] if s - 1 <= rest else _factorials[rest])
            row[s] = total
        _exact.append(row)
        _counts.append(list(itertools.accumulate(row)))


# ---------------------------------------------------------------------------
# float64 tables, built vectorized at the largest k requested so far
# ---------------------------------------------------------------------------

_float_cache: dict = {"k": 0, "P": np.zeros((1, 1)), "C": np.ones((1, 1))}


def _float_tables(k: int):
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
            denom = _factorial(j) * s**j
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


def longest_cycle_distribution(k: int, precision: str = RATIONAL) -> CycleLengthTable:
    """Full pmf/cdf table of L_k."""
    _check_k(k, precision)
    if precision == RATIONAL:
        _grow_exact(k)
        total = _factorials[k]
        return CycleLengthTable(
            k=k,
            precision=precision,
            pmf=tuple(Fraction(count, total) for count in _exact[k]),
            cdf=tuple(Fraction(count, total) for count in _counts[k]),
        )
    P, C = _float_tables(k)
    return CycleLengthTable(
        k=k, precision=precision, pmf=tuple(P[k, : k + 1]), cdf=tuple(C[k, : k + 1])
    )


def alpha(k: int, precision: str = RATIONAL):
    """alpha_k = E[1/L_k + 1/(L_k+1) + ... + 1/k]; exact in rational mode."""
    if precision == RATIONAL:
        _check_k(k, precision)
        _grow_exact(k)
        # h[i] = D * H_i with D = lcm(1..k), so every harmonic tail is an integer
        d = math.lcm(*range(1, k + 1))
        h = [0, *itertools.accumulate(d // i for i in range(1, k + 1))]
        counts = _exact[k]
        total = sum(counts[s] * (h[k] - h[s - 1]) for s in range(1, k + 1))
        return Fraction(total, _factorials[k] * d)
    table = longest_cycle_distribution(k, precision)
    hs = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, k + 1))))
    pmf = np.array(table.pmf)
    return float(np.dot(pmf[1:], hs[k] - hs[:k]))


def predicted_fraction(k: int, precision: str = RATIONAL) -> float:
    """Asymptotic fraction of vertices reached by the k-look-ahead greedy
    search: 1 - exp(-1/alpha_k)."""
    return 1.0 - math.exp(-1.0 / float(alpha(k, precision)))


def golomb_dickman_estimate(k: int, precision: str = RATIONAL):
    """E[L_k / k] from the exact pmf; tends to about 0.6243 as k grows."""
    if precision == RATIONAL:
        _check_k(k, precision)
        _grow_exact(k)
        return Fraction(sum(s * count for s, count in enumerate(_exact[k])), k * _factorials[k])
    pmf = np.array(longest_cycle_distribution(k, precision).pmf)
    return float(np.dot(np.arange(k + 1), pmf) / k)


def alpha_limit_estimate(k: int, precision: str = FLOAT) -> dict:
    """Estimates of the limiting alpha: the value at k and the first-order
    Richardson extrapolate 2*alpha_{2k} - alpha_k (alpha_k approaches its
    limit like c/k, so the extrapolate cancels that term).  Both are
    estimates, not exact limits.
    """
    if 2 * k > FLOAT_CAP:
        raise CapacityError(f"need 2k <= {FLOAT_CAP} for the extrapolate, got k={k}")
    at_k = float(alpha(k, precision))
    at_2k = float(alpha(2 * k, precision))
    return {"k": k, "alpha_at_k": at_k, "richardson": 2 * at_2k - at_k}


def sample_longest_cycle(
    k: int, trials: int, seed: int, _chunk_budget: int = 1 << 22
) -> np.ndarray:
    """Empirical pmf of the largest part after k Chinese-restaurant
    insertions (element j starts a new part with probability 1/j, else
    joins a part with probability proportional to its size).

    Returns an array of length k+1 indexed by part size; deterministic
    given the seed.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    chunk = max(1, _chunk_budget // k)
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


def alpha_table(k_max: int, precision: str = RATIONAL) -> list[dict]:
    """Rows (k, alpha, predicted_fraction, mean_ratio) for k = 1..k_max."""
    _check_k(k_max, precision)
    if precision == FLOAT:
        # one build at k_max: row k of a larger table equals a build at k,
        # so the loop reads rows instead of rebuilding for every k
        _float_tables(k_max)
    rows = []
    for k in range(1, k_max + 1):
        a = alpha(k, precision)
        rows.append(
            {
                "k": k,
                "alpha": float(a),
                "predicted_fraction": 1.0 - math.exp(-1.0 / float(a)),
                "mean_ratio": float(golomb_dickman_estimate(k, precision)),
            }
        )
    return rows


def write_alpha_table(path, k_max: int, precision: str = RATIONAL) -> None:
    write_alpha_rows(path, alpha_table(k_max, precision))


def write_alpha_rows(path, rows: list[dict]) -> None:
    """CSV export of rows already computed by alpha_table."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["k", "alpha", "predicted_fraction", "mean_ratio"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
