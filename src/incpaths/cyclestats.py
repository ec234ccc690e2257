"""Longest-cycle statistics of a uniformly random permutation.

L_k is the length of the longest cycle of a uniform permutation of
{1..k}.  Its distribution satisfies

    Pr[L_n = s] = sum_{j=1..floor(n/s)} 1/(j! s^j) * Pr[L_{n-sj} <= s-1]

with L_0 identically 0.  It is evaluated bottom-up either exactly
(authoritative, k <= 200) or in vectorized float64 with Kahan
compensation (k <= 5000).  The exact path counts the permutations of n
elements whose cycles all have length at most t,

    A_n(t) = n A_{n-1}(t) - (n-1)_t A_{n-1-t}(t),

which follows from E' = E (1-x^t)/(1-x) for their exponential generating
function E; each entry is one step from the row before, with the falling
factorial (n-1)_t stepped in t.  Exact values are these counts over k!.
From the tables come alpha_k = E[1/L_k + 1/(L_k+1) + ... + 1/k], the
predicted path fraction 1 - exp(-1/alpha_k), and E[L_k/k] (whose limit
is the Golomb-Dickman constant, about 0.6243).

Nothing is kept between calls: each call builds the count rows or the
float pmf table it needs and frees them on return, and alpha_table builds
once at k_max.  k! is read off the counts as A_k(k), and a pmf row is the
difference of its cdf row.

numpy is imported by the float path and the sampler only, so the exact
tables run without it; ``fractions`` only where a Fraction is returned.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from operator import truediv

from . import FLOAT, RATIONAL, CapacityError

# the ``np.ndarray`` annotations below are never evaluated (PEP 563): numpy
# is imported only inside the functions that run it

RATIONAL_CAP = 200
FLOAT_CAP = 5000

# float64 cannot represent 1/denom past this; dropped tail terms are far
# below 1e-300 and irrelevant at the 1e-12 validation level
_MIN_DENOM = 1 << 1020

# seats per sampler chunk (4 MiB of int8 part ids for k <= 128, 8 MiB of
# int16 above); the sampled stream depends on it, since trials run in
# chunks of _CHUNK_SEATS // k
_CHUNK_SEATS = 1 << 22
# seats per block when counting part sizes: 512 KiB of row-offset int64
# ids and as many bincount bins
_BLOCK_SEATS = 1 << 16


CycleLengthTable = namedtuple("CycleLengthTable", "k precision pmf cdf")
CycleLengthTable.__doc__ = """pmf[s] = Pr[L_k = s] and cdf[s] = Pr[L_k <= s], for s = 0..k."""


def _check_k(k: int, precision: str) -> None:
    cap = {RATIONAL: RATIONAL_CAP, FLOAT: FLOAT_CAP}.get(precision)
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if cap is None:
        raise ValueError(f"unknown precision {precision!r}")
    if k > cap:
        raise CapacityError(f"{precision} mode supports k <= {cap}, got {k}")


# ---------------------------------------------------------------------------
# exact tables as integer permutation counts, built row by row per call
# ---------------------------------------------------------------------------


def _count_rows(k: int) -> list[list[int]]:
    """Rows 0..k of A_n(t), the permutations of n elements with all cycles
    at most t long (t = 0..n): A_n(t) = n A_{n-1}(t) - (n-1)_t A_{n-1-t}(t),
    where A_r(t) = A_r(r) = r! for t >= r and A_n(0) = 0 for n >= 1."""
    rows = [[1]]
    for n in range(1, k + 1):
        prev = rows[n - 1]
        row = [0] * (n + 1)
        falling = 1  # (n-1)_t
        for t in range(1, n):
            falling *= n - t
            rest = n - 1 - t
            row[t] = n * prev[t] - falling * rows[rest][t if t <= rest else rest]
        row[n] = n * prev[n - 1]
        rows.append(row)
    return rows


def _exact_alpha(counts: list[int]) -> tuple[int, int]:
    """alpha_k from count row k as (numerator, denominator), summed by
    parts: sum_i Pr[L_k <= i] / i, each term an integer over k! D with
    D = lcm(1..k)."""
    k = len(counts) - 1
    d = math.lcm(*range(1, k + 1))
    total = sum(d // i * count for i, count in enumerate(counts[1:], 1))
    return total, counts[k] * d


def _exact_mean_ratio(counts: list[int]) -> tuple[int, int]:
    """E[L_k / k] from count row k as (numerator, denominator):
    E[L_k] = sum_{t<k} Pr[L_k > t]."""
    k = len(counts) - 1
    total = counts[k]
    return sum(total - count for count in counts[:k]), k * total


# ---------------------------------------------------------------------------
# float64 pmf table, built vectorized one column s at a time
# ---------------------------------------------------------------------------


def _float_pmf(k: int) -> np.ndarray:
    """P[n, s] = Pr[L_n = s] for n, s = 0..k.  Column s needs only the cdf
    column s-1, Pr[L_n <= s-1] over all n, so that one vector is carried
    instead of a second (k+1)^2 table."""
    import numpy as np

    P = np.zeros((k + 1, k + 1))
    below = np.zeros(k + 1)  # cdf column s-1 over n = 0..k
    below[0] = 1.0  # L_0 = 0
    contrib = np.empty(k + 1)
    for s in range(1, k + 1):
        acc = np.zeros(k + 1)
        comp = np.zeros(k + 1)
        for j in range(1, k // s + 1):
            denom = math.factorial(j) * s**j
            if denom > _MIN_DENOM:
                break
            coef = 1.0 / denom
            contrib[:] = 0.0
            contrib[s * j :] = coef * below[: k + 1 - s * j]
            y = contrib - comp
            t = acc + y
            comp = (t - acc) - y
            acc = t
        P[:, s] = acc
        below += acc
    return P


# one dot product per pmf row: the pinned float reports depend on this order
def _float_alpha(pmf: np.ndarray) -> float:
    import numpy as np

    hs = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, len(pmf)))))
    return float(np.dot(pmf[1:], hs[-1] - hs[:-1]))


def _float_mean_ratio(pmf: np.ndarray) -> float:
    import numpy as np

    return float(np.dot(np.arange(len(pmf)), pmf) / (len(pmf) - 1))


def longest_cycle_distribution(k: int, precision: str = RATIONAL) -> CycleLengthTable:
    """Full pmf/cdf table of L_k."""
    _check_k(k, precision)
    if precision == RATIONAL:
        from fractions import Fraction

        counts = _count_rows(k)[k]
        cdf = [Fraction(count, counts[k]) for count in counts]
        pmf = [Fraction(b - a, counts[k]) for a, b in itertools.pairwise([0, *counts])]
    else:
        import numpy as np

        pmf = _float_pmf(k)[k]
        cdf = np.cumsum(pmf)  # left to right, the order the columns were added in
    return CycleLengthTable(k=k, precision=precision, pmf=tuple(pmf), cdf=tuple(cdf))


def alpha(k: int, precision: str = RATIONAL):
    """alpha_k = E[1/L_k + 1/(L_k+1) + ... + 1/k]; exact in rational mode."""
    _check_k(k, precision)
    if precision == FLOAT:
        return _float_alpha(_float_pmf(k)[k])
    from fractions import Fraction

    return Fraction(*_exact_alpha(_count_rows(k)[k]))


def predicted_fraction(k: int, precision: str = RATIONAL) -> float:
    """Asymptotic fraction of vertices reached by the k-look-ahead greedy
    search: 1 - exp(-1/alpha_k)."""
    return 1.0 - math.exp(-1.0 / float(alpha(k, precision)))


def golomb_dickman_estimate(k: int, precision: str = RATIONAL):
    """E[L_k / k]; tends to about 0.6243 as k grows."""
    _check_k(k, precision)
    if precision == FLOAT:
        return _float_mean_ratio(_float_pmf(k)[k])
    from fractions import Fraction

    return Fraction(*_exact_mean_ratio(_count_rows(k)[k]))


def alpha_limit_estimate(k: int, precision: str = FLOAT) -> dict:
    """Estimates of the limiting alpha: the value at k and the first-order
    Richardson extrapolate 2*alpha_{2k} - alpha_k (alpha_k approaches its
    limit like c/k, so the extrapolate cancels that term).  Both are
    estimates, not exact limits.  Both alphas come off one table built at
    2k, whose row k equals a build at k.
    """
    if 2 * k > FLOAT_CAP:
        raise CapacityError(f"need 2k <= {FLOAT_CAP} for the extrapolate, got k={k}")
    rows = alpha_table(2 * k, precision)
    at_k, at_2k = rows[k - 1]["alpha"], rows[-1]["alpha"]
    return {"k": k, "alpha_at_k": at_k, "richardson": 2 * at_2k - at_k}


def sample_longest_cycle(k: int, trials: int, seed: int) -> np.ndarray:
    """Empirical pmf of the largest part after k Chinese-restaurant
    insertions (element j starts a new part with probability 1/j, else
    joins a part with probability proportional to its size).

    Returns an array of length k+1 indexed by part size; deterministic
    given the seed.  The working set is one matrix of part ids per chunk,
    in the narrowest signed type that holds k-1, plus int64 part sizes
    for one block of about _BLOCK_SEATS seats at a time.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got k={k}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    import numpy as np

    rng = np.random.default_rng(seed)
    chunk = max(1, _CHUNK_SEATS // k)
    block = max(1, _BLOCK_SEATS // k)
    offsets = np.arange(block)[:, None] * k  # int64: row r's ids start at r*k
    counts = np.zeros(k + 1, dtype=np.int64)
    # part id of each seat, one matrix reused by every chunk
    buffer = np.empty((min(chunk, trials), k), dtype=np.min_scalar_type(-k))
    done = 0
    while done < trials:
        t = min(chunk, trials - done)
        part = buffer[:t]
        part[:, 0] = 0  # later columns are written before they are read
        rows = np.arange(t)
        for j in range(2, k + 1):
            u = rng.integers(0, j, size=t)
            part[:, j - 1] = np.where(u == j - 1, j - 1, part[rows, u])
        for lo in range(0, t, block):
            ids = part[lo : lo + block]
            r = len(ids)
            sizes = np.bincount((ids + offsets[:r]).ravel(), minlength=r * k)
            counts += np.bincount(sizes.reshape(r, k).max(axis=1), minlength=k + 1)
        done += t
    return counts / trials


def alpha_table(k_max: int, precision: str = RATIONAL) -> list[dict]:
    """Rows (k, alpha, predicted_fraction, mean_ratio) for k = 1..k_max."""
    _check_k(k_max, precision)
    if precision == FLOAT:
        P = _float_pmf(k_max)  # row k of the larger table equals a build at k
        rows = [P[k, : k + 1] for k in range(k_max + 1)]
        values = [(_float_alpha(rows[k]), _float_mean_ratio(rows[k])) for k in range(1, k_max + 1)]
    else:
        rows = _count_rows(k_max)
        # int / int true division is correctly rounded, as float(Fraction) is
        values = [(truediv(*_exact_alpha(rows[k])), truediv(*_exact_mean_ratio(rows[k])))
                  for k in range(1, k_max + 1)]
    return [
        {"k": k, "alpha": a, "predicted_fraction": 1.0 - math.exp(-1.0 / a), "mean_ratio": g}
        for k, (a, g) in enumerate(values, 1)
    ]
