"""Reference implementations that code in ``src/`` has replaced, kept for
the tests to compare against."""

import numpy as np


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
