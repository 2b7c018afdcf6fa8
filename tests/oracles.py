"""Brute-force oracles shared by the tests."""

import math
from fractions import Fraction as F

import numpy as np

from towerkit.distributions import (INF, SkHistogram, rho,
                                    transport_distances)

INT64_MAX = 2 ** 63 - 1


def cyclic_partial_sums_units(w, k):
    """S_k(w)(nu)/scale over nu = 1..h, as int64: the sum of the k units
    from position nu on, indices taken cyclically, read off the prefix
    sums position by position.  Raises OverflowError unless every sum
    surely fits int64."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    h, tot = len(w), w.total_units()
    if (k // h + 1) * tot > INT64_MAX:
        raise OverflowError(f"S_{k} may leave the int64 range")
    # the window from 0-based nu ends before nu + k = wraps*h + r
    wraps, r = np.divmod(np.arange(k, k + h), h)
    return (w.prefix[r] - w.prefix[:h]) + wraps * np.int64(tot)


def merged_segments(p, q):
    """Common refinement of the quantile step functions of p and q.

    Yields (length, vp, vq): a maximal interval of levels u in (0, 1] of the
    given rational length on which both quantiles are constant.
    """
    ip = iq = 0
    ap, aq = p.masses[0], q.masses[0]
    u = F(0)
    while True:
        step = min(ap, aq)
        yield step, p.values[ip], q.values[iq]
        u += step
        if u == 1:
            return
        ap -= step
        aq -= step
        if ap == 0:
            ip += 1
            ap = p.masses[ip]
        if aq == 0:
            iq += 1
            aq = q.masses[iq]


def merge_vasershtein(p, q):
    """Exact-merge oracle for the L1 arctan transport distance."""
    return math.fsum(float(step) * rho(vp, vq)
                     for step, vp, vq in merged_segments(p, q))


def merge_uniform(p, q):
    """Exact-merge oracle for the L-infinity arctan transport distance."""
    return max(rho(vp, vq) for _, vp, vq in merged_segments(p, q))


def law_distance(p, q, metric="vasershtein"):
    """Transport distance between the laws p and q, taken by
    ``transport_distances`` with p as a one-row histogram at k = 1: its
    values as integer units over their least common denominator, its
    masses as integer counts.  When only p has an atom at infinity, which a
    histogram cannot hold, q is the histogram instead; the distance is
    symmetric."""
    if INF in p.values:
        p, q = q, p
    den = math.lcm(*(v.denominator for v in p.values))
    mden = math.lcm(*(m.denominator for m in p.masses))
    # counts past int64 stay Python ints, as the kernel takes them
    counts = [int(m * mden) for m in p.masses]
    hist = SkHistogram(1, [F(1, den)],
                       [np.array([int(v * den) for v in p.values])],
                       [np.array(counts, dtype=np.int64 if mden <= INT64_MAX
                                 else object)])
    return transport_distances([(hist, 1, q)], metric)[0]
