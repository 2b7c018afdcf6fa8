"""Brute-force oracles and the per-k law path, shared by the tests."""

import contextlib
import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

import towerkit.distributions as distributions
from towerkit.blocks import BlockError
from towerkit.distributions import (INF, SkHistogram, _class_laws, _leaf,
                                    _transport, rho, transport_distances)

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
    pre = np.concatenate([[0], np.cumsum(w.units)])
    wraps, r = np.divmod(np.arange(k, k + h), h)
    return (pre[r] - pre[:h]) + wraps * np.int64(tot)


def gamma_oracle(table, k):
    """gamma(k) of a GammaTable by bisection over its anchors and Fraction
    interpolation within a segment ("linear") or the step ("constant")."""
    ks = [a for a, _ in table.anchors]
    gs = [F(g) for _, g in table.anchors]
    if k <= ks[0]:
        return gs[0]
    if k >= ks[-1]:
        return gs[-1]
    i = bisect_left(ks, k)
    if ks[i] == k:
        return gs[i]
    if table.mode == "constant":
        return gs[i - 1]
    return gs[i - 1] + (gs[i] - gs[i - 1]) * F(k - ks[i - 1],
                                                ks[i] - ks[i - 1])


def b_of(trace, k):
    """The normalizer b(k) = k * gamma(k) of a trace, by gamma_oracle."""
    return k * gamma_oracle(trace.global_gamma, k)


def window_geo_grid(trace, exhaustive_below=4096, pad=64, geo=256):
    """The certificate grid of a trace built by its own loop: every k up
    to ``exhaustive_below``; above it, a window of ``pad`` on each side of
    1 and of every stage height, and ``geo`` geometric steps from 1 to the
    height, each rounded."""
    h = trace.height
    if h <= exhaustive_below:
        return list(range(1, h + 1))
    ks = set()
    for b in [1] + [st.height for st in trace.stages]:
        ks.update(range(max(1, b - pad), min(h, b + pad) + 1))
    x = 1.0
    ratio = h ** (1.0 / geo)
    for _ in range(geo):
        x *= ratio
        ks.add(min(h, max(1, int(round(x)))))
    return sorted(ks)


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
    hist = record([1], [F(1, den)],
                  [[(np.array([int(v * den) for v in p.values]),
                     np.array(counts, dtype=np.int64 if mden <= INT64_MAX
                              else object))]])
    return transport_distances([hist], [1], [q], metric)[0]


# -- the per-k law path: the oracle of the chunked records -----------------
#
# One law per k, held per block as lists of arrays, with whole periods
# added by one numpy call per block, thresholds counted block by block and
# the transport fed per-block lists.  The chunked records of
# ``sk_histograms`` must give the same entries, counts and floats.


def add_periods(units, q, total):
    """units + q*total: S_k over q more whole periods of unit total
    ``total``.  Raises BlockError when q is negative (k < 0) or a sum would
    leave the int64 range."""
    if q < 0:
        raise BlockError("k must be nonnegative")
    if q == 0:
        return units
    shift = q * total
    if shift + int(units.max()) > INT64_MAX:
        raise BlockError(f"S_k over {q} more periods leaves the int64 range")
    return units + np.int64(shift)


def rescale_units(units, f):
    """units * f for a positive integer f, raising BlockError instead of
    letting a product leave the int64 range."""
    if int(units.max()) * f > INT64_MAX:
        raise BlockError(f"rescaling units by {f} leaves the int64 range")
    return units * np.int64(f)


def class_law_stream(w, cs):
    """(c, (units, counts)) for each class c of ``cs`` in order, measured
    by ``_class_laws`` in calls whose leaf gathers hold at most _CHUNK
    positions of the leaf's least period (one class may pass it alone)."""
    step = max(1, distributions._CHUNK // _leaf(w).period)
    for i in range(0, len(cs), step):
        chunk = cs[i:i + step]
        units, counts, ends = _class_laws(w, chunk)
        for c, a, b in zip(chunk, ends[:-1].tolist(), ends[1:].tolist()):
            yield c, (units[a:b], counts[a:b])


class OracleLaws:
    """Laws of S_k over one least period of each block, one k at a time:
    each class law measured once per pattern by ``class_law_stream``, and
    integer multiples g'*P of a measured g*P read off its law."""

    def __init__(self, blocks, ks):
        self.blocks = list(blocks)
        self.first = list(range(len(self.blocks)))
        self.factor = [None] * len(self.blocks)
        shapes = {}
        for i, w in enumerate(self.blocks):
            shapes.setdefault((len(w), w.period), []).append(i)
        gcds, multiples = {}, {}
        for (_, p), group in shapes.items():
            if len(group) < 2:
                continue
            reps = []
            for i in group:
                u = self.blocks[i].units[:p]
                a, s = int(u[0]), int(np.cumsum(u)[-1])
                for j, b, t in reps:
                    v = self.blocks[j].units[:p]
                    if a * t != b * s:
                        continue
                    if s == t:
                        if np.array_equal(u, v):
                            self.first[i] = j
                            break
                        continue
                    g, gj = int(np.gcd.reduce(u)), int(np.gcd.reduce(v))
                    if np.array_equal(u // g, v // gj):
                        self.first[i], self.factor[i] = j, g
                        gcds[j] = gj
                        multiples.setdefault(j, set()).add(g)
                        break
                else:
                    reps.append((i, a, s))
        self.distinct = []
        for j in sorted(set(self.first)):
            w = self.blocks[j]
            self.distinct.append((j, w, w.period,
                                  int(np.cumsum(w.units[:w.period])[-1]),
                                  gcds.get(j), sorted(multiples.get(j, ()))))
        self.pending = Counter((j, min(k % p, p - k % p))
                               for j, _, p, _, _, _ in self.distinct
                               for k in ks)
        self.streams = {j: class_law_stream(w, list(dict.fromkeys(
                            min(k % p, p - k % p) for k in ks)))
                        for j, w, p, _, _, _ in self.distinct}
        self.memo = {}

    def at(self, k):
        """Per block, the sorted distinct units of S_k over one least
        period with their int64 counts."""
        laws = {}
        for j, _, p, sigma, g, factors in self.distinct:
            q, r = divmod(k, p)
            c = min(r, p - r)
            while (j, c) not in self.memo:
                d, law = next(self.streams[j])
                self.memo[j, d] = law
            self.pending[j, c] -= 1
            u, n = self.memo[j, c]
            if self.pending[j, c] <= 0:
                del self.memo[j, c]
            if r > c:
                u, n = sigma - u[::-1], n[::-1]
            if factors:
                v = add_periods(u // g, q, sigma // g)
                for f in factors:
                    laws[j, f] = rescale_units(v, f), n
            laws[j, None] = add_periods(u, q, sigma), n
        return [laws[j, f] for j, f in zip(self.first, self.factor)]


class OracleHistogram:
    """The law of S_k at one k, per block: sorted distinct units and
    their int64 counts, over ``total`` positions."""

    def __init__(self, k, scales, units, counts):
        self.k, self.scales, self.units, self.counts = k, scales, units, counts
        self.total = sum(int(c.sum()) for c in self.counts)

    def count_below(self, thresh):
        """Exact number of positions with S_k < thresh, block by block."""
        t = F(thresh)
        n = 0
        for u, c, sc in zip(self.units, self.counts, self.scales):
            cut, rem = divmod(t.numerator * sc.denominator,
                              t.denominator * sc.numerator)
            i = np.searchsorted(u, cut, side="right" if rem else "left")
            n += int(c[:i].sum())
        return n


def oracle_histograms(blocks, ks):
    """The OracleHistogram of each k of ``ks``, in order, from one
    OracleLaws; the law over a block is h/p copies of one period's."""
    ks = list(ks)
    laws = OracleLaws(blocks, ks)
    scales = [w.scale for w in laws.blocks]
    for k in ks:
        pairs = laws.at(k)
        yield OracleHistogram(k, scales, [u for u, _ in pairs],
                              [c * (len(w) // w.period)
                               for w, (_, c) in zip(laws.blocks, pairs)])


def oracle_transport(laws, metric="vasershtein"):
    """Transport distance of each (OracleHistogram, norm, dist), one
    ``_transport`` call per histogram fed per-block lists."""
    out = []
    for hist, norm, dist in laws:
        factors = [float(sc) / (hist.k * float(norm)) for sc in hist.scales]
        vals = np.concatenate(hist.units).astype(float) * \
            np.repeat(factors, [u.size for u in hist.units])
        order = np.argsort(vals, kind="stable")
        counts = np.concatenate(hist.counts)
        out += _transport(np.arctan(vals[order]), counts[order],
                          [vals.size], [hist.total], [dist], metric)
    return out


@contextlib.contextmanager
def transport_calls():
    """A list that gets, for each ``_transport`` call made inside the
    block, the list of its targets, one per row."""
    calls = []

    def counted(av, counts, lengths, totals, dists, metric):
        calls.append(list(dists))
        return _transport(av, counts, lengths, totals, dists, metric)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_transport", counted)
        yield calls


def record(ks, scales, laws):
    """The chunk record of rows ``ks`` whose law of block b at row i is
    the (units, counts) pair laws[i][b]."""
    pairs = [pair for row in laws for pair in row]
    offsets = np.zeros(len(pairs) + 1, dtype=np.int64)
    np.cumsum([u.size for u, _ in pairs], out=offsets[1:])
    return SkHistogram(list(ks), list(scales),
                       np.concatenate([u for u, _ in pairs]),
                       np.concatenate([c for _, c in pairs]), offsets)


def segments(hist):
    """Per row of a chunk record, per block, its (units, counts) pair."""
    b = len(hist.scales)
    cuts = hist.offsets.tolist()
    return [[(hist.units[cuts[i * b + j]:cuts[i * b + j + 1]],
              hist.counts[cuts[i * b + j]:cuts[i * b + j + 1]])
             for j in range(b)] for i in range(len(hist.ks))]


def rows(records):
    """Each row of the chunk records ``records`` as a one-row record, in
    order, taken lazily: a record whose iterator raises after some rows
    gives those rows first."""
    for hist in records:
        for i in range(len(hist.ks)):
            yield hist.row(i)


def whole_row_statistics(occ, a_n, alphas, t_grid):
    """E[S_n], the alpha-moments and u_alpha(n, t) of the occupation counts
    ``occ``, from whole rows: the float copy of the counts, raised in place
    by ``**= alpha`` and averaged by ``np.mean``, and the row
    Phi_n = (S_n/a(n))**alpha summed as ``phi[phi > t].sum()``.  The
    sweep's run tables must give these floats bit for bit."""
    occ_f = occ.astype(float)
    moment, u = {}, {}
    for alpha in alphas:
        phi = occ_f.copy()
        phi **= alpha
        moment[alpha] = float(np.mean(phi)) ** (1.0 / alpha)
        phi = occ_f / float(a_n)
        phi **= alpha
        for t in t_grid:
            u[alpha, t] = float(phi[phi > t].sum()) / occ.size
    return float(occ_f.mean()), moment, u
