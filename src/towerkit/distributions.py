"""Finite distributions on (0, infinity] and metrics between them.

Distances between distributions are taken after the compactifying change of
variable x -> arctan(x), so that the point at infinity is an honest atom at
pi/2.  Masses are exact rationals or exact integer counts; only the arctan
of each distinct value is a float.

The laws of S_k on a grid of k are measured chunk by chunk: ``sk_histograms``
yields SkHistogram records of consecutive rows (one per k) in flat int64
arrays, built from each distinct block's class laws by one gather per chunk;
``SkHistogram.count_below`` decides every cdf threshold of a chunk at once
and ``transport_distances`` compares its rows with their targets by one
row-wise transport.  A record holds at most _CHUNK law entries, unless one
row alone passes it.

``open_output`` is the one way the package opens a file it writes, and
``write_json`` the one JSON writer on top of it.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Iterator, List, Sequence, TextIO, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .blocks import _INT64_MAX, _INT64_SAFE, BlockError

Value = Union[Fraction, float]  # a positive rational, a float, or math.inf

INF = math.inf

# Entries of one call of a grid kernel: leaf positions that one
# ``_class_laws`` call gathers, child entries times pieces that one level
# of ``_range_laws`` merges at a time, or law entries that one
# ``_transport`` call compares (one row alone may pass it).
_CHUNK = 1 << 16

# Least period above which a bump-tiled block's class laws are read off its
# child's rather than gathered (``_leaf``); chosen by measurement (README).
_LEAF = 128


class DistError(ValueError):
    """Invalid distribution or invalid metric query."""


def angle(v: Value) -> float:
    """arctan(v) for v in [0, infinity], with arctan(infinity) = pi/2."""
    f = float(v)
    # a negative v may round to -0.0
    if f < 0 or (f == 0 and v < 0):
        raise DistError(f"rho is defined on nonnegative values, got {v}")
    return math.pi / 2 if f == INF else math.atan(f)


def rho(x: Value, y: Value) -> float:
    """Compactified distance |arctan(x) - arctan(y)| on [0, infinity]."""
    return abs(angle(x) - angle(y))


def _format_value(v: Value) -> str:
    if v == INF:
        return "inf"
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}" if v.denominator != 1 \
            else str(v.numerator)
    return repr(float(v))


class FiniteDist:
    """Finitely supported probability distribution on (0, infinity].

    Atoms are kept sorted with strictly increasing values and exact positive
    rational masses summing to 1.  The value ``math.inf`` is a legal atom.
    """

    __slots__ = ("values", "masses")

    def __init__(self, atoms: Sequence[Tuple[Value, Fraction]]):
        if not atoms:
            raise DistError("distribution needs at least one atom")
        merged: Dict[Value, Fraction] = {}
        for v, m in atoms:
            if not isinstance(v, float):
                v = Fraction(v)
            m = Fraction(m)
            if v != INF and v <= 0:
                raise DistError(f"atom value must be positive, got {v}")
            if m <= 0:
                raise DistError(f"atom mass must be positive, got {m}")
            merged[v] = merged.get(v, Fraction(0)) + m
        vals = sorted(merged, key=lambda v: (v == INF, v))
        self.values: List[Value] = vals
        self.masses: List[Fraction] = [merged[v] for v in vals]
        if sum(self.masses) != 1:
            raise DistError(f"masses must sum to 1, got {sum(self.masses)}")

    @classmethod
    def point(cls, value: Value) -> "FiniteDist":
        return cls([(value, Fraction(1))])

    @classmethod
    def uniform(cls, values: Sequence[Value]) -> "FiniteDist":
        n = len(values)
        return cls([(v, Fraction(1, n)) for v in values])

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteDist):
            return NotImplemented
        return self.values == other.values and self.masses == other.masses

    def __repr__(self) -> str:
        pairs = ", ".join(f"{_format_value(v)}:{m}" for v, m in
                          zip(self.values, self.masses))
        return f"FiniteDist({pairs})"

    def cdf(self, t: Value) -> Fraction:
        """P(X <= t), exact."""
        acc = Fraction(0)
        for v, m in zip(self.values, self.masses):
            if v == INF:
                if t == INF:
                    acc += m
                continue
            if t != INF and v > t:
                break
            acc += m
        return acc

    def cdf_below(self, t: Value) -> Fraction:
        """P(X < t), exact."""
        acc = Fraction(0)
        for v, m in zip(self.values, self.masses):
            if v == INF or (t != INF and v >= t):
                break
            acc += m
        return acc

    def quantile(self, u: Fraction) -> Value:
        """Left-continuous quantile: inf of t with P(X <= t) >= u."""
        u = Fraction(u)
        if not 0 < u <= 1:
            raise DistError(f"quantile level must be in (0, 1], got {u}")
        acc = Fraction(0)
        for v, m in zip(self.values, self.masses):
            acc += m
            if acc >= u:
                return v
        return self.values[-1]

    def min_value(self) -> Value:
        return self.values[0]

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"atoms": [{"value": _format_value(v),
                           "mass": f"{m.numerator}/{m.denominator}"}
                          for v, m in zip(self.values, self.masses)]}


def _integer_masses(masses: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Masses as integer counts over their least common denominator."""
    den = math.lcm(*(m.denominator for m in masses))
    return [m.numerator * (den // m.denominator) for m in masses], den


def _transport(av, counts, lengths: Sequence[int], totals: Sequence[int],
               dists: Sequence[FiniteDist], metric: str) -> List[float]:
    """Arctan transport distance between each histogram row and its target.

    Row i is ``lengths[i]`` consecutive entries of ``av`` (ascending arctan
    values) and ``counts`` (integer counts that sum to totals[i] = n),
    compared with dists[i].  Both quantile functions are step functions of
    the level u in (0, 1]; their breakpoints are merged exactly as integers
    over n*L, with L the least common denominator of the masses of the
    target.  Each row's breakpoints are shifted by the sum of n*L over the
    rows before it, so the rows fill disjoint ranges and one merge and
    one searchsorted pair serve them all; they are promoted to Python
    ints when that sum leaves the int64 range.  Returns per row the
    integral ("vasershtein", L1; one dot product per row, so each float is
    the one a row alone gives) or the sup ("uniform", L-infinity) of the
    quantile gap; the comonotone coupling is optimal on the line.
    """
    if metric not in ("vasershtein", "uniform"):
        raise DistError(f"unknown transport metric {metric!r}")
    # per target: cumulated integer masses, their denominator, atom values
    targets = {}
    for d in dists:
        if id(d) not in targets:
            t_counts, den = _integer_masses(d.masses)
            targets[id(d)] = (list(accumulate(t_counts)), den,
                              [float(v) for v in d.values])
    dens = [targets[id(d)][1] for d in dists]
    sizes = [n * den for n, den in zip(totals, dens)]
    offs = list(accumulate(sizes, initial=0))
    dtype = np.int64 if offs[-1] < _INT64_SAFE else object

    def per_entry(xs, reps=lengths):
        return np.repeat(np.array(xs, dtype=dtype), reps)

    own = (np.cumsum(np.asarray(counts, dtype=dtype)) -
           per_entry(list(accumulate(totals, initial=0))[:-1])) * \
        per_entry(dens) + per_entry(offs[:-1])
    # n*mass + offset per row and atom, from each target's cumulated
    # masses held once as an array; none passes the row's end offset
    cum = {key: np.array(t[0], dtype=dtype) for key, t in targets.items()}
    atoms = [len(d) for d in dists]
    other = np.concatenate([cum[id(d)] for d in dists]) * \
        per_entry(totals, atoms) + per_entry(offs[:-1], atoms)
    tv = np.arctan([x for d in dists for x in targets[id(d)][2]])
    # own and other each increase, so one stable sort merges the two runs
    cuts = np.concatenate([own, other])
    cuts.sort(kind="stable")
    new = np.ones(cuts.size, dtype=bool)
    new[1:] = cuts[1:] != cuts[:-1]
    cuts = cuts[new]
    gap = np.abs(av[np.searchsorted(own, cuts)] -
                 tv[np.searchsorted(other, cuts)])
    first = np.searchsorted(cuts, np.array(offs[:-1], dtype=dtype),
                            side="right")
    if metric == "uniform":
        return np.maximum.reduceat(gap, first).tolist()
    widths = np.diff(cuts, prepend=0).astype(float)
    ends = [*first[1:].tolist(), cuts.size]
    return [float(np.dot(widths[i:j], gap[i:j])) / size
            for i, j, size in zip(first.tolist(), ends, sizes)]


def transport_distances(laws, metric: str = "vasershtein") -> List[float]:
    """Transport distance between the law of S_k/(k*norm) and ``dist`` for
    each row of ``laws``, in order.  Each item is (hist, norms, dists): an
    SkHistogram with one norm and one target per row.  ``metric`` is
    "vasershtein" (L1) or "uniform" (L-infinity).

    Records are compared together by one ``_transport`` call while they
    hold at most _CHUNK law entries (one record may pass it alone), so a
    grid holds one chunk at a time.
    """
    out: List[float] = []
    chunk, size = [], 0
    for law in laws:
        n = law[0].units.size
        if chunk and size + n > _CHUNK:
            out += _hist_transport(chunk, metric)
            chunk, size = [], 0
        chunk.append(law)
        size += n
    if chunk:
        out += _hist_transport(chunk, metric)
    return out


def _hist_transport(laws, metric: str) -> List[float]:
    """``_transport`` of the rows of (hist, norms, dists) records: each
    row's values S_k/(k*norm) as floats, units*(float(scale)/(k*float(norm)))
    per block, sorted stably within the row, so that equal values keep
    block order."""
    factors, sizes, lengths = [], [], []
    for hist, norms, _ in laws:
        per_k = np.array(hist.ks, dtype=float) * \
            np.array([float(x) for x in norms])
        factors.append(np.array([float(sc) for sc in hist.scales]) /
                       per_k[:, None])
        sizes.append(np.diff(hist.offsets))
        lengths.append(np.diff(hist.offsets[::len(hist.scales)]))
    lengths = np.concatenate(lengths)
    vals = np.concatenate([hist.units for hist, _, _ in laws]).astype(float) \
        * np.repeat(np.concatenate([f.ravel() for f in factors]),
                    np.concatenate(sizes))
    order = np.lexsort((vals, np.repeat(np.arange(lengths.size), lengths)))
    counts = np.concatenate([hist.counts for hist, _, _ in laws])
    return _transport(np.arctan(vals[order]), counts[order], lengths,
                      [n for hist, _, _ in laws for n in hist.totals],
                      [d for _, _, dists in laws for d in dists], metric)


def _class_laws(w, cs) -> tuple:
    """(units, counts, ends): for the i-th class c of ``cs`` (0 <= c < p),
    the sorted distinct units of S_c over one least period p of ``w`` are
    units[ends[i]:ends[i + 1]], with their int64 counts at the same
    entries of ``counts``: ``_range_laws`` over the one interval [0, p)."""
    cs = np.asarray(cs, dtype=np.int64)
    seg, units, counts = _range_laws(w, cs, np.zeros((cs.size, 1),
                                                     dtype=np.int64))
    ends = np.zeros(cs.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(seg, minlength=cs.size), out=ends[1:])
    return units, counts, ends


def _leaf(w):
    """The block whose least period ``_range_laws`` gathers for ``w``: w
    itself when its least period is at most _LEAF or no bump tiling built
    it at that period, else the leaf of the child of that tiling."""
    while w.period > _LEAF and w.bump is not None and \
            w.bump.spacing == w.period:
        w = w.bump.child
    return w


def _range_laws(w, cs, starts) -> tuple:
    """(seg, units, counts): the law of S_c over each of some intervals of
    one least period p of ``w``, per row.

    Row i has class c = cs[i] (0 <= c < p) and J intervals, which start at
    starts[i] (nondecreasing, the first 0) and end at the next start, the
    last at p; an interval may be empty.  Entry e gives the value units[e]
    of S_c taken at counts[e] positions of interval j of row i, where
    seg[e] = i*J + j; the entries are sorted by segment, then value, with
    each (segment, value) once.

    A leaf (``_leaf``) is gathered over one period.  Any other w is the
    tiling (child, f, B, s = p) of its ``Bump``: a position t in [0, s)
    reads f*S_c(child) at t mod P, P the child's least period, plus the
    bump B exactly when t >= s - c.  So s - c starts one more piece per
    row, and the child's laws are taken, by this function, for the class
    c mod P (each of the c // P whole child periods adds the child's
    total) over the intervals that start at the pieces' starts mod P.  A
    position tau of the child interval that starts at lo occurs
    M(z1) - M(z0) times among the t of a piece [z0, z1), with M(z) =
    z // P + [lo < z mod P]; so each child law enters each piece with
    that multiplicity, its values mapped v -> f*v + B*flag, and equal
    values merge per row and interval.  No value passes the unit total
    over a period, which fits int64.
    """
    rows, n = starts.shape
    if _leaf(w) is w:
        return _gathered_laws(w, cs, starts)
    child, f, b, s = w.bump
    P = child.period
    # the pieces: they start at each start and at s - c, and those from
    # s - c on are bumped; per piece, its interval and the offset added
    # to f*v (c // P child periods, then the bump)
    x = s - cs
    ref = np.sort(np.concatenate([starts, x[:, None]], axis=1), axis=1)
    late = ref >= x[:, None]
    seg = np.arange(0, rows * n, n)[:, None] + np.arange(n + 1) - late
    off = (cs // P * (child.total_units() * P // len(child)) *
           np.int64(f))[:, None] + late * np.int64(b)
    sub = np.sort(ref % P, axis=1)
    cseg, units, counts = _range_laws(child, cs % P, sub)
    # per row, child interval and piece: M(z) at the piece's start, then
    # its difference to M at the next start
    q, r = np.divmod(ref, P)
    mult = q[:, None, :] + (sub[:, :, None] < r[:, None, :])
    mult[:, :, :-1] = mult[:, :, 1:] - mult[:, :, :-1]
    mult[:, :, -1] = s // P - mult[:, :, -1]
    mult = mult.reshape(-1, n + 1)
    # segment, value (at most a period's total) and count (at most p) side
    # by side in the bits of one int64 key, when they fit
    vb, cb = (w.total_units() * s // len(w)).bit_length(), s.bit_length()
    packed = (rows * n - 1).bit_length() + vb + cb < 64
    if packed:
        high = ((seg << vb) + off) << cb
    # batches of rows whose child entries, times the pieces, number at
    # most _CHUNK (one row may pass it alone)
    rown = cseg // (n + 1)
    parts, e0 = [], 0
    while e0 < rown.size:
        e1 = e0 + max(1, _CHUNK // (n + 1))
        if e1 < rown.size:
            e1 = int(np.searchsorted(rown, rown[e1]))
            if e1 <= e0:
                e1 = int(np.searchsorted(rown, rown[e0], "right"))
        e, row = slice(e0, e1), rown[e0:e1]
        many = counts[e, None] * mult[cseg[e]]
        hit = many > 0
        if packed:
            key = (high[row] + (units[e, None] * np.int64(f) << cb) +
                   many)[hit]
            key.sort()
            parts.append(_runs(key, vb, cb))
        else:
            parts.append(_merged(
                seg[row][hit], (units[e, None] * np.int64(f) + off[row])[hit],
                many[hit]))
        e0 = e1
    return parts[0] if len(parts) == 1 else \
        tuple(np.concatenate(a) for a in zip(*parts))


def _gathered_laws(w, cs, starts) -> tuple:
    """``_range_laws`` of a leaf: S_c at every position tau of one least
    period, gathered as one 2-D array from windows of the doubled prefix
    in uint64, where a period's total and twice any S_c fit.  Each row is
    sorted once on the key j*2^v + S_c, j the interval of tau and 2^v
    above a period's total, so that its runs give the interval and the
    value together; where that key could pass uint64, the entries are
    merged by ``_merged``."""
    pre = w.period_prefix().astype(np.uint64)
    p, (rows, n) = pre.size - 1, starts.shape
    tau = np.arange(p)
    ext = np.concatenate([pre[:-1], pre + pre[-1]])
    # row c of the windows is ext[c:c + p], read in place
    key = as_strided(ext, (p, p), ext.strides * 2)[cs]
    key -= pre[:-1]
    vb = int(pre[-1]).bit_length()
    if (n - 1).bit_length() + vb > 64:
        return _merged(
            (np.arange(0, rows * n, n)[:, None] +
             (tau >= starts[:, 1:, None]).sum(axis=1)).ravel(),
            key.astype(np.int64).ravel(), np.ones(key.size, np.int64))
    for j in range(1, n):
        np.add(key, np.uint64(1 << vb), out=key,
               where=tau >= starts[:, j, None])
    key.sort(axis=1)
    key = key.ravel()
    # the bounds of the runs of equal keys, each within one row of p
    # entries
    new = np.empty(key.size + 1, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=new[1:-1])
    new[::p] = True
    at = np.flatnonzero(new)
    key = key[at[:-1]]
    return at[:-1] // p * n + (key >> np.uint64(vb)).astype(np.int64), \
        (key & np.uint64((1 << vb) - 1)).astype(np.int64), at[1:] - at[:-1]


def _merged(seg, vals, counts) -> tuple:
    """(seg, vals, counts) sorted by segment, then value, by one lexsort,
    with equal pairs merged and their counts added: the merge of entries
    whose packed key would not fit 64 bits."""
    order = np.lexsort((vals, seg))
    seg, vals, counts = seg[order], vals[order], counts[order]
    new = np.ones(seg.size, dtype=bool)
    new[1:] = (seg[1:] != seg[:-1]) | (vals[1:] != vals[:-1])
    at = np.flatnonzero(new)
    return seg[at], vals[at], np.add.reduceat(counts, at)


def _runs(key, vb: int, cb: int) -> tuple:
    """(seg, vals, counts) from sorted int64 keys that hold a segment, a
    value of ``vb`` bits and a count of ``cb`` bits side by side, with the
    counts of equal (segment, value) pairs added."""
    pair = key >> cb
    new = np.empty(key.size, dtype=bool)
    new[0] = True
    np.not_equal(pair[1:], pair[:-1], out=new[1:])
    at = np.flatnonzero(new)
    counts = np.add.reduceat(key & ((1 << cb) - 1), at)
    pair = pair[at]
    return pair >> vb, pair & ((1 << vb) - 1), counts


class PeriodLaws:
    """Laws of S_k over one least period of each block for the k of one
    grid, each measured once per class and shared by blocks of equal
    units, at any scale.

    For a block of least period p and unit total Sigma over a period (its
    total over its number of periods), the law at k = q*p + r follows
    exactly from the law at its class c = min(r, p - r):

    - whole periods: S_{qp+r} = q*Sigma + S_r;
    - reflection: S_r(nu) + S_{p-r}(nu + r) = Sigma, so over one period the
      values of S_r are Sigma minus those of S_{p-r}, in reverse order, with
      the counts reversed.

    Every distinct class of every measured block is measured once, when
    the grid is set up, in increasing class order by ``_class_laws`` calls
    whose leaf gathers hold at most _CHUNK positions (one class may pass
    it alone): a bump-tiled block is read down its Bump chain, and only
    one least period of the chain's leaf (``_leaf``) is gathered.  The law
    is in units, so the scale plays no part.  All class laws sit in one
    pool, and ``records`` applies whole periods and reflections to a chunk
    of rows at once.
    """

    def __init__(self, blocks, ks: Sequence[int]):
        self.blocks = list(blocks)
        # per block, the index of the first block with equal units, which
        # is measured for both.  Only blocks of one key (height, least
        # period, first unit, unit total; each cached or O(1)) compare
        # their first periods, so a block without a partner compares none
        first = list(range(len(self.blocks)))
        keys: Dict[Tuple[int, int, int, int], List[int]] = {}
        for i, w in enumerate(self.blocks):
            p = w.period
            group = keys.setdefault(
                (len(w), p, int(w.units[0]), w.total_units()), [])
            for j in group:
                if np.array_equal(w.units[:p], self.blocks[j].units[:p]):
                    first[i] = j
                    break
            else:
                group.append(i)
        index = sorted(set(first))
        measured = [self.blocks[j] for j in index]
        p = np.array([w.period for w in measured], dtype=np.int64)
        self.sigma = np.array([w.total_units() * w.period // len(w)
                               for w in measured], dtype=np.int64)
        # per block: the column of its measured block and its number of
        # periods
        self.col = np.array([index.index(j) for j in first], dtype=np.int64)
        self.readers = np.bincount(self.col, minlength=p.size)
        self.periods = np.array([len(w) // w.period for w in self.blocks],
                                dtype=np.int64)
        # per row and measured block: whole periods q, reflection, and
        # where its class law starts in the pool and its number of entries
        self.ks = list(ks)
        k = np.array(self.ks, dtype=np.int64).reshape(-1, 1)
        self.q, r = np.divmod(k, p)
        c = np.minimum(r, p - r)
        self.flip = r > c
        self.at = np.empty(c.shape, dtype=np.int64)
        self.lens = np.empty(c.shape, dtype=np.int64)
        # every class law in one pool, units in row 0 and counts in row 1,
        # grown by doubling: joining the parts of every call at the end
        # would hold the parts and the pool at once
        pool, size = np.empty((2, 0), dtype=np.int64), 0
        for d, w in enumerate(measured):
            cs, inv = np.unique(c[:, d], return_inverse=True)
            step = max(1, _CHUNK // _leaf(w).period)
            # where each class law starts in the pool, then its end
            edges = [np.array([size])]
            for i in range(0, cs.size, step):
                units, counts, ends = _class_laws(w, cs[i:i + step])
                edges.append(ends[1:] + size)
                end = size + units.size
                if end > pool.shape[1]:
                    grown = np.empty((2, 2 * end), dtype=np.int64)
                    grown[:, :size] = pool[:, :size]
                    pool = grown
                pool[:, size:end] = units, counts
                size = end
            edges = np.concatenate(edges)
            self.at[:, d] = edges[:-1][inv]
            self.lens[:, d] = np.diff(edges)[inv]
        self.units, self.counts = pool[0, :size], pool[1, :size]

    def records(self) -> Iterator["SkHistogram"]:
        """The SkHistogram records of the grid, in order, each of
        consecutive rows that hold at most _CHUNK law entries together
        (one row may pass it alone)."""
        tops = np.cumsum(self.lens @ self.readers)
        start = 0
        while start < len(self.ks):
            below = tops[start - 1] if start else 0
            end = int(np.searchsorted(tops, below + _CHUNK, "right"))
            end = max(start + 1, end)
            yield from self._record(start, end)
            start = end

    def _record(self, start: int, end: int) -> Iterator["SkHistogram"]:
        """The SkHistogram of rows start..end-1: whole periods and
        reflections applied by one gather over the rows.

        The largest S_k of every row and block is checked against int64
        first.  When some row leaves it, the record of the rows before the
        first such row is yielded, then BlockError names its k.
        """
        lens = self.lens[start:end].ravel()
        src = self.at[start:end].ravel()
        q = self.q[start:end].ravel()
        flip = self.flip[start:end].ravel()
        sigma = np.tile(self.sigma, end - start)
        # the largest S_k of each row and measured block: its top unit over
        # a period plus q whole periods, tested without leaving int64
        top = np.where(flip, sigma - self.units[src],
                       self.units[src + lens - 1])
        past = q > (_INT64_MAX - top) // sigma
        cols = self.sigma.size
        bad = np.flatnonzero(past.reshape(-1, cols).any(axis=1))
        n = int(bad[0]) if bad.size else end - start
        if n:
            # per (row, block) segment: its source segment, length, and
            # the start of its entries in the pool, read backwards when
            # the law is reflected
            seg = (np.arange(n)[:, None] * cols + self.col).ravel()
            size = lens[seg]
            offsets = np.zeros(seg.size + 1, dtype=np.int64)
            np.cumsum(size, out=offsets[1:])
            sign = np.where(flip[seg], -1, 1)
            first = np.where(flip[seg], src[seg] + size - 1, src[seg])
            pos = np.arange(offsets[-1]) - np.repeat(offsets[:-1], size)
            idx = np.repeat(first, size) + np.repeat(sign, size) * pos
            # u or Sigma - u, then q whole periods: no partial sum passes
            # the largest S_k, which fits int64
            vals = np.repeat(sign, size) * self.units[idx] + \
                np.repeat(flip[seg] * sigma[seg], size) + \
                np.repeat(q[seg] * sigma[seg], size)
            counts = self.counts[idx] * \
                np.repeat(np.tile(self.periods, n), size)
            yield SkHistogram(self.ks[start:start + n],
                              [w.scale for w in self.blocks], vals, counts,
                              offsets)
        if n < end - start:
            raise BlockError(f"S_{self.ks[start + n]} leaves the int64 range")


def sk_histograms(blocks, ks: Sequence[int]) -> Iterator["SkHistogram"]:
    """The law of S_k over every position of ``blocks`` at each k of
    ``ks``, in order, as SkHistogram records of consecutive rows that
    hold at most _CHUNK law entries each (one row may pass it alone).

    One PeriodLaws serves the whole grid, so the units of equal blocks are
    measured once per class of k, and the measurements go with the
    iterator.  S_k
    repeats with a block's least period p, so its law over the block is
    h/p copies of its law over one period.  Raises BlockError for a
    negative k, and at the first k whose S_k leaves int64, after the rows
    before it.
    """
    ks = list(ks)
    if any(k < 0 for k in ks):
        raise BlockError("k must be nonnegative")
    return PeriodLaws(blocks, ks).records()


class SkHistogram:
    """Exact laws of integer sums over a finite set of positions, one row
    per k of a chunk: the laws of the cyclic partial sums S_k of a list of
    blocks (``sk_histograms``), or the law of the occupation counts of a
    skyscraper base (one row, one block, scale 1 and k = 1).

    Row i and block b hold the sorted distinct values of S_k/scale of the
    block as units[offsets[i*B + b]:offsets[i*B + b + 1]], with their
    int64 counts at the same entries of ``counts``, B = len(scales).  So
    every mass is an exact integer count over ``totals[i]``, the number of
    positions of the row.  Floats enter only through the arctan of each
    distinct value when a transport distance is taken.
    """

    __slots__ = ("ks", "scales", "units", "counts", "offsets", "totals")

    def __init__(self, ks: List[int], scales: list, units: np.ndarray,
                 counts: np.ndarray, offsets: np.ndarray):
        self.ks, self.scales = ks, scales
        self.units, self.counts, self.offsets = units, counts, offsets
        self.totals = np.add.reduceat(
            counts, offsets[:-1:len(scales)]).tolist()

    def row(self, i: int) -> "SkHistogram":
        """The one-row record of row i."""
        b = len(self.scales)
        lo, hi = self.offsets[i * b], self.offsets[(i + 1) * b]
        return SkHistogram([self.ks[i]], self.scales, self.units[lo:hi],
                           self.counts[lo:hi],
                           self.offsets[i * b:(i + 1) * b + 1] - lo)

    def merged(self) -> List[Tuple[Fraction, int]]:
        """(value, count) for each distinct exact value over all blocks of
        a one-row record, increasing.  Units are brought to the least
        common denominator of the scales as Python ints, so equal values
        of blocks at different scales merge and none is rounded or
        wraps."""
        den = math.lcm(*(sc.denominator for sc in self.scales))
        nums = self.units.astype(object) * np.repeat(
            np.array([int(sc * den) for sc in self.scales], dtype=object),
            np.diff(self.offsets))
        vals, inv = np.unique(nums, return_inverse=True)
        counts = np.zeros(len(vals), dtype=np.int64)
        np.add.at(counts, inv, self.counts)
        return [(Fraction(v, den), c)
                for v, c in zip(vals.tolist(), counts.tolist())]

    def to_csv(self, path: str) -> None:
        """Write the merged law of a one-row record as rows
        value,count,mass, with the mass as count/total."""
        with open_output(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["value", "count", "mass"])
            for v, c in self.merged():
                writer.writerow([str(v), c, f"{c}/{self.totals[0]}"])

    def count_below(self, xs: Sequence, num: Sequence[int],
                    den: Sequence[int]) -> np.ndarray:
        """Exact number of positions of row i with S_k < x*num[i]/den[i],
        for each row i and each x of ``xs``: an int64 array of one row per
        row of the record and one column per x.  The integer rows
        (num, den) are what ``GammaTable.rows`` gives for b(k).

        S < t  <=>  units < t/scale, decided exactly: below an integer
        bound, or up to the floor of a fractional one.  One integer floor
        division over all (row, x, block) at once gives the largest unit
        counted (t/scale - 1 or the floor), in int64 while the products
        fit and in Python ints past that; then one comparison and one
        ``np.add.reduceat`` run over the flat entries.
        """
        b, xn = len(self.scales), len(xs)
        if not xn:
            return np.zeros((len(self.ks), 0), dtype=np.int64)
        xs = [Fraction(x) for x in xs]
        tn = [x.numerator * sc.denominator for x in xs for sc in self.scales]
        td = [x.denominator * sc.numerator for x in xs for sc in self.scales]
        num, den = np.asarray(num), np.asarray(den)
        fits = max(int(abs(num).max()) * max(map(abs, tn)),
                   int(den.max()) * max(td)) <= _INT64_MAX
        dtype = np.int64 if fits else object
        top = num.astype(dtype)[:, None] * np.array(tn, dtype=dtype)
        bottom = den.astype(dtype)[:, None] * np.array(td, dtype=dtype)
        cut = top // bottom
        cut -= cut * bottom == top
        cut = np.clip(cut, -1, _INT64_MAX).astype(np.int64)
        cut = cut.reshape(-1, xn, b).transpose(1, 0, 2).reshape(xn, -1)
        below = self.units <= np.repeat(cut, np.diff(self.offsets), axis=1)
        n = np.add.reduceat(np.where(below, self.counts, 0),
                            self.offsets[:-1:b], axis=1)
        return n.T


@dataclass(frozen=True)
class SymRep:
    """Finite symbol space with a value for each symbol.

    Models a random variable as a function on a finite uniform probability
    space; symbols are hashable labels.
    """

    symbols: tuple
    values: dict  # symbol -> Value

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise DistError("symbol space must be nonempty")
        if set(self.symbols) != set(self.values):
            raise DistError("values must be given for exactly the symbols")

    @property
    def size(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class Splitting:
    """Uniform-fiber factor map between two symbol spaces.

    ``pi`` sends each symbol of ``fine`` to a symbol of ``coarse``; every
    fiber must have the same cardinality, so that pushing the uniform
    measure forward gives the uniform measure again.
    """

    fine: SymRep
    coarse: SymRep
    pi: dict  # fine symbol -> coarse symbol

    def __post_init__(self):
        if set(self.pi) != set(self.fine.symbols):
            raise DistError("pi must be defined on exactly the fine symbols")
        counts: Dict[object, int] = {s: 0 for s in self.coarse.symbols}
        for s, t in self.pi.items():
            if t not in counts:
                raise DistError(f"pi maps {s!r} outside the coarse symbols")
            counts[t] += 1
        sizes = set(counts.values())
        if len(sizes) != 1 or 0 in sizes:
            raise DistError(f"fibers of pi must have equal size, got {counts}")

    def cost(self) -> float:
        """Average rho-gap between the fine value and the lifted coarse value.

        An epsilon bound on this quantity makes the two distributions
        epsilon-close in the L1 transport metric.
        """
        n = self.fine.size
        return math.fsum(rho(self.fine.values[s],
                             self.coarse.values[self.pi[s]])
                         for s in self.fine.symbols) / n


def open_output(path: str) -> TextIO:
    """Open ``path`` to write text into a new file.

    A file already at ``path`` is unlinked first, never truncated, so the
    write cannot reach an earlier file through a hard or symbolic link.
    Nor does it wait on that file's pending writeback: truncating a file
    whose last version is still being written back stalls on ext4.
    Line ends are written as given (CRLF from csv, LF from json).
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "w", newline="")


def write_json(path: str, obj: dict) -> None:
    """Write ``obj`` to ``path`` as JSON, one-space indents, sorted keys
    and a final newline."""
    with open_output(path) as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")
