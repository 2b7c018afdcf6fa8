"""Finite distributions on (0, infinity] and metrics between them.

Distances between distributions are taken after the compactifying change of
variable x -> arctan(x), so that the point at infinity is an honest atom at
pi/2.  Masses are exact rationals or exact integer counts; only the arctan
of each distinct value is a float.

``open_output`` is the one way the package opens a file it writes, and
``write_json`` the one JSON writer on top of it.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import (Dict, Iterator, List, Optional, Sequence, TextIO,
                    Tuple, Union)

import numpy as np

from .blocks import _INT64_SAFE, Bump, _add_periods, rescale_units

Value = Union[Fraction, float]  # a positive rational, a float, or math.inf

INF = math.inf

# Entries of one call of a grid kernel: child positions that one
# ``_class_laws`` call gathers, or law entries that one ``_transport`` call
# compares (one row alone may pass it).
_CHUNK = 1 << 16


class DistError(ValueError):
    """Invalid distribution or invalid metric query."""


def rho(x: Value, y: Value) -> float:
    """Compactified distance |arctan(x) - arctan(y)| on [0, infinity]."""
    for v in (x, y):
        if v != INF and v < 0:
            raise DistError(f"rho is defined on nonnegative values, got {v}")
    ax = math.pi / 2 if x == INF else math.atan(float(x))
    ay = math.pi / 2 if y == INF else math.atan(float(y))
    return abs(ax - ay)


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

    def atoms(self) -> List[Tuple[Value, Fraction]]:
        return list(zip(self.values, self.masses))

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

    def mean(self) -> Value:
        """Exact mean; infinity if an atom sits at infinity."""
        if self.values and self.values[-1] == INF:
            return INF
        if any(isinstance(v, float) for v in self.values):
            return math.fsum(float(v) * float(m)
                             for v, m in zip(self.values, self.masses))
        return sum((v * m for v, m in zip(self.values, self.masses)),
                   Fraction(0))

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
    rows before it, so the rows fill disjoint ranges and one
    union1d/searchsorted pair serves them all; they are promoted to Python
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

    def per_entry(xs):
        return np.repeat(np.array(xs, dtype=dtype), lengths)

    own = (np.cumsum(np.asarray(counts, dtype=dtype)) -
           per_entry(list(accumulate(totals, initial=0))[:-1])) * \
        per_entry(dens) + per_entry(offs[:-1])
    other = np.array([t * n + off
                      for d, n, off in zip(dists, totals, offs)
                      for t in targets[id(d)][0]], dtype=dtype)
    tv = np.arctan([x for d in dists for x in targets[id(d)][2]])
    cuts = np.union1d(own, other)
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
    each (hist, norm, dist) of ``laws``, in order; ``metric`` is
    "vasershtein" (L1) or "uniform" (L-infinity).

    The histograms are taken in chunks of at most _CHUNK law entries (one
    histogram may pass it alone), and each chunk is compared by one
    ``_transport`` call, so a grid holds one chunk at a time.
    """
    out: List[float] = []
    chunk, size = [], 0
    for law in laws:
        n = sum(u.size for u in law[0].units)
        if chunk and size + n > _CHUNK:
            out += _hist_transport(chunk, metric)
            chunk, size = [], 0
        chunk.append(law)
        size += n
    if chunk:
        out += _hist_transport(chunk, metric)
    return out


def _hist_transport(laws, metric: str) -> List[float]:
    """``_transport`` of (hist, norm, dist) rows: each row's values
    S_k/(k*norm) as floats, sorted stably within the row, so that equal
    values keep block order."""
    units = [u for hist, _, _ in laws for u in hist.units]
    factors = [float(sc) / (hist.k * float(norm))
               for hist, norm, _ in laws for sc in hist.scales]
    vals = np.concatenate(units).astype(float) * \
        np.repeat(factors, [u.size for u in units])
    lengths = [sum(u.size for u in hist.units) for hist, _, _ in laws]
    order = np.lexsort((vals, np.repeat(np.arange(len(laws)), lengths)))
    counts = np.concatenate([c for hist, _, _ in laws for c in hist.counts])
    return _transport(np.arctan(vals[order]), counts[order], lengths,
                      [hist.total for hist, _, _ in laws],
                      [dist for _, _, dist in laws], metric)


def _tiling(w) -> Bump:
    """The tiling that a class law of ``w`` is measured on: the ``Bump``
    that built w when its spacing is w's least period p, else
    Bump(w, 1, 0, p), w as its own child with no bump."""
    bump = w.bump
    if bump is None or bump.spacing != w.period:
        return Bump(w, 1, 0, w.period)
    return bump


def _class_laws(w, cs) -> list:
    """Per class c of ``cs`` (0 <= c < p), the sorted distinct units of
    S_c over one least period p of ``w`` with their int64 counts.

    Every class is measured on one least period L of the child of
    ``_tiling(w)`` = (child, f, B, s): a position t in [0, s) reads
    f*S_c(child) at t mod L, plus the bump B exactly when t >= s - c.  So
    each tau in [0, L) counts (s-c)//L + [tau < r0] times with
    f*S_c(child)(tau) and c//L + [tau >= r0 and c % L > 0] times with that
    plus B, where r0 = (s-c) % L.  All classes are gathered as one 2-D
    array over the child's doubled prefix, in uint64, where a period's
    total and twice any S_c fit.  Each row is sorted once on the key
    2*S_c + [tau >= r0], so that its runs give the value and its half
    together; the plain and bumped values of all rows are then merged by
    one lexsort.  No value passes the block's unit total over a period,
    which fits int64, so no class law can leave int64.
    """
    child, f, b, s = _tiling(w)
    L = child.period
    pre = child.prefix[:L + 1].astype(np.uint64)
    ext = np.concatenate([pre[:-1], pre + pre[-1]])
    cs = np.asarray(cs, dtype=np.int64)
    n0, r0 = np.divmod(s - cs, L)
    n1, r1 = np.divmod(cs, L)
    tau = np.arange(L)
    sums = ext[tau + r1[:, None]] - pre[:-1] + \
        (n1.astype(np.uint64) * pre[-1])[:, None]
    key = np.sort(2 * sums + (tau >= r0[:, None]), axis=1).ravel()
    # runs of equal keys, each within one row of L entries
    new = np.ones(key.size, dtype=bool)
    new[1:] = key[1:] != key[:-1]
    new[::L] = True
    starts = np.flatnonzero(new)
    runs = np.diff(starts, append=key.size)
    row, key = starts // L, key[starts]
    half = (key & 1).astype(np.int64)
    v = (key >> 1).astype(np.int64) * np.int64(f)
    plain = runs * (n0[row] + 1 - half)
    bumped = runs * (n1[row] + half * (r1[row] > 0))
    keep, hit = plain > 0, bumped > 0
    rows = np.concatenate([row[keep], row[hit]])
    vals = np.concatenate([v[keep], v[hit] + np.int64(b)])
    counts = np.concatenate([plain[keep], bumped[hit]])
    order = np.lexsort((vals, rows))
    rows, vals, counts = rows[order], vals[order], counts[order]
    new = np.ones(vals.size, dtype=bool)
    new[1:] = (vals[1:] != vals[:-1]) | (rows[1:] != rows[:-1])
    starts = np.flatnonzero(new)
    vals, counts = vals[starts], np.add.reduceat(counts, starts)
    ends = np.searchsorted(rows[starts], np.arange(cs.size + 1))
    return [(vals[i:j], counts[i:j]) for i, j in zip(ends[:-1], ends[1:])]


def _class_law_stream(w, cs) -> Iterator[tuple]:
    """(c, law) for each class c of ``cs`` in order, measured by
    ``_class_laws`` in chunks of at most _CHUNK child positions."""
    step = max(1, _CHUNK // _tiling(w).child.period)
    for i in range(0, len(cs), step):
        chunk = cs[i:i + step]
        yield from zip(chunk, _class_laws(w, chunk))


class PeriodLaws:
    """Laws of S_k over one least period of each block for the k of one
    grid, each measured once per class and shared by blocks that are
    integer multiples of one pattern, at any scale.

    For a block of least period p and unit total Sigma = prefix[p] over a
    period, the law at k = q*p + r follows exactly from the law at its
    class c = min(r, p - r):

    - whole periods: S_{qp+r} = q*Sigma + S_r;
    - reflection: S_r(nu) + S_{p-r}(nu + r) = Sigma, so over one period the
      values of S_r are Sigma minus those of S_{p-r}, in reverse order, with
      the counts reversed;
    - multiples: blocks of equal height and least period whose first
      periods are g*P and g'*P for one integer pattern P (g the gcd of a
      period's units) have S_k(g'*P) = (g'/g)*S_k(g*P), so one of them
      is measured.  The other's law divides the measured class law by g,
      adds whole periods of P and multiplies by g' with a check, so it
      raises BlockError exactly when its own S_k leaves int64.

    Class laws are measured by ``_class_laws``, on one least period of the
    child of a bump-tiled block, else over the block's own least period:
    each pattern's classes in order of first need, one chunk at a time.
    The law is in units, so the scale plays no part.  A class law is kept
    only until the last k of the grid that needs it, so a grid without
    repeats holds no more than one chunk of class laws per pattern.  The whole periods are added per
    k, so BlockError comes at the first k whose S_k leaves int64.
    """

    def __init__(self, blocks, ks: Sequence[int]):
        self.blocks = list(blocks)
        # per block, the index of the block measured for it and its factor
        # g' when that differs from the measured block's g, else None
        self.first = list(range(len(self.blocks)))
        self.factor: List[Optional[int]] = [None] * len(self.blocks)
        shapes: Dict[Tuple[int, int], List[int]] = {}
        for i, w in enumerate(self.blocks):
            shapes.setdefault((len(w), w.period), []).append(i)
        gcds: Dict[int, int] = {}
        multiples: Dict[int, set] = {}
        for (_, p), group in shapes.items():
            # only blocks that share height and least period can share a
            # pattern, so a block without such a partner costs nothing
            if len(group) < 2:
                continue
            # (index, first unit, unit total of a period) per measured block
            reps: List[Tuple[int, int, int]] = []
            for i in group:
                u = self.blocks[i].units[:p]
                a, s = int(u[0]), int(self.blocks[i].prefix[p])
                for j, b, t in reps:
                    v = self.blocks[j].units[:p]
                    # g*P and g'*P have proportional first units and totals
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
        # (index, block, least period, unit total of a period, gcd of a
        # period, factors of its multiples) per measured block, and the
        # number of k of the grid in each of its classes
        self.distinct = []
        for j in sorted(set(self.first)):
            w = self.blocks[j]
            self.distinct.append((j, w, w.period, int(w.prefix[w.period]),
                                  gcds.get(j), sorted(multiples.get(j, ()))))
        self.pending = Counter((j, min(k % p, p - k % p))
                               for j, _, p, _, _, _ in self.distinct
                               for k in ks)
        self.streams = {j: _class_law_stream(w, list(dict.fromkeys(
                            min(k % p, p - k % p) for k in ks)))
                        for j, w, p, _, _, _ in self.distinct}
        self.memo: Dict[Tuple[int, int], tuple] = {}

    def at(self, k: int) -> list:
        """Per block, in input order, the sorted distinct units of S_k over
        one least period with their int64 counts; blocks with equal units
        get the same pair.  Raises BlockError past the int64 range."""
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
                # the pattern's law, divided by g before whole periods are
                # added, so only a block's own S_k can leave int64
                v = _add_periods(u // g, q, sigma // g)
                for f in factors:
                    laws[j, f] = rescale_units(v, f), n
            laws[j, None] = _add_periods(u, q, sigma), n
        return [laws[j, f] for j, f in zip(self.first, self.factor)]


def sk_histograms(blocks, ks: Sequence[int]) -> Iterator["SkHistogram"]:
    """The SkHistogram of S_k over every position of ``blocks`` at each k
    of ``ks``, in order.

    One PeriodLaws serves the whole grid, so each pattern is measured once
    per class of k, and its memo goes with the iterator.  S_k repeats with
    a block's least period p, so its law over the block is h/p copies of
    its law over one period.
    """
    ks = list(ks)
    laws = PeriodLaws(blocks, ks)
    scales = [w.scale for w in laws.blocks]
    for k in ks:
        pairs = laws.at(k)
        yield SkHistogram(k, scales, [u for u, _ in pairs],
                          [c * (len(w) // w.period)
                           for w, (_, c) in zip(laws.blocks, pairs)])


class SkHistogram:
    """Exact law of integer sums over a finite set of positions, held by
    block: the law of the cyclic partial sums S_k of a list of blocks
    (``sk_histograms``), or of the occupation counts of a skyscraper base.

    For each block it holds the sorted distinct values of S_k/scale as
    ``units`` with their int64 ``counts``, so every mass is an exact
    integer count over ``total``, the number of positions.  Floats enter
    only through the arctan of each distinct value when a transport
    distance is taken.
    """

    __slots__ = ("k", "scales", "units", "counts", "total")

    def __init__(self, k: int, scales: list, units: list, counts: list):
        self.k, self.scales, self.units, self.counts = k, scales, units, counts
        self.total = sum(int(c.sum()) for c in self.counts)

    def merged(self) -> List[Tuple[Fraction, int]]:
        """(value, count) for each distinct exact value over all blocks,
        increasing.  Units are brought to the least common denominator of
        the scales as Python ints, so equal values of blocks at different
        scales merge and none is rounded or wraps."""
        den = math.lcm(*(sc.denominator for sc in self.scales))
        nums = np.concatenate([u.astype(object) * int(sc * den)
                               for u, sc in zip(self.units, self.scales)])
        vals, inv = np.unique(nums, return_inverse=True)
        counts = np.zeros(len(vals), dtype=np.int64)
        np.add.at(counts, inv, np.concatenate(self.counts))
        return [(Fraction(v, den), c)
                for v, c in zip(vals.tolist(), counts.tolist())]

    def to_csv(self, path: str) -> None:
        """Write the merged law as rows value,count,mass, with the mass
        as count/total."""
        with open_output(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["value", "count", "mass"])
            for v, c in self.merged():
                writer.writerow([str(v), c, f"{c}/{self.total}"])

    def count_below(self, thresh: Value) -> int:
        """Exact number of positions with S_k < thresh."""
        t = Fraction(thresh)
        n = 0
        for u, c, sc in zip(self.units, self.counts, self.scales):
            # S < thresh  <=>  units < thresh/scale, decided exactly: below
            # an integer bound, or up to the floor of a fractional one
            cut, rem = divmod(t.numerator * sc.denominator,
                              t.denominator * sc.numerator)
            i = np.searchsorted(u, cut, side="right" if rem else "left")
            n += int(c[:i].sum())
        return n


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

    def dist(self) -> FiniteDist:
        return FiniteDist.uniform([self.values[s] for s in self.symbols])


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
