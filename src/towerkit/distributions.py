"""Finite distributions on (0, infinity] and metrics between them.

Distances between distributions are taken after the compactifying change of
variable x -> arctan(x), so that the point at infinity is an honest atom at
pi/2.  Masses are exact rationals or exact integer counts; only the arctan
of each distinct value is a float.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .blocks import _add_periods, cyclic_partial_sums_units, rescale_units

Value = Union[Fraction, float]  # a positive rational, a float, or math.inf

INF = math.inf

# Level breakpoints at or above this leave int64 and become Python ints.
_INT64_SAFE = 1 << 62


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


def _parse_value(s) -> Value:
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    if isinstance(s, float):
        return s
    if s == "inf":
        return INF
    if "/" in s:
        return Fraction(s)
    if "." in s or "e" in s or "E" in s:
        return float(s)
    return Fraction(s)


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

    def max_value(self) -> Value:
        return self.values[-1]

    def mean(self) -> Value:
        """Exact mean; infinity if an atom sits at infinity."""
        if self.values and self.values[-1] == INF:
            return INF
        if any(isinstance(v, float) for v in self.values):
            return math.fsum(float(v) * float(m)
                             for v, m in zip(self.values, self.masses))
        return sum((v * m for v, m in zip(self.values, self.masses)),
                   Fraction(0))

    def scaled(self, c) -> "FiniteDist":
        """Distribution of c*X for a positive rational or float c."""
        if c <= 0:
            raise DistError("scaling factor must be positive")
        out = []
        for v, m in zip(self.values, self.masses):
            out.append((INF if v == INF else
                        (v * c if isinstance(v, Fraction) and
                         isinstance(c, (int, Fraction)) else float(v) * float(c)),
                        m))
        return FiniteDist(out)

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"atoms": [{"value": _format_value(v),
                           "mass": f"{m.numerator}/{m.denominator}"}
                          for v, m in zip(self.values, self.masses)]}

    @classmethod
    def from_json_obj(cls, obj: dict) -> "FiniteDist":
        atoms = [(_parse_value(a["value"]), Fraction(a["mass"]))
                 for a in obj["atoms"]]
        return cls(atoms)


def _atan(values) -> "np.ndarray":
    """Arctan of each value; math.inf maps to pi/2."""
    return np.arctan(np.array([float(v) for v in values]))


def _integer_masses(masses: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Masses as integer counts over their least common denominator."""
    den = 1
    for m in masses:
        den = den * m.denominator // math.gcd(den, m.denominator)
    return [m.numerator * (den // m.denominator) for m in masses], den


def _transport(av, counts, n: int, dist: FiniteDist, metric: str) -> float:
    """Arctan transport distance between a histogram and ``dist``.

    The histogram has ascending arctan values ``av`` carrying integer
    ``counts`` that sum to n.  Both quantile functions are step functions of
    the level u in (0, 1]; their breakpoints are merged exactly as integers
    over n*L, with L the least common denominator of the masses of ``dist``,
    and promoted to Python ints when n*L leaves the int64 range.  Returns
    the integral ("vasershtein", L1) or the sup ("uniform", L-infinity) of
    the quantile gap; the comonotone coupling is optimal on the line.
    """
    if metric not in ("vasershtein", "uniform"):
        raise DistError(f"unknown transport metric {metric!r}")
    t_counts, den = _integer_masses(dist.masses)
    dtype = np.int64 if n * den < _INT64_SAFE else object
    own = np.cumsum(np.asarray(counts, dtype=dtype)) * den
    other = np.cumsum(np.asarray(t_counts, dtype=dtype)) * n
    cuts = np.union1d(own, other)
    gap = np.abs(av[np.searchsorted(own, cuts)] -
                 _atan(dist.values)[np.searchsorted(other, cuts)])
    if metric == "uniform":
        return float(gap.max())
    widths = np.diff(cuts, prepend=0).astype(float)
    return float(np.dot(widths, gap)) / (n * den)


def _dist_transport(p: FiniteDist, q: FiniteDist, metric: str) -> float:
    counts, n = _integer_masses(p.masses)
    return _transport(_atan(p.values), counts, n, q, metric)


def vasershtein(p: FiniteDist, q: FiniteDist) -> float:
    """L1 transport distance in the arctan metric: the integral of rho
    between the two quantile functions."""
    return _dist_transport(p, q, "vasershtein")


def uniform_dist(p: FiniteDist, q: FiniteDist) -> float:
    """L-infinity transport distance in the arctan metric: the sup over
    levels of the quantile gap."""
    return _dist_transport(p, q, "uniform")


def _run_starts(srt: np.ndarray) -> np.ndarray:
    """Indices where a run of equal values starts in a sorted array."""
    new = np.ones(srt.size, dtype=bool)
    new[1:] = srt[1:] != srt[:-1]
    return np.flatnonzero(new)


def _runs(srt: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct values of a sorted array with the length of each run."""
    starts = _run_starts(srt)
    return srt[starts], np.diff(starts, append=srt.size)


def _class_law(w, c: int) -> tuple:
    """Sorted distinct units of S_c over one least period p of ``w``, with
    their int64 counts, for 0 <= c < p.

    A block that a bump tiling built with its least period as spacing s
    (``w._bump``) is measured on one least period L of the tiled child: a
    position t in [0, s) reads f*S_c(child) at t mod L, plus the bump B
    exactly when t >= s - c.  So each tau in [0, L) counts
    (s-c)//L + [tau < (s-c) % L] times with f*S_c(child)(tau) and
    c//L + [tau >= L - c % L] times with that plus B; B is added only
    where it occurs, so BlockError comes exactly with the block's own.
    Any other block is measured over its period.
    """
    p = w.period
    bump = w._bump
    if bump is None or c == 0 or bump.spacing != p:
        return np.unique(cyclic_partial_sums_units(w, c, p),
                         return_counts=True)
    child, f, b, s = bump
    L = child.period
    v = cyclic_partial_sums_units(child, c, L)
    n0, r0 = divmod(s - c, L)
    n1, r1 = divmod(c, L)
    # s is a multiple of L, so r0 + r1 is 0 or L: tau < r0 gets one more
    # plain window, and tau >= r0 one more bumped window when r1 > 0
    (hu, hn), (tu, tn) = _runs(np.sort(v[:r0])), _runs(np.sort(v[r0:]))
    u = rescale_units(np.concatenate([hu, tu]), f)
    m = np.concatenate([hn, tn])
    plain = n0 * m
    plain[:hu.size] += hn
    bumped = n1 * m
    if r1:
        bumped[hu.size:] += tn
    keep, hit = plain > 0, bumped > 0
    vals = np.concatenate([u[keep], _add_periods(u[hit], 1, b)])
    counts = np.concatenate([plain[keep], bumped[hit]])
    # at most four values per distinct value of v: merge equal ones
    order = np.argsort(vals)
    vals, counts = vals[order], counts[order]
    starts = _run_starts(vals)
    return vals[starts], np.add.reduceat(counts, starts)


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

    A class law is measured by ``_class_law``: on one least period of the
    child of a bump-tiled block, else over the block's own least period.
    The law is in units, so the scale plays no part, nor does the
    changed-position mask.  A class law is kept only until the last k of
    the grid that needs it, so a grid without repeats holds no more than
    one k at a time.
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
        self.memo: Dict[Tuple[int, int], tuple] = {}

    def at(self, k: int) -> list:
        """Per block, in input order, the sorted distinct units of S_k over
        one least period with their int64 counts; blocks with equal units
        get the same pair.  Raises BlockError past the int64 range."""
        laws = {}
        for j, w, p, sigma, g, factors in self.distinct:
            q, r = divmod(k, p)
            c = min(r, p - r)
            law = self.memo.get((j, c))
            if law is None:
                law = self.memo[j, c] = _class_law(w, c)
            self.pending[j, c] -= 1
            if self.pending[j, c] <= 0:
                del self.memo[j, c]
            u, n = law
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

    def distance(self, norm, dist: FiniteDist,
                 metric: str = "vasershtein") -> float:
        """Transport distance between the law of S_k/(k*norm) and ``dist``;
        ``metric`` is "vasershtein" (L1) or "uniform" (L-infinity)."""
        vals = np.concatenate(
            [u.astype(float) * (float(sc) / (self.k * float(norm)))
             for u, sc in zip(self.units, self.scales)])
        order = np.argsort(vals, kind="stable")
        return _transport(np.arctan(vals[order]),
                          np.concatenate(self.counts)[order], self.total,
                          dist, metric)

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
        with open(path, "w", newline="") as fh:
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


def cdf_dominates_below(p: FiniteDist, q: FiniteDist, r: Value) -> bool:
    """Exact check of P(X <= t) <= Q(X <= t) for every t < r.

    Both cdfs are right-continuous step functions, so it is enough to test
    at the atom values of either distribution that lie below r.
    """
    points = set()
    for d in (p, q):
        for v in d.values:
            if v != INF and (r == INF or v < r):
                points.add(v)
    return all(p.cdf(t) <= q.cdf(t) for t in points)


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

    def fiber_size(self) -> int:
        return self.fine.size // self.coarse.size

    def cost(self) -> float:
        """Average rho-gap between the fine value and the lifted coarse value.

        An epsilon bound on this quantity makes the two distributions
        epsilon-close in the L1 transport metric.
        """
        n = self.fine.size
        return math.fsum(rho(self.fine.values[s],
                             self.coarse.values[self.pi[s]])
                         for s in self.fine.symbols) / n
