"""Dyadic discretizations of a target distribution.

A target distribution on (0, infinity] is described by its quantile
function.  Its depth-n dyadic representation assigns to each bitstring
x in {0,1}^n the quantile of the right endpoint of the dyadic cell coded by
x.  Restricting to the first m bits is then a uniform-fiber splitting, the
cell values decrease under refinement, and the discretized distribution
dominates the target in the cdf sense at every threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist
from typing import List, Optional, Sequence, Tuple

from .distributions import INF, FiniteDist, Value, angle

# extra levels by which tail_cost_bound refines before its analytic remainder
GUARD = 8


class SplittingError(ValueError):
    """Invalid target description or unattainable splitting request."""


class TargetDist:
    """Quantile-function view of a distribution on (0, infinity].

    Subclasses implement ``quantile(u)`` for rational u in (0, 1], using the
    left-continuous convention inf{x : P(X <= x) >= u}.  Quantiles must be
    nondecreasing; u = 1 may return infinity.
    """

    def quantile(self, u: Fraction) -> Value:
        raise NotImplementedError

    def quantile_grid(self, depth: int) -> List[Value]:
        """Quantiles at the right endpoints (j+1)/2^depth, j = 0..2^depth-1."""
        n = 1 << depth
        return [self.quantile(Fraction(j + 1, n)) for j in range(n)]

    def angle_grid(self, depth: int) -> List[float]:
        """The arctan of each value of ``quantile_grid(depth)``."""
        return [angle(v) for v in self.quantile_grid(depth)]

    def cdf(self, t: Value) -> Optional[Fraction]:
        """Exact cdf where available, else None."""
        return None


class PointsTarget(TargetDist):
    """Finitely supported target given by an explicit distribution."""

    def __init__(self, dist: FiniteDist):
        self.dist = dist

    def quantile(self, u: Fraction) -> Value:
        return self.dist.quantile(u)

    def cdf(self, t: Value) -> Fraction:
        return self.dist.cdf(t)


class ParetoTarget(TargetDist):
    """Pareto tail P(X > x) = x^(-alpha) for x >= 1."""

    def __init__(self, alpha):
        if alpha <= 0:
            raise SplittingError("pareto exponent must be positive")
        self.alpha = Fraction(alpha) if not isinstance(alpha, float) else alpha

    def quantile(self, u: Fraction) -> Value:
        u = Fraction(u)
        if u == 1:
            return INF
        if self.alpha == 1:
            return 1 / (1 - u)
        return float(1 - u) ** (-1.0 / float(self.alpha))

    def cdf(self, t: Value) -> Optional[Fraction]:
        if t == INF:
            return Fraction(1)
        if t < 1:
            return Fraction(0)
        if self.alpha == 1 and isinstance(t, Fraction):
            return 1 - 1 / t
        return None


class LognormalTarget(TargetDist):
    """Lognormal with parameters mu and sigma of the underlying normal."""

    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        if sigma <= 0:
            raise SplittingError("lognormal sigma must be positive")
        self._normal = NormalDist(float(mu), float(sigma))

    def quantile(self, u: Fraction) -> Value:
        u = Fraction(u)
        if u == 1:
            return INF
        return math.exp(self._normal.inv_cdf(float(u)))


class ShiftedExponentialTarget(TargetDist):
    """shift + Exponential(rate), supported on (shift, infinity)."""

    def __init__(self, rate, shift=0):
        if rate <= 0:
            raise SplittingError("exponential rate must be positive")
        if shift < 0:
            raise SplittingError("shift must be nonnegative")
        self.shift = shift
        self.rate = rate

    def quantile(self, u: Fraction) -> Value:
        u = Fraction(u)
        if u == 1:
            return INF
        return float(self.shift) - math.log(float(1 - u)) / float(self.rate)


class TableTarget(TargetDist):
    """Piecewise-constant quantile given by rational breakpoints.

    ``rows`` is a list of (u_i, value_i) with 0 < u_1 < ... < u_J = 1 and
    strictly increasing values; the quantile equals value_i on
    (u_{i-1}, u_i].
    """

    def __init__(self, rows: Sequence[Tuple[Fraction, Value]]):
        if not rows:
            raise SplittingError("quantile table must be nonempty")
        us = [Fraction(u) for u, _ in rows]
        if us != sorted(set(us)) or us[-1] != 1 or us[0] <= 0:
            raise SplittingError("breakpoints must increase to 1 within (0, 1]")
        vals = [v for _, v in rows]
        for a, b in zip(vals, vals[1:]):
            if not a < b:
                raise SplittingError("table values must be strictly increasing")
        self.rows = [(u, v) for u, v in zip(us, vals)]

    def quantile(self, u: Fraction) -> Value:
        u = Fraction(u)
        if not 0 < u <= 1:
            raise SplittingError(f"quantile level must be in (0, 1], got {u}")
        for ui, v in self.rows:
            if u <= ui:
                return v
        return self.rows[-1][1]

    def cdf(self, t: Value) -> Fraction:
        prev = Fraction(0)
        for ui, v in self.rows:
            if v != INF and (t == INF or v <= t):
                prev = ui
            else:
                break
        return prev


def make_target(family: str, **params) -> TargetDist:
    """Construct a target distribution from a family name and the keyword
    parameters of its constructor: atoms (points), alpha (pareto), mu and
    sigma (lognormal), rate and shift (shifted_exponential), rows (table).
    A missing or unknown parameter raises TypeError."""
    makers = {"points": lambda atoms: PointsTarget(FiniteDist(atoms)),
              "pareto": ParetoTarget, "lognormal": LognormalTarget,
              "shifted_exponential": ShiftedExponentialTarget,
              "table": TableTarget}
    if family not in makers:
        raise SplittingError(f"unknown target family {family!r}")
    return makers[family](**params)


@dataclass(frozen=True)
class DyadicRep:
    """Depth-n discretization: one value per bitstring, listed in binary order."""

    depth: int
    cell_values: tuple

    @classmethod
    def build(cls, target: TargetDist, depth: int) -> "DyadicRep":
        if depth < 1:
            raise SplittingError("depth must be at least 1")
        return cls(depth, tuple(target.quantile_grid(depth)))

    @property
    def size(self) -> int:
        return 1 << self.depth

    def dist(self) -> FiniteDist:
        return FiniteDist.uniform(list(self.cell_values))

    def restrict(self, depth: int) -> "DyadicRep":
        """Coarser representation using only the first ``depth`` bits."""
        if not 1 <= depth <= self.depth:
            raise SplittingError(f"restriction depth must be in 1..{self.depth}")
        step = 1 << (self.depth - depth)
        # the coarse cell's right endpoint is the right endpoint of its last
        # fine subcell, so coarse values are a stride of the fine values
        return DyadicRep(depth, self.cell_values[step - 1::step])


def split_cost(target: TargetDist, fine_depth: int, coarse_depth: int) -> float:
    """Average rho-gap between depth-``fine_depth`` cell values and their
    depth-``coarse_depth`` ancestors, enumerated over all fine cells."""
    if not 1 <= coarse_depth < fine_depth:
        raise SplittingError("need 1 <= coarse_depth < fine_depth")
    # every coarse value is the fine value at the end of its cell, so each
    # fine value's arctan is taken once
    fine = target.angle_grid(fine_depth)
    shift = fine_depth - coarse_depth
    step = 1 << shift
    n = len(fine)
    return math.fsum(abs(fine[j] - fine[((j >> shift) << shift) + step - 1])
                     for j in range(n)) / n


def tail_cost_bound(target: TargetDist, depth: int) -> float:
    """Upper bound on the average rho-gap between the depth-``depth`` values
    and the target itself.

    Refines by GUARD extra levels and adds the analytic remainder
    (pi/2) * 2^-(depth+GUARD), which bounds the residual oscillation of the
    monotone function arctan(quantile) summed over the finest cells.
    """
    measured = split_cost(target, depth + GUARD, depth)
    return measured + (math.pi / 2) * 2.0 ** (-(depth + GUARD))


@dataclass(frozen=True)
class SplitSequence:
    """Chain of dyadic representations with certified splitting costs."""

    target: TargetDist = field(repr=False)
    depths: tuple
    reps: tuple
    costs: tuple          # cost of splitting rep[j+1] -> rep[j]
    tail_bounds: tuple    # bound on distance from rep[j] to the target
    floor_r: Value        # quantile at 1 - 2^-depths[0]
    dominates: bool       # cdf domination of the target by every rep


class _CallGrid(TargetDist):
    """The quantile grid of ``target`` for one ``build_split_sequence``
    call: the quantiles at the right endpoints (j+1)/2^n of the deepest
    depth n asked so far, and their arctans.  Depth n + 1 interleaves the
    new odd-numerator quantiles with depth n's, and a coarser depth m reads
    every 2^(n-m)-th entry, so each quantile and its arctan are taken
    once."""

    def __init__(self, target: TargetDist):
        self.target, self.depth = target, 0
        self.values = [target.quantile(Fraction(1))]
        self.angles = [angle(self.values[0])]

    def _stride(self, name: str, depth: int) -> list:
        while self.depth < depth:
            n = 2 << self.depth
            new = [self.target.quantile(Fraction(j, n))
                   for j in range(1, n, 2)]
            self.values = [v for pair in zip(new, self.values) for v in pair]
            self.angles = [a for pair in zip(map(angle, new), self.angles)
                           for a in pair]
            self.depth += 1
        step = 1 << (self.depth - depth)
        return getattr(self, name)[step - 1::step]

    def quantile_grid(self, depth: int) -> List[Value]:
        return self._stride("values", depth)

    def angle_grid(self, depth: int) -> List[float]:
        return self._stride("angles", depth)


def build_split_sequence(target: TargetDist, eps_list: Sequence,
                         max_depth: int = 20) -> SplitSequence:
    """Choose depths n_1 < n_2 < ... so that consecutive restrictions are
    eps_j-splittings.

    Depth n_j is the smallest depth above n_{j-1} whose tail bound is below
    eps_j; monotonicity of the cell values under refinement then bounds each
    consecutive splitting cost by the coarser tail bound.  Every grid is
    read off one ``_CallGrid``, which the call drops when it returns.
    """
    if not eps_list:
        raise SplittingError("need at least one epsilon")
    eps = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps):
        raise SplittingError("epsilons must be positive")
    grid = _CallGrid(target)
    depths: List[int] = []
    bounds: List[float] = []
    d = 1
    for e in eps:
        while True:
            if d > max_depth:
                raise SplittingError(
                    f"required splitting depth exceeds max_depth={max_depth}")
            b = tail_cost_bound(grid, d)
            if b < e:
                break
            d += 1
        depths.append(d)
        bounds.append(b)
        d += 1
    finest = DyadicRep.build(grid, depths[-1])
    reps = tuple(finest.restrict(m) if m < depths[-1] else finest
                 for m in depths)
    costs = tuple(split_cost(grid, nb, na)
                  for na, nb in zip(depths, depths[1:]))
    # the quantile at 1 - 2^-depths[0]: the last but one of its grid
    floor_r = grid.quantile_grid(depths[0])[-2]
    dominates = True
    tcdf = target.cdf
    for rep in reps:
        dist = rep.dist()
        for t in dist.values:
            if t == INF:
                continue
            c = tcdf(t)
            if c is None:
                continue
            if dist.cdf(t) > c:
                dominates = False
    return SplitSequence(target, tuple(depths), reps, costs, tuple(bounds),
                         floor_r, dominates)
