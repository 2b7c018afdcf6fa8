"""Mean-extension machinery for labeled block arrays.

The central move enlarges the mean of a block by tiling it and adding a
sparse arithmetic progression of weight bumps.  Applied to a whole array of
blocks it raises the common scale while keeping the array exactly
distributed like its label variable, keeping every weight at least its old
value, and touching only a small fraction of positions.  Certificates record
measured transport distances of the normalized partial sums against the
label distribution along a growing normalizer.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .blocks import (_INT64_SAFE, Block, Bump, Scalar, normalizing_copies,
                     self_concat)
from .distributions import (FiniteDist, SkHistogram, Splitting,
                            sk_histograms, transport_distances)

DEFAULT_SIZE_CAP = 10 ** 6
# k grid of each extension certificate: every k up to CERT_DENSE, then at
# most CERT_GEO geometrically spaced k up to the extended height
CERT_DENSE = 512
CERT_GEO = 128
# the float slack of the Theorem 1 eps verdict and the ARE bound verdict
FLOAT_SLACK = 1e-12
# integers below it convert to float exactly (GammaTable.rows)
_FLOAT_EXACT = 1 << 53


class SizeCapError(RuntimeError):
    """A construction would exceed the configured height cap."""


class PreconditionError(ValueError):
    """An extension was requested outside its domain of validity."""


class InvariantError(RuntimeError):
    """A hard invariant failed during construction."""


def make_k_grid(lo: int, hi: int, dense_cap: int, geo_cap: int) -> List[int]:
    """Verification grid: every k in [lo, min(hi, dense_cap)], then at most
    geo_cap geometrically spaced k up to hi."""
    if lo < 1 or hi < lo:
        raise ValueError(f"bad k range [{lo}, {hi}]")
    grid = list(range(lo, min(hi, dense_cap) + 1))
    if hi > dense_cap:
        start = max(lo, dense_cap)
        ratio = (hi / start) ** (1.0 / geo_cap)
        seen = set(grid)
        x = float(start)
        for _ in range(geo_cap):
            x *= ratio
            k = min(hi, int(round(x)))
            if k not in seen and k > start:
                seen.add(k)
                grid.append(k)
        if hi not in seen:
            grid.append(hi)
    return sorted(set(grid))


@dataclass(frozen=True)
class Verdict:
    """Measured distances held to allowances over one grid, decided once.

    ``distances`` and ``allowances`` are keyed alike, in grid order.  An
    entry passes when d < a + slack (``strict``) or d <= a + slack; the
    default slack, the int 0, keeps an exact ``Fraction`` pair exact.
    """

    distances: dict
    allowances: dict
    strict: bool
    slack: float = 0

    def __post_init__(self):
        if list(self.distances) != list(self.allowances):
            raise InvariantError("allowances must be keyed like distances")
        bounds = self.allowances.values()
        if self.slack:
            bounds = [a + self.slack for a in bounds]
        holds = operator.lt if self.strict else operator.le
        object.__setattr__(self, "_failed", [
            k for (k, d), a in zip(self.distances.items(), bounds)
            if not holds(d, a)])

    def failures(self) -> list:
        """The failing keys, in grid order."""
        return list(self._failed)

    def ok(self) -> bool:
        return not self._failed

    def margin(self) -> Optional[tuple]:
        """(least allowance minus distance, its first key); None if empty."""
        return min(((a - d, k) for (k, d), a in zip(
            self.distances.items(), self.allowances.values())),
            key=operator.itemgetter(0), default=None)


@dataclass(frozen=True)
class BlockArray:
    """Array of equal-length blocks labeled by the symbols of a finite
    random variable, with E(block(s)) = scale * value(s) exactly."""

    symbols: tuple
    blocks: dict      # symbol -> Block
    values: dict      # symbol -> Fraction (label variable)
    scale: Scalar     # common mean multiplier c

    def __post_init__(self):
        if not self.symbols:
            raise PreconditionError("array needs at least one symbol")
        if set(self.blocks) != set(self.symbols) or \
                set(self.values) != set(self.symbols):
            raise PreconditionError("blocks and values must cover the symbols")
        hs = {len(self.blocks[s]) for s in self.symbols}
        if len(hs) != 1:
            raise PreconditionError(f"blocks must share one length, got {hs}")
        for s in self.symbols:
            mean = self.blocks[s].mean
            expected = self.scale * self.values[s]
            if mean != expected:
                raise PreconditionError(
                    f"block mean for {s!r} is {mean}, "
                    f"expected scale*value = {expected}")

    @property
    def height(self) -> int:
        return len(self.blocks[self.symbols[0]])

    @property
    def size(self) -> int:
        return len(self.symbols)

    def label_dist(self) -> FiniteDist:
        return FiniteDist.uniform([self.values[s] for s in self.symbols])

    def change_mass(self) -> Fraction:
        changed = sum(self.blocks[s].changed_count() for s in self.symbols)
        return Fraction(changed, self.height * self.size)

    def sk_histograms(self, ks: Sequence[int]) -> Iterator[SkHistogram]:
        """Exact law of S_k over all positions of all blocks, for each k of
        ``ks`` in order, as chunk records (``distributions.sk_histograms``)
        sharing one measurement per block class."""
        return sk_histograms([self.blocks[s] for s in self.symbols], ks)


@dataclass(frozen=True)
class GammaTable:
    """Piecewise normalizer gamma(k) given by anchors, with a matching
    allowance schedule eps(k).

    ``mode`` is "linear" (interpolate between anchors) or "constant"
    (steps: gamma(k) = g_i on [k_i, k_{i+1})); gamma is g_0 below the
    first anchor and g_m from the last one on.  Each of the m + 1 anchor
    segments [k_{i-1}, k_i) holds gamma as one integer form
    (alpha + beta*k)/den: linear between two anchors, constant (beta = 0)
    otherwise, so ``rows`` reads a whole grid with no Fraction.
    """

    anchors: tuple             # ((k_0, g_0), ..., (k_m, g_m)), k increasing,
                               # g rational
    eps_anchors: tuple         # ((k_0, e_0), ...), e nonincreasing
    mode: str = "linear"

    def __post_init__(self):
        ks = tuple(k for k, _ in self.anchors)
        gs = tuple(g for _, g in self.anchors)
        if list(ks) != sorted(set(ks)):
            raise PreconditionError("gamma anchors must have increasing k")
        if any(b < a for a, b in zip(gs, gs[1:])):
            raise PreconditionError("gamma must be nondecreasing")
        es = tuple(e for _, e in self.eps_anchors)
        if any(b > a for a, b in zip(es, es[1:])):
            raise PreconditionError("eps schedule must be nonincreasing")
        if self.mode not in ("linear", "constant"):
            raise PreconditionError(f"unknown gamma mode {self.mode!r}")
        object.__setattr__(self, "_eps_columns", (
            tuple(k for k, _ in self.eps_anchors), es))

    @cached_property
    def _segments(self) -> tuple:
        """The anchor ks as int64, the columns (alpha, beta, den) of the
        m + 1 segments as Python ints, and the largest entry of each."""
        ks = [k for k, _ in self.anchors]
        gs = [Fraction(g) for _, g in self.anchors]
        linear = self.mode == "linear"
        slopes = [Fraction(0)] + [
            (g1 - g0) / (k1 - k0) if linear else Fraction(0)
            for k0, k1, g0, g1 in zip(ks, ks[1:], gs, gs[1:])] + [Fraction(0)]
        # g0 + slope*(k - k0) from the anchor (k0, g0) at the segment start
        forms = [(g - s * k, s) for k, g, s in zip(ks[:1] + ks, gs[:1] + gs,
                                                    slopes)]
        dens = [math.lcm(c.denominator, s.denominator) for c, s in forms]
        cols = [[int(v * d) for v, d in zip(col, dens)]
                for col in zip(*forms)] + [dens]
        return (np.array(ks, dtype=np.int64),
                [np.array(col, dtype=object) for col in cols],
                *(max(map(abs, col)) for col in cols))

    def rows(self, ks: Sequence[int]) -> Tuple[np.ndarray, np.ndarray,
                                                np.ndarray]:
        """(g, b, den): gamma(k) = g[i]/den[i] and k*gamma(k) =
        b[i]/den[i] for the i-th k of ``ks`` (k >= 0), as integer arrays.

        They are int64 when every |alpha| + |beta|*k, k times it and den
        is below 2^53, and Python ints (object arrays) otherwise; either
        way ``g / den`` and ``b / den`` are the floats of the exact
        ratios, correctly rounded, as float(Fraction) gives them.
        """
        bounds, cols, a, b, d = self._segments
        ks = np.asarray(ks, dtype=np.int64)
        seg = np.searchsorted(bounds, ks, side="right")
        top = int(ks.max(initial=1))
        if max(d, (a + b * top) * top) < _FLOAT_EXACT:
            cols = [c.astype(np.int64) for c in cols]
        else:
            ks = ks.astype(object)
        alpha, beta, den = (c[seg] for c in cols)
        g = alpha + beta * ks
        return g, g * ks, den

    def eps(self, k) -> float:
        ks, es = self._eps_columns
        if k <= ks[0]:
            return float(es[0])
        if k >= ks[-1]:
            return float(es[-1])
        i = bisect_left(ks, k)
        if ks[i] == k:
            return float(es[i])
        k0, k1 = ks[i - 1], ks[i]
        e0, e1 = float(es[i - 1]), float(es[i])
        return e0 + (e1 - e0) * (k - k0) / (k1 - k0)

    def to_json_obj(self) -> dict:
        return {"mode": self.mode,
                "anchors": [[int(k), f"{g.numerator}/{g.denominator}"]
                            for k, g in self.anchors],
                "eps": [[int(k), repr(float(e))] for k, e in self.eps_anchors]}

    def checksum(self) -> str:
        blob = json.dumps(self.to_json_obj(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GammaTable":
        return cls(tuple((int(k), Fraction(g)) for k, g in obj["anchors"]),
                   tuple((int(k), float(e)) for k, e in obj["eps"]),
                   obj["mode"])


# -- basic extension -------------------------------------------------------


def _check_rescale(child: Block, f: int, h: int) -> None:
    """SizeCapError when the units of ``child``, rescaled by f, times a
    tiled height h reach 2^62."""
    if f != 1 and int(child.units.max()) * f * h >= _INT64_SAFE:
        raise SizeCapError("rescaled weights exceed the integer range")


def _add_bumps(w: Block, m: int, bump: Scalar, spacing: int) -> Block:
    """w^{(m copies)} with ``bump`` added at positions spacing, 2*spacing,...
    (1-based).  The result records this as its ``Bump``, from which
    ``PeriodLaws`` measures it and ``changed_count`` counts its changed
    levels."""
    h = m * len(w)
    if spacing % len(w) != 0 or h % spacing != 0:
        raise PreconditionError("bump spacing must be a multiple of the "
                                "block length and divide the tiled length")
    ratio = Fraction(bump) / w.scale
    f = ratio.denominator
    _check_rescale(w, f, h)
    units = self_concat(w, m).units * np.int64(f)
    amount = int(ratio * f)
    units[spacing - 1::spacing] += np.int64(amount)
    return Block(units, w.scale / f, Bump(w, f, amount, spacing))


def _tile(w: Block, m: int) -> Block:
    """self_concat(w, m), held to the rescale guard of the bump tiling that
    built w at the tiled height, as if that tiling had made all m*len(w)
    levels at once.  Every plain tiling of the package goes through here."""
    if w.bump is not None:
        _check_rescale(w.bump.child, w.bump.factor, m * len(w))
    return self_concat(w, m)


def basic_extend(w: Block, kappa: Scalar, q: int, *,
                 delta: Optional[Scalar] = None,
                 size_cap: int = DEFAULT_SIZE_CAP) -> Block:
    """Tile w into q copies and add kappa*q*h at every q*h-th position.

    The result has mean E(w) + kappa exactly and dominates the plain tiling
    pointwise.  When ``delta`` is given the preconditions kappa <= delta*E(w)
    and q > 1/delta are enforced.  A multiplicity mu is applied by tiling
    the result (``choose_tile``, ``_tile``).
    """
    if q < 2:
        raise PreconditionError(f"q must be at least 2, got {q}")
    h = len(w)
    kappa = Fraction(kappa)
    if kappa < 0:
        raise PreconditionError("kappa must be nonnegative")
    if delta is not None:
        d = Fraction(delta)
        if kappa > d * w.mean:
            raise PreconditionError(
                f"kappa={kappa} exceeds delta*E = {d * w.mean}")
        if q * d <= 1:
            raise PreconditionError(f"q={q} must exceed 1/delta")
    if q * h > size_cap:
        raise SizeCapError(f"extended height {q * h} exceeds cap {size_cap}")
    if kappa == 0:
        return _tile(w, q)
    return _add_bumps(w, q, kappa * q * h, q * h)


def choose_tile(w: Block, eps: Scalar, size_cap: int = DEFAULT_SIZE_CAP) -> int:
    """Least number of plain copies making the tiling eps-normalized.

    Decided on w's own deviation profile (``normalizing_copies``), with no
    candidate tiling built; SizeCapError when that many copies exceed the
    height cap.  The multiplicity mu of a basic extension is the tile count
    of the extension.
    """
    m = normalizing_copies(w, eps)
    if m * len(w) > size_cap:
        raise SizeCapError(f"normalizing tile count {m} gives height "
                           f"{m * len(w)}, above the cap {size_cap}")
    return m


# -- compound extension ----------------------------------------------------


@dataclass(frozen=True)
class CompoundRound:
    p_before: Fraction
    p_after: Fraction
    height: int        # block height after this round


@dataclass(frozen=True)
class CompoundReport:
    """Round schedule of a compound extension."""

    rounds: tuple
    base_height: int

    def p_of_k(self, k: int) -> Fraction:
        """Proportion of the mean change already present at window scale k."""
        if k <= self.base_height:
            return Fraction(0)
        for r in self.rounds:
            if k <= r.height:
                return r.p_after
        return Fraction(1)


def compound_extend(arr: BlockArray, t_map: Dict, beta: Scalar,
                    eps_out: Scalar, delta: Scalar,
                    size_cap: int = DEFAULT_SIZE_CAP
                    ) -> Tuple[BlockArray, CompoundReport]:
    """Multiply each block mean exactly by t_map(s) >= 1 through a chain of
    basic extensions whose mean-proportion p advances by at most beta per
    round, ending eps_out-normalized.

    All blocks share the spacing q and the per-round mu, so they remain a
    block array throughout.
    """
    if set(t_map) != set(arr.symbols):
        raise PreconditionError("t_map must cover exactly the symbols")
    t = {s: Fraction(t_map[s]) for s in arr.symbols}
    if any(v < 1 for v in t.values()):
        raise PreconditionError("mean multipliers must be at least 1")
    beta = Fraction(beta)
    d = Fraction(delta)
    eps_out = Fraction(eps_out)
    if beta <= 0 or d <= 0 or eps_out <= 0:
        raise PreconditionError("beta, delta and eps_out must be positive")
    q = int(1 / d) + 1
    e0 = {s: Fraction(arr.scale) * arr.values[s] for s in arr.symbols}
    growing = [s for s in arr.symbols if t[s] > 1]
    base_h = arr.height
    # keep the proportion steps on a coarse rational grid, so weight
    # denominators stay small and the exact fast path keeps applying
    grid_den = 60
    p = Fraction(0)
    cur = arr
    rounds: List[CompoundRound] = []
    while p < 1:
        if growing:
            cap = min(d * (1 + p * (t[s] - 1)) / (t[s] - 1) for s in growing)
        else:
            cap = 1 - p
        inc = min(beta, 1 - p, cap)
        inc = Fraction(math.floor(inc * grid_den), grid_den)
        if inc <= 0:
            raise PreconditionError(
                "compound schedule cannot advance; beta or delta too small "
                f"for the 1/{grid_den} step grid")
        p_next = p + inc
        if 1 - p <= min(beta, cap):
            p_next = Fraction(1)
            inc = 1 - p
        kappas = {s: e0[s] * (t[s] - 1) * inc for s in arr.symbols}
        blocks = {s: basic_extend(cur.blocks[s], kappas[s], q,
                                  size_cap=size_cap)
                  for s in arr.symbols}
        # means are now e0*(1 + p_next*(t-1)); fold them into the values and
        # keep a unit scale, since the multipliers need not be proportional
        new_vals = {s: blocks[s].mean for s in arr.symbols}
        cur = BlockArray(arr.symbols, blocks, new_vals, Fraction(1))
        p = p_next
        rounds.append(CompoundRound(rounds[-1].p_after if rounds else
                                    Fraction(0), p, cur.height))
    # a plain tiling fixes the admissible-k threshold without moving means
    tile = max(choose_tile(cur.blocks[s], eps_out / 2, size_cap)
               for s in arr.symbols)
    if tile > 1:
        cur = BlockArray(arr.symbols,
                         {s: _tile(cur.blocks[s], tile)
                          for s in arr.symbols}, cur.values, cur.scale)
        rounds.append(CompoundRound(p, p, cur.height))
    # final array: values are the target labels, scale absorbs the rest when
    # the multipliers are proportional; otherwise keep unit scale
    final_vals = {s: e0[s] * t[s] for s in arr.symbols}
    final = BlockArray(arr.symbols, cur.blocks, final_vals, Fraction(1))
    for s in arr.symbols:
        if final.blocks[s].mean != final_vals[s]:
            raise InvariantError("exact mean multiplication failed")
    return final, CompoundReport(tuple(rounds), base_h)


# -- full extension step ---------------------------------------------------


def _certify(arr_new: BlockArray, gamma: GammaTable, k_lo: int,
             k_hi: int) -> Verdict:
    """The uniform (L-infinity) arctan transport distance between the exact
    histogram of S_k/(k gamma(k)), whose masses are integer position counts,
    and the label distribution, held below eps(k) on the certificate grid."""
    y = arr_new.label_dist()
    grid = make_k_grid(k_lo, k_hi, dense_cap=CERT_DENSE, geo_cap=CERT_GEO)
    g, _, den = gamma.rows(grid)
    norms = iter((g / den).tolist())
    laws = ((hist, list(islice(norms, len(hist.ks))), [y] * len(hist.ks))
            for hist in arr_new.sk_histograms(grid))
    distances = dict(zip(grid, transport_distances(laws, "uniform")))
    return Verdict(distances, {k: gamma.eps(k) for k in grid}, strict=True)


def extension_step(arr: BlockArray, delta: Scalar, eps: Scalar,
                   rounds: int = 3, size_cap: int = DEFAULT_SIZE_CAP
                   ) -> Tuple[BlockArray, GammaTable, Verdict]:
    """Produce a strictly larger-scale array that is still exactly
    label-distributed, its gamma chain, and the verdict of its closeness to
    the label distribution along it; the caller holds its change to delta.

    The scale grows by a small factor through ``rounds`` basic extensions
    whose bumps stay uniformly negligible at every window length, so the
    certificate is uniform: it bounds the L-infinity transport distance at
    every k of its grid.
    """
    delta = Fraction(delta)
    eps = Fraction(eps)
    if not 0 < eps <= delta:
        raise PreconditionError("need 0 < eps <= delta")
    if rounds < 1:
        raise PreconditionError("extension needs at least one round")
    q = 2 * (int(1 / delta) + 1)
    # dyadic bump coefficient: every bump is theta*value(s), keeping weight
    # denominators bounded while window excess stays below eps/4
    theta_cap = eps * Fraction(arr.scale) / (4 * (rounds + 1))
    j = 0
    while Fraction(1, 2 ** j) > theta_cap:
        j += 1
    theta = Fraction(1, 2 ** j)
    h0 = arr.height
    cur = arr
    heights = [h0]
    scales = [Fraction(arr.scale)]
    eps_round = eps / 2
    for r in range(rounds):
        # every block gains theta*value(s)/(q*h) in mean, so the array stays
        # label-distributed at scale + theta/(q*h), and all blocks share
        # the least tile count that normalizes each
        h = cur.height
        blocks = {s: basic_extend(cur.blocks[s], theta * cur.values[s] /
                                  (q * h), q, size_cap=size_cap)
                  for s in cur.symbols}
        mu = max(choose_tile(w, eps_round, size_cap) for w in blocks.values())
        cur = BlockArray(cur.symbols, {s: _tile(w, mu)
                                       for s, w in blocks.items()},
                         cur.values, cur.scale + theta / (q * h))
        heights.append(cur.height)
        scales.append(cur.scale)
    span = heights[-1] - h0
    # allowance decays from delta at the old height to eps at the new one
    anchors_e = [(h0, float(delta))]
    ks = sorted({min(heights[-1], h0 * 2 ** i)
                 for i in range(1, 64) if h0 * 2 ** i < heights[-1]})
    for k in ks:
        frac = Fraction(heights[-1] - k, span) * Fraction(h0, k)
        anchors_e.append((k, float(eps + (delta - eps) * frac)))
    anchors_e.append((heights[-1], float(eps)))
    if any((g1 - g0) / (k1 - k0) > delta for k0, k1, g0, g1 in
           zip(heights, heights[1:], scales, scales[1:])):
        raise InvariantError("gamma chain step exceeds delta")
    gamma = GammaTable(tuple(zip(heights, scales)), tuple(anchors_e),
                       mode="linear")
    return cur, gamma, _certify(cur, gamma, h0, heights[-1])


# -- straightening ---------------------------------------------------------


@dataclass(frozen=True)
class StraighteningReport:
    """Blend schedule from a coarse label to a fine one along a splitting."""

    k_factor: Fraction
    q_grid: tuple                   # ((k, q_k), ...) blend weights
    verdict: Verdict                # distance to the blend < eps + cost


def straightening_step(arr: BlockArray, split: Splitting, eps: Scalar,
                       eta: Scalar, size_cap: int = DEFAULT_SIZE_CAP
                       ) -> Tuple[BlockArray, StraighteningReport]:
    """Refine a coarse-labeled array along a splitting of its label.

    Each fine symbol xi lifts the block of its coarse image and compounds
    it by K*g(xi)/f(pi(xi)) with K just above the worst ratio f/g, so the
    refined array is exactly distributed like the fine label at scale K
    times the old scale.  Partial sums at window scale k look like a blend
    of the two labels with weight q_k moving monotonically from 0 to 1.
    """
    eps = Fraction(eps)
    eta = Fraction(eta)
    if eps <= 0 or eta <= 0:
        raise PreconditionError("eps and eta must be positive")
    coarse_syms = set(arr.symbols)
    if set(split.coarse.symbols) != coarse_syms:
        raise PreconditionError(
            "splitting coarse symbols must match the array symbols")
    f = {s: Fraction(arr.values[s]) for s in arr.symbols}
    g = {x: Fraction(split.fine.values[x]) for x in split.fine.symbols}
    ratios = [f[split.pi[x]] / g[x] for x in split.fine.symbols]
    # round the lift factor up to the 1/64 grid to keep denominators small
    k_factor = Fraction(math.ceil((max(ratios) + Fraction(1, 64)) * 64), 64)
    c0 = Fraction(arr.scale)
    fine_syms = tuple(split.fine.symbols)
    lifted = BlockArray(fine_syms,
                        {x: arr.blocks[split.pi[x]] for x in fine_syms},
                        {x: f[split.pi[x]] for x in fine_syms}, c0)
    t_map = {x: k_factor * g[x] / f[split.pi[x]] for x in fine_syms}
    refined, rep = compound_extend(lifted, t_map, beta=eta, eps_out=eps,
                                   delta=eta, size_cap=size_cap)
    final = BlockArray(fine_syms, refined.blocks, g, c0 * k_factor)
    h0, h1 = arr.height, final.height
    grid = make_k_grid(h0, h1, dense_cap=min(2048, 4 * h0), geo_cap=64)
    # p_of_k steps over the compound rounds, so q_k, the norm and the
    # blend are made once per distinct p; one blend object per q_k lets
    # the transport reduce it once
    q_grid, norms, blend_of, of_p = [], {}, {}, {}
    for k in grid:
        p = rep.p_of_k(k)
        if p not in of_p:
            q_k = (k_factor * p) / ((1 - p) + p * k_factor)
            of_p[p] = (q_k, c0 * ((1 - p) + p * k_factor), FiniteDist.uniform(
                [(1 - q_k) * f[split.pi[x]] + q_k * g[x] for x in fine_syms]))
        q_k, norms[k], blend_of[k] = of_p[p]
        # one q_k object per p, so only a step of p is compared
        if q_grid and q_k is not q_grid[-1][1] and q_k < q_grid[-1][1]:
            raise InvariantError("blend weight must be monotone in k")
        q_grid.append((k, q_k))
    distances = dict(zip(grid, transport_distances(
        (hist, [norms[k] for k in hist.ks], [blend_of[k] for k in hist.ks])
        for hist in final.sk_histograms(grid))))
    if q_grid[0][1] != 0:
        raise InvariantError("blend weight must start at 0")
    bound = float(eps) + split.cost()
    return final, StraighteningReport(
        k_factor, tuple(q_grid),
        Verdict(distances, dict.fromkeys(distances, bound), strict=True))
