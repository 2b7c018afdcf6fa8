"""Kakutani skyscraper over an integer return-time process.

A finished tower whose blocks carry integer weights is read as the return
time function of the base of a skyscraper: the weight at a base position is
the roof height there, the cyclic partial sums are the successive return
times, and the occupation count of the base up to time n is the inverse of
the return-time chain.  The module certifies the inversion duality, the
occupation-time tail bound with its explicit constant, and the alpha-moment
diagnostics of rational ergodicity at finite resolution.  Each time horizon
is reduced once, by ``occupation_sweep``, to one ``OccupationReport`` that
``check_inversion`` and ``are_diagnostic`` both read; a tail bound that
fails raises there, with its witness.  The sweep reads the exact law off
one bump spacing of each block, and takes every power of the float
statistics once per run of equal counts, on a run table; it keeps one
three-row allocation per sweep, because glibc raises its mmap threshold to
the largest mapping it frees.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .blocks import _INT64_MAX, Block, Bump
from .distributions import (INF, FiniteDist, SkHistogram, open_output,
                            sk_histograms, transport_distances)
from .lemma_engine import FLOAT_SLACK, InvariantError, Verdict
from .tower import CdfVerdict, TowerTrace

DEFAULT_ETA_INT = Fraction(1, 1000)
DEFAULT_TAIL_CONSTANT = Fraction(2)

# largest integer block total kept exactly; beyond it weights are requantized
_EXACT_TOTAL_CAP = 1 << 52


class SkyscraperError(RuntimeError):
    """Invalid skyscraper request."""


class InversionError(RuntimeError):
    """A hard occupation-tail invariant failed; carries a witness."""

    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def inverse_target(dist: FiniteDist) -> FiniteDist:
    """Distribution of 1/Z for a finitely supported Z."""
    atoms = []
    for v, m in zip(dist.values, dist.masses):
        if v == INF:
            raise SkyscraperError("cannot invert an atom at infinity")
        atoms.append((1 / Fraction(v), m))
    return FiniteDist(atoms)


@dataclass
class IntegerTower:
    """Integer return-time tower with its normalizer inversion table.

    ``blocks[s]`` is block s at scale ``time_unit``, the physical length of
    one integer tick, so its units are the integer roof heights and its
    prefix sums the return times.  ``occupation_target`` is the law of 1/Z
    for the trace target Z, i.e. the distributional limit of the normalized
    occupation counts.
    """

    trace: TowerTrace
    symbols: tuple
    blocks: Dict
    time_unit: Fraction
    occupation_target: FiniteDist
    eta: Fraction
    perturbations: Dict = field(default_factory=dict)

    @property
    def height(self) -> int:
        return len(self.blocks[self.symbols[0]])

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def _inversion_table(self) -> tuple:
        """(ks, bs): the gamma anchors, from 1 on, and the normalizer
        b(k) = k*gamma(k) of the return-time sums at each, in integer
        ticks, read off the gamma table's integer rows once per tower."""
        ks = [k for k, _ in self.trace.global_gamma.anchors]
        if ks[0] != 1:
            ks = [1] + ks
        _, b, den = self.trace.global_gamma.rows(ks)
        return ks, [Fraction(n, d) / self.time_unit
                    for n, d in zip(b.tolist(), den.tolist())]

    def a_of(self, n) -> Fraction:
        """a(n) at time n (in ticks): the inverse of the piecewise-linear
        curve through (k, b(k)) at the gamma anchors k.

        It is not the exact inverse of b(k) = k*gamma(k), which is
        quadratic between linear-mode anchors and steps in "constant"
        mode.  At the sweep horizons of the presets the two agree within
        0.005%, but between anchors far apart they part: between
        lognormal's anchors 8 and 11880, a(b(k)) is 32% below k at
        k = 308."""
        if n <= 0:
            raise SkyscraperError(f"time must be positive, got {n}")
        ks, bs = self._inversion_table
        n = Fraction(n)
        if n <= bs[0]:
            return n * ks[0] / bs[0]
        for (k0, b0), (k1, b1) in zip(zip(ks, bs), zip(ks[1:], bs[1:])):
            if n <= b1:
                return k0 + (k1 - k0) * (n - b0) / (b1 - b0)
        k1, b1 = ks[-1], bs[-1]
        # the normalizer is linear with slope gamma(top) above the anchors
        return k1 + (n - b1) * k1 / b1

    def covered_horizon(self) -> int:
        """Largest time n with a(n) within the certified range of heights."""
        _, b, den = self.trace.global_gamma.rows([self.trace.height])
        return int(Fraction(int(b[0]), int(den[0])) / self.time_unit)


def integerize(trace: TowerTrace, eta: Fraction = DEFAULT_ETA_INT
               ) -> IntegerTower:
    """Turn a finished tower into an integer return-time tower.

    Weights are divided by a common rational tick so they become integers:
    exactly (zero perturbation) whenever the unit counts stay in safe
    integer range, otherwise by rounding up on a grid fine enough that every
    block mean moves by a relative amount below ``eta``.  An integer block
    of a bump-tiled block keeps a ``Bump``, from which
    ``occupation_counts`` reads it.
    """
    arr = trace.final
    eta = Fraction(eta)
    if eta <= 0:
        raise SkyscraperError("eta must be positive")
    if any(v == INF or v <= 0 for v in trace.target.values):
        raise SkyscraperError("target must be supported on (0, infinity)")
    symbols = arr.symbols
    blocks = {}
    perts = {}
    scales = {s: arr.blocks[s].scale for s in symbols}
    tick = None
    for sc in scales.values():
        tick = sc if tick is None else Fraction(
            math.gcd(tick.numerator * sc.denominator,
                     sc.numerator * tick.denominator),
            tick.denominator * sc.denominator)
    mults = {s: scales[s] / tick for s in symbols}
    exact_totals = max(arr.blocks[s].total_units() * int(mults[s])
                       for s in symbols)
    if exact_totals <= _EXACT_TOTAL_CAP:
        for s in symbols:
            mult = int(mults[s])
            bump = arr.blocks[s].bump
            if bump is not None:
                child, f, b, spacing = bump
                bump = Bump(child, f * mult, b * mult, spacing)
            blocks[s] = Block(arr.blocks[s].units * mult, tick, bump)
            perts[s] = Fraction(0)
    else:
        min_w = min(int(arr.blocks[s].units.min()) * scales[s]
                    for s in symbols)
        tick = eta * min_w
        for s in symbols:
            u = arr.blocks[s].units
            r = scales[s] / tick
            num, den = r.numerator, r.denominator
            w = (u.astype(object) * num + den - 1) // den
            # summed as Python ints; weights are positive, so a total in
            # the int64 range keeps every weight and prefix sum there too
            total = int(w.sum())
            if total > _INT64_MAX:
                raise SkyscraperError(
                    f"rounded weights of block {s!r} leave the int64 range")
            bump = arr.blocks[s].bump
            if bump is not None:
                # only bump positions differ from the tiled child, and they
                # all round f*c_last + B for the child's last unit c_last
                child, f, b, spacing = bump
                c = child.units.astype(object) * f
                cw = (c * num + den - 1) // den
                last = (int(c[-1]) + b) * num
                bump = Bump(Block(cw.astype(np.int64), tick), 1,
                            (last + den - 1) // den - int(cw[-1]), spacing)
            blocks[s] = Block(w.astype(np.int64), tick, bump)
            old_mean = arr.blocks[s].mean
            new_mean = Fraction(total, len(u)) * tick
            perts[s] = (new_mean - old_mean) / old_mean
            if not perts[s] <= eta:
                raise SkyscraperError("integer rounding exceeded eta")
    occ = inverse_target(trace.target)
    return IntegerTower(trace, symbols, blocks, tick, occ, eta, perts)


def return_time_partial_sums(it: IntegerTower, n, nu: tuple):
    """Sum of the first n return times starting at base position
    nu = (symbol, pos), with pos 1-based within the symbol's block.

    n may exceed the block's least period p, with whole periods
    contributing their total: the block is p-periodic.  For an int n the
    sum is an exact Python int; for an int64 array of n the sums are an
    int64 array, and SkyscraperError is raised when the largest of them
    leaves int64.
    """
    s, pos = nu
    h = it.height
    if not 1 <= pos <= h:
        raise SkyscraperError(f"position must be in 1..{h}, got {pos}")
    if np.any(np.asarray(n) < 0):
        raise SkyscraperError("n must be nonnegative")
    pre = it.blocks[s].period_prefix()
    p = pre.size - 1
    start = (pos - 1) % p

    def exact(m: int) -> int:
        wraps, end = divmod(start + m, p)
        return wraps * int(pre[-1]) + int(pre[end]) - int(pre[start])

    if not isinstance(n, np.ndarray):
        return exact(n)
    # every unit is positive, so the sums grow with n and fit int64 when
    # the largest does
    if n.size and exact(int(n.max())) > _INT64_MAX:
        raise SkyscraperError("a return-time sum leaves the int64 range")
    wraps, end = np.divmod(start + n, p)
    return wraps * pre[-1] + pre[end] - pre[start]


def _window_ends(pre: np.ndarray, m: int) -> np.ndarray:
    """nu + max{j : S_j(nu) <= m} at each 0-based position nu of the block
    with prefix sums ``pre``, for 0 <= m < its total: one vectorized
    binary search of pre[nu] + m in the doubled prefix array."""
    h = pre.size - 1
    pre2 = np.concatenate([pre, pre[-1] + pre[1:]])
    return np.searchsorted(pre2, pre[:h] + m, side="right") - 1


def _bumped_remainder_counts(bump: Bump, h: int, m: int,
                             out: np.ndarray) -> None:
    """max{j < h : S_j(nu) <= m} over one spacing s of a height-h block
    that ``bump`` built, read off the child's prefix sums, written to the
    s entries of ``out``.

    A window of length j from nu (0 <= nu < s) reads f*C_j(nu mod L), with
    C_j the child's cyclic partial sum and L its least period, plus B for
    each of the c = (nu + j) // s bump positions it crosses.  So among the
    windows ending in [c*s, (c+1)*s), the sum is at most m exactly when
    j <= J_c(nu mod L), the largest j with C_j <= (m - c*B) // f, and as
    S_j increases with j the count is the last such c's
    min(nu + J_c, (c+1)*s - 1) - nu.  The ends are laid out in ``out``
    as s/L rows of L positions, the row start plus one child-sized table
    per c, and the positions are then subtracted in place.
    """
    child, f, b, s = bump
    pre = child.period_prefix()
    L, tot = pre.size - 1, int(pre[-1])
    starts = np.arange(0, s, L)[:, None]
    end = out.reshape(s // L, L)
    for c in range(h // s + 1):
        if m < c * b:
            break
        # whole child periods, capped at h: no count reaches h
        periods, rest = divmod((m - c * b) // f, tot)
        reach = min(periods * L, h) + _window_ends(pre, rest)
        if c == 0:
            np.add(starts, reach, out=end)
            np.minimum(end, s - 1, out=end)
            continue
        # rows from which some window reaches the c-th bump
        first = max(0, -(-(c * s - int(reach.max())) // L))
        if first >= len(starts):
            break
        ends = starts[first:] + reach
        hit = ends >= c * s
        np.minimum(ends, (c + 1) * s - 1, out=ends)
        np.copyto(end[first:], ends, where=hit)
    end -= starts
    end -= np.arange(L)


def _tiling(w: Block, h: int) -> Bump:
    """The tiling that ``occupation_counts`` reads block w of height h
    as: its ``Bump``, or else the tiling Bump(w, 1, 0, h) of itself."""
    return w.bump or Bump(w, 1, 0, h)


def occupation_counts(it: IntegerTower, n: int,
                      out: Optional[np.ndarray] = None) -> Dict:
    """S_n(1_Omega) over all base positions of every block, exact.

    For each position nu the count is max{j >= 0 : phi_j(nu) <= n}: n is
    split into whole cycles plus a remainder m, which is located on one
    period of the block's child.  A block that a bump tiling built is
    s-periodic for its spacing s, so its counts are found over one
    spacing, then copied across the rest; any other block w is read as
    the tiling Bump(w, 1, 0, len(w)) of itself, with no bump.

    The counts fill one int64 array of height * size entries in symbol
    order, ``out`` when given, and are returned keyed by symbol as views
    of it.
    """
    if n < 1:
        raise SkyscraperError("time horizon must be positive")
    h = it.height
    if out is None:
        out = np.empty(h * it.size, dtype=np.int64)
    counts = {}
    for i, s in enumerate(it.symbols):
        w = it.blocks[s]
        bump = _tiling(w, h)
        q, m = divmod(n, w.total_units())
        view = out[i * h:(i + 1) * h]
        rows = view.reshape(-1, bump.spacing)
        _bumped_remainder_counts(bump, h, m, rows[0])
        rows[0] += q * h
        rows[1:] = rows[0]
        counts[s] = view
    return counts


@dataclass(frozen=True)
class OccupationReport:
    """The occupation count S_n(1_Omega) at one time horizon: its exact
    law and the float statistics that ``are_diagnostic`` reads."""

    a_n: Fraction
    law: SkHistogram            # one-row law of S_n(1_Omega) over the base
    mean: float                 # E[S_n(1_Omega)]
    moment: dict                # alpha -> E[S_n^alpha]^(1/alpha)
    u: dict                     # (alpha, t) -> E[Phi_n 1_{Phi_n > t}]

    def to_csv(self, path: str) -> None:
        total = self.law.totals[0]
        with open_output(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["count", "mass"])
            for v, c in zip(self.law.units.tolist(),
                            self.law.counts.tolist()):
                writer.writerow([str(v), str(Fraction(c, total))])


def _spacing_law(occ: np.ndarray, h: int, spacings: Sequence[int]):
    """The sorted distinct values of ``occ`` and their int64
    multiplicities, from the first spacing s of each height-h block: the
    block repeats those s entries h/s times.  The laws of the blocks are
    merged by one ``np.unique`` of their distinct values."""
    laws = [np.unique(occ[i * h:i * h + s], return_counts=True)
            for i, s in enumerate(spacings)]
    values, where = np.unique(np.concatenate([v for v, _ in laws]),
                              return_inverse=True)
    mult = np.zeros(values.size, dtype=np.int64)
    np.add.at(mult, where, np.concatenate(
        [c * (h // s) for (_, c), s in zip(laws, spacings)]))
    return values, mult


def occupation_sweep(it: IntegerTower, n_grid: Sequence[int],
                     alphas: Sequence = (), t_grid: Sequence = (),
                     x_values: Sequence = (Fraction(5, 4), Fraction(3, 2),
                                           Fraction(2)),
                     tail_constant: Fraction = DEFAULT_TAIL_CONSTANT
                     ) -> Dict:
    """One pass over the distinct horizons of ``n_grid``, in increasing
    order, each reduced to its ``OccupationReport`` from one call of
    ``occupation_counts``.  Every horizon is counted into the same int64
    row, so one horizon's counts are held at a time and no report reads
    them.  That row and the float copy of the counts share one allocation
    of three rows, though the sweep fills two: glibc raises its mmap
    threshold to the largest mapping it frees, so freeing one larger than
    any whole-row temporary keeps the temporaries of a later step, such
    as verify, off fresh pages.

    The law is a one-row SkHistogram of the counts at scale 1 and k = 1,
    read off each block's first bump spacing times h/s and merged across
    blocks.  Its tail checks compare the exact mass of [S_n >= x a(n)]
    against tail_constant * P(Y >= x) for the occupation target Y, as one
    ``CdfVerdict`` row per horizon, and the first that fails raises
    ``InversionError`` with the witness (n, x, lhs, bound).

    The float statistics are E[S_n], the alpha-moments and the
    uniform-integrability functional u_alpha(n, t) = E[Phi_n 1_{Phi_n > t}]
    with Phi_n = (S_n/a(n))^alpha.  The counts hold few runs of equal
    values, so each power is taken once per run, on the run table, and
    the table is expanded by ``np.repeat`` only where a float sum needs
    the row in its order: the moment row, and the runs of Phi_n above t.
    A power is a function of its value alone, so each sum adds the same
    floats in the same order as over the whole row of powers.  E[S_n] is
    the mean of the float copy of the counts, and it is the alpha = 1
    moment too: that moment row is the float copy itself.

    Returns the reports keyed by horizon: what ``check_inversion`` and
    ``are_diagnostic`` read.
    """
    alphas = [float(a) for a in alphas]
    if any(a <= 0 for a in alphas):
        raise SkyscraperError("alpha must be positive")
    t_grid = [float(t) for t in t_grid]
    y = it.occupation_target
    xs = tuple(Fraction(x) for x in x_values)
    bounds = tuple(Fraction(tail_constant) * (1 - y.cdf_below(x)) for x in xs)
    h = it.height
    spacings = [_tiling(it.blocks[s], h).spacing for s in it.symbols]
    reports = {}
    # a warm example1 verify after a sweep took about 1,800 minor faults
    # with one row, 1,200 with two, none with three
    occ, occ_f, _ = np.empty((3, h * it.size), dtype=np.int64)
    occ_f = occ_f.view(float)
    for n in sorted(set(int(n) for n in n_grid)):
        occupation_counts(it, n, out=occ)
        values, mult = _spacing_law(occ, h, spacings)
        if values[0] < 1:
            raise SkyscraperError(
                f"time {n} precedes the first return at some base position")
        law = SkHistogram([1], [Fraction(1)], values, mult,
                          np.array([0, values.size]))
        a_n = it.a_of(n)
        total = law.totals[0]
        below = law.count_below(xs, [a_n.numerator], [a_n.denominator])
        tail = CdfVerdict((n,), xs, total - below, np.array([total]), bounds)
        if not tail.ok():
            _, x, lhs, bound = tail.exact(failing=True)[0]
            raise InversionError(
                f"occupation tail bound failed at n={n}, x={x}: "
                f"{lhs} > {bound}", (n, x, lhs, bound))
        np.copyto(occ_f, occ)
        # the run table: the value and the length of each run of equal
        # counts, in order
        cuts = np.concatenate(
            ([0], np.flatnonzero(occ[1:] != occ[:-1]) + 1, [occ.size]))
        lens = np.diff(cuts)
        runs = occ_f[cuts[:-1]]
        mean = float(occ_f.mean())
        moment, u = {}, {}
        for alpha in alphas:
            moment[alpha] = mean if alpha == 1.0 else float(np.mean(
                np.repeat(runs ** alpha, lens))) ** (1.0 / alpha)
            phi = (runs / float(a_n)) ** alpha
            for t in t_grid:
                above = phi > t
                u[alpha, t] = float(np.repeat(
                    phi[above], lens[above]).sum()) / occ.size
        reports[n] = OccupationReport(a_n, law, mean, moment, u)
    return reports


@dataclass(frozen=True)
class InversionReport:
    """Measured two-sided inversion at a grid of time horizons, every one
    of whose tail checks passed (``occupation_sweep``)."""

    n_grid: tuple
    occ_distances: dict         # n -> distance(S_n/a(n), Y)
    phi_distances: dict         # n -> distance(phi_m/b(m), Z) at m ~ a(n)
    top: Verdict                # occ_distances on the top decade vs tol


def check_inversion(it: IntegerTower, reports: Dict,
                    tol: float = 0.15) -> InversionReport:
    """Certify the occupation limit and the matching return-time limit.

    ``reports`` holds the ``OccupationReport`` of each horizon of the time
    grid (``occupation_sweep``).  At every n in the grid the occupation
    law S_n/a(n) is compared with the occupation target and the
    return-time law phi_m/b(m), at the matched window m ~ a(n), with the
    trace target.  Distances in the top decade of the grid must stay below
    ``tol``.
    """
    if not reports:
        raise SkyscraperError("need a nonempty time grid")
    n_grid = sorted(reports)
    y = it.occupation_target
    z = it.trace.target
    # the horizons' one-row occupation laws as the rows of one record, so
    # that one _transport call compares them all
    laws = [reports[n].law for n in n_grid]
    stacked = SkHistogram([1] * len(laws), [Fraction(1)],
                          np.concatenate([law.units for law in laws]),
                          np.concatenate([law.counts for law in laws]),
                          np.cumsum([0] + [law.units.size for law in laws]))
    occ_d = dict(zip(n_grid, transport_distances(
        [stacked], [reports[n].a_n for n in n_grid], [y] * len(n_grid))))
    windows = [max(1, int(round(float(reports[n].a_n)))) for n in n_grid]
    blocks = [it.blocks[s] for s in it.symbols]
    g, _, den = it.trace.global_gamma.rows(windows)
    phi_d = dict(zip(n_grid, transport_distances(
        sk_histograms(blocks, windows), (g / den).tolist(),
        [z] * len(n_grid))))
    top = {n: occ_d[n] for n in n_grid if n * 10 >= n_grid[-1]}
    return InversionReport(tuple(n_grid), occ_d, phi_d,
                           Verdict(top, dict.fromkeys(top, tol), strict=False))


@dataclass(frozen=True)
class AlphaRow:
    """Diagnostics of alpha-rational ergodicity for one exponent."""

    alpha: float
    mode: str                   # "integrable" or "divergent"
    a_alpha: dict               # n -> a_{alpha,Omega}(n)
    ratio_to_a1: dict           # n -> a_{alpha}(n)/a_{1}(n)
    u_sup: dict                 # t -> sup over the top window
    rho: dict                   # t -> tail integral of the target
    bound: Optional[Verdict]    # u_sup vs tail_constant*rho; None divergent


def _target_rho(y: FiniteDist, alpha: float, t: float) -> float:
    """Tail integral of Y^alpha above t: E[(Y^alpha - t)^+]."""
    acc = 0.0
    for v, m in zip(y.values, y.masses):
        acc += float(m) * max(0.0, float(v) ** alpha - t)
    return acc


def are_diagnostic(it: IntegerTower, reports: Dict, alphas: Sequence,
                   t_grid: Sequence, rho_fn: Optional[Callable] = None,
                   divergent_alphas: Sequence = (),
                   tail_constant: Fraction = DEFAULT_TAIL_CONSTANT
                   ) -> List[AlphaRow]:
    """Alpha-moment growth and uniform-integrability table.

    ``reports`` holds the ``OccupationReport`` of each horizon of the
    time grid, taken at ``alphas`` and ``t_grid`` (``occupation_sweep``).
    For each finite alpha the exact occupation counts give
    a_{alpha,Omega}(n) = (E[S_n(1_Omega)^alpha])^(1/alpha) and the
    functional u_alpha(n, t) = E[Phi_n 1_{Phi_n > t}] with
    Phi_n = (S_n/a(n))^alpha.  In integrable mode the sup of u over the top
    window must stay below tail_constant times the tail integral rho(t);
    divergent mode (infinite alpha-moment of the target) only reports the
    growth trend.
    """
    if not reports:
        raise SkyscraperError("need a nonempty time grid")
    alphas = [float(a) for a in alphas]
    t_grid = [float(t) for t in t_grid]
    n_grid = sorted(reports)
    y = it.occupation_target
    divergent = set(float(a) for a in divergent_alphas)
    top = [n for n in n_grid if n * 10 >= n_grid[-1]]
    rows = []
    for alpha in alphas:
        a_a = {n: reports[n].moment[alpha] for n in n_grid}
        ratio = {n: a_a[n] / reports[n].mean for n in n_grid}
        mode = "divergent" if alpha in divergent else "integrable"
        u_sup = {t: max([0.0] + [reports[n].u[alpha, t] for n in top])
                 for t in t_grid}
        rho = {t: rho_fn(alpha, t) if rho_fn is not None
               else _target_rho(y, alpha, t) for t in t_grid}
        bound = None if mode == "divergent" else Verdict(
            u_sup, {t: float(tail_constant) * rho[t] for t in rho},
            strict=False, slack=FLOAT_SLACK)
        rows.append(AlphaRow(alpha, mode, a_a, ratio, u_sup, rho, bound))
    return rows


def check_duality(it: IntegerTower) -> bool:
    """Exhaustive finite inversion duality on small towers.

    Verifies phi_j(nu) <= n iff S_n(1_Omega)(nu) >= j for every base
    position, every j, and every time n up to three times the largest
    block total.  Intended for towers of height at most 512.
    """
    h = it.height
    if h > 512:
        raise SkyscraperError("exhaustive duality check is limited to "
                              "height 512")
    n_max = 3 * max(it.blocks[s].total_units() for s in it.symbols)
    ns = np.arange(1, n_max + 1)
    # row n - 1 holds S_n(1_Omega) at every base position, in symbol order
    table = np.empty((n_max, h * it.size), dtype=np.int64)
    for n in range(1, n_max + 1):
        occupation_counts(it, n, out=table[n - 1])
    for i, s in enumerate(it.symbols):
        for pos in range(1, h + 1):
            # every return takes at least one step, so the first n_max + 1
            # returns pass n_max
            phis = return_time_partial_sums(
                it, np.arange(n_max + 2), (s, pos))
            s_n = table[:, i * h + pos - 1]
            # duality: the count equals the number of returns by time n
            expected = np.searchsorted(phis, ns, "right") - 1
            bad = [s_n != expected]
            # phi_j(nu) <= n iff S_n >= j, at j = S_n and at j = S_n + 1
            for j, holds in ((s_n, True), (s_n + 1, False)):
                inside = j < phis.size
                bad.append((inside & (phis[np.where(inside, j, 0)] <= ns))
                           != holds)
            first = np.flatnonzero(np.any(bad, axis=0))
            if not first.size:
                continue
            t = first[0]
            if bad[0][t]:
                raise InvariantError(
                    f"duality failed at block {s!r}, position {pos}, "
                    f"time {t + 1}: count {s_n[t]}, returns {expected[t]}")
            raise InvariantError(
                f"duality biconditional failed at {s!r}, position {pos}, "
                f"time {t + 1}, j={s_n[t] + (0 if bad[1][t] else 1)}")
    return True
