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
fails raises there, with its witness.  ``occupation_counts`` gives each
block's counts as a run table, computed in bands of equal rows of one bump
spacing without visiting every position, and the sweep reads the exact law,
the mean and every power of the float statistics off the run tables: no
per-position count row is made.
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

    @cached_property
    def _tilings(self) -> Dict:
        """symbol -> the block's unit total and the tiling that
        ``occupation_counts`` reads it as, with one child period's prefix
        sums, plain and doubled, made once per tower, in symbol order.
        The tiling is the block's ``Bump``, or else the tiling
        Bump(w, 1, 0, h) of itself."""
        tilings = {}
        for s in self.symbols:
            w = self.blocks[s]
            bump = w.bump or Bump(w, 1, 0, self.height)
            pre = bump.child.period_prefix()
            tilings[s] = (w.total_units(), bump, pre,
                          np.concatenate([pre, pre[-1] + pre[1:]]))
        return tilings

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


def _ragged_arange(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges [start, start + size) of each pair, concatenated."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1])


def _row_counts(reach: List[np.ndarray], rows: np.ndarray, L: int,
                s: int):
    """The counts at the L positions of each of the given rows of one
    spacing, and whether each row holds a capped entry: one whose window
    reaches past the next bump but cannot cross it."""
    start = rows[:, None] * L
    end = start + reach[0]
    capped = end > s - 1
    np.minimum(end, s - 1, out=end)
    for c in range(1, len(reach)):
        ends = start + reach[c]
        hit = ends >= c * s
        last = (c + 1) * s - 1
        np.copyto(capped, ends > last, where=hit)
        np.minimum(ends, last, out=ends)
        np.copyto(end, ends, where=hit)
    end -= start
    end -= np.arange(L)
    return end, capped.any(axis=1)


def _block_runs(h: int, m: int, bump: Bump, pre: np.ndarray,
                pre2: np.ndarray):
    """The run table (values, lengths) of max{j < h : S_j(nu) <= m} over
    the positions nu of a height-h block, in order, read off the ``bump``
    (child, f, B, s) that tiles it and one child period's prefix sums
    ``pre``, and ``pre2`` doubled.

    A window of length j from nu (0 <= nu < s) reads f*C_j(nu mod L), with
    C_j the child's cyclic partial sum and L its least period, plus B for
    each of the c = (nu + j) // s bump positions it crosses.  Write
    nu = r*L + i, and R_c[i] for i plus the largest j with
    C_j(i) <= (m - c*B) // f.  Among the windows ending in [c*s, (c+1)*s)
    the sum is at most m exactly when nu + j <= r*L + R_c[i], and as S_j
    increases with j, the count is min(r*L + R_c[i], (c+1)*s - 1) - nu
    for the largest c with r*L + R_c[i] >= c*s.

    So one spacing is read as s/L rows of L positions.  Each R_c is
    nondecreasing in i, so the rows at which a hit test or a cap flips
    for some i lie between its flips at i = 0 and at i = L - 1.  Those
    rows cut the spacing into a few bands.  In a band every row repeats
    the band's first row, unless that row holds a capped entry; such a
    band is counted row by row.  The spacing repeats h/s times.
    """
    _, f, b, s = bump
    L, tot = pre.size - 1, int(pre[-1])
    rows = s // L
    reach, cuts = [], {0, rows}
    for c in range(h // s + 1):
        if m < c * b:
            break
        # whole child periods, capped at h: no count reaches h
        periods, rest = divmod((m - c * b) // f, tot)
        r = min(periods * L, h) + np.searchsorted(
            pre2, pre[:-1] + rest, side="right") - 1
        lo, hi = int(r[0]), int(r[-1])
        if c and (rows - 1) * L + hi < c * s:
            break       # no row reaches bump c
        reach.append(r)
        # the first rows where some entry and where every entry hits
        # bump c, and where some entry reaches past bump c + 1
        for edge in (c * s - hi, c * s - lo, (c + 1) * s - hi):
            cuts.add(min(max(-(-edge // L), 0), rows))
    cuts = sorted(cuts)
    starts = np.array(cuts[:-1])
    bands = np.array(cuts[1:]) - starts
    counts, capped = _row_counts(reach, starts, L, s)
    each = np.where(capped, bands, 1)
    if capped.any():
        counts, _ = _row_counts(reach, _ragged_arange(starts, each), L, s)
    reps = np.repeat(np.where(capped, 1, bands), each)
    # the runs of each row; a row of one run, repeated, is one longer run
    flat = counts.ravel()
    new = np.ones(flat.size + 1, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=new[1:-1])
    new[::L] = True
    at = np.flatnonzero(new)
    values, lengths = flat[at[:-1]], at[1:] - at[:-1]
    per_row = np.bincount(at[:-1] // L, minlength=reps.size)
    first = np.cumsum(per_row) - per_row
    single = per_row == 1
    lengths[first[single]] *= reps[single]
    row = np.tile(np.repeat(np.arange(reps.size),
                            np.where(single, 1, reps)), h // s)
    runs = _ragged_arange(first[row], per_row[row])
    return values[runs], lengths[runs]


def occupation_counts(it: IntegerTower, n: int) -> Dict:
    """S_n(1_Omega) over all base positions of every block, exact, as
    run tables.

    For each position nu the count is max{j >= 0 : phi_j(nu) <= n}: n is
    split into whole cycles plus a remainder m, which is located on one
    period of the block's child (``_block_runs``).  A block that a bump
    tiling built is s-periodic for its spacing s, so its counts are found
    over one spacing, in bands of equal rows of child-period length;
    any other block w is read as the tiling Bump(w, 1, 0, len(w)) of
    itself, with no bump.  No per-position array is made.

    Returns, keyed by symbol, the run table (values, lengths) of the
    block's counts in position order: ``np.repeat(values, lengths)`` is
    the count at every position.  Every length is positive; two
    neighbouring runs, from rows counted apart, may hold the same value.
    """
    if n < 1:
        raise SkyscraperError("time horizon must be positive")
    h = it.height
    counts = {}
    for s, (total, *tiling) in it._tilings.items():
        q, m = divmod(n, total)
        values, lengths = _block_runs(h, m, *tiling)
        counts[s] = (values + q * h, lengths)
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


def occupation_sweep(it: IntegerTower, n_grid: Sequence[int],
                     alphas: Sequence = (), t_grid: Sequence = (),
                     x_values: Sequence = (Fraction(5, 4), Fraction(3, 2),
                                           Fraction(2)),
                     tail_constant: Fraction = DEFAULT_TAIL_CONSTANT
                     ) -> Dict:
    """One pass over the distinct horizons of ``n_grid``, in increasing
    order, each reduced to its ``OccupationReport`` from the run tables
    of one call of ``occupation_counts``.  No report holds the tables,
    and no per-position count row is made.

    The law is a one-row SkHistogram of the counts at scale 1 and k = 1:
    the distinct run values, each with the summed lengths of its runs.
    Its tail checks compare the exact mass of [S_n >= x a(n)] against
    tail_constant * P(Y >= x) for the occupation target Y, as one
    ``CdfVerdict`` row per horizon, and the first that fails raises
    ``InversionError`` with the witness (n, x, lhs, bound).

    The float statistics are E[S_n], the alpha-moments and the
    uniform-integrability functional u_alpha(n, t) = E[Phi_n 1_{Phi_n > t}]
    with Phi_n = (S_n/a(n))^alpha.  E[S_n], which is the alpha = 1
    moment too, is the exact integer total of the counts divided by
    their number: the float mean of the count row while that total is
    below 2^53, where every partial sum of the row is exact, and the
    correctly rounded mean above it.  Each other power is taken once per
    run, and the table is expanded by ``np.repeat`` only where a float
    sum needs the row in its order: the moment row, and the runs of
    Phi_n above t.  A power is a function of its value alone, so each sum
    adds the same floats in the same order as over the whole row of
    powers.

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
    size = it.height * it.size
    reports = {}
    for n in sorted(set(int(n) for n in n_grid)):
        tables = occupation_counts(it, n).values()
        runs = np.concatenate([v for v, _ in tables])
        lens = np.concatenate([c for _, c in tables])
        # the distinct values by one sort (np.unique hashes, which is
        # slower on hundreds of thousands of runs)
        ordered = np.sort(runs)
        values = ordered[np.append(True, ordered[1:] != ordered[:-1])]
        mult = np.zeros(values.size, dtype=np.int64)
        np.add.at(mult, np.searchsorted(values, runs), lens)
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
        mean = sum(v * c for v, c in zip(values.tolist(),
                                         mult.tolist())) / size
        runs = runs.astype(float)
        moment, u = {}, {}
        for alpha in alphas:
            moment[alpha] = mean if alpha == 1.0 else float(np.mean(
                np.repeat(runs ** alpha, lens))) ** (1.0 / alpha)
            phi = (runs / float(a_n)) ** alpha
            for t in t_grid:
                above = phi > t
                u[alpha, t] = float(np.repeat(
                    phi[above], lens[above]).sum()) / size
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


def _duality_horizon(it: IntegerTower) -> int:
    """The last time n that ``check_duality`` checks: three times the
    largest block total."""
    return 3 * max(it.blocks[s].total_units() for s in it.symbols)


def duality_fits(it: IntegerTower) -> bool:
    """Whether ``check_duality`` fits its bounds: its table of counts, one
    row per time n and one column per base position, holds at most 2^22
    entries (32 MiB of int64), and it counts the blocks at most 2^14
    times, each a kernel call of tens of microseconds."""
    n_max = _duality_horizon(it)
    return (n_max * it.height * it.size <= 1 << 22
            and n_max * it.size <= 1 << 14)


def check_duality(it: IntegerTower) -> bool:
    """Exhaustive finite inversion duality on small towers.

    Verifies phi_j(nu) <= n iff S_n(1_Omega)(nu) >= j for every base
    position, every j, and every time n up to three times the largest
    block total.  Its table of counts is bounded (``duality_fits``).
    """
    if not duality_fits(it):
        raise SkyscraperError("exhaustive duality check is limited to "
                              "2^22 counts and 2^14 block counts (times up "
                              "to three block totals, by base positions "
                              "and by blocks)")
    h = it.height
    n_max = _duality_horizon(it)
    ns = np.arange(1, n_max + 1)
    # row n - 1 holds S_n(1_Omega) at every base position, in symbol order
    table = np.empty((n_max, h * it.size), dtype=np.int64)
    for n in range(1, n_max + 1):
        table[n - 1] = np.concatenate([
            np.repeat(*runs) for runs in occupation_counts(it, n).values()])
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
