"""Stagewise tower construction with certified partial-sum distributions.

A tower is built by repeatedly extending a block array: the common scale
grows stage by stage while the array stays exactly distributed like the
target variable.  The trace records the normalizer chain b(k) = k*gamma(k),
per-stage change masses, and measured transport distances, from which the
distributional-limit claims are certified at finite resolution.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .blocks import _INT64_MAX, Block, is_normalized
from .distributions import (INF, FiniteDist, Splitting, SymRep,
                            transport_distances)
from .lemma_engine import (FLOAT_SLACK, BlockArray, GammaTable,
                           InvariantError, PreconditionError, Verdict, _tile,
                           basic_extend, choose_tile, extension_step,
                           make_k_grid, straightening_step)
from .splitting import SplitSequence

# the constant M of certify_theorem1's cdf lower bound
BICYCLE_M = Fraction(9, 8)
# tower_k_grid: every k up to EXHAUSTIVE_BELOW; above it, a window of PAD
# on each side of every stage boundary and GEO geometrically spaced k
EXHAUSTIVE_BELOW = 4096
PAD = 64
GEO = 256


@dataclass(frozen=True)
class StageRecord:
    """Summary of one construction stage."""

    index: int
    height: int
    scale: Fraction
    delta: float
    eps: float
    change_mass: Fraction
    cert_valid: Optional[bool]


@dataclass
class TowerTrace:
    """Full record of a tower construction."""

    kind: str                    # "rational", "example", or "general"
    target: FiniteDist
    stages: List[StageRecord]
    final: BlockArray
    global_gamma: GammaTable
    floor_r: Optional[Fraction] = None
    config_hash: str = ""

    @property
    def height(self) -> int:
        return self.final.height


def _check_monotone_growth(old: BlockArray, new: BlockArray) -> None:
    """Every new block must dominate the tiling of its predecessor.

    An extension chain divides the scale by an integer ratio r
    (``_add_bumps``), so the comparison runs in int64 units of the finer
    scale: old units times r against the new units.  A new unit fits
    int64, so an old unit whose rescale leaves it means a decrease."""
    for s in old.symbols:
        wo, wn = old.blocks[s], new.blocks[s]
        if len(wn) % len(wo) != 0:
            raise InvariantError("stage height must be a multiple")
        ratio = wo.scale / wn.scale
        if ratio.denominator != 1:
            raise InvariantError(
                f"scale ratio {ratio} across a stage is not an integer")
        r = ratio.numerator
        if int(wo.units.max()) * r > _INT64_MAX or not (
                wn.units.reshape(-1, len(wo)) >= wo.units * np.int64(r)).all():
            raise InvariantError("weights decreased across a stage")


def check_rational_run(target: FiniteDist, deltas: Sequence[Fraction],
                       epss: Sequence[Fraction], rounds: int) -> None:
    """Raise PreconditionError unless ``build_rational_tower`` can build
    these schedules: matching and nonempty, eps_n <= delta_n, delta_1 below
    min(Y)/9, and at least one extension round per stage.  ``load_config``
    checks a rational run with it before any step runs."""
    if len(deltas) != len(epss) or not deltas:
        raise PreconditionError("need matching nonempty delta/eps schedules")
    if any(e > d for d, e in zip(deltas, epss)):
        raise PreconditionError("eps_n must not exceed delta_n")
    min_y = target.min_value()
    if min_y == INF or not deltas[0] < Fraction(min_y) / 9:
        raise PreconditionError(
            f"delta_1 = {deltas[0]} must be below min(Y)/9 = {min_y}/9")
    if rounds < 1:
        raise PreconditionError("extension needs at least one round")


def check_example_run(kappas: Sequence[Fraction], epss: Sequence[Fraction],
                      e0: Fraction) -> None:
    """Raise PreconditionError unless ``build_example_tower`` can build
    these schedules: matching and nonempty, and at each stage n
    0 <= kappa_n <= eps_n * (e0 + kappa_1 + ... + kappa_{n-1}).
    ``load_config`` checks an example run with it before any step runs."""
    if len(kappas) != len(epss) or not kappas:
        raise PreconditionError("need matching nonempty kappa/eps schedules")
    mean = e0
    for n, (kap, e) in enumerate(zip(kappas, epss), start=1):
        if kap < 0:
            raise PreconditionError(f"stage {n}: kappa={kap} is negative")
        if kap > e * mean:
            raise PreconditionError(
                f"stage {n}: kappa={kap} exceeds eps*E = {e * mean}")
        mean += kap


def _run_stages(arr: BlockArray, deltas: Sequence[Fraction],
                epss: Sequence[Fraction], rounds: int, size_cap: int,
                levels: Optional[Dict[int, Tuple[Splitting, Fraction]]] = None
                ) -> Tuple[BlockArray, List[StageRecord],
                           List[Tuple[int, Fraction]], int]:
    """The stages of a rational or general tower, from ``arr`` on.

    Stage n first straightens the array along ``levels[n]`` (a splitting
    onto a finer dyadic level and its blend coarseness eta) when given,
    then applies a gentle extension with (delta_n, eps_n), whose weights
    must dominate the old ones and whose certificate must hold.  Returns
    the final array, the stage records, the merged gamma anchors and the
    height after the last straightening (1 when none ran).
    """
    levels = levels or {}
    stages: List[StageRecord] = []
    g_anchors: List[Tuple[int, Fraction]] = [(1, Fraction(1))]
    k_flat = 1
    for n, (d, e) in enumerate(zip(deltas, epss), start=1):
        if n in levels:
            split, eta = levels[n]
            arr, srep = straightening_step(arr, split, e, eta,
                                           size_cap=size_cap)
            if not srep.verdict.ok():
                raise InvariantError(f"straightening at stage {n} failed at "
                                     f"k={srep.verdict.failures()[:3]}")
            k_flat = arr.height
        arr_new, gamma, cert = extension_step(arr, d, e, rounds=rounds,
                                              size_cap=size_cap)
        _check_monotone_growth(arr, arr_new)
        change = arr_new.change_mass()
        if not (cert.ok() and change < d):
            raise InvariantError(
                f"stage {n} certificate failed at k={cert.failures()[:3]}, "
                f"change mass {change} against delta {d}")
        g_anchors += [(k, g) for k, g in gamma.anchors
                      if k > g_anchors[-1][0]]
        stages.append(StageRecord(n, arr_new.height, Fraction(arr_new.scale),
                                  float(d), float(e), change, True))
        arr = arr_new
    return arr, stages, g_anchors, k_flat


def build_rational_tower(target: FiniteDist, deltas: Sequence,
                         epss: Sequence, rounds: int = 2,
                         size_cap: int = 10 ** 6) -> TowerTrace:
    """Pure extension chain for a finitely supported rational target.

    Stage n applies a gentle extension with parameters (delta_n, eps_n);
    delta_1 must stay below a ninth of the smallest target value so that
    the uniform-metric certificates transfer to a sharp lower bound on the
    partial sums.
    """
    deltas = [Fraction(d) for d in deltas]
    epss = [Fraction(e) for e in epss]
    check_rational_run(target, deltas, epss, rounds)
    # one symbol per unit of target mass, so the array is label-distributed
    den = math.lcm(*(m.denominator for m in target.masses))
    symbols = []
    values = {}
    blocks = {}
    for v, m in zip(target.values, target.masses):
        for j in range(int(m * den)):
            s = (len(symbols), v)
            symbols.append(s)
            values[s] = Fraction(v)
            blocks[s] = Block.from_weights([v])
    arr = BlockArray(tuple(symbols), blocks, values, Fraction(1))
    arr, stages, g_anchors, _ = _run_stages(arr, deltas, epss, rounds,
                                            size_cap)
    gamma = GammaTable(tuple(g_anchors),
                       tuple((st.height, st.eps) for st in stages),
                       mode="linear")
    return TowerTrace("rational", target, stages, arr, gamma)


def build_example_tower(kappas: Sequence, epss: Sequence,
                        e0: Fraction = Fraction(5000),
                        size_cap: int = 10 ** 7) -> TowerTrace:
    """Single-block tower with prescribed mean increments.

    Stage n adds kappa_n to the mean through one basic extension; the
    change ledger collects exactly one touched level per stage.  The
    normalizer uses the stagewise-constant convention
    b(N) = N * E(stage n) for heights N in [h_n, h_{n+1}).
    """
    kappas = [Fraction(k) for k in kappas]
    epss = [Fraction(e) for e in epss]
    e0 = Fraction(e0)
    check_example_run(kappas, epss, e0)
    w = Block.from_weights([e0])
    sym = ("w",)
    mean = e0
    anchors = [(1, e0)]
    e_anchors = []
    stages: List[StageRecord] = []
    target = FiniteDist.point(Fraction(1))
    for n, (kap, e) in enumerate(zip(kappas, epss), start=1):
        q = int(1 / e) + 1
        w = basic_extend(w, kap, q, delta=e, size_cap=size_cap)
        w = _tile(w, choose_tile(w, e, size_cap))
        mean = mean + kap
        if w.mean != mean:
            raise InvariantError("mean increment failed to be exact")
        normalized, where = is_normalized(w, e, witness=True)
        if not normalized:
            raise InvariantError(f"stage {n} block is not eps-normalized "
                                 f"at (k, position) = {where}")
        anchors.append((len(w), mean))
        e_anchors.append((len(w), float(e)))
        stages.append(StageRecord(n, len(w), mean / e0, float(e), float(e),
                                  Fraction(w.changed_count(), len(w)), True))
    arr = BlockArray(sym, {"w": w}, {"w": Fraction(1)}, mean)
    gamma = GammaTable(tuple(anchors), tuple(e_anchors), mode="constant")
    return TowerTrace("example", target, stages, arr, gamma)


def build_general_tower(seq: SplitSequence, deltas: Sequence,
                        epss: Sequence, rounds: int = 1,
                        size_cap: int = 10 ** 6,
                        etas: Optional[Sequence] = None) -> TowerTrace:
    """Alternating straightening and extension stages for a general target.

    The target is discretized along ``seq``, the dyadic splitting sequence
    that ``build_split_sequence`` made for it at ``epss``; each refinement
    is folded into the array by a straightening step and each stage ends
    with a gentle extension.  The top dyadic cell is truncated to the
    quantile floor R so weights stay finite; the clipped mass is 2^-depth
    of the first representation.
    """
    deltas = [Fraction(d) for d in deltas]
    epss = [Fraction(e) for e in epss]
    # blend coarseness of the straightening stages; the certified distance
    # bound is eps + splitting cost regardless, while the compounded height
    # grows like (eta*q*h)^2, so a coarse blend keeps the construction small
    etas = [Fraction(1, 2)] * len(deltas) if etas is None \
        else [Fraction(x) for x in etas]
    floor_r = seq.floor_r
    reps = seq.reps

    def rationalize(v):
        # float quantiles are rounded up to a coarse rational grid so the
        # exact block arithmetic keeps bounded denominators
        if isinstance(v, float):
            return Fraction(math.ceil(v * 16), 16)
        return Fraction(v)

    r_cap = rationalize(floor_r) if floor_r != INF else INF

    def clipped(rep):
        return [rationalize(v) if v != INF and v <= floor_r else r_cap
                for v in rep.cell_values]

    syms = [SymRep(tuple(range(rep.size)), dict(enumerate(clipped(rep))))
            for rep in reps]
    # stage n > 1 first folds in the next finer level of the split chain
    levels = {n: (Splitting(syms[n - 1], syms[n - 2],
                            {j: j >> (reps[n - 1].depth - reps[n - 2].depth)
                             for j in syms[n - 1].symbols}), etas[n - 1])
              for n in range(2, min(len(reps), len(deltas)) + 1)}
    arr = BlockArray(syms[0].symbols,
                     {j: Block.from_weights([v])
                      for j, v in syms[0].values.items()},
                     syms[0].values, Fraction(1))
    arr, stages, g_anchors, k_flat = _run_stages(arr, deltas, epss, rounds,
                                                 size_cap, levels)
    e_anchors = [(st.height, st.eps) for st in stages]
    # plain tiling pushes the top decade of heights past the last scale
    # jump, where the normalizer is flat and b(2k)/b(k) sits at 2
    tile = 1
    while arr.height * tile < 20 * k_flat and \
            arr.height * 2 * tile <= size_cap:
        tile *= 2
    if tile > 1:
        arr = BlockArray(arr.symbols,
                         {s: _tile(arr.blocks[s], tile)
                          for s in arr.symbols}, arr.values, arr.scale)
        g_anchors.append((arr.height, Fraction(arr.scale)))
        e_anchors.append((arr.height, float(epss[-1])))
    gamma = GammaTable(tuple(g_anchors), tuple(e_anchors), mode="linear")
    tgt = arr.label_dist()
    return TowerTrace("general", tgt, stages, arr, gamma,
                      r_cap if floor_r != INF else None)


# -- certification ---------------------------------------------------------


def tower_k_grid(trace: TowerTrace) -> List[int]:
    """Stage boundaries with a local window, plus geometric fill; every k
    when the final height is small enough."""
    h = trace.height
    if h <= EXHAUSTIVE_BELOW:
        return list(range(1, h + 1))
    ks = set(make_k_grid(1, h, dense_cap=1, geo_cap=GEO))
    for b in [1] + [st.height for st in trace.stages]:
        ks.update(range(max(1, b - PAD), min(h, b + PAD) + 1))
    return sorted(ks)


@dataclass(frozen=True, eq=False)
class CdfVerdict:
    """Integer counts against exact bounds over a grid: the entry (i, j)
    passes when counts[i, j] / totals[i] <= bounds[j], decided as the
    integer cross product counts[i, j] * bounds[j].denominator <=
    bounds[j].numerator * totals[i], in Python ints over the whole array
    at once.  Exact Fractions are made only for the entries that a reader
    asks ``exact`` for.

    ``certify_theorem1`` decides the cdf lower bound P(S_k < x b(k)) <=
    P(Y <= M x) at every x > 0 with it.  Both sides are step functions of
    x: the left one is left-continuous and nondecreasing, and the right
    one is constant between the points y/M, for y the atoms of the target
    Y.  So the bound holds at every x exactly when P(S_k < x b(k)) <=
    P(Y < y) at x = y/M for each atom y.  Row i is the i-th distinct k of
    the grid (``ks``, in grid order), column j the j-th atom y_j, with
    x_j = y_j/M in ``xs``; an entry that fails says that the bound fails
    just below x_j.  ``occupation_sweep`` decides its tail checks with
    one row per horizon.
    """

    ks: tuple
    xs: tuple
    counts: np.ndarray          # (len(ks), len(xs)) int64
    totals: np.ndarray          # (len(ks),) int64
    bounds: tuple               # one exact bound per x

    def __post_init__(self):
        n, t = self.counts.astype(object), self.totals.astype(object)
        bn, bd = (np.array([getattr(b, side) for b in self.bounds],
                           dtype=object)
                  for side in ("numerator", "denominator"))
        object.__setattr__(self, "_failed",
                           list(zip(*np.nonzero(n * bd > bn * t[:, None]))))

    def ok(self) -> bool:
        return not self._failed

    def exact(self, failing: bool = False) -> list:
        """(k, x, counts/totals, bound) of every entry, or of each failing
        one (the report), in grid order, both sides exact."""
        return [(self.ks[i], self.xs[j],
                 Fraction(int(self.counts[i, j]), int(self.totals[i])),
                 self.bounds[j])
                for i, j in (self._failed if failing
                             else np.ndindex(self.counts.shape))]


@dataclass(frozen=True)
class Theorem1Report:
    """Certification summary for a tower trace: three verdicts."""

    k_grid: tuple               # the grid as measured, repeats included
    # k -> L1 arctan transport distance from the exact histogram of S_k/b(k)
    # (integer position counts) to the target, against the stage eps
    eps: Verdict
    # P(S_k < y b(k)/M) against P(Y < y) per distinct k and atom y of
    # the target: the bound P(S_k < x b(k)) <= P(Y <= M x) at every x > 0
    lower_bound: CdfVerdict
    # k -> |b(2k)/b(k) - 2| in the top window, against doubling_tol
    doubling: Verdict

    def ok(self) -> bool:
        return all(v.ok() for v in (self.eps, self.lower_bound, self.doubling))


def certify_theorem1(trace: TowerTrace, doubling_tol: float = 0.1,
                     k_grid: Optional[Sequence[int]] = None) -> Theorem1Report:
    """Measure the distributional convergence claims of a finished tower.

    Checks, on the verification grid: the L1 transport distance between
    S_k/b(k) and the target stays within the stage epsilon; the exact cdf
    lower bound P(S_k < x b(k)) <= P(Y <= M x) with M = BICYCLE_M at every
    x > 0, from one threshold per atom of the target (``CdfVerdict``); and
    b(2k)/b(k) near 2 over the top decade of heights.  b(k) = k*gamma(k)
    is read off the integer rows of the gamma table (``GammaTable.rows``)
    for the whole grid at once.
    """
    arr = trace.final
    y = trace.target
    grid = list(k_grid) if k_grid is not None else tower_k_grid(trace)
    # a repeated k is measured and listed once, at its first place
    ks = list(dict.fromkeys(grid))
    xs = tuple(v / BICYCLE_M for v in y.values)
    g, b, den = trace.global_gamma.rows(ks)
    counts = np.zeros((len(ks), len(xs)), dtype=np.int64)
    totals = np.zeros(len(ks), dtype=np.int64)

    def laws():
        # the cdf checks read each record on its way to the transport
        i = 0
        for hist in arr.sk_histograms(ks):
            j = i + len(hist.ks)
            counts[i:j] = hist.count_below(xs, b[i:j], den[i:j])
            totals[i:j] = hist.totals
            yield hist
            i = j

    vas = dict(zip(ks, transport_distances(laws(), (g / den).tolist(),
                                            [y] * len(ks))))
    # the eps of the first stage that reaches k, else the last
    at = np.searchsorted([st.height for st in trace.stages], ks)
    eps = [trace.stages[i].eps
           for i in at.clip(max=len(trace.stages) - 1).tolist()]
    h = trace.height
    k0 = max(1, h // 20)
    top = range(k0, h // 2 + 1, max(1, (h // 2 - k0) // 32))
    _, bn, bd = trace.global_gamma.rows([*top, *(2 * k for k in top)])
    bf = (bn / bd).astype(float)
    gaps = dict(zip(top, np.abs(bf[len(top):] / bf[:len(top)] - 2).tolist()))
    return Theorem1Report(
        tuple(grid),
        Verdict(vas, dict(zip(ks, eps)), strict=False, slack=FLOAT_SLACK),
        CdfVerdict(tuple(ks), xs, counts, totals,
                   tuple(map(y.cdf_below, y.values))),
        Verdict(gaps, dict.fromkeys(gaps, doubling_tol), strict=False))


# -- serialization ---------------------------------------------------------


def trace_to_json_obj(trace: TowerTrace) -> dict:
    gamma_obj = trace.global_gamma.to_json_obj()
    return {
        "kind": trace.kind,
        "mode": "exact",
        "config_hash": trace.config_hash,
        "target": trace.target.to_json_obj(),
        "height": trace.height,
        "bicycle_m": str(BICYCLE_M),
        "floor_r": str(trace.floor_r) if trace.floor_r is not None else None,
        "deltas": [st.delta for st in trace.stages],
        "epss": [st.eps for st in trace.stages],
        "stages": [{"index": st.index, "height": st.height,
                    "scale": str(st.scale), "delta": st.delta,
                    "eps": st.eps, "change_mass": str(st.change_mass),
                    "cert_valid": st.cert_valid} for st in trace.stages],
        "gamma": gamma_obj,
        "gamma_checksum": trace.global_gamma.checksum(),
    }


class CorruptTraceError(RuntimeError):
    """A serialized trace failed its integrity check."""


def load_trace_summary(path: str) -> dict:
    """Load and integrity-check a serialized trace (summary only).

    Raises CorruptTraceError when the file cannot be opened or read, is
    not JSON, lacks the gamma table or its checksum, or the table does not
    match its checksum.
    """
    try:
        with open(path) as fh:
            obj = json.load(fh)
        ok = GammaTable.from_json_obj(obj["gamma"]).checksum() == \
            obj["gamma_checksum"]
    except (OSError, ValueError, KeyError, TypeError,
            ZeroDivisionError) as exc:
        raise CorruptTraceError(f"unreadable trace {path}: {exc!r}") from exc
    if not ok:
        raise CorruptTraceError(f"gamma table checksum mismatch in {path}")
    return obj
