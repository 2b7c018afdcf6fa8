"""Command-line front end: config parsing, pipeline orchestration, reports.

Configs are JSON, and ``load_config`` is their one reader: it checks every
key, rejects any key it does not read (at the top level, in ``skyscraper``
and in ``skyscraper.base``), builds the run's target and reads the
skyscraper section before any step runs, so a bad config exits 2 with
nothing written.  Config numbers are read exactly as Fractions: integers,
rational strings "p/q", decimal strings such as "0.05" or "1e-3", and JSON
floats through their shortest repr, so 0.1 is 1/10.  Counts (size_cap,
rounds, max_depth, n_points) must be whole numbers, so "1e6" is 10**6 and
"2.5" is invalid, and k_grid and
sk_dist_ks are nonempty lists of positive whole numbers; the tolerances
doubling_tol/tol are read the same way and then used as floats, and so is
a target parameter that enters a float quantile function.  An "example"
run's kappas are checked against its epss and e0 (``check_example_run``),
as a "rational" run's schedules are (``check_rational_run``).  There is one
arithmetic mode, "exact", and no config key chooses it.  All data goes to
files in the output directory, logs go to standard error, and every report
embeds the config hash and the arithmetic mode so runs are reproducible
byte for byte.  Each file is written as a new file (``open_output``).
Before it runs, a command removes the files that its steps own
(``STEP_OUTPUTS``), and ``all`` those of every step, so no file of an
earlier run stays beside this run's.  The skyscraper step reduces each time
horizon once (``skyscraper.occupation_sweep``) and writes its occupation
CSVs and both reports from those records.  A config builds its split
sequence and its tower once, on first read (``RunConfig.split`` and
``RunConfig.trace``), so ``all`` builds each config's tower once and its
``verify`` compares ``tower.json`` against that tower; a standalone
``verify`` runs in a new process and rebuilds the tower from its config.
The skyscraper step of a run with a ``skyscraper.base`` frees the run's
own tower before it builds the base.

Exit codes: 0 success, 2 invalid config (a skyscraper with no admissible
time horizon too), 3 size cap exceeded or a sum past the int64 range
(``BlockError``), 4 corrupt trace artifact (tower.json missing,
unreadable, or different in any field from the tower its config builds),
5 hard invariant failure or a failed verdict.  ``main`` alone maps each
exception to its code; a step returns 0, or 5 for a failed verdict, and
``build`` 3 after it writes its error tower.json.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, List, Optional, Sequence, Tuple

from .blocks import BlockError
from .distributions import write_json
from .lemma_engine import InvariantError, PreconditionError, SizeCapError
from .splitting import (PointsTarget, SplitSequence, SplittingError,
                        TargetDist, build_split_sequence, make_target)
from .tower import (CorruptTraceError, TowerTrace, build_example_tower,
                    build_general_tower, build_rational_tower,
                    certify_theorem1, check_example_run, check_rational_run,
                    load_trace_summary, save_trace, trace_to_json_obj)
from . import skyscraper as sky

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIZE_CAP = 3
EXIT_CORRUPT = 4
EXIT_INVARIANT = 5

# The files of the output directory that each step writes, as glob patterns.
STEP_OUTPUTS = {
    "split": ("split.json",),
    "build": ("tower.json",),
    "verify": ("verify_report.json", "skdist_*.csv"),
    "skyscraper": ("inversion_report.json", "are_report.json",
                   "occupation_*.csv"),
}


# The keys that load_config reads, at the top level, in the skyscraper
# section and in skyscraper.base; any other key is a config error.
RUN_KEYS = ("kind", "target", "deltas", "epss", "kappas", "etas", "e0",
            "rounds", "size_cap", "max_depth", "doubling_tol", "sk_dist_ks",
            "k_grid", "skyscraper")
SKYSCRAPER_KEYS = ("base", "n_points", "tol", "eta", "tail_constant",
                   "x_values", "alphas", "t_grid", "divergent_alphas",
                   "bound_alphas", "rho")
BASE_KEYS = ("kind", "target", "deltas", "epss", "kappas", "rounds")
# The keys that no run of a kind reads, so setting one is a config error.
# An example run's rounds is the default of its skyscraper base, and a
# rational run's split reads max_depth, so neither is here.
UNREAD_KEYS = {"example": ("deltas", "target", "etas"),
               "rational": ("kappas", "e0", "etas"),
               "general": ("kappas", "e0")}


class ConfigError(ValueError):
    """Invalid run configuration."""


def _check_keys(obj: dict, known: Sequence[str], where: str) -> None:
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} key(s) {unknown}")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def parse_number(x) -> Fraction:
    """A config number, read exactly.

    Integers and strings ("1/12", "0.05", "1e-3") go straight to Fraction;
    a JSON float goes through its shortest repr, so 0.1 is 1/10.  Bools,
    NaN and infinities raise ConfigError.
    """
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise ConfigError(f"expected a number, got {x!r}")
    try:
        return Fraction(repr(x) if isinstance(x, float) else x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad number {x!r}: {exc}")


def _whole_number(x, key: str) -> int:
    """A config count, read exactly: "1e6" is 10**6, while a number that
    is not a whole integer raises ConfigError."""
    n = parse_number(x)
    if n.denominator != 1:
        raise ConfigError(f"{key} must be an integer, got {x!r}")
    return int(n)


def _config_int(obj: dict, key: str, default) -> int:
    return _whole_number(obj.get(key, default), key)


def _config_numbers(obj: dict, key: str, default=()) -> List[Fraction]:
    """A config list of numbers, each read exactly."""
    xs = obj.get(key, default)
    if not isinstance(xs, (list, tuple)):
        raise ConfigError(f"{key} must be a list, got {xs!r}")
    return [parse_number(x) for x in xs]


def _config_ks(obj: dict, key: str) -> Optional[List[int]]:
    """A nonempty config list of window lengths k, each a positive whole
    number read like a count; None when the key is absent."""
    xs = obj.get(key)
    if xs is None:
        return None
    if not isinstance(xs, list) or not xs:
        raise ConfigError(f"{key} must be a nonempty list, got {xs!r}")
    ks = [_whole_number(x, key) for x in xs]
    if any(k < 1 for k in ks):
        raise ConfigError(f"{key} must hold positive integers, got {xs!r}")
    return ks


@dataclass
class SkyscraperConfig:
    """The checked skyscraper section of a run config."""

    n_points: int                   # time horizons tried below the cap
    tol: float                      # top-decade occupation distance bound
    eta: Fraction                   # integer rounding allowance
    tail_constant: Fraction
    x_values: Tuple                 # occupation tail thresholds
    alphas: List[float]
    t_grid: List[float]
    divergent_alphas: List[float]
    bound_alphas: Optional[List[float]]     # None: every alpha's bound
    rho_fn: Optional[Callable]      # the target's tail integral, if given


@dataclass
class RunConfig:
    """Validated run configuration.

    ``split`` and ``trace`` are computed on first read and held by the
    config, so the steps of one run share one split sequence and one
    tower.  A build that raises holds nothing, so the next read raises
    again.
    """

    kind: str
    config_hash: str
    target: Optional[TargetDist] = None
    deltas: List = field(default_factory=list)
    epss: List = field(default_factory=list)
    kappas: List = field(default_factory=list)
    e0: Fraction = Fraction(5000)
    rounds: int = 2
    size_cap: int = 10 ** 6
    max_depth: int = 16
    etas: Optional[List] = None
    doubling_tol: float = 0.1
    sk_dist_ks: Optional[List[int]] = None
    k_grid: Optional[List[int]] = None
    skyscraper: Optional[SkyscraperConfig] = None
    base: Optional[RunConfig] = None     # the skyscraper.base run

    @cached_property
    def split(self) -> SplitSequence:
        """The split sequence of a target-based run."""
        return build_split_sequence(self.target,
                                    [float(e) for e in self.epss],
                                    max_depth=self.max_depth)

    @cached_property
    def trace(self) -> TowerTrace:
        """The tower this config builds (``build_tower_from_config``)."""
        return build_tower_from_config(self)


PRESETS = {
    "example1": {
        "kind": "example",
        "kappas": [f"1/{n}" for n in range(1, 7)],
        "epss": [f"1/{n + 3}" for n in range(1, 7)],
        "e0": "5000",
        "size_cap": 10 ** 7,
        "skyscraper": {
            "alphas": ["1"],
            "bound_alphas": [],
            "t_grid": ["2"],
        },
    },
    "twopoint": {
        "kind": "rational",
        "target": {"family": "points",
                   "atoms": [["1", "1/2"], ["2", "1/2"]]},
        "deltas": ["1/10", "1/12"],
        "epss": ["1/20", "1/24"],
        "rounds": 2,
        "size_cap": 10 ** 6,
        "skyscraper": {
            "base": {
                "kind": "rational",
                "target": {"family": "points",
                           "atoms": [["1/2", "1/2"], ["1", "1/2"]]},
                "deltas": ["1/20"],
                "epss": ["1/40"],
                "rounds": 2,
            },
            "alphas": ["1", "2"],
            "bound_alphas": ["2"],
            "t_grid": ["2"],
        },
    },
    "pareto1": {
        "kind": "general",
        "target": {"family": "pareto", "alpha": "1"},
        "deltas": ["1/3", "1/4"],
        "epss": ["1/3", "1/4"],
        "size_cap": 10 ** 6,
        "skyscraper": {
            "base": {
                "kind": "rational",
                "target": {"family": "points",
                           "atoms": [[f"{j + 1}/8", "1/8"]
                                     for j in range(8)]},
                "deltas": ["1/80"],
                "epss": ["1/160"],
                "rounds": 2,
            },
            "alphas": ["1/2", "3/2"],
            "divergent_alphas": ["3/2"],
            "t_grid": ["2", "4", "8"],
            "rho": "pareto1",
        },
    },
    "lognormal": {
        "kind": "general",
        "target": {"family": "lognormal", "mu": 0.0, "sigma": 1.0},
        "deltas": ["1/3", "1/4"],
        "epss": ["1/3", "1/4"],
        "size_cap": 10 ** 6,
        "skyscraper": {
            "alphas": ["1"],
            "bound_alphas": [],
            "t_grid": ["2"],
        },
    },
}


def _config_hash(obj: dict) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def _target(spec) -> TargetDist:
    """The target that a config's target spec describes: its numbers are
    read exactly, "atoms" and "rows" as lists of pairs, and
    ``make_target`` builds it."""
    if not isinstance(spec, dict):
        raise ConfigError(f"target must be a JSON object, got {spec!r}")
    params = {}
    for key, x in spec.items():
        if key in ("atoms", "rows"):
            if not isinstance(x, list) or not all(
                    isinstance(p, list) and len(p) == 2 for p in x):
                raise ConfigError(f"target {key} must be a list of pairs, "
                                  f"got {x!r}")
            params[key] = [(parse_number(a), parse_number(b)) for a, b in x]
        elif key != "family":
            params[key] = parse_number(x)
    try:
        return make_target(spec.get("family"), **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad target {spec!r}: {exc}") from exc


def _read_schedules(obj: dict, kind) -> Tuple[list, list, list,
                                              Optional[TargetDist]]:
    """The checked deltas, epss, kappas and target of a run of ``kind``
    read from ``obj``; an example run has no target."""
    if kind not in ("rational", "example", "general"):
        raise ConfigError(f"kind must be rational|example|general, "
                          f"got {kind!r}")
    unread = sorted(set(obj) & set(UNREAD_KEYS[kind]))
    if unread:
        raise ConfigError(f"{kind} runs do not read key(s) {unread}")
    deltas = _config_numbers(obj, "deltas")
    epss = _config_numbers(obj, "epss")
    kappas = _config_numbers(obj, "kappas")
    for name, seq in (("deltas", deltas), ("epss", epss)):
        if any(x <= 0 for x in seq):
            raise ConfigError(f"{name} must be positive")
        if any(b > a for a, b in zip(seq, seq[1:])):
            raise ConfigError(f"{name} must be nonincreasing")
    if kind == "example":
        return deltas, epss, kappas, None
    if not deltas or len(deltas) != len(epss):
        raise ConfigError("runs need matching nonempty deltas and epss")
    target = _target(obj.get("target"))
    if kind == "rational" and not isinstance(target, PointsTarget):
        raise ConfigError("this run kind needs a finitely supported target")
    return deltas, epss, kappas, target


def _pareto1_rho(alpha: float, t: float) -> float:
    """Tail integral of Y^alpha for a Pareto(1) target."""
    if alpha >= 1:
        return math.inf
    return float(t) ** (1 - 1 / alpha) / (1 / alpha - 1)


def _skyscraper_section(obj) -> SkyscraperConfig:
    """The skyscraper section of a config, every value read and checked."""
    if not isinstance(obj, dict):
        raise ConfigError(f"skyscraper must be a JSON object, got {obj!r}")
    _check_keys(obj, SKYSCRAPER_KEYS, "skyscraper")
    n_points = _config_int(obj, "n_points", 16)
    if n_points < 1:
        raise ConfigError("skyscraper n_points must be positive")
    eta = parse_number(obj.get("eta", "1/1000"))
    if eta <= 0:
        raise ConfigError("skyscraper eta must be positive")
    alphas = [float(a) for a in _config_numbers(obj, "alphas", ["1"])]
    if any(a <= 0 for a in alphas):
        raise ConfigError("skyscraper alphas must be positive")
    tol = parse_number(obj.get("tol", 0.15))
    if tol <= 0:
        raise ConfigError("skyscraper tol must be positive")
    tail_constant = parse_number(obj.get("tail_constant", "2"))
    if tail_constant <= 0:
        raise ConfigError("skyscraper tail_constant must be positive")
    rho = obj.get("rho")
    if rho not in (None, "pareto1"):
        raise ConfigError(f"skyscraper rho must be pareto1, got {rho!r}")
    bound = obj.get("bound_alphas")
    return SkyscraperConfig(
        n_points=n_points, tol=float(tol), eta=eta,
        tail_constant=tail_constant,
        x_values=tuple(_config_numbers(obj, "x_values",
                                       ["5/4", "3/2", "2"])),
        alphas=alphas,
        t_grid=[float(t) for t in _config_numbers(obj, "t_grid", ["2"])],
        divergent_alphas=[float(a) for a in
                          _config_numbers(obj, "divergent_alphas")],
        bound_alphas=None if bound is None else [
            float(a) for a in _config_numbers(obj, "bound_alphas")],
        rho_fn=_pareto1_rho if rho == "pareto1" else None)


def load_config(path: Optional[str], preset: Optional[str],
                mode: None = None, cap: Optional[int] = None,
                workers: None = None) -> RunConfig:
    """Read a preset and/or a config file, with an optional height cap.

    Every key is checked here, a key that is not read is an error, and the
    run's targets are built here, so no step reads the config JSON.
    ``mode`` and ``workers`` are retired slots, kept so that positional
    callers still line up with ``cap``; they accept only None.
    """
    if mode is not None or workers is not None:
        raise ConfigError("mode and workers are no longer options")
    if path is None and preset is None:
        raise ConfigError("need --config or --preset")
    obj: dict = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r}")
        obj.update(json.loads(json.dumps(PRESETS[preset])))
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            with open(path) as fh:
                obj.update(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}")
    if cap is not None:
        obj["size_cap"] = cap
    _check_keys(obj, RUN_KEYS, "config")
    kind = obj.get("kind")
    deltas, epss, kappas, target = _read_schedules(obj, kind)
    etas = obj.get("etas")
    if etas is not None:
        etas = _config_numbers(obj, "etas")
        if len(etas) != len(deltas) or any(x <= 0 for x in etas):
            raise ConfigError("etas must hold one positive number per "
                              "stage, like deltas")
    e0 = parse_number(obj.get("e0", "5000"))
    if e0 <= 0:
        raise ConfigError("e0 must be positive")
    size_cap = _config_int(obj, "size_cap", 10 ** 6)
    if size_cap <= 0:
        raise ConfigError("size_cap must be positive")
    doubling_tol = parse_number(obj.get("doubling_tol", 0.1))
    if doubling_tol <= 0:
        raise ConfigError("doubling_tol must be positive")
    sky_obj = obj.get("skyscraper", {})
    cfg = RunConfig(
        kind=kind, config_hash=_config_hash(obj), target=target,
        deltas=deltas, epss=epss, kappas=kappas, e0=e0,
        rounds=_config_int(obj, "rounds", 2), size_cap=size_cap,
        max_depth=_config_int(obj, "max_depth", 16), etas=etas,
        doubling_tol=float(doubling_tol),
        sk_dist_ks=_config_ks(obj, "sk_dist_ks"),
        k_grid=_config_ks(obj, "k_grid"),
        skyscraper=_skyscraper_section(sky_obj))
    base_obj = sky_obj.get("base")
    if base_obj is not None:
        # the skyscraper's base tower, checked before any step runs
        if not isinstance(base_obj, dict):
            raise ConfigError(
                f"skyscraper.base must be a JSON object, got {base_obj!r}")
        _check_keys(base_obj, BASE_KEYS, "skyscraper.base")
        base_kind = base_obj.get("kind", kind)
        deltas, epss, kappas, target = _read_schedules(base_obj, base_kind)
        cfg.base = RunConfig(
            kind=base_kind, config_hash=cfg.config_hash, target=target,
            deltas=deltas, epss=epss, kappas=kappas,
            rounds=_config_int(base_obj, "rounds", cfg.rounds),
            size_cap=size_cap)
    for run in filter(None, (cfg, cfg.base)):
        try:
            if run.kind == "rational":
                check_rational_run(run.target.dist, run.deltas, run.epss,
                                   run.rounds)
            elif run.kind == "example":
                check_example_run(run.kappas, run.epss, run.e0)
        except PreconditionError as exc:
            raise ConfigError(str(exc)) from exc
    return cfg


def _report_header(cfg: RunConfig) -> dict:
    return {"config_hash": cfg.config_hash, "mode": "exact"}


def _remove_outputs(out: str, *patterns: str) -> None:
    """Remove the files of ``out`` whose names match any of the glob
    ``patterns``."""
    for name in os.listdir(out):
        if any(fnmatch.fnmatchcase(name, pat) for pat in patterns):
            os.unlink(os.path.join(out, name))


def build_tower_from_config(cfg: RunConfig) -> TowerTrace:
    if cfg.kind == "example":
        trace = build_example_tower(cfg.kappas, cfg.epss, e0=cfg.e0,
                                    size_cap=cfg.size_cap)
    elif cfg.kind == "rational":
        trace = build_rational_tower(cfg.target.dist, cfg.deltas, cfg.epss,
                                     rounds=cfg.rounds,
                                     size_cap=cfg.size_cap)
    else:
        trace = build_general_tower(cfg.split, cfg.deltas, cfg.epss,
                                    rounds=max(1, cfg.rounds - 1),
                                    size_cap=cfg.size_cap, etas=cfg.etas)
    trace.config_hash = cfg.config_hash
    return trace


def cmd_split(cfg: RunConfig, out: str) -> int:
    if cfg.kind == "example":
        raise ConfigError("split requires a target-based run")
    seq = cfg.split
    report = dict(_report_header(cfg))
    report.update({
        "depths": list(seq.depths),
        "costs": list(seq.costs),
        "tail_bounds": list(seq.tail_bounds),
        "floor_r": str(seq.floor_r),
        "dominates": seq.dominates,
    })
    write_json(os.path.join(out, "split.json"), report)
    _log(f"split: depths {seq.depths}, floor {seq.floor_r}")
    return EXIT_OK


def cmd_build(cfg: RunConfig, out: str) -> int:
    try:
        trace = cfg.trace
    except SizeCapError as exc:
        partial = dict(_report_header(cfg))
        partial["error"] = f"size cap: {exc}"
        write_json(os.path.join(out, "tower.json"), partial)
        _log(f"build: size cap exceeded: {exc}")
        return EXIT_SIZE_CAP
    # every builder raises InvariantError on a failed certificate
    save_trace(trace, os.path.join(out, "tower.json"))
    _log(f"build: height {trace.height}, {len(trace.stages)} stages, "
         "certificates pass")
    return EXIT_OK


def cmd_verify(cfg: RunConfig, out: str) -> int:
    # a missing, unreadable or edited tower.json is a CorruptTraceError
    summary = load_trace_summary(os.path.join(out, "tower.json"))
    trace = cfg.trace
    # every field of tower.json must be what this config builds
    built = json.loads(json.dumps(trace_to_json_obj(trace)))
    if built != summary:
        diff = sorted(k for k in set(built) | set(summary)
                      if built.get(k) != summary.get(k))
        raise CorruptTraceError(f"tower.json differs from the tower this "
                                f"config builds in {diff}")
    rep = certify_theorem1(trace, doubling_tol=cfg.doubling_tol,
                           k_grid=cfg.k_grid)
    ks = cfg.sk_dist_ks or [max(1, trace.height // 2), trace.height]
    for hist in trace.final.sk_histograms(ks):
        for i, k in enumerate(hist.ks):
            hist.row(i).to_csv(os.path.join(out, f"skdist_{k}.csv"))
    low = rep.lower_bound
    report = dict(_report_header(cfg))
    report.update({
        "k_grid_size": len(rep.k_grid),
        "stage_eps_ok": rep.eps.ok(),
        "lower_bound_ok": low.ok(),
        "doubling_ok": rep.doubling.ok(),
        "max_vasershtein": max(rep.eps.distances.values()),
        "lower_bound_failures": [
            [k, str(x), str(lhs), str(bound)]
            for k, x, lhs, bound in low.exact(failing=True)],
    })
    write_json(os.path.join(out, "verify_report.json"), report)
    _log(f"verify: eps {rep.eps.ok()}, lower {low.ok()}, "
         f"doubling {rep.doubling.ok()}")
    margin, k = rep.eps.margin()
    _log(json.dumps({"verify_margin": margin, "k": k}))
    return EXIT_OK if rep.ok() else EXIT_INVARIANT


def cmd_skyscraper(cfg: RunConfig, out: str) -> int:
    sc = cfg.skyscraper
    if cfg.base is not None:
        # the skyscraper reads only the base tower: free this run's first
        vars(cfg).pop("trace", None)
    trace = (cfg.base or cfg).trace
    it = sky.integerize(trace, sc.eta)
    horizon = it.covered_horizon()
    wmax = max(int(it.blocks[s].units.max()) for s in it.symbols)
    n_grid = sorted(set(
        n for n in (int(horizon * 1.2 ** -j) for j in range(sc.n_points))
        if n >= 4 * wmax))
    if not n_grid:
        raise sky.SkyscraperError("no admissible time horizons under the cap")
    if it.height * it.size <= 512:
        sky.check_duality(it)
    reports = sky.occupation_sweep(
        it, n_grid, sc.alphas, sc.t_grid, sc.x_values, sc.tail_constant)
    inv = sky.check_inversion(it, reports, tol=sc.tol)
    for n in (n_grid[0], n_grid[-1]):
        reports[n].to_csv(os.path.join(out, f"occupation_{n}.csv"))
    rows = sky.are_diagnostic(it, reports, sc.alphas, sc.t_grid,
                              rho_fn=sc.rho_fn,
                              divergent_alphas=sc.divergent_alphas,
                              tail_constant=sc.tail_constant)
    report = dict(_report_header(cfg))
    report["inversion"] = {
        "tol": sc.tol,
        "top_ok": inv.top.ok(),
        "occupation_distances": {str(n): inv.occ_distances[n]
                                 for n in inv.n_grid},
        "return_time_distances": {str(n): inv.phi_distances[n]
                                  for n in inv.n_grid},
    }
    write_json(os.path.join(out, "inversion_report.json"), report)
    are_report = dict(_report_header(cfg))
    are_report["alphas"] = [{
        "alpha": r.alpha,
        "mode": r.mode,
        "bound_ok": None if r.bound is None else r.bound.ok(),
        "a_alpha": {str(n): v for n, v in r.a_alpha.items()},
        "ratio_to_a1": {str(n): v for n, v in r.ratio_to_a1.items()},
        "u_sup": {str(t): v for t, v in r.u_sup.items()},
        "rho": {str(t): v for t, v in r.rho.items()},
    } for r in rows]
    write_json(os.path.join(out, "are_report.json"), are_report)
    checked = rows if sc.bound_alphas is None else [
        r for r in rows if r.alpha in sc.bound_alphas]
    top_ok = inv.top.ok()
    hard_ok = top_ok and all(r.bound is None or r.bound.ok() for r in checked)
    _log(f"skyscraper: inversion {'pass' if top_ok else 'FAIL'}, "
         f"{len(rows)} alpha rows")
    return EXIT_OK if hard_ok else EXIT_INVARIANT


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="towerkit",
        description="build and certify cutting-and-stacking towers")
    parser.add_argument("command", choices=[*STEP_OUTPUTS, "all"])
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--cap", type=int, default=None,
                        help="override the height cap")
    parser.add_argument("--preset", choices=sorted(PRESETS), default=None)
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.preset, cap=args.cap)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return EXIT_CONFIG
    os.makedirs(args.out, exist_ok=True)
    if args.command == "all":
        owned = list(STEP_OUTPUTS)
        steps = [n for n in owned if n != "split" or cfg.kind != "example"]
    else:
        owned = steps = [args.command]
    # a step that fails or does not run leaves no file of an earlier run
    _remove_outputs(args.out, *(p for n in owned for p in STEP_OUTPUTS[n]))
    # bound when main runs, so a cmd_* attribute replaced on the module is
    # the function called
    commands = {"split": cmd_split, "build": cmd_build,
                "verify": cmd_verify, "skyscraper": cmd_skyscraper}
    for name in steps:
        try:
            code = commands[name](cfg, args.out)
        except (ConfigError, SplittingError, PreconditionError,
                sky.SkyscraperError) as exc:
            _log(f"invalid configuration: {exc}")
            return EXIT_CONFIG
        except SizeCapError as exc:
            _log(f"size cap exceeded: {exc}")
            return EXIT_SIZE_CAP
        except BlockError as exc:
            _log(f"int64 range exceeded: {exc}")
            return EXIT_SIZE_CAP
        except CorruptTraceError as exc:
            _log(f"corrupt artifact: {exc}")
            return EXIT_CORRUPT
        except (InvariantError, sky.InversionError) as exc:
            _log(f"hard invariant failed: {exc}")
            return EXIT_INVARIANT
        if code != EXIT_OK:
            return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
