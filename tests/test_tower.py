"""Unit tests for tower construction, certification, and serialization."""

import dataclasses
import json
import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from towerkit.blocks import Block, is_normalized
from towerkit.distributions import (FiniteDist, sk_histograms,
                                    transport_distances)
from towerkit import tower
from towerkit.cli import PRESETS, build_tower_from_config, load_config
from towerkit.lemma_engine import (BlockArray, GammaTable, InvariantError,
                                   PreconditionError, SizeCapError, _tile)
from towerkit.tower import (CorruptTraceError, build_example_tower,
                            build_general_tower, build_rational_tower,
                            certify_theorem1, check_example_run,
                            load_trace_summary, save_trace, tower_k_grid,
                            trace_to_json_obj)
from towerkit.splitting import build_split_sequence, make_target

from oracles import (b_of, cyclic_partial_sums_units, gamma_oracle,
                     oracle_histograms, oracle_transport, window_geo_grid)


def pareto_split():
    """The split sequence of a Pareto(1) target at epss 1/3, 1/4."""
    return build_split_sequence(make_target("pareto", alpha=F(1)),
                                [F(1, 3), F(1, 4)])


@pytest.fixture(scope="module")
def small_rational_trace():
    target = FiniteDist.uniform([1, 2])
    return build_rational_tower(target, [F(1, 10)], [F(1, 20)], rounds=2)


@pytest.fixture(scope="module")
def small_example_trace():
    return build_example_tower([F(1), F(1, 2)], [F(1, 3), F(1, 4)],
                               e0=F(10))


class TestRationalTower:
    def test_stage_growth_and_certs(self, small_rational_trace):
        trace = small_rational_trace
        assert trace.kind == "rational"
        heights = [st.height for st in trace.stages]
        assert heights == sorted(heights)
        assert all(st.cert_valid for st in trace.stages)
        assert trace.final.change_mass() < F(1, 10)

    def test_blocks_stay_label_distributed(self, small_rational_trace):
        arr = small_rational_trace.final
        for s in arr.symbols:
            assert arr.blocks[s].mean == arr.scale * arr.values[s]
        assert arr.label_dist() == FiniteDist.uniform([1, 2])

    def test_gamma_chain(self, small_rational_trace):
        g = small_rational_trace.global_gamma
        ks = [k for k, _ in g.anchors]
        vs = [v for _, v in g.anchors]
        assert ks == sorted(ks)
        assert vs == sorted(vs)
        assert gamma_oracle(g, 1) == F(1)

    def test_delta_precondition(self):
        with pytest.raises(PreconditionError):
            build_rational_tower(FiniteDist.uniform([1, 2]), [F(1, 2)],
                                 [F(1, 4)])

    def test_eps_above_delta_rejected(self):
        with pytest.raises(PreconditionError):
            build_rational_tower(FiniteDist.uniform([1, 2]), [F(1, 10)],
                                 [F(1, 5)])

    def test_size_cap_propagates(self):
        with pytest.raises(SizeCapError):
            build_rational_tower(FiniteDist.uniform([1, 2]), [F(1, 10)],
                                 [F(1, 20)], size_cap=50)


class TestExampleTower:
    def test_exact_mean_accumulation(self, small_example_trace):
        trace = small_example_trace
        arr = trace.final
        s = arr.symbols[0]
        # each stage adds kappa_n to the running mean, exactly
        assert arr.blocks[s].mean == F(10) + F(1) + F(1, 2)

    def test_stage_normalization(self, small_example_trace):
        arr = small_example_trace.final
        s = arr.symbols[0]
        assert is_normalized(arr.blocks[s], F(1, 4))

    def test_ledger_below_eps_sum(self, small_example_trace):
        trace = small_example_trace
        assert trace.final.change_mass() < F(1, 3) + F(1, 4)

    def test_target_is_constant(self, small_example_trace):
        assert small_example_trace.target == FiniteDist.point(1)


    def test_example_run_preconditions(self):
        # kappa_n may reach eps_n * (e0 + kappa_1 + ... + kappa_{n-1})
        check_example_run([F(10, 3), F(10, 3)], [F(1, 3), F(1, 4)], F(10))
        for kappas in ([F(-1), F(0)], [F(1), F(4)], [F(1)]):
            with pytest.raises(PreconditionError):
                check_example_run(kappas, [F(1, 3), F(1, 4)], F(10))
            with pytest.raises(PreconditionError):
                build_example_tower(kappas, [F(1, 3), F(1, 4)], e0=F(10))


class TestGeneralTower:
    def test_pareto_small(self):
        t = make_target("pareto", alpha=F(1))
        trace = build_general_tower(build_split_sequence(t, [F(1, 3)]),
                                    [F(1, 3)], [F(1, 3)])
        assert trace.kind == "general"
        assert trace.floor_r is not None
        assert all(st.cert_valid in (True, None) for st in trace.stages)
        arr = trace.final
        for s in arr.symbols:
            assert arr.blocks[s].mean == arr.scale * arr.values[s]

    def test_final_tiling_goes_through_tile(self, monkeypatch):
        # the top-decade tiling is lemma_engine._tile, so it keeps the
        # 2^62 rescale guard of every tiling
        calls = []

        def tile(w, m):
            calls.append((len(w), m))
            return _tile(w, m)

        monkeypatch.setattr(tower, "_tile", tile)
        trace = build_general_tower(pareto_split(), [F(1, 3), F(1, 4)],
                                    [F(1, 3), F(1, 4)])
        assert len(calls) == trace.final.size
        assert all(m > 1 and h * m == trace.height for h, m in calls)


class TestBuildFailureWitness:
    """Every hard build failure says where it failed: the first failing k
    (at most three), the change mass against delta, or the (k, position)
    witness of a block that is not normalized."""

    def pareto(self):
        return build_general_tower(pareto_split(), [F(1, 3), F(1, 4)],
                                   [F(1, 3), F(1, 4)])

    def test_general_certificate_names_k(self, monkeypatch):
        step, certs = tower.extension_step, []

        def far(*args, **kwargs):
            arr, gamma, cert = step(*args, **kwargs)
            certs.append((arr, cert))
            return arr, gamma, dataclasses.replace(
                cert, distances=dict.fromkeys(cert.distances, 1.0))

        monkeypatch.setattr(tower, "extension_step", far)
        with pytest.raises(InvariantError) as exc:
            self.pareto()
        arr, cert = certs[0]
        ks = list(cert.distances)[:3]
        assert str(exc.value) == (
            f"stage 1 certificate failed at k={ks}, change mass "
            f"{arr.change_mass()} against delta 1/3")

    def test_general_certificate_names_change_mass(self, monkeypatch):
        step = tower.extension_step

        class Heavy(BlockArray):
            def change_mass(self):
                return F(1, 2)

        def heavy(*args, **kwargs):
            arr, gamma, cert = step(*args, **kwargs)
            return Heavy(arr.symbols, arr.blocks, arr.values,
                         arr.scale), gamma, cert

        monkeypatch.setattr(tower, "extension_step", heavy)
        with pytest.raises(InvariantError) as exc:
            self.pareto()
        assert str(exc.value) == ("stage 1 certificate failed at k=[], "
                                  "change mass 1/2 against delta 1/3")

    def test_change_mass_at_delta_fails(self, monkeypatch):
        # the stage bound change < delta is decided exactly: a change mass
        # of exactly delta = 1/10 fails, although 1/10 < float(1/10), and
        # one just below it passes
        target = FiniteDist.uniform([1, 2])
        d = F(1, 10)
        monkeypatch.setattr(BlockArray, "change_mass", lambda self: d)
        with pytest.raises(InvariantError) as exc:
            build_rational_tower(target, [d], [F(1, 20)], rounds=2)
        assert str(exc.value) == ("stage 1 certificate failed at k=[], "
                                  "change mass 1/10 against delta 1/10")
        below = d - F(1, 10 ** 18)
        monkeypatch.setattr(BlockArray, "change_mass", lambda self: below)
        trace = build_rational_tower(target, [d], [F(1, 20)], rounds=2)
        assert trace.stages[0].change_mass == below

    def test_straightening_names_k(self, monkeypatch):
        step, reports = tower.straightening_step, []

        def strict(*args, **kwargs):
            arr, rep = step(*args, **kwargs)
            reports.append(rep)
            v = rep.verdict
            return arr, dataclasses.replace(rep, verdict=dataclasses.replace(
                v, allowances=dict.fromkeys(v.allowances, 0.0)))

        monkeypatch.setattr(tower, "straightening_step", strict)
        with pytest.raises(InvariantError) as exc:
            self.pareto()
        ks = [k for k, _ in reports[0].q_grid[:3]]
        assert str(exc.value) == f"straightening at stage 2 failed at k={ks}"

    def test_example_normalization_names_witness(self, monkeypatch):
        # one copy per stage leaves the stage-2 block not normalized
        witnesses = []

        def recorded(w, eps, witness=False):
            witnesses.append(is_normalized(w, eps, witness=True)[1])
            return is_normalized(w, eps, witness)

        monkeypatch.setattr(tower, "choose_tile", lambda w, e, cap: 1)
        monkeypatch.setattr(tower, "is_normalized", recorded)
        with pytest.raises(InvariantError) as exc:
            build_example_tower([F(1), F(1, 2)], [F(1, 3), F(1, 4)],
                                e0=F(10))
        assert witnesses[-1] is not None
        assert str(exc.value) == ("stage 2 block is not eps-normalized at "
                                  f"(k, position) = {witnesses[-1]}")


class TestMonotoneGrowth:
    """No weight may decrease across an extension stage of either builder;
    the check compares int64 units and never lets a rescale wrap."""

    @staticmethod
    def one_symbol(units, scale=1):
        w = Block(units, F(scale))
        return BlockArray(("a",), {"a": w}, {"a": F(1)}, w.mean)

    @pytest.mark.parametrize("build", [
        lambda: build_rational_tower(FiniteDist.uniform([1, 2]), [F(1, 10)],
                                     [F(1, 20)], rounds=2),
        lambda: build_general_tower(pareto_split(), [F(1, 3), F(1, 4)],
                                    [F(1, 3), F(1, 4)]),
    ], ids=["rational", "general"])
    def test_lowered_unit_fails(self, build, monkeypatch):
        # the first level of a block is never bumped, so its new unit is
        # the old one times the scale ratio; lowering it by one (and raising
        # the second, so the mean stays exact) leaves a weight decreased
        step = tower.extension_step

        def lowering(*args, **kwargs):
            arr, gamma, cert = step(*args, **kwargs)
            s = arr.symbols[0]
            units = arr.blocks[s].units.copy()
            units[0] -= 1
            units[1] += 1
            blocks = {**arr.blocks, s: Block(units, arr.blocks[s].scale)}
            return BlockArray(arr.symbols, blocks, arr.values,
                              arr.scale), gamma, cert

        monkeypatch.setattr(tower, "extension_step", lowering)
        with pytest.raises(InvariantError) as exc:
            build()
        assert str(exc.value) == "weights decreased across a stage"

    def test_rescale_past_int64_fails(self):
        # 4 * (2^62 - 1) wraps int64 to -4, where a wrapped comparison
        # would pass
        big = 2 ** 62 - 1
        old = self.one_symbol([big, 1])
        new = self.one_symbol([big, 4], F(1, 4))
        assert (new.blocks["a"].units >= old.blocks["a"].units *
                np.int64(4)).all()
        with pytest.raises(InvariantError) as exc:
            tower._check_monotone_growth(old, new)
        assert str(exc.value) == "weights decreased across a stage"

    def test_rescale_at_int64_edge_passes(self):
        # 2 * (2^62 - 1) = 2^63 - 2 still fits int64
        big = 2 ** 62 - 1
        tower._check_monotone_growth(self.one_symbol([big]),
                                     self.one_symbol([2 * big], F(1, 2)))
        with pytest.raises(InvariantError):
            tower._check_monotone_growth(
                self.one_symbol([big]),
                self.one_symbol([2 * big - 1], F(1, 2)))

    def test_non_integer_scale_ratio_fails(self):
        with pytest.raises(InvariantError, match="not an integer"):
            tower._check_monotone_growth(self.one_symbol([2, 2]),
                                         self.one_symbol([3, 3], F(2, 3)))


class TestCertification:
    def test_report_passes(self, small_rational_trace):
        rep = certify_theorem1(small_rational_trace)
        assert rep.ok()
        assert rep.eps.ok() and rep.lower_bound.ok() and rep.doubling.ok()
        assert max(rep.eps.distances.values()) <= 0.05 + 1e-12

    def test_lower_bound_checks_are_exact(self, small_rational_trace):
        low = certify_theorem1(small_rational_trace).lower_bound
        failed = low.exact(failing=True)
        for entry in low.exact():
            _, _, lhs, rhs = entry
            assert isinstance(lhs, F) and isinstance(rhs, F)
            assert (entry not in failed) == (lhs <= rhs)

    def test_lower_bound_count_at_exact_ties(self, small_rational_trace):
        # P(S_k < x b(k)) is strict: positions with S_k equal to the
        # threshold are not counted, whether thresh/scale is an integer
        # (some S_k hits it) or not; the thresholds are the atoms over M of
        # a target put there
        trace = small_rational_trace
        arr = trace.final
        k = trace.height // 3
        g = gamma_oracle(trace.global_gamma, k)
        w0 = arr.blocks[arr.symbols[0]]
        u0 = cyclic_partial_sums_units(w0, k)
        hit = F(w0.scale) * int(np.median(u0))
        xs = [hit / (k * g), (hit + F(w0.scale) / 2) / (k * g)]
        target = FiniteDist.uniform([tower.BICYCLE_M * x for x in xs])
        rep = certify_theorem1(dataclasses.replace(trace, target=target),
                               k_grid=[k])
        ties = 0
        for (_, x, lhs, _), integral in zip(rep.lower_bound.exact(),
                                            (True, False)):
            thresh = x * k * g
            n_below = 0
            for s in arr.symbols:
                w = arr.blocks[s]
                units = cyclic_partial_sums_units(w, k)
                bound = thresh / F(w.scale)
                assert (bound.denominator == 1) is integral
                cut = bound.numerator // bound.denominator
                n_below += int((units < cut).sum() if integral
                               else (units <= cut).sum())
                ties += int((units.astype(object) * F(w.scale)
                             == thresh).sum())
            assert lhs == F(n_below, arr.height * arr.size)
        assert ties > 0

    def test_doubling_window(self, small_rational_trace):
        trace = small_rational_trace
        rep = certify_theorem1(trace)
        assert rep.doubling.distances
        for k, gap in rep.doubling.distances.items():
            r = float(b_of(trace, 2 * k)) / float(b_of(trace, k))
            assert gap == abs(r - 2) <= 0.1

    def test_b_of_linearity_between_anchors(self, small_rational_trace):
        # the integer rows give b(k) = k*gamma(k) at every k up to the
        # height, anchors and the segments between them alike
        trace = small_rational_trace
        ks = list(range(1, trace.height + 1))
        _, b, den = trace.global_gamma.rows(ks)
        assert [F(n, d) for n, d in zip(b.tolist(), den.tolist())] == \
            [b_of(trace, k) for k in ks]

    def test_k_grid_covers_boundaries(self, small_rational_trace):
        grid = tower_k_grid(small_rational_trace)
        for st in small_rational_trace.stages:
            assert st.height in grid

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_k_grid_is_windows_plus_geometric_on_presets(self, preset):
        trace = build_tower_from_config(load_config(None, preset))
        assert tower_k_grid(trace) == window_geo_grid(trace)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.integers(1, 10 ** 12), st.lists(st.integers(1, 10 ** 12),
                                              max_size=4))
    @example(4097, [])
    @example(4096, [2000])
    def test_k_grid_is_windows_plus_geometric(self, h, heights):
        # any height and stage heights up to it: make_k_grid's geometric
        # fill is the one the windows-plus-geometric loop made
        trace = SimpleNamespace(height=h, stages=[
            SimpleNamespace(height=min(x, h)) for x in sorted(heights)])
        assert tower_k_grid(trace) == window_geo_grid(trace)

    def test_exhaustive_grid_below_threshold(self, small_example_trace):
        if small_example_trace.height <= 4096:
            grid = tower_k_grid(small_example_trace)
            assert grid == list(range(1, small_example_trace.height + 1))


def small_trace(blocks, g, target):
    """A one-stage trace of unit-scale ``blocks`` (lists of units) under
    the constant normalizer ``g``, measured against ``target``."""
    blocks = {i: Block(w) for i, w in enumerate(blocks)}
    arr = BlockArray(tuple(blocks), blocks,
                     {i: w.mean for i, w in blocks.items()}, F(1))
    return tower.TowerTrace(
        "rational", target,
        [tower.StageRecord(1, arr.height, F(1), 0.1, 0.1, F(0), True)],
        arr, GammaTable(((1, F(g)),), ((1, 0.1),)))


def hand_trace(target):
    """Two blocks of period 4 whose S_k/b(k), b(k) = 2k, take the values
    1 - 1/(2k), 1 and 1 + 1/(2k) on 2, 4 and 2 of the 8 positions when 4
    does not divide k, and 1 on all of them when it does; measured against
    ``target``."""
    return small_trace([[1, 3, 2, 2], [2, 1, 3, 2]], 2, target)


def position_sums(trace, k):
    """b(k) and the exact S_k of every position of the trace's tower."""
    t = k * gamma_oracle(trace.global_gamma, k)
    return t, [u * w.scale for w in trace.final.blocks.values()
               for u in cyclic_partial_sums_units(w, k).tolist()]


def lower_sides(trace, grid):
    """(k, y/M) -> (P(S_k < (y/M) b(k)), P(Y < y)) by brute force over
    every position, for each distinct k and each atom y of the target, in
    the order of first sight."""
    m, y = tower.BICYCLE_M, trace.target
    sides = {}
    for k in grid:
        t, sums = position_sums(trace, k)
        for v in y.values:
            sides.setdefault((k, v / m), (
                F(sum(s < v / m * t for s in sums), len(sums)),
                y.cdf_below(v)))
    return sides


def failing_below_atoms(trace, grid):
    """(k, y/M) for each distinct k and atom y such that the bound
    P(S_k < x b(k)) <= P(Y <= M x) fails at some x in [y'/M, y/M), y' the
    atom before y (0 for the first), by brute force: every breakpoint of
    both step functions and the midpoint below each, in exact Fractions."""
    m, y = tower.BICYCLE_M, trace.target
    cuts = [v / m for v in y.values]
    failing = []
    for k in dict.fromkeys(grid):
        t, sums = position_sums(trace, k)
        breaks = sorted({s / t for s in sums} | set(cuts))
        points = breaks + [(a + b) / 2 for a, b in zip([0] + breaks, breaks)]
        bad = [x for x in points
               if F(sum(s < x * t for s in sums), len(sums)) > y.cdf(m * x)]
        # the bound holds from the last cut on, where P(Y <= M x) = 1
        assert all(x < cuts[-1] for x in bad)
        failing += [(k, c) for lo, c in zip([0] + cuts, cuts)
                    if any(lo <= x < c for x in bad)]
    return failing


class TestLowerBound:
    """The cdf lower bound decided over integer cross products, against
    brute force, on a hand-built trace whose target ties it exactly at
    k = 3 at every atom and fails it at other k."""

    GRID = [3, 1, 2, 3, 5, 2, 8, 1]

    @staticmethod
    def tied_target(tilt):
        # P(Y < M x) = P(S_3 < x b(3)) at x = 5/6, 1 and 7/6, with tilt
        # moved from the atom at M*7/6 to the one at M*5/6
        m = tower.BICYCLE_M
        return FiniteDist([(m * F(5, 6), F(1, 4) + tilt), (m, F(1, 2)),
                           (m * F(7, 6), F(1, 4) - tilt)])

    @pytest.mark.parametrize("tilt", [F(0), F(1, 2 ** 70), -F(1, 2 ** 70)])
    def test_matches_brute_force(self, tilt):
        # a tilt of 2^-70 moves the bound by less than a float can see, so
        # the ties at k = 3 pass (+) or fail (-) only when decided exactly
        trace = hand_trace(self.tied_target(tilt))
        low = certify_theorem1(trace, k_grid=self.GRID).lower_bound
        sides = lower_sides(trace, self.GRID)
        # ties, or entries within the tilt of one
        ties = [kx for kx, (lhs, bound) in sides.items()
                if abs(lhs - bound) <= abs(tilt)]
        assert len(ties) >= 4 and len(sides) == 5 * 3
        want = [(*kx, lhs, bound) for kx, (lhs, bound) in sides.items()
                if lhs > bound]
        assert want and low.exact(failing=True) == want
        assert not low.ok()
        assert low.exact() == [(*kx, *both) for kx, both in sides.items()]
        assert ((3, F(1)) in [e[:2] for e in want]) is (tilt < 0)
        assert [e[:2] for e in want] == failing_below_atoms(trace, self.GRID)

    def test_repeats_listed_once(self):
        # a repeated k is one entry, at its first place in the grid; the
        # columns are the target's atoms over M, increasing
        low = certify_theorem1(hand_trace(self.tied_target(0)),
                               k_grid=self.GRID).lower_bound
        assert low.ks == (3, 1, 2, 5, 8)
        assert low.xs == (F(5, 6), F(1), F(7, 6))
        assert [e[:2] for e in low.exact(failing=True)] == \
            [(1, F(5, 6)), (2, F(5, 6)), (5, F(7, 6)), (8, F(7, 6))]
        assert len(low.exact()) == 15

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda h: st.lists(
               st.lists(st.integers(1, 6), min_size=h, max_size=h),
               min_size=1, max_size=3)),
           st.fractions(F(1, 4), F(4), max_denominator=4),
           st.lists(st.fractions(F(1, 4), F(6), max_denominator=8),
                    min_size=1, max_size=5),
           st.lists(st.integers(1, 9), min_size=1, max_size=4))
    # ties at k = 3, and at k = 5 a failure that P(Y <= y) in place of
    # P(Y < y) would pass
    @example([[1, 3, 2, 2], [2, 1, 3, 2]], F(2),
             [F(15, 16), F(9, 8), F(9, 8), F(21, 16)], [3, 1, 2, 5, 8])
    def test_atom_rule_holds_at_every_x(self, blocks, g, atoms, grid):
        # the entry at atom y fails exactly when the bound fails somewhere
        # in [y'/M, y/M), so the verdict passes exactly when the bound
        # holds at every x > 0
        trace = small_trace(blocks, g, FiniteDist.uniform(atoms))
        low = certify_theorem1(trace, k_grid=grid).lower_bound
        assert [e[:2] for e in low.exact(failing=True)] == \
            failing_below_atoms(trace, grid)
        assert low.exact() == [(*kx, *both) for kx, both in
                               lower_sides(trace, grid).items()]


class TestSkDistribution:
    """The S_k law that verify writes as skdist_<k>.csv."""

    def test_exact_mean(self, small_rational_trace):
        trace = small_rational_trace
        arr = trace.final
        k = trace.height // 3
        (hist,) = arr.sk_histograms([k])
        expected = k * sum(arr.scale * arr.values[s]
                           for s in arr.symbols) / arr.size
        assert sum(v * c for v, c in hist.merged()) / hist.totals[0] == \
            expected

    def test_csv_round_trip(self, small_rational_trace, tmp_path):
        (hist,) = small_rational_trace.final.sk_histograms([7])
        path = tmp_path / "skdist.csv"
        hist.to_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "value,count,mass"
        assert lines[1:] == [f"{v},{c},{c}/{hist.totals[0]}"
                             for v, c in hist.merged()]

    def test_values_merge_across_scales(self):
        # 2 * 1/2 and 1 * 1 are one exact value; 3/2 * 1 is another
        (hist,) = sk_histograms([Block([2, 2], F(1, 2)), Block([1, 1], 1),
                                 Block([3, 3], F(1, 2))], [1])
        assert hist.merged() == [(F(1), 4), (F(3, 2), 2)]
        # against a dict merge of every position's exact S_k
        rng = random.Random(29)
        for _ in range(100):
            h = rng.randint(1, 6)
            blocks = [Block([rng.randint(1, 9) for _ in range(h)],
                            F(rng.randint(1, 3), rng.randint(1, 4)))
                      for _ in range(rng.randint(1, 4))]
            k = rng.randint(1, 2 * h)
            oracle = {}
            for w in blocks:
                for u in cyclic_partial_sums_units(w, k).tolist():
                    oracle[w.scale * u] = oracle.get(w.scale * u, 0) + 1
            (hist,) = sk_histograms(blocks, [k])
            assert hist.merged() == sorted(oracle.items())

    def test_distribution_close_to_target(self, small_rational_trace):
        trace = small_rational_trace
        k = trace.height
        g = gamma_oracle(trace.global_gamma, k)
        (hist,) = trace.final.sk_histograms([k])
        assert transport_distances([(hist, [g], [trace.target])])[0] <= 0.05


def oracle_theorem1(trace):
    """The cdf sides, distances, stage eps and margin of
    ``certify_theorem1`` taken on the per-k oracle path, one histogram per
    k of the trace's grid, with each stage eps read off the stages."""
    arr, y = trace.final, trace.target
    grid = tower_k_grid(trace)
    lhs, rhs, laws = {}, {}, []
    for k, hist in zip(grid, oracle_histograms(
            [arr.blocks[s] for s in arr.symbols], grid)):
        g = gamma_oracle(trace.global_gamma, k)
        for v in y.values:
            x = v / tower.BICYCLE_M
            lhs[k, x] = F(hist.count_below(x * k * F(g)), hist.total)
            rhs[k, x] = y.cdf_below(v)
        laws.append((hist, g, y))
    vas = dict(zip(grid, oracle_transport(laws)))
    # the eps of the first stage that reaches k, else the last
    eps = {k: next((st.eps for st in trace.stages if k <= st.height),
                   trace.stages[-1].eps) for k in grid}
    margin = min((eps[k] - vas[k], k) for k in grid)
    return lhs, rhs, vas, eps, margin


class TestOraclePath:
    """Certificates measured on chunk records equal, value for value, the
    ones the per-k oracle path of tests/oracles.py gives."""

    @pytest.mark.parametrize("name", ["small_rational_trace",
                                      "small_example_trace"])
    def test_theorem1(self, name, request):
        trace = request.getfixturevalue(name)
        rep = certify_theorem1(trace)
        lhs, rhs, vas, eps, margin = oracle_theorem1(trace)
        low = rep.lower_bound
        assert low.exact() == [(*kx, lhs[kx], rhs[kx]) for kx in lhs]
        assert low.exact(failing=True) == [(*kx, lhs[kx], rhs[kx])
                                           for kx in lhs
                                           if not lhs[kx] <= rhs[kx]]
        assert list(rep.eps.distances.items()) == list(vas.items())
        assert rep.eps.allowances == eps
        assert rep.eps.margin() == margin

    def test_extension_and_straightening(self, monkeypatch):
        # the build of small_rational_trace, and a two-stage general build
        # that straightens once, with every certificate kept
        extend, straighten = tower.extension_step, tower.straightening_step
        certs, reports = [], []

        def kept_extension(*args, **kwargs):
            arr, gamma, cert = extend(*args, **kwargs)
            certs.append((arr, gamma, cert))
            return arr, gamma, cert

        def kept_straightening(arr, split, *args, **kwargs):
            final, rep = straighten(arr, split, *args, **kwargs)
            reports.append((arr, split, final, rep))
            return final, rep

        monkeypatch.setattr(tower, "extension_step", kept_extension)
        monkeypatch.setattr(tower, "straightening_step", kept_straightening)
        build_rational_tower(FiniteDist.uniform([1, 2]), [F(1, 10)],
                             [F(1, 20)], rounds=2)
        build_general_tower(pareto_split(), [F(1, 3), F(1, 4)],
                            [F(1, 3), F(1, 4)])
        assert len(certs) == 3 and len(reports) == 1
        for arr, gamma, cert in certs:
            grid, y = list(cert.distances), arr.label_dist()
            hists = oracle_histograms([arr.blocks[s] for s in arr.symbols],
                                      grid)
            assert cert.distances == dict(zip(grid, oracle_transport(
                [(h, gamma_oracle(gamma, k), y)
                 for k, h in zip(grid, hists)],
                "uniform")))
        for arr, split, final, rep in reports:
            f = {s: F(arr.values[s]) for s in arr.symbols}
            g = {x: F(split.fine.values[x]) for x in final.symbols}
            kf = rep.k_factor
            grid = [k for k, _ in rep.q_grid]
            laws = []
            for (k, q), h in zip(rep.q_grid, oracle_histograms(
                    [final.blocks[x] for x in final.symbols], grid)):
                # the norm c0*((1 - p) + p*K), read back from the blend
                # weight q = K*p/((1 - p) + p*K)
                norm = F(arr.scale) * kf / (kf - (kf - 1) * q)
                laws.append((h, norm, FiniteDist.uniform(
                    [(1 - q) * f[split.pi[x]] + q * g[x]
                     for x in final.symbols])))
            assert rep.verdict.distances == dict(zip(grid,
                                                     oracle_transport(laws)))


class TestSerialization:
    def test_round_trip(self, small_rational_trace, tmp_path):
        path = tmp_path / "tower.json"
        save_trace(small_rational_trace, str(path))
        obj = load_trace_summary(str(path))
        assert obj["height"] == small_rational_trace.height
        assert obj["kind"] == "rational"
        assert obj["gamma_checksum"] == \
            small_rational_trace.global_gamma.checksum()

    def test_corruption_detected(self, small_rational_trace, tmp_path):
        path = tmp_path / "tower.json"
        save_trace(small_rational_trace, str(path))
        obj = json.loads(path.read_text())
        obj["gamma"]["anchors"][-1][1] = "999"
        path.write_text(json.dumps(obj))
        with pytest.raises(CorruptTraceError):
            load_trace_summary(str(path))

    def test_serialization_deterministic(self, small_rational_trace):
        a = json.dumps(trace_to_json_obj(small_rational_trace),
                       sort_keys=True)
        b = json.dumps(trace_to_json_obj(small_rational_trace),
                       sort_keys=True)
        assert a == b
