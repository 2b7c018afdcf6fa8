"""Unit tests for target discretizations and splitting sequences."""

import math
from fractions import Fraction as F

import pytest

from towerkit.distributions import (INF, DistError, FiniteDist, Splitting,
                                    SymRep, rho)
from towerkit.splitting import (GUARD, DyadicRep, SplittingError,
                                build_split_sequence, make_target,
                                split_cost, tail_cost_bound)

from oracles import merge_vasershtein


def two_point():
    return make_target("points", atoms=[(F(1), F(1, 2)), (F(2), F(1, 2))])


class TestTargets:
    def test_points_quantile(self):
        t = two_point()
        assert t.quantile(F(1, 2)) == F(1)
        assert t.quantile(F(3, 4)) == F(2)

    def test_pareto_quantile_exact(self):
        # alpha = 1: quantile(u) = 1/(1-u), a rational function of u
        t = make_target("pareto", alpha=F(1))
        assert t.quantile(F(1, 2)) == F(2)
        assert t.quantile(F(3, 4)) == F(4)
        assert t.quantile(F(7, 8)) == F(8)

    def test_pareto_cdf(self):
        t = make_target("pareto", alpha=F(1))
        assert t.cdf(F(2)) == F(1, 2)
        assert t.cdf(F(1, 2)) == 0

    def test_lognormal_quantile_is_float(self):
        t = make_target("lognormal", mu=0.0, sigma=1.0)
        assert t.quantile(F(1, 2)) == pytest.approx(1.0)
        assert t.quantile(F(3, 4)) > 1.0

    def test_table_target(self):
        t = make_target("table", rows=[(F(1, 2), F(1)), (F(1), F(3))])
        assert t.quantile(F(1, 4)) == F(1)
        assert t.quantile(F(3, 4)) == F(3)

    def test_unknown_family(self):
        with pytest.raises(SplittingError):
            make_target("cauchy")


class TestPsi:
    """Cell num of the depth-n discretization holds the target quantile at
    the right endpoint (num + 1)/2^n of the dyadic cell [num/2^n, (num+1)/2^n)."""

    def test_right_endpoint_convention(self):
        t = make_target("pareto", alpha=F(1))
        # cell [1/2, 3/4) has right endpoint 3/4
        assert DyadicRep.build(t, 2).cell_values[2] == t.quantile(F(3, 4))

    def test_matches_rep_cells(self):
        for t in (make_target("pareto", alpha=F(1)), two_point()):
            for n in (1, 2, 3):
                rep = DyadicRep.build(t, n)
                for num in range(2 ** n):
                    assert rep.cell_values[num] == t.quantile(F(num + 1, 2 ** n))


class TestDyadicRep:
    def test_two_point_depth1_exact(self):
        rep = DyadicRep.build(two_point(), 1)
        assert rep.cell_values == (F(1), F(2))
        assert rep.dist() == FiniteDist.uniform([1, 2])

    def test_restrict_is_stride(self):
        t = make_target("pareto", alpha=F(1))
        rep = DyadicRep.build(t, 4)
        coarse = rep.restrict(2)
        assert coarse.cell_values == rep.cell_values[3::4]
        assert coarse == DyadicRep.build(t, 2)

    def test_splitting_has_uniform_fibers(self):
        t = make_target("pareto", alpha=F(1))
        rep = DyadicRep.build(t, 3)
        coarse = rep.restrict(1)
        # restricting to the first bit sends cell j to j >> 2: four cells
        # per fiber, which Splitting checks
        fine_sym = SymRep(tuple(range(8)), dict(enumerate(rep.cell_values)))
        coarse_sym = SymRep((0, 1), dict(enumerate(coarse.cell_values)))
        s = Splitting(fine_sym, coarse_sym, {j: j >> 2 for j in range(8)})
        assert s.cost() == pytest.approx(split_cost(t, 3, 1), abs=1e-12)


class TestSplitCost:
    def test_two_point_zero_at_depth1(self):
        t = two_point()
        # every refinement of the depth-1 cells has the same cell values
        for fine in (2, 3, 4):
            assert split_cost(t, fine, 1) == 0.0
        assert tail_cost_bound(t, 1) <= (math.pi / 2) * 2.0 ** -9

    def test_pareto_enumeration_oracle(self):
        t = make_target("pareto", alpha=F(1))
        for coarse in (1, 2):
            fine = 3
            step = 1 << (fine - coarse)
            cells = [t.quantile(F(j + 1, 8)) for j in range(8)]
            oracle = math.fsum(
                rho(cells[j], cells[((j >> (fine - coarse))
                                     << (fine - coarse)) + step - 1])
                for j in range(8)) / 8
            assert split_cost(t, fine, coarse) == pytest.approx(oracle,
                                                                abs=1e-12)

    @pytest.mark.parametrize("family, params", [
        ("pareto", {"alpha": F(1)}), ("lognormal", {"mu": 0, "sigma": 1})])
    def test_equals_the_sum_of_cell_gaps(self, family, params):
        # bit for bit, with the atom at infinity at u = 1
        t = make_target(family, **params)
        for fine in range(2, 8):
            cells = t.quantile_grid(fine)
            for coarse in range(1, fine):
                shift, n = fine - coarse, len(cells)
                want = math.fsum(
                    rho(cells[j], cells[((j >> shift) << shift) +
                                        (1 << shift) - 1])
                    for j in range(n)) / n
                assert split_cost(t, fine, coarse) == want

    def test_negative_value_is_rejected(self):
        t = make_target("table", rows=[(F(1, 2), F(-1)), (F(1), F(2))])
        with pytest.raises(DistError):
            split_cost(t, 2, 1)

    def test_pareto_costs_decrease_in_depth(self):
        t = make_target("pareto", alpha=F(1))
        costs = [split_cost(t, d + 1, d) for d in range(1, 7)]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_cost_bounds_vasershtein(self):
        # both laws hold an atom at infinity, so the L1 distance comes
        # from the exact-merge oracle
        t = make_target("pareto", alpha=F(1))
        fine, coarse = DyadicRep.build(t, 4), DyadicRep.build(t, 2)
        assert merge_vasershtein(fine.dist(), coarse.dist()) <= \
            split_cost(t, 4, 2) + 1e-12


class TestSplitSequence:
    def test_two_point_trivial(self):
        seq = build_split_sequence(two_point(), [F(1, 10), F(1, 100)])
        assert seq.depths[0] >= 1
        assert all(a < b for a, b in zip(seq.depths, seq.depths[1:]))
        assert all(c <= b + 1e-12
                   for c, b in zip(seq.costs, seq.tail_bounds))
        assert seq.dominates

    def test_pareto_sequence_dominates_below_floor(self):
        t = make_target("pareto", alpha=F(1))
        seq = build_split_sequence(t, [F(1, 4), F(1, 8)])
        assert seq.floor_r == t.quantile(1 - F(1, 2) ** seq.depths[0])
        for rep in seq.reps:
            dist = rep.dist()
            # exact domination: the discretized cdf never exceeds the
            # target cdf below the floor
            pts = [v for v in dist.values if v != INF and v < seq.floor_r]
            for v in pts:
                assert dist.cdf(v) <= t.cdf(v)
        assert seq.dominates

    def test_bounds_meet_epsilons(self):
        t = make_target("pareto", alpha=F(1))
        eps = [0.3, 0.1]
        seq = build_split_sequence(t, eps)
        assert all(b < e for b, e in zip(seq.tail_bounds, eps))

    def test_depth_cap_error(self):
        t = make_target("pareto", alpha=F(1))
        with pytest.raises(SplittingError):
            build_split_sequence(t, [1e-9], max_depth=5)

    @pytest.mark.parametrize("target", [
        make_target("pareto", alpha=F(1)), make_target("lognormal"),
        make_target("points", atoms=[(F(1), F(1, 3)), (F(5), F(2, 3))])])
    def test_each_quantile_taken_once(self, target):
        # one call takes every quantile of its deepest grid once and no
        # other; its outputs are those of depth-by-depth public calls
        asked = []

        class Counted(type(target)):
            def quantile(self, u):
                asked.append(u)
                return target.quantile(u)

        counted = Counted.__new__(Counted)
        counted.__dict__.update(target.__dict__)
        seq = build_split_sequence(counted, [0.3, 0.1, 0.03])
        deepest = seq.depths[-1] + GUARD
        assert sorted(asked) == [F(j, 2 ** deepest)
                                 for j in range(1, 2 ** deepest + 1)]
        assert seq.target is counted
        assert seq.tail_bounds == tuple(tail_cost_bound(target, d)
                                        for d in seq.depths)
        assert seq.costs == tuple(split_cost(target, b, a) for a, b in
                                  zip(seq.depths, seq.depths[1:]))
        assert seq.reps == tuple(DyadicRep.build(target, d)
                                 for d in seq.depths)
        assert seq.floor_r == target.quantile(1 - F(1, 2 ** seq.depths[0]))

    def test_domination_helper_agrees(self):
        # both cdfs are right-continuous steps, so domination below the
        # floor is decided at the atoms of either law below it
        t = two_point()
        seq = build_split_sequence(t, [F(1, 10)])
        y = FiniteDist.uniform([1, 2])
        assert seq.dominates
        for rep in seq.reps:
            d = rep.dist()
            for v in set(d.values) | set(y.values):
                if v != INF and (seq.floor_r == INF or v < seq.floor_r):
                    assert d.cdf(v) <= y.cdf(v)
