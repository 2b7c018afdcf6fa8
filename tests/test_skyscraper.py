"""Unit tests for the integer return-time tower and its occupation laws."""

import csv
import dataclasses
import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from towerkit.blocks import Block, Bump
from towerkit.distributions import FiniteDist
from towerkit.lemma_engine import (BlockArray, GammaTable, InvariantError,
                                   _add_bumps)
from towerkit.skyscraper import (IntegerTower, InversionError,
                                 SkyscraperError, are_diagnostic,
                                 check_duality, check_inversion, integerize,
                                 inverse_target,
                                 occupation_counts, occupation_sweep,
                                 return_time_partial_sums)
from towerkit.tower import build_rational_tower

from oracles import merge_vasershtein, whole_row_statistics


def occupation_mean_via_levels(it, n):
    """Mean occupation computed by counting level hits: the number of base
    positions whose j-th return happens by time n, summed over j >= 1."""
    total = 0
    h = it.height
    for s in it.symbols:
        for pos in range(1, h + 1):
            j = 1
            while return_time_partial_sums(it, j, (s, pos)) <= n:
                total += 1
                j += 1
    return F(total, h * it.size)


def toy_tower(weights_by_symbol, target=None, trace=None):
    """Hand-built integer tower for oracle tests (no trace attached unless
    one is given)."""
    symbols = tuple(weights_by_symbol)
    blocks = {s: Block(w, F(1)) for s, w in weights_by_symbol.items()}
    y = target or FiniteDist.point(1)
    return IntegerTower(trace, symbols, blocks, F(1), y, F(1, 1000))


def occupation_oracle(it, n, counts, x_values, tail_constant):
    """The occupation law at time n by merging per-block counts in a dict
    into exact FiniteDists: the law of S_n, its tail checks, and the
    transport distance of S_n/a(n) to the occupation target."""
    merged = {}
    for s in it.symbols:
        uniq, cnt = np.unique(counts[s], return_counts=True)
        for u, c in zip(uniq, cnt):
            merged[int(u)] = merged.get(int(u), 0) + int(c)
    total = it.height * it.size
    a_n = it.a_of(n)
    dist = FiniteDist([(v, F(c, total)) for v, c in merged.items()])
    normalized = FiniteDist([(F(v) / a_n, F(c, total))
                             for v, c in merged.items()])
    y = it.occupation_target
    checks = []
    for x in map(F, x_values):
        lhs = F(sum(c for v, c in merged.items() if v >= x * a_n), total)
        bound = F(tail_constant) * (1 - y.cdf_below(x))
        checks.append((x, lhs, bound, lhs <= bound))
    return dist, tuple(checks), merge_vasershtein(normalized, y)


def gamma_trace(g, target):
    """Stand-in trace with constant normalizer g, so a(n) = n/g on a tower
    of unit tick."""
    return SimpleNamespace(global_gamma=GammaTable(((1, g),), ((1, 0.5),)),
                           target=target)


@pytest.fixture(scope="module")
def base_trace():
    # return times distributed like 1/Y for Y uniform on {1, 2}
    z = FiniteDist.uniform([F(1, 2), F(1)])
    return build_rational_tower(z, [F(1, 20)], [F(1, 40)], rounds=2)


@pytest.fixture(scope="module")
def int_tower(base_trace):
    return integerize(base_trace)


class TestInverseTarget:
    def test_two_point(self):
        z = FiniteDist.uniform([F(1, 2), F(1)])
        assert inverse_target(z) == FiniteDist.uniform([1, 2])

    def test_masses_preserved(self):
        z = FiniteDist([(F(1, 3), F(1, 4)), (F(2), F(3, 4))])
        inv = inverse_target(z)
        assert inv.cdf(F(1, 2)) == F(3, 4)
        assert inv.cdf(F(3)) == F(1)


class TestIntegerize:
    def test_weights_positive_integers(self, int_tower):
        for s in int_tower.symbols:
            assert int_tower.blocks[s].scale == int_tower.time_unit
            w = int_tower.blocks[s].units
            assert w.dtype == np.int64
            assert int(w.min()) >= 1

    def test_exact_mode_zero_perturbation(self, base_trace, int_tower):
        assert all(p == 0 for p in int_tower.perturbations.values())
        # weights times the tick reproduce the original block weights
        arr = base_trace.final
        for s in int_tower.symbols:
            w = arr.blocks[s]
            exact = [int(u) * F(w.scale) / int_tower.time_unit
                     for u in w.units]
            assert exact == list(int_tower.blocks[s].units)

    def test_means_match_target(self, base_trace, int_tower):
        arr = base_trace.final
        for s in int_tower.symbols:
            mean = F(int_tower.blocks[s].total_units(), int_tower.height)
            assert mean * int_tower.time_unit == \
                F(arr.scale) * arr.values[s]

    def test_rejects_bad_eta(self, base_trace):
        with pytest.raises(SkyscraperError):
            integerize(base_trace, F(0))

    @pytest.mark.parametrize("eta", [F(1, 2 ** 62), F(1, 10 ** 30)])
    def test_rounded_weights_past_int64_rejected(self, base_trace, eta):
        # one block of 16 units near 2^50 at scale 2^-50 takes the rounded
        # branch; at these eta its weights (2^-62) or their total (2^66)
        # leave int64, which must raise instead of wrapping or overflowing
        w = Block([2 ** 50 + j for j in range(16)], F(1, 2 ** 50))
        mean = w.mean
        trace = dataclasses.replace(
            base_trace, final=BlockArray(("w",), {"w": w}, {"w": mean}, 1))
        it = integerize(trace, F(1, 2 ** 20))
        assert 0 <= it.perturbations["w"] <= F(1, 2 ** 20)
        assert it.blocks["w"].total_units() == sum(
            -(-u // 2 ** 30) for u in w.units.tolist())
        with pytest.raises(SkyscraperError):
            integerize(trace, eta)


class TestReturnTimes:
    def test_against_orbit_oracle(self):
        rng = random.Random(71)
        it = toy_tower({"a": [rng.randint(1, 9) for _ in range(7)]})
        w = list(it.blocks["a"].units)
        h = len(w)
        for pos in range(1, h + 1):
            acc = 0
            for j in range(1, 30):
                acc += w[(pos - 1 + j - 1) % h]
                assert return_time_partial_sums(it, j, ("a", pos)) == acc
            # the array form against the scalar calls, n = 0 included
            ns = np.arange(30)
            got = return_time_partial_sums(it, ns, ("a", pos))
            assert got.dtype == np.int64
            assert got.tolist() == [return_time_partial_sums(it, j, ("a", pos))
                                    for j in range(30)]

    def test_array_past_int64_raises(self):
        # S_3 = 3*2^61 + 1 fits int64, S_4 = 2^63 + 2 does not: the scalar
        # form gives the exact sum, the array form refuses to wrap
        it = toy_tower({"a": [2 ** 61, 2 ** 61 + 1]})
        nu = ("a", 1)
        assert return_time_partial_sums(it, np.arange(4), nu).tolist() == \
            [return_time_partial_sums(it, j, nu) for j in range(4)]
        assert return_time_partial_sums(it, 4, nu) == 2 ** 63 + 2
        with pytest.raises(SkyscraperError):
            return_time_partial_sums(it, np.arange(5), nu)
        with pytest.raises(SkyscraperError):
            return_time_partial_sums(it, np.array([1, -1]), nu)


class TestOccupation:
    def oracle_counts(self, weights, n):
        h = len(weights)
        out = []
        for pos in range(h):
            acc, j = 0, 0
            while True:
                acc += weights[(pos + j) % h]
                if acc > n:
                    break
                j += 1
            out.append(j)
        return out

    def test_counts_against_oracle(self):
        rng = random.Random(83)
        for _ in range(20):
            w = [rng.randint(1, 12) for _ in range(rng.randint(1, 9))]
            it = toy_tower({"a": w})
            for n in (1, 5, 17, 103):
                got = occupation_counts(it, n)["a"]
                assert list(got) == self.oracle_counts(w, n)

    def test_mean_via_levels_agrees(self):
        it = toy_tower({"a": [2, 5, 3], "b": [4, 1, 6]})
        for n in (7, 20, 55):
            counts = occupation_counts(it, n)
            direct = F(sum(int(counts[s].sum()) for s in it.symbols),
                       it.height * it.size)
            assert occupation_mean_via_levels(it, n) == direct

    def test_distribution_total_mass(self, int_tower):
        n = 6 * max(int(int_tower.blocks[s].units.max())
                    for s in int_tower.symbols)
        rep = occupation_sweep(int_tower, [n])[n]
        values, counts = rep.law.units, rep.law.counts
        (total,) = rep.law.totals
        assert sum(F(int(c), total) for c in counts) == 1
        assert F(int((values * counts).sum()), total) == \
            occupation_mean_via_levels(int_tower, n)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.integers(1, 8).flatmap(lambda h: st.lists(
               st.lists(st.integers(1, 9), min_size=h, max_size=h),
               min_size=1, max_size=3)),
           st.integers(0, 60),
           st.fractions(F(1, 4), F(8), max_denominator=6),
           st.lists(st.fractions(F(1, 4), F(4), max_denominator=4),
                    min_size=1, max_size=3),
           st.lists(st.fractions(F(1, 2), F(3), max_denominator=4),
                    min_size=1, max_size=3),
           st.sampled_from([F(1), F(2), F(100)]))
    # every position returns each tick and a(n) = n: x = 1 puts x a(n) on
    # the one occupation count, which the tail [S_n >= x a(n)] includes
    @example([[1, 1]], 0, F(1), [F(1, 2)], [F(1)], F(2))
    def test_law_matches_dict_oracle(self, weights, extra, g, ys, xs,
                                     tail_constant):
        y = FiniteDist.uniform(ys)
        it = toy_tower(dict(enumerate(weights)), y,
                       gamma_trace(g, inverse_target(y)))
        n = max(map(max, weights)) + extra
        dist, checks, distance = occupation_oracle(
            it, n, occupation_counts(it, n), xs, tail_constant)
        failed = [(n, x, lhs, bound) for x, lhs, bound, ok in checks
                  if not ok]
        if failed:
            # the sweep stops at the first failing tail check
            with pytest.raises(InversionError) as exc:
                occupation_sweep(it, [n], x_values=xs,
                                 tail_constant=tail_constant)
            assert exc.value.witness == failed[0]
            return
        rep = occupation_sweep(it, [n], x_values=xs,
                               tail_constant=tail_constant)[n]
        values, mult = rep.law.units, rep.law.counts
        assert rep.law.totals == [it.height * it.size]
        assert values.tolist() == dist.values
        assert [F(int(c), it.height * it.size) for c in mult] == dist.masses
        assert rep.a_n == it.a_of(n)
        assert check_inversion(it, {n: rep}).occ_distances[n] == \
            pytest.approx(distance, abs=1e-15)

    def test_witness_is_the_first_failing_x(self):
        # x = 1 passes, and x = 1/2 and 1/4 both fail: the sweep names the
        # first failing tail check in the order of x_values
        y = FiniteDist.uniform([F(1, 2), F(1)])
        it = toy_tower({0: [1, 2, 3], 1: [2, 2, 2]}, y,
                       gamma_trace(F(1), inverse_target(y)))
        xs = [F(1), F(1, 2), F(1, 4)]
        _, checks, _ = occupation_oracle(
            it, 6, occupation_counts(it, 6), xs, F(1, 100))
        assert [ok for *_, ok in checks] == [True, False, False]
        with pytest.raises(InversionError) as exc:
            occupation_sweep(it, [6], x_values=xs, tail_constant=F(1, 100))
        assert exc.value.witness == (6, *checks[1][:3])
        assert str(exc.value) == \
            "occupation tail bound failed at n=6, x=1/2: 1 > 1/100"

    def test_csv_rows_match_oracle(self, int_tower, tmp_path):
        n = int_tower.covered_horizon()
        occupation_sweep(int_tower, [n])[n].to_csv(tmp_path / "occ.csv")
        dist, _, _ = occupation_oracle(
            int_tower, n, occupation_counts(int_tower, n), (), 2)
        with open(tmp_path / "occ.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [["count", "mass"]] + [
            [str(v), str(m)] for v, m in zip(dist.values, dist.masses)]

    def test_sweep_matches_one_horizon_sweeps(self, int_tower):
        # every horizon is counted into the same buffers, so a report
        # that kept a view of them would read a later horizon's counts
        horizon = int_tower.covered_horizon()
        wmax = max(int(int_tower.blocks[s].units.max())
                   for s in int_tower.symbols)
        n_grid = sorted({int(horizon * 1.5 ** -j) for j in range(5)
                         if int(horizon * 1.5 ** -j) >= 4 * wmax})
        alphas, t_grid = [0.5, 1.0, 2.0], [0.5, 2.0]
        swept = occupation_sweep(int_tower, n_grid, alphas, t_grid)
        assert len(n_grid) > 2 and sorted(swept) == n_grid
        for n in n_grid:
            got = swept[n]
            want = occupation_sweep(int_tower, [n], alphas, t_grid)[n]
            for name in ("units", "counts", "offsets"):
                assert np.array_equal(getattr(got.law, name),
                                      getattr(want.law, name)), (n, name)
            assert got.law.totals == want.law.totals
            assert (got.a_n, got.mean, got.moment, got.u) == \
                (want.a_n, want.mean, want.moment, want.u)

    def test_early_time_rejected(self):
        it = toy_tower({"a": [5, 9, 7]})
        with pytest.raises(SkyscraperError):
            occupation_sweep(it, [3])


def doubled_prefix_counts(w, n):
    """The count at every position of block w by one binary search of its
    doubled prefix array: the oracle for the bump-tiled kernel."""
    pre, h = np.concatenate([[0], np.cumsum(w.units)]), len(w)
    q, m = divmod(n, int(pre[-1]))
    pre2 = np.concatenate([pre, pre[-1] + pre[1:]])
    return q * h + np.searchsorted(pre2, pre[:h] + m, side="right") - 1 \
        - np.arange(h)


def tiled_units(w):
    """The units that w's Bump describes: its child's units times f,
    tiled, plus B at every spacing-th position."""
    child, f, b, s = w.bump
    units = np.tile(child.units * f, len(w) // len(child))
    units[s - 1::s] += b
    return units


def bumped(child_units, f, b, copies, tiles):
    """A block of ``tiles`` spacings, each ``copies`` copies of the child
    times f with b added at its last position, carrying its Bump."""
    s = copies * len(child_units)
    units = np.tile(np.asarray(child_units) * f, copies * tiles)
    units[s - 1::s] += b
    return Block(units, 1, Bump(Block(child_units), f, b, s))


def bump_tower(blocks):
    """Integer tower of the given blocks at unit tick, with no trace."""
    return IntegerTower(None, tuple(blocks), blocks, F(1),
                        FiniteDist.point(1), F(1, 1000))


class TestBumpKernel:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=6),
           st.integers(1, 5), st.integers(0, 40), st.integers(1, 4),
           st.integers(1, 3), st.integers(1, 10 ** 6))
    # a zero bump, a child of period 1 under length 2, and m < B
    @example([3], 2, 0, 2, 2, 5)
    @example([1, 1], 1, 7, 1, 3, 17)
    def test_counts_match_doubled_prefix_search(self, child, f, b, copies,
                                               tiles, seed):
        w = bumped(child, f, b, copies, tiles)
        it = bump_tower({"a": w})
        tot = w.total_units()
        rng = random.Random(seed)
        ns = {1, rng.randint(1, 4 * tot)}
        for q in range(4):
            # at and around whole cycles, and remainders below the bump
            for d in (-1, 0, 1, b - 1, b, b + 1, rng.randrange(tot)):
                ns.add(q * tot + d)
        for n in sorted(n for n in ns if n >= 1):
            got = occupation_counts(it, n)["a"]
            assert np.array_equal(got, doubled_prefix_counts(w, n)), n

    def test_add_bumps_blocks_use_their_bump(self):
        w = _add_bumps(Block([2, 3, 1]), 6, 5, 9)
        assert w.bump is not None and len(w) // w.bump.spacing == 2
        it = bump_tower({"a": w})
        for n in range(1, 3 * w.total_units()):
            assert np.array_equal(occupation_counts(it, n)["a"],
                                  doubled_prefix_counts(w, n))

    def test_exact_integer_bumps_rebuild_units(self, int_tower):
        assert all(p == 0 for p in int_tower.perturbations.values())
        for s in int_tower.symbols:
            w = int_tower.blocks[s]
            assert w.bump is not None
            assert np.array_equal(w.units, tiled_units(w))

    def test_rounded_integer_bumps_rebuild_units(self, base_trace):
        # units near 2^50 at scale 2^-50 take the rounded branch, where
        # the bump positions round f*c_last + B on their own
        child = Block([2 ** 50 + 7 * j for j in range(4)], F(1, 2 ** 50))
        w = _add_bumps(child, 4, F(3 * 2 ** 30 + 5, 2 ** 50), 8)
        trace = dataclasses.replace(base_trace, final=BlockArray(
            ("w",), {"w": w}, {"w": w.mean}, 1))
        it = integerize(trace, F(1, 2 ** 20))
        v = it.blocks["w"]
        assert it.perturbations["w"] != 0
        # ceil(B*r) would be 4; the bump positions round to 3 more than
        # the child's last unit
        assert v.bump.factor == 1 and v.bump.amount == 3
        assert np.array_equal(v.units, tiled_units(v))
        for n in (4 * v.total_units() // 3, 7 * v.total_units() + 3):
            assert np.array_equal(occupation_counts(it, n)["w"],
                                  doubled_prefix_counts(v, n))

    def test_duality_on_bump_tiled_tower(self):
        it = bump_tower({"a": bumped([2, 1, 3], 1, 4, 2, 2),
                         "b": bumped([1, 1], 3, 2, 3, 2)})
        assert check_duality(it)


def t_between(phi, data):
    """Thresholds t below every value of ``phi``, above every value, at
    one of them (the tail is strict) and between two neighbours."""
    vals = np.unique(phi)
    ts = [vals[0] / 2, vals[-1] * 2,
          vals[data.draw(st.integers(0, vals.size - 1))]]
    if vals.size > 1:
        i = data.draw(st.integers(0, vals.size - 2))
        ts.append((vals[i] + vals[i + 1]) / 2)
    return [float(t) for t in ts]


class TestSweepFloats:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=4),
           st.integers(1, 3), st.integers(0, 30), st.integers(1, 3),
           st.integers(2, 4), st.booleans(),
           st.fractions(F(1, 4), F(8), max_denominator=6),
           st.lists(st.sampled_from([0.5, 1.0, 2.0, 0.3, 1.5, 2.5]),
                    min_size=1, max_size=3, unique=True),
           st.data())
    def test_statistics_equal_whole_row_oracle(self, child, f, b, copies,
                                               tiles, plain_first, g,
                                               alphas, data):
        # a bump-tiled block of h/s = tiles >= 2 next to a block with no
        # Bump, in either order: the run tables cross the block boundary
        tiled = bumped(child, f, b, copies, tiles)
        h = len(tiled)
        # alpha = 1 in every set: the sweep reads that moment off the mean
        alphas = sorted({1.0, *alphas})
        plain = Block(data.draw(st.lists(st.integers(1, 30), min_size=h,
                                         max_size=h)))
        blocks = {"p": plain, "t": tiled} if plain_first else \
            {"t": tiled, "p": plain}
        y = FiniteDist.point(1)
        it = IntegerTower(gamma_trace(g, y), tuple(blocks), blocks, F(1), y,
                          F(1, 1000))
        wmax = max(int(w.units.max()) for w in blocks.values())
        total = max(w.total_units() for w in blocks.values())
        n_grid = sorted(set(data.draw(st.lists(
            st.integers(wmax, 3 * total), min_size=1, max_size=3))))
        rows = {n: np.concatenate(list(occupation_counts(it, n).values()))
                for n in n_grid}
        t_grid = []
        for n in n_grid:
            for alpha in alphas:
                t_grid += t_between(
                    (rows[n] / float(it.a_of(n))) ** alpha, data)
        reports = occupation_sweep(it, n_grid, alphas, t_grid, x_values=())
        for n, occ in rows.items():
            rep = reports[n]
            values, mult = np.unique(occ, return_counts=True)
            assert np.array_equal(rep.law.units, values)
            assert np.array_equal(rep.law.counts, mult)
            # == on every float: the sums see the same operands in order
            assert (rep.mean, rep.moment, rep.u) == whole_row_statistics(
                occ, it.a_of(n), alphas, t_grid)


class TestRepeatPowers:
    """The sweep raises a run table to alpha and expands it; the whole
    row of powers must be those values, bit for bit, whatever the length
    of the array numpy's power loop is given."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(1, 5000), st.floats(0.05, 4.0),
           st.integers(0, 2 ** 32 - 1))
    def test_expanded_powers_are_powers_of_the_row(self, size, alpha, seed):
        rng = np.random.default_rng(seed)
        runs = rng.integers(1, 10 ** 6, size).astype(float)
        lens = rng.integers(1, 40, size)
        c = float(rng.integers(1, 10 ** 4)) + rng.random()
        for a in (alpha, 0.5, 1.0, 2.0):
            row = np.repeat(runs, lens)
            row **= a
            assert np.array_equal(np.repeat(runs ** a, lens).view(np.int64),
                                  row.view(np.int64)), a
            row = np.repeat(runs, lens) / c
            row **= a
            assert np.array_equal(
                np.repeat((runs / c) ** a, lens).view(np.int64),
                row.view(np.int64)), a


class TestDuality:
    def test_exhaustive_small_towers(self):
        rng = random.Random(97)
        for _ in range(8):
            h = rng.randint(1, 12)
            weights = {"a": [rng.randint(1, 9) for _ in range(h)],
                       "b": [rng.randint(1, 9) for _ in range(h)]}
            assert check_duality(toy_tower(weights))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=4),
           st.integers(1, 3), st.lists(st.integers(1, 9), min_size=1,
                                       max_size=4))
    def test_bumpless_blocks_against_brute_force(self, pattern, copies,
                                                 other):
        # a block with no Bump is counted as the tiling Bump(w, 1, 0, h)
        # of itself, on one least period, which is shorter than h here
        # whenever copies > 1
        h = len(pattern) * copies
        it = toy_tower({"a": pattern * copies,
                        "b": (other * h)[:h]})
        assert all(it.blocks[s].bump is None for s in it.symbols)
        assert check_duality(it)

    def test_corrupted_counts_detected(self, monkeypatch):
        it = toy_tower({"a": [3, 4, 5]})
        # break the roof structure behind the prefix sums: a non-monotone
        # prefix desynchronizes the vectorized count from the orbit sums
        monkeypatch.setattr(Block, "period_prefix",
                            lambda w: np.array([0, 7, 3, 12]))
        with pytest.raises(InvariantError):
            check_duality(it)

    def test_height_limit(self):
        it = toy_tower({"a": [1] * 600})
        with pytest.raises(SkyscraperError):
            check_duality(it)


class TestInversionTable:
    def test_a_of_monotone(self, int_tower):
        ns = [10, 100, 1000, 10 ** 4, 10 ** 5]
        vals = [int_tower.a_of(n) for n in ns]
        assert vals == sorted(vals)

    def test_a_of_inverts_b_at_anchors(self, int_tower):
        ks, bs = int_tower._inversion_table
        for k, b in zip(ks, bs):
            if b > 0:
                assert int_tower.a_of(b) == k

    def test_covered_horizon(self, int_tower):
        h = int_tower.covered_horizon()
        assert int_tower.a_of(h) <= int_tower.trace.height + 1


class TestInversion:
    def test_two_point_inversion(self, int_tower):
        horizon = int_tower.covered_horizon()
        wmax = max(int(int_tower.blocks[s].units.max())
                   for s in int_tower.symbols)
        n_grid = sorted({int(horizon * 1.3 ** -j) for j in range(10)
                         if int(horizon * 1.3 ** -j) >= 4 * wmax})
        rep = check_inversion(int_tower, occupation_sweep(int_tower, n_grid))
        assert rep.top.ok()
        top = [n for n in rep.n_grid if n * 10 >= rep.n_grid[-1]]
        for n in top:
            assert rep.occ_distances[n] <= 0.15

    def test_alpha_moment_ratio(self, int_tower):
        horizon = int_tower.covered_horizon()
        wmax = max(int(int_tower.blocks[s].units.max())
                   for s in int_tower.symbols)
        n_grid = sorted({int(horizon * 1.3 ** -j) for j in range(8)
                         if int(horizon * 1.3 ** -j) >= 4 * wmax})
        reports = occupation_sweep(int_tower, n_grid, [1.0, 2.0], [2.0])
        rows = are_diagnostic(int_tower, reports, [1.0, 2.0], [2.0])
        by_alpha = {r.alpha: r for r in rows}
        assert by_alpha[1.0].mode == "integrable"
        # E[Y^2]^(1/2) / E[Y] for Y uniform on {1,2}
        expected = (2.5 ** 0.5) / 1.5
        top = [n for n in n_grid if n * 10 >= n_grid[-1]]
        for n in top:
            assert by_alpha[2.0].ratio_to_a1[n] == \
                pytest.approx(expected, abs=0.01)

    def test_divergent_mode_flag(self, int_tower):
        n_grid = [int_tower.covered_horizon()]
        reports = occupation_sweep(int_tower, n_grid, [1.5], [2.0])
        rows = are_diagnostic(int_tower, reports, [1.5], [2.0],
                              divergent_alphas=[1.5])
        assert rows[0].mode == "divergent"
        assert rows[0].bound is None
