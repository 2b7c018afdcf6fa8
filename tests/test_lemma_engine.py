"""Unit tests for the extension engine: basic, compound, straightening."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from towerkit.blocks import Block, is_normalized, self_concat
from towerkit.distributions import (FiniteDist, Splitting,
                                    SymRep, transport_distances)
from towerkit.lemma_engine import (FLOAT_SLACK, BlockArray,
                                   CompoundReport, GammaTable,
                                   InvariantError, PreconditionError,
                                   SizeCapError, Verdict,
                                   _add_bumps, _certify, _check_rescale,
                                   _tile, basic_extend, choose_tile,
                                   compound_extend, extension_step,
                                   make_k_grid, straightening_step)
from towerkit import tower
from towerkit.cli import build_tower_from_config, load_config

from oracles import cyclic_partial_sums_units, gamma_oracle, record, rows

NORM_GRID = [F(1, 2), F(2, 5), F(1, 3), F(1, 4), F(1, 5), F(1, 6), F(1, 8)]


def certified_level(w):
    """Coarsest grid level at which the block is normalized, or None."""
    for d in NORM_GRID:
        if is_normalized(w, d):
            return d
    return None


def value_disagreements(wa, wb, k):
    """Boolean mask of positions where the cyclic sums differ as values."""
    a = cyclic_partial_sums_units(wa, k).astype(object)
    b = cyclic_partial_sums_units(wb, k).astype(object)
    sa, sb = F(wa.scale), F(wb.scale)
    return (a * sa.numerator * sb.denominator) != \
        (b * sb.numerator * sa.denominator)


def two_label_array(scale=F(1)):
    blocks = {"a": Block([3, 5, 4, 4], F(1, 4)),
              "b": Block([7, 9, 8, 8], F(1, 4))}
    return BlockArray(("a", "b"), blocks, {"a": F(1), "b": F(2)}, scale)


class TestHelpers:
    def test_make_k_grid(self):
        grid = make_k_grid(10, 100000, dense_cap=64, geo_cap=32)
        assert grid[0] == 10
        assert grid[-1] == 100000
        assert list(grid) == sorted(set(grid))
        assert len(grid) <= 64 + 32 + 2

    def test_gamma_table_modes(self):
        g = GammaTable(((1, F(2)), (10, F(3))), ((1, 0.5), (10, 0.25)),
                      mode="linear")
        gamma, _, den = g.rows([1, 10, 5])
        assert [F(n, d) for n, d in zip(gamma.tolist(), den.tolist())] == \
            [F(2), F(3), F(22, 9)]
        assert g.eps(1) == 0.5
        c = GammaTable(((1, F(2)), (10, F(3))), ((1, 0.5), (10, 0.25)),
                      mode="constant")
        # left-continuous steps: the anchor value holds up to the next one
        gamma, _, den = c.rows([5, 9, 10])
        assert [F(n, d) for n, d in zip(gamma.tolist(), den.tolist())] == \
            [F(2), F(2), F(3)]

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=6,
                    unique=True),
           st.lists(st.tuples(st.integers(1, 2 ** 62), st.integers(1, 2 ** 62)),
                    min_size=6, max_size=6),
           st.sampled_from([16, 2 ** 20, 2 ** 62]),
           st.lists(st.integers(0, 2 * 10 ** 6), max_size=8))
    @example([1, 7, 30], [(2, 1), (5, 2), (3, 1)] * 2, 16, [])
    @example([3, 2 ** 20], [(2 ** 62 - 1, 2 ** 61 + 1), (2 ** 62, 3)] * 3,
             2 ** 62, [0, 1, 2 ** 19])
    def test_rows_match_the_anchors(self, ks, fracs, cap, extra):
        # anchors whose numerators and denominators reach near 2^62 (cap),
        # read at every anchor, one beside it on each side and beyond the
        # ends: each row is gamma(k) and k*gamma(k) exactly, and its float
        # the float of the Fraction bit for bit
        ks = sorted(ks)
        gs = sorted(F(min(a, cap), min(b, cap)) for a, b in fracs[:len(ks)])
        probe = [0, 1, *extra] + [k + d for k in ks for d in (-1, 0, 1)]
        for mode in ("linear", "constant"):
            table = GammaTable(tuple(zip(ks, gs)), ((1, 0.5),), mode)
            g, b, den = table.rows(probe)
            assert g.dtype == b.dtype == den.dtype
            if max(b.tolist() + den.tolist()) >= 2 ** 53:
                assert g.dtype == object
            for i, k in enumerate(probe):
                want = gamma_oracle(table, k)
                assert F(int(g[i]), int(den[i])) == want
                assert F(int(b[i]), int(den[i])) == k * want
                assert float(g[i] / den[i]) == float(want)
                assert float(b[i] / den[i]) == float(k * want)

    def test_rows_switch_to_python_ints(self):
        # int64 rows while |alpha| + |beta|*k, k times it and den stay
        # below 2^53; Python ints past that, still exact
        table = GammaTable(((1, F(1)), (2 ** 26, F(3, 2))), ((1, 0.5),))
        assert table.rows([2 ** 10])[1].dtype == np.int64
        ks = [2 ** 10, 2 ** 26 + 5, 2 ** 52]
        g, b, den = table.rows(ks)
        assert b.dtype == object and max(b.tolist()) >= 2 ** 53
        assert [F(n, d) for n, d in zip(b.tolist(), den.tolist())] == \
            [k * gamma_oracle(table, k) for k in ks]

    def test_eps_between_anchors(self):
        # eps interpolates linearly in k from the anchor below: at k = 5,
        # 6 and 7, a quarter, a half and three quarters of the way from
        # (4, 1/2) to (8, 1/4), each exact in binary
        g = GammaTable(((1, F(2)),), ((4, 0.5), (8, 0.25), (16, 0.125)))
        assert [g.eps(k) for k in range(3, 10)] == \
            [0.5, 0.5, 0.4375, 0.375, 0.3125, 0.25, 0.234375]
        assert g.eps(16) == g.eps(10 ** 9) == 0.125

    def test_gamma_checksum_stable(self):
        g = GammaTable(((1, F(2)), (10, F(3))), ((1, 0.5), (10, 0.25)))
        assert g.checksum() == GammaTable.from_json_obj(
            g.to_json_obj()).checksum()


class TestBasicExtend:
    def test_singleton_example(self):
        w = Block([1])
        wp = basic_extend(w, 1, 2)
        assert wp.weights() == [F(1), F(3)]
        assert wp.mean == F(2)

    def test_zero_kappa_is_tiling(self):
        w = Block([2, 3], F(1, 2))
        assert basic_extend(w, 0, 6) == self_concat(w, 6)

    def test_preconditions(self):
        w = Block([1, 1])
        with pytest.raises(PreconditionError):
            basic_extend(w, 1, 1)
        with pytest.raises(PreconditionError):
            basic_extend(w, F(2), 3, delta=F(1, 2))
        with pytest.raises(SizeCapError):
            basic_extend(w, 0, 5, size_cap=8)

    def test_postconditions_random(self):
        rng = random.Random(19)
        checked = 0
        while checked < 40:
            h = rng.randint(1, 12)
            w = Block([rng.randint(1, 8) for _ in range(h)],
                      F(1, rng.randint(1, 4)))
            delta = certified_level(w)
            if delta is None:
                continue
            checked += 1
            kap = F(rng.randint(0, 4), 4) * delta * w.mean
            q = int(1 / delta) + rng.randint(1, 3)
            mu = rng.randint(1, 3)
            wp = self_concat(basic_extend(w, kap, q, delta=delta), mu)
            tiled = self_concat(w, mu * q)
            assert len(wp) == mu * q * h
            assert wp.mean == w.mean + kap
            assert all(a >= b for a, b in
                       zip(wp.weights(), tiled.weights()))

    def test_disagreement_counting(self):
        w = Block([2, 3, 4, 3], F(1, 3))
        delta = certified_level(w)
        kap = delta * w.mean
        q = int(1 / delta) + 1
        wp = self_concat(basic_extend(w, kap, q, delta=delta), 2)
        tiled = self_concat(w, 2 * q)
        H, qh = len(wp), q * len(w)
        for j in range(1, qh + 1):
            cnt = int(value_disagreements(wp, tiled, j).sum())
            assert F(cnt, H) <= F(j, qh)

    def test_choose_mu_minimal(self):
        w = Block([1])
        w1 = basic_extend(w, F(1), 2)
        mu = choose_tile(w1, F(1, 2))
        assert is_normalized(self_concat(w1, mu), F(1, 2))
        for smaller in range(1, mu):
            assert not is_normalized(self_concat(w1, smaller), F(1, 2))

    def test_choose_tile_minimal(self):
        w = Block([1, 4])
        eps = F(1, 3)
        t = choose_tile(w, eps)
        assert is_normalized(self_concat(w, t), eps)
        if t > 1:
            assert not is_normalized(self_concat(w, t - 1), eps)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=6),
           st.sampled_from([F(1), F(1, 2), F(1, 3), F(2, 7)]),
           st.sampled_from([F(0), F(1, 5), F(1, 2), F(3, 7), F(2)]),
           st.integers(2, 5), st.integers(1, 6), st.booleans())
    @example([1], F(1), F(1), 2, 3, False)
    def test_extension_is_tiling_of_mu_one(self, units, scale, kappa, q, mu,
                                           ledger):
        # mu copies of the extension are the one bump tiling of mu*q
        # copies with the same bumps: scale, Bump and change count
        # included, so a tile count chosen on the extension is the least mu
        w = Block(units, scale)
        if ledger:
            w = basic_extend(w, F(1, 3), 2)
        h = len(w)
        tiled = _tile(basic_extend(w, kappa, q), mu)
        big = _add_bumps(w, mu * q, kappa * q * h, q * h) if kappa else \
            self_concat(w, mu * q)
        assert big.scale == tiled.scale
        assert np.array_equal(big.units, tiled.units)
        assert big.bump == tiled.bump
        assert big.changed_count() == tiled.changed_count()

    def test_tiling_keeps_the_rescale_guard(self):
        # the extension rescales units 2^55 by f = 3; its q*h = 2 levels
        # pass the 2^62 guard, and so do 8 copies, but 32 copies of it
        # reach 2^62 just as one bump tiling of 64 copies would
        w = Block([2 ** 55])
        wp = basic_extend(w, F(1, 3), 2)
        assert wp.bump.factor == 3
        assert len(_tile(wp, 8)) == 16
        with pytest.raises(SizeCapError):
            _add_bumps(w, 64, F(2, 3), 2)
        with pytest.raises(SizeCapError):
            _tile(wp, 32)

    def test_rescale_guard_at_two_to_the_62(self):
        # units * f * h reaching 2^62 exactly is refused and 2^62 - 1
        # passes; a large h allocates nothing, since only the product is
        # checked, and f = 1 rescales nothing
        with pytest.raises(SizeCapError):
            _check_rescale(Block([1]), 2, 2 ** 61)
        with pytest.raises(SizeCapError):
            _check_rescale(Block([1, 4, 2]), 4, 2 ** 58)
        _check_rescale(Block([1]), 3, (2 ** 62 - 1) // 3)
        _check_rescale(Block([1, 4, 2]), 4, 2 ** 58 - 1)
        _check_rescale(Block([1]), 1, 2 ** 62)

    def test_bump_spacing_is_a_multiple_of_the_block(self):
        with pytest.raises(PreconditionError):
            _add_bumps(Block([1, 2]), 3, 1, 3)

    def test_choose_tile_cap_is_exact(self):
        # 111 copies of a 5-level block are the least normalizing tiling;
        # a cap of 555 admits them although 128 copies would not fit
        w = Block([4, 4, 1, 3, 1])
        eps = F(1, 20)
        assert choose_tile(w, eps, size_cap=555) == 111
        assert is_normalized(self_concat(w, 111), eps)
        assert not is_normalized(self_concat(w, 110), eps)
        with pytest.raises(SizeCapError):
            choose_tile(w, eps, size_cap=554)

    def test_zero_kappa_keeps_the_rescale_guard(self):
        # kappa = 0 is the plain tiling _tile(w, q), guard included: the
        # child units 2^55 times f = 3 times q*len(w) reach 2^62 from
        # q = 22 on, although the tiling's unit total still fits int64
        w = basic_extend(Block([2 ** 55]), F(1, 3), 2)
        refused = 0
        for q in range(2, 40):
            try:
                want = _tile(w, q)
            except SizeCapError:
                refused += 1
                with pytest.raises(SizeCapError):
                    basic_extend(w, 0, q)
            else:
                assert basic_extend(w, 0, q) == want
        assert refused == 40 - 22


def changed_levels(w, first):
    """Number of levels of w whose weight differs from the tiled weights
    of ``first``, compared exactly as Python ints."""
    r = first.scale / w.scale
    tiled = np.tile(first.units.astype(object) * r.numerator,
                    len(w) // len(first))
    return int((w.units.astype(object) * r.denominator != tiled).sum())


LEDGER_CAP = 4000

chain_steps = st.lists(st.one_of(
    st.tuples(st.just("extend"),
              st.sampled_from([F(0), F(1, 7), F(1, 2), F(2)]),
              st.integers(2, 4)),
    st.tuples(st.just("tile"), st.integers(1, 3)),
    st.tuples(st.just("compound"), st.sampled_from([F(1), F(3, 2), F(2)]),
              st.sampled_from([F(1, 2), F(1, 3)]))), min_size=1, max_size=6)


class TestChangeLedger:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.lists(st.fractions(F(1, 4), F(4), max_denominator=4),
                    min_size=1, max_size=4), chain_steps)
    @example([F(1)], [("extend", F(1, 2), 2), ("extend", F(1, 2), 2)])
    @example([F(1), F(2)], [("extend", F(1, 7), 3), ("tile", 2),
                            ("extend", F(0), 2), ("compound", F(2), F(1, 2))])
    def test_count_matches_changed_levels(self, weights, steps):
        # basic_extend (kappa = 0 included), self_concat and
        # compound_extend chains: the count read off the Bump chain is the
        # number of levels that differ from the tiling of the first block
        first = Block.from_weights(weights)
        w = first
        for step in steps:
            try:
                if step[0] == "extend":
                    _, frac, q = step
                    w = basic_extend(w, frac * w.mean, q,
                                     size_cap=LEDGER_CAP)
                elif step[0] == "tile":
                    if len(w) * step[1] > LEDGER_CAP:
                        break
                    w = self_concat(w, step[1])
                else:
                    _, t, d = step
                    arr = BlockArray(("w",), {"w": w},
                                     {"w": w.mean}, F(1))
                    out, _ = compound_extend(arr, {"w": t}, beta=F(1, 2),
                                             eps_out=F(1, 2), delta=d,
                                             size_cap=LEDGER_CAP)
                    w = out.blocks["w"]
            except SizeCapError:
                break
            assert w.changed_count() == changed_levels(w, first)


class TestCompoundExtend:
    def test_exact_mean_multiplication(self):
        arr = two_label_array()
        t_map = {"a": F(2), "b": F(3, 2)}
        out, rep = compound_extend(arr, t_map, beta=F(1, 3),
                                   eps_out=F(1, 4), delta=F(1, 3))
        for s in arr.symbols:
            assert out.blocks[s].mean == arr.blocks[s].mean * t_map[s]
            assert is_normalized(out.blocks[s], F(1, 4))

    def test_schedule_monotone_with_small_steps(self):
        arr = two_label_array()
        out, rep = compound_extend(arr, {"a": F(2), "b": F(3, 2)},
                                   beta=F(1, 3), eps_out=F(1, 3),
                                   delta=F(1, 3))
        steps = [r.p_after - r.p_before for r in rep.rounds]
        assert all(0 <= s <= F(1, 3) for s in steps)
        assert len(rep.rounds) >= 3
        ps = [r.p_after for r in rep.rounds]
        assert ps == sorted(ps)
        assert ps[-1] == 1
        assert rep.p_of_k(arr.height) == 0
        assert rep.p_of_k(out.height + 1) == 1

    def test_output_is_half_eps_normalized(self):
        # the final tiling makes every block eps_out/2-normalized: at every
        # k, the positions whose S_k strays from k*E by more than eps_out/2
        # are at most an eps_out/2 fraction
        arr = two_label_array()
        eps_out = F(1, 4)
        for t_map in ({"a": F(2), "b": F(2)}, {"a": F(2), "b": F(3, 2)}):
            out, rep = compound_extend(arr, t_map, beta=F(1, 3),
                                       eps_out=eps_out, delta=F(1, 3))
            assert rep.p_of_k(out.height) == 1
            for s in out.symbols:
                assert is_normalized(out.blocks[s], eps_out / 2)

    def test_rejects_shrinking_multiplier(self):
        arr = two_label_array()
        with pytest.raises(PreconditionError):
            compound_extend(arr, {"a": F(1, 2), "b": F(2)}, F(1, 3),
                            F(1, 4), F(1, 3))


class TestExtensionStep:
    def labels_three_halves(self):
        blocks = {"a": Block([3, 5, 4, 4], F(1, 4)),
                  "b": Block([5, 7, 6, 6], F(1, 4))}
        return BlockArray(("a", "b"), blocks,
                          {"a": F(1), "b": F(3, 2)}, F(1))

    def test_gentle_mode(self):
        arr = self.labels_three_halves()
        out, gamma, cert = extension_step(arr, F(3, 5), F(1, 2), rounds=2)
        assert cert.ok() and cert.strict
        assert cert.allowances == {k: gamma.eps(k) for k in cert.distances}
        assert out.change_mass() < F(3, 5)
        assert out.scale > arr.scale
        assert out.label_dist() == arr.label_dist()
        for s in out.symbols:
            assert out.blocks[s].mean == out.scale * out.values[s]

    def test_gamma_chain_steps_bounded(self):
        arr = self.labels_three_halves()
        out, gamma, _ = extension_step(arr, F(3, 5), F(1, 2), rounds=2)
        ks = [k for k, _ in gamma.anchors]
        gs = [g for _, g in gamma.anchors]
        assert all((g1 - g0) / (k1 - k0) <= F(3, 5) for k0, k1, g0, g1 in
                   zip(ks, ks[1:], gs, gs[1:]))
        assert ks == sorted(ks)
        assert gs == sorted(gs)

    def test_array_extension_shares_shape(self):
        # each round extends every block by theta*value(s)/(q*h) with one
        # q, so the array stays label-distributed at scale + theta/(q*h),
        # and tiles every block by the least count that normalizes each
        arr = self.labels_three_halves()
        delta, eps, rounds = F(3, 5), F(1, 2), 2
        q = 2 * (int(1 / delta) + 1)
        out, gamma, _ = extension_step(arr, delta, eps, rounds=rounds)
        assert out.values == arr.values
        assert out.label_dist() == arr.label_dist()
        # the largest dyadic at most eps*scale/(4*(rounds + 1)) = 1/24
        theta = F(1, 32)
        cur, scale = arr, F(arr.scale)
        for (h, g), (h1, g1) in zip(gamma.anchors, gamma.anchors[1:]):
            assert g == scale
            scale += theta / (q * h)
            assert g1 == scale
            ext = [basic_extend(cur.blocks[s], theta * cur.values[s] / (q * h),
                                q) for s in cur.symbols]
            mu = max(choose_tile(w, eps / 2) for w in ext)
            assert h1 == mu * q * h
            cur = BlockArray(cur.symbols, {s: _tile(w, mu) for s, w in
                                           zip(cur.symbols, ext)},
                             cur.values, scale)
        assert all(out.blocks[s] == cur.blocks[s] for s in out.symbols)
        assert out.scale == scale
        for s in out.symbols:
            assert out.blocks[s].mean == out.scale * out.values[s]

    def test_eps_must_not_exceed_delta(self):
        arr = self.labels_three_halves()
        with pytest.raises(PreconditionError):
            extension_step(arr, F(1, 4), F(1, 2))

    def test_certify_matches_each_k_alone(self):
        # an extended array with a repeated block: the grid shares class
        # laws across k and across the equal blocks, and every distance
        # must equal, bit for bit, the one measured on that k alone from
        # every position of each whole block
        out, gamma, _ = extension_step(self.labels_three_halves(), F(3, 5),
                                       F(1, 2), rounds=2)
        arr = BlockArray(("a", "a2", "b"),
                         {"a": out.blocks["a"], "a2": out.blocks["a"],
                          "b": out.blocks["b"]},
                         {"a": F(1), "a2": F(1), "b": F(3, 2)}, out.scale)
        blocks = [arr.blocks[s] for s in arr.symbols]
        y = arr.label_dist()
        got = _certify(arr, gamma, 1, 3 * arr.height)
        grid = list(got.distances)
        assert len(grid) > arr.height
        hists = dict(zip(grid, rows(arr.sk_histograms(grid))))
        for k in grid:
            laws = [np.unique(cyclic_partial_sums_units(w, k),
                              return_counts=True) for w in blocks]
            alone = record([k], [w.scale for w in blocks], [laws])
            g = gamma_oracle(gamma, k)
            assert got.distances[k] == \
                transport_distances([(alone, [g], [y])], "uniform")[0]
            assert transport_distances([(hists[k], [g], [y])]) == \
                transport_distances([(alone, [g], [y])])


class TestStraightening:
    def coarse_array(self):
        return BlockArray(("c",), {"c": Block([5, 7, 6, 6], F(1, 4))},
                          {"c": F(3, 2)}, F(1))

    def make_split(self):
        fine = SymRep(("x", "y"), {"x": F(1), "y": F(2)})
        coarse = SymRep(("c",), {"c": F(3, 2)})
        return Splitting(fine, coarse, {"x": "c", "y": "c"})

    def test_refines_to_fine_label(self):
        arr = self.coarse_array()
        split = self.make_split()
        out, rep = straightening_step(arr, split, F(1, 2), F(1, 2))
        assert out.symbols == ("x", "y")
        assert out.label_dist() == FiniteDist.uniform([1, 2])
        assert out.scale == arr.scale * rep.k_factor
        for s in out.symbols:
            assert out.blocks[s].mean == out.scale * out.values[s]

    def test_blend_weight_monotone_zero_to_one(self):
        arr = self.coarse_array()
        out, rep = straightening_step(arr, self.make_split(), F(1, 2),
                                      F(1, 2))
        qs = [q for _, q in rep.q_grid]
        assert qs[0] == 0
        assert qs == sorted(qs)
        assert qs[-1] > F(9, 10)

    def test_distances_within_bound(self):
        arr = self.coarse_array()
        split = self.make_split()
        out, rep = straightening_step(arr, split, F(1, 2), F(1, 2))
        v = rep.verdict
        bound = 0.5 + split.cost()
        assert v.ok() and v.strict
        assert list(v.distances) == [k for k, _ in rep.q_grid]
        assert v.allowances == dict.fromkeys(v.distances, bound)
        assert all(d < bound for d in v.distances.values())

    def test_duplication_costs_nothing(self):
        arr = self.coarse_array()
        fine = SymRep(("u", "v"), {"u": F(3, 2), "v": F(3, 2)})
        split = Splitting(fine, SymRep(("c",), {"c": F(3, 2)}),
                          {"u": "c", "v": "c"})
        out, rep = straightening_step(arr, split, F(1, 2), F(1, 2))
        assert split.cost() == 0.0
        assert rep.verdict.ok()

    def test_blend_weight_stepping_back_raises(self, monkeypatch):
        # q_k is made once per p, so a p that returns to an earlier,
        # smaller value reuses its q_k and must still be caught
        arr = self.coarse_array()
        h0 = arr.height
        monkeypatch.setattr(CompoundReport, "p_of_k", lambda self, k:
                            F(1, 2) if k == h0 + 1 else F(0))
        with pytest.raises(InvariantError, match="monotone"):
            straightening_step(arr, self.make_split(), F(1, 2), F(1, 2))

    def test_symbol_mismatch_rejected(self):
        arr = self.coarse_array()
        fine = SymRep(("x",), {"x": F(1)})
        coarse = SymRep(("z",), {"z": F(1)})
        split = Splitting(fine, coarse, {"x": "z"})
        with pytest.raises(PreconditionError):
            straightening_step(arr, split, F(1, 2), F(1, 2))


@pytest.fixture(scope="module")
def twopoint_verdicts():
    """The verdicts of the twopoint preset: its two extension certificates
    and its Theorem 1 report."""
    step, certs = tower.extension_step, []

    def kept(*args, **kwargs):
        arr, gamma, cert = step(*args, **kwargs)
        certs.append(cert)
        return arr, gamma, cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tower, "extension_step", kept)
        trace = build_tower_from_config(load_config(None, "twopoint"))
    return certs, tower.certify_theorem1(trace)


def near(a):
    """Distances at and next to an allowance a and to a + FLOAT_SLACK: the
    float neighbours of each, or for an exact a, rationals just off it."""
    if isinstance(a, F):
        tiny = F(1, a.denominator * 10 ** 20)
        return [a - tiny, a, a + tiny]
    return [x for b in (a, a + FLOAT_SLACK)
            for x in (math.nextafter(b, -math.inf), b,
                      math.nextafter(b, math.inf))]


def exact_verdict(low):
    """Theorem 1's cdf lower bound as a Verdict of its exact sides, once
    its integer decisions are checked to be that Verdict's."""
    entries = low.exact()
    v = Verdict({(k, x): lhs for k, x, lhs, _ in entries},
                {(k, x): bound for k, x, _, bound in entries}, strict=False)
    assert [e[:2] for e in low.exact(failing=True)] == v.failures()
    return v


class TestVerdict:
    """One record decides every grid verdict; each of its four shapes
    decides as the bare comparison of that shape does."""

    # shape -> (a record of the twopoint preset, the bare comparison by
    # which an entry passes, the verdict's strictness and slack)
    SHAPES = {
        # the extension and straightening certificates
        "strict": (lambda c, r: c[0], lambda d, a: d < a, True, 0),
        # Theorem 1's stage eps and the alpha-moment bound
        "slack": (lambda c, r: r.eps, lambda d, a: d <= a + 1e-12, False,
                  FLOAT_SLACK),
        # the doubling check and the inversion's top decade
        "le": (lambda c, r: r.doubling, lambda d, a: not d > a, False, 0),
        # the exact cdf lower bound, decided over integer cross products
        "exact": (lambda c, r: exact_verdict(r.lower_bound),
                  lambda d, a: d <= a, False, 0),
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_matches_inline_comparison(self, shape, twopoint_verdicts):
        pick, passes, strict, slack = self.SHAPES[shape]
        record = pick(*twopoint_verdicts)
        assert (record.strict, record.slack) == (strict, slack)
        allowances = record.allowances
        assert allowances
        for i in range(len(near(next(iter(allowances.values()))))):
            distances = {k: near(a)[i] for k, a in allowances.items()}
            v = Verdict(distances, allowances, strict, slack)
            old = [k for k, d in distances.items()
                   if not passes(d, allowances[k])]
            assert v.failures() == old
            assert v.ok() == (not old)
        # the real record decides as the inline test does
        assert record.failures() == [
            k for k, d in record.distances.items()
            if not passes(d, allowances[k])]

    def test_margin_takes_first_key_on_ties(self):
        v = Verdict({3: 0.25, 1: 0.5, 2: 0.25}, {3: 0.5, 1: 1.0, 2: 0.5},
                    strict=True)
        assert v.margin() == (0.25, 3)
        empty = Verdict({}, {}, strict=False)
        assert empty.margin() is None
        assert empty.ok() and empty.failures() == []

    @pytest.mark.parametrize("allowances", [
        {2: 1.0, 1: 1.0}, {1: 1.0}, {1: 1.0, 2: 1.0, 3: 1.0}])
    def test_allowances_keyed_like_distances(self, allowances):
        # entries are paired in grid order, so the keys must line up
        with pytest.raises(InvariantError):
            Verdict({1: 0.5, 2: 0.5}, allowances, strict=True)

    def test_exact_bound_stays_exact(self):
        # a float slack of 0.0 would compare 1/3 with float(1/3) < 1/3
        v = Verdict({1: F(1, 3)}, {1: F(1, 3)}, strict=False)
        assert v.ok() and type(v.slack) is int
        assert v.margin() == (0, 1) and type(v.margin()[0]) is F
        assert not Verdict({1: F(1, 3)}, {1: F(1, 3)}, strict=True).ok()
