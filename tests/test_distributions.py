"""Unit tests for finite distributions and the arctan transport metrics."""

import contextlib
import math
import os
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import numpy as np

import towerkit.distributions as distributions
from towerkit.blocks import Block, BlockError, self_concat
from towerkit.distributions import (INF, DistError, FiniteDist,
                                    Splitting, SymRep, open_output, rho,
                                    sk_histograms, transport_distances,
                                    write_json)
from towerkit.lemma_engine import basic_extend

from oracles import (INT64_MAX, cyclic_partial_sums_units, law_distance,
                     merge_uniform, merge_vasershtein, oracle_histograms,
                     oracle_transport, record, rows, segments,
                     transport_calls)


def vasershtein(p, q):
    return law_distance(p, q, "vasershtein")


def uniform_dist(p, q):
    return law_distance(p, q, "uniform")


def random_dist(rng, max_atoms=4, max_den=6):
    """Random distribution with few atoms and small mass denominators."""
    n = rng.randint(1, max_atoms)
    d = rng.randint(max(n, 1), max_den)
    cuts = sorted(rng.sample(range(1, d), n - 1)) if n > 1 else []
    masses = [F(b - a, d) for a, b in zip([0] + cuts, cuts + [d])]
    vals = rng.sample([F(a, b) for a in range(1, 7)
                       for b in range(1, max_den + 1)], n)
    return FiniteDist(list(zip(vals, masses)))


def atan_partitioned(vals, dist):
    """Arctan-transform a per-position sample and partition it at the order
    statistics that bound the atom segments of ``dist``."""
    arr = np.asarray(vals, dtype=float)
    n = arr.size
    arr = np.where(np.isinf(arr), math.pi / 2, np.arctan(arr))
    segments = []
    kth = set()
    acc = F(0)
    for v, m in zip(dist.values, dist.masses):
        av = math.pi / 2 if v == INF else math.atan(float(v))
        a, b = acc, acc + m
        an, bn = a * n, b * n
        for r in (an.numerator // an.denominator,
                  -((-an.numerator) // an.denominator),
                  bn.numerator // bn.denominator - 1,
                  bn.numerator // bn.denominator):
            if 0 <= r < n:
                kth.add(int(r))
        segments.append((a, b, av))
        acc = b
    arr = np.partition(arr, sorted(kth))
    return arr, n, segments


def position_uniform_gap(vals, dist):
    """Per-position oracle for the L-infinity distance between the
    empirical law of ``vals`` and ``dist``."""
    arr, n, segments = atan_partitioned(vals, dist)
    best = 0.0
    for a, b, av in segments:
        an, bn = a * n, b * n
        j_lo = int(an.numerator // an.denominator)
        j_hi = int(bn.numerator // bn.denominator) - \
            (1 if bn.denominator == 1 else 0)
        gap = max(abs(float(arr[j_lo]) - av), abs(float(arr[j_hi]) - av))
        if gap > best:
            best = gap
    return best


def position_vasershtein(vals, dist):
    """Per-position oracle for the L1 distance between the empirical law of
    ``vals`` and ``dist``."""
    arr, n, segments = atan_partitioned(vals, dist)
    total = 0.0
    for a, b, av in segments:
        an, bn = a * n, b * n
        full_lo = int(-((-an.numerator) // an.denominator))
        full_hi = int(bn.numerator // bn.denominator)   # exclusive
        if full_hi > full_lo:
            total += float(np.abs(arr[full_lo:full_hi] - av).sum()) / n
        if an.denominator != 1:
            j = an.numerator // an.denominator
            hi = min(F(j + 1, n), b)
            total += float(hi - a) * abs(float(arr[j]) - av)
        if bn.denominator != 1:
            j = bn.numerator // bn.denominator
            if an.denominator == 1 or j != an.numerator // an.denominator:
                lo = max(F(j, n), a)
                total += float(b - lo) * abs(float(arr[j]) - av)
    return total


@st.composite
def big_den_dists(draw, den_lo, den_hi, allow_inf=False):
    """Distribution whose level cut points have denominators in
    [den_lo, den_hi], so the masses carry lcms of such denominators."""
    n = draw(st.integers(1, 4))
    cuts = set()
    for _ in range(n - 1):
        d = draw(st.integers(den_lo, den_hi))
        cuts.add(F(draw(st.integers(1, d - 1)), d))
    levels = [F(0)] + sorted(cuts) + [F(1)]
    vals = sorted(draw(st.lists(
        st.fractions(F(1, 50), F(50), max_denominator=60),
        min_size=len(levels) - 1, max_size=len(levels) - 1, unique=True)))
    if allow_inf and draw(st.booleans()):
        vals[-1] = INF
    return FiniteDist([(v, b - a) for v, a, b in
                       zip(vals, levels, levels[1:])])


def expand(dist):
    """List of L equally likely values realizing the distribution."""
    den = 1
    for m in dist.masses:
        den = den * m.denominator // math.gcd(den, m.denominator)
    out = []
    for v, m in zip(dist.values, dist.masses):
        out.extend([v] * int(m * den))
    return out


class TestRho:
    def test_basic_values(self):
        assert rho(1, 1) == 0.0
        assert rho(0, INF) == pytest.approx(math.pi / 2)
        assert rho(F(1, 2), 2) == pytest.approx(
            math.atan(2) - math.atan(0.5))

    def test_rejects_negative(self):
        with pytest.raises(DistError):
            rho(-1, 2)

    @settings(max_examples=80, derandomize=True)
    @given(st.floats(0, 100), st.floats(0, 100), st.floats(0, 100))
    def test_metric_axioms(self, x, y, z):
        assert rho(x, y) == rho(y, x)
        assert rho(x, z) <= rho(x, y) + rho(y, z) + 1e-15
        if x == y:
            assert rho(x, y) == 0.0


class TestFiniteDist:
    def test_atoms_sorted_and_merged(self):
        d = FiniteDist([(2, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))])
        assert list(zip(d.values, d.masses)) == [(F(1), F(1, 2)),
                                                 (F(2), F(1, 2))]

    def test_mass_must_sum_to_one(self):
        with pytest.raises(DistError):
            FiniteDist([(1, F(1, 3))])

    def test_cdf_and_quantile(self):
        d = FiniteDist.uniform([1, 2, 4])
        assert d.cdf(2) == F(2, 3)
        assert d.cdf_below(2) == F(1, 3)
        assert d.quantile(F(1, 3)) == F(1)
        assert d.quantile(F(2, 3)) == F(2)
        assert d.quantile(F(1)) == F(4)

    def test_atom_at_infinity(self):
        d = FiniteDist([(1, F(1, 2)), (INF, F(1, 2))])
        assert d.cdf(10 ** 9) == F(1, 2)
        assert rho(d.values[-1], INF) == 0.0

    def test_json_obj(self):
        d = FiniteDist([(F(1, 3), F(1, 4)), (2.5, F(1, 4)),
                        (INF, F(1, 2))])
        assert d.to_json_obj() == {"atoms": [
            {"value": "1/3", "mass": "1/4"}, {"value": "2.5", "mass": "1/4"},
            {"value": "inf", "mass": "1/2"}]}


class TestMetricOracles:
    def test_vasershtein_against_expansion(self):
        # the comonotone coupling on matched equal-mass lists is optimal,
        # and for these denominators the expansion is exact
        rng = random.Random(101)
        for _ in range(200):
            p, q = random_dist(rng), random_dist(rng)
            a, b = expand(p), expand(q)
            L = len(a) * len(b) // math.gcd(len(a), len(b))
            a = [x for x in a for _ in range(L // len(a))]
            b = [x for x in b for _ in range(L // len(b))]
            oracle = math.fsum(rho(x, y) for x, y in zip(a, b)) / L
            assert vasershtein(p, q) == pytest.approx(oracle, abs=1e-12)

    def test_vasershtein_is_optimal_transport(self):
        # enumerate couplings of two-atom pairs on the transport polytope
        rng = random.Random(55)
        for _ in range(50):
            p, q = random_dist(rng, max_atoms=2), random_dist(rng,
                                                             max_atoms=2)
            pa = list(zip(p.values, p.masses))
            qa = list(zip(q.values, q.masses))
            if len(pa) != 2 or len(qa) != 2:
                continue
            # coupling mass on (0,0) determines the rest
            lo = max(F(0), pa[0][1] + qa[0][1] - 1)
            hi = min(pa[0][1], qa[0][1])
            best = None
            for j in range(51):
                t = lo + (hi - lo) * F(j, 50)
                plan = [(t, pa[0][0], qa[0][0]),
                        (pa[0][1] - t, pa[0][0], qa[1][0]),
                        (qa[0][1] - t, pa[1][0], qa[0][0]),
                        (1 - pa[0][1] - qa[0][1] + t, pa[1][0], qa[1][0])]
                cost = math.fsum(float(m) * rho(x, y) for m, x, y in plan)
                best = cost if best is None else min(best, cost)
            assert vasershtein(p, q) <= best + 1e-12

    def test_uniform_dist_against_expansion(self):
        rng = random.Random(77)
        for _ in range(200):
            p, q = random_dist(rng), random_dist(rng)
            a, b = expand(p), expand(q)
            L = len(a) * len(b) // math.gcd(len(a), len(b))
            a = [x for x in a for _ in range(L // len(a))]
            b = [x for x in b for _ in range(L // len(b))]
            oracle = max(rho(x, y) for x, y in zip(a, b))
            assert uniform_dist(p, q) == pytest.approx(oracle, abs=1e-12)

    def test_vasershtein_below_uniform(self):
        rng = random.Random(13)
        for _ in range(100):
            p, q = random_dist(rng), random_dist(rng)
            assert vasershtein(p, q) <= uniform_dist(p, q) + 1e-12

    def test_triangle_inequality(self):
        rng = random.Random(29)
        for _ in range(60):
            p, q, r = (random_dist(rng) for _ in range(3))
            assert vasershtein(p, r) <= \
                vasershtein(p, q) + vasershtein(q, r) + 1e-12
            assert uniform_dist(p, r) <= \
                uniform_dist(p, q) + uniform_dist(q, r) + 1e-12

    def test_identity_of_indiscernibles(self):
        # integer values, so the histogram's floats are the target's
        rng = random.Random(37)
        for _ in range(30):
            p = random_dist(rng)
            den = math.lcm(*(v.denominator for v in p.values))
            p = FiniteDist([(v * den, m)
                            for v, m in zip(p.values, p.masses)])
            assert vasershtein(p, p) == 0.0
            assert uniform_dist(p, p) == 0.0


class TestCheckedBreakpoints:
    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(big_den_dists(2 ** 20, 2 ** 23),
           big_den_dists(2 ** 40 - 2 ** 12, 2 ** 40 + 2 ** 12,
                         allow_inf=True))
    def test_near_2_40_matches_exact_merge(self, p, q):
        # n*L straddles 2^62 here, and exceeds it once q has two cut
        # points; past it the breakpoints must be Python ints, not wrap
        for a, b in ((p, q), (q, p)):
            assert vasershtein(a, b) == \
                pytest.approx(merge_vasershtein(a, b), abs=1e-12)
            assert uniform_dist(a, b) == \
                pytest.approx(merge_uniform(a, b), abs=1e-12)

    def test_breakpoints_past_int64(self):
        d = 2 ** 40 + 15
        q = FiniteDist([(F(1), F(1, d)), (F(2), 1 - F(1, d))])
        p = FiniteDist([(F(1), F(1, d - 2)), (F(3), 1 - F(1, d - 2))])
        # the largest gap sits on a level interval of mass 2/(d(d-2)), far
        # below 1/2^62
        assert vasershtein(p, q) == \
            pytest.approx(merge_vasershtein(p, q), abs=1e-12)
        assert vasershtein(p, q) == pytest.approx(rho(2, 3), abs=1e-12)
        assert uniform_dist(p, q) == rho(1, 2)


class TestSkHistogram:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.lists(st.lists(st.integers(1, 60), min_size=6, max_size=6),
                    min_size=1, max_size=4),
           st.lists(st.sampled_from([F(1, 3072), F(1, 2048), F(1, 5)]),
                    min_size=4, max_size=4),
           st.one_of(st.sampled_from([6, 12, 18]), st.integers(1, 20)),
           st.fractions(F(1, 7), F(10), max_denominator=7),
           big_den_dists(2, 12, allow_inf=True))
    def test_matches_per_position_oracle(self, units, scales, k, norm,
                                         target):
        # blocks of height 6 with mixed scales; k runs through multiples
        # of the height and past it
        blocks = [Block(u, sc) for u, sc in zip(units, scales)]
        vals = np.concatenate(
            [cyclic_partial_sums_units(w, k).astype(float) *
             (float(w.scale) / (k * float(norm))) for w in blocks])
        hist, = sk_histograms(blocks, [k])
        assert hist.totals == [vals.size]
        law = [hist], [norm], [target]
        assert transport_distances(*law, "vasershtein")[0] == \
            pytest.approx(position_vasershtein(vals, target), abs=1e-12)
        assert transport_distances(*law, "uniform")[0] == \
            pytest.approx(position_uniform_gap(vals, target), abs=1e-12)

    def test_masses_are_exact_counts(self):
        w = Block([1, 2, 3, 4], F(1, 3))
        hist, = sk_histograms([w, w], [2])
        (a, b), = segments(hist)
        assert [u.tolist() for u, _ in (a, b)] == [[3, 5, 7]] * 2
        assert [c.tolist() for _, c in (a, b)] == [[1, 2, 1]] * 2
        assert hist.counts.dtype == np.int64
        assert hist.totals == [8]

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 3), min_size=1, max_size=8),
           st.sampled_from([1, 2, 3, 4, 6, 12]),
           st.sampled_from([F(1), F(1, 6), F(1, 4)]),
           st.sampled_from([-1, 0, 1, 7]))
    @example([1, 2, 1, 2, 1, 3], 12, F(1, 6), 0)
    @example([1, 2, 1, 2], 6, F(1, 4), 1)
    def test_tiling_multiplies_counts(self, units, m, scale, dk):
        # k below, at and above the height of w, and past the tiled height
        w = Block(units, scale)
        tiled = self_concat(w, m)
        h = len(w)
        for k in (1, max(1, h + dk), 2 * h + 1, m * h + 1):
            (one,), (many,) = (sk_histograms([w], [k]),
                               sk_histograms([tiled], [k]))
            assert np.array_equal(many.units, one.units)
            assert np.array_equal(many.counts, m * one.counts)
            assert many.totals == [m * one.totals[0]]
            # the whole-block law, position by position
            u, c = np.unique(cyclic_partial_sums_units(tiled, k),
                             return_counts=True)
            assert np.array_equal(many.units, u)
            assert np.array_equal(many.counts, c)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.integers(1, 2 ** 20), min_size=4,
                                       max_size=4),
                              st.integers(1, 9),
                              st.integers(2 ** 40 - 64, 2 ** 40 + 64)),
                    min_size=1, max_size=3),
           st.integers(1, 9))
    @example([([1, 2, 3, 4], 3, 2 ** 40 - 1), ([2, 4, 6, 8], 3, 2 ** 41 - 2)],
             2)
    def test_count_below_exact_ties(self, specs, k):
        # scale denominators near 2^40: every S_k value of every block is
        # a threshold, where the count is strict, and so is a value just
        # above it
        blocks = [Block(u, F(a, b)) for u, a, b in specs]
        hist, = sk_histograms(blocks, [k])
        sums = [(cyclic_partial_sums_units(w, k).tolist(), w.scale)
                for w in blocks]
        hits = {v * sc for vals, sc in sums for v in vals}
        threshs = sorted(hits | {t + F(1, 2 ** 90) for t in hits})
        want = [sum(v * sc < thresh for vals, sc in sums for v in vals)
                for thresh in threshs]
        assert hist.count_below(threshs, [1], [1]).tolist() == [want]

    def test_rejects_unknown_metric(self):
        hist, = sk_histograms([Block([1, 2])], [1])
        with pytest.raises(DistError):
            transport_distances([hist], [1], [FiniteDist.point(1)],
                                "wasserstein")

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.lists(st.integers(2 ** 60, 2 ** 62), min_size=1, max_size=3),
           st.integers(1, 12))
    @example([2 ** 61, 2 ** 61 - 1], 5)
    def test_past_int64_raises(self, units, k):
        # whole periods past the block may leave int64 although the block
        # total fits: exact Python-int values, or BlockError
        assume(sum(units) <= INT64_MAX)
        w = Block(units)
        h = len(w)
        exact = [sum(units[(nu + j) % h] for j in range(k))
                 for nu in range(h)]
        if max(exact) > INT64_MAX:
            with pytest.raises(BlockError):
                list(sk_histograms([w], [k]))
        else:
            u, c = np.unique(np.array(exact, dtype=object),
                             return_counts=True)
            hist, = sk_histograms([w], [k])
            assert hist.units.tolist() == u.tolist()
            assert hist.counts.tolist() == c.tolist()


def whole_block_histogram(blocks, k):
    """Per-k oracle: np.unique over every position of each whole block,
    as a one-row record."""
    laws = [np.unique(cyclic_partial_sums_units(w, k), return_counts=True)
            for w in blocks]
    return record([k], [w.scale for w in blocks], [laws])


def assert_same_histogram(got, want):
    assert got.ks == want.ks and got.totals == want.totals
    assert got.scales == want.scales
    assert np.array_equal(got.offsets, want.offsets)
    for g, x in ((got.units, want.units), (got.counts, want.counts)):
        assert g.dtype == x.dtype and np.array_equal(g, x)


@contextlib.contextmanager
def counted_measurements():
    """List of the (scale, units, c) of every class law that PeriodLaws
    asks ``_class_laws`` for while the context is open, with the scale and
    units of the block whose period it gathers: the leaf of the block's
    Bump chain (``_leaf``)."""
    calls = []
    measure = distributions._class_laws

    def counted(w, cs):
        leaf = distributions._leaf(w)
        calls.extend((leaf.scale, tuple(leaf.units.tolist()), int(c))
                     for c in cs)
        return measure(w, cs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_class_laws", counted)
        yield calls


class TestSkHistogramGrid:
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=7),
           st.sampled_from([1, 2, 3, 4, 6]),
           st.lists(st.integers(1, 6), min_size=1, max_size=3),
           st.sampled_from([F(1), F(1, 6), F(5, 4)]))
    @example([1, 2, 4], 4, [1, 1, 2], F(1, 6))
    @example([3, 1], 6, [1], F(1))
    # the unrelated block agrees with the tiled one on height, least
    # period, first unit and unit total: only its units tell them apart
    @example([1, 2, 4], 2, [1, 3, 3], F(1))
    def test_matches_whole_block_oracle(self, units, m, other, scale):
        # a tiled block repeated, a copy with equal units at another scale,
        # and an unrelated block; every k in 0..3h+1 covers r = 0, r = p/2
        # and several whole periods
        tiled = self_concat(Block(units, scale), m)
        rescaled = Block(tiled.units, scale * 3)
        plain = Block(np.resize(other, len(tiled)), scale)
        blocks = [tiled, tiled, rescaled, plain, tiled]
        ks = list(range(3 * len(tiled) + 2))
        got = list(rows(sk_histograms(blocks, ks)))
        assert len(got) == len(ks)
        for k, hist in zip(ks, got):
            assert_same_histogram(hist, whole_block_histogram(blocks, k))

    def test_counts_reverse_under_reflection(self):
        # one period 1, 1, 2, 5: S_1 takes 1 twice, S_3 takes 9 twice
        w = Block([1, 1, 2, 5])
        hist, = sk_histograms([w], [3])
        assert hist.units.tolist() == [4, 7, 8]
        assert hist.counts.tolist() == [1, 1, 2]

    def test_one_measurement_per_block_class(self):
        a = self_concat(Block([1, 2, 4, 1, 3, 2], F(1, 2)), 2)
        b = Block(a.units, F(1, 4))               # equal units, other scale
        c = Block([2, 1, 1, 1, 5, 1] * 2, F(1, 2))
        blocks = [a, a, b, c, Block(a.units, F(1, 2))]
        # residues, reflections and whole periods revisit classes
        ks = [1, 5, 7, 11, 6, 12, 3, 9, 2, 4, 8, 10, 13, 17, 0]
        with counted_measurements() as calls:
            hists = list(rows(sk_histograms(blocks, ks)))
            # b is a's units at another scale: one pattern, measured once
            distinct = {tuple(w.units.tolist()) for w in blocks}
            pairs = {(u, min(k % 6, 6 - k % 6))
                     for u in distinct for k in ks}
            assert len(calls) == len(pairs) == 2 * 4
            assert len(calls) < len(ks) * len(blocks)
            for k, hist in zip(ks, hists):
                assert_same_histogram(hist, whole_block_histogram(blocks, k))
            # the memo lives for one grid: a second grid measures again
            list(sk_histograms(blocks, ks))
        assert len(calls) == 2 * len(pairs)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=6),
           st.sampled_from([1, 2, 6]),
           st.sampled_from([1, 2, 3]),
           st.lists(st.tuples(st.integers(1, 7),
                              st.sampled_from([F(1), F(1, 16384),
                                               F(3, 2048), F(5, 4)])),
                    min_size=2, max_size=5))
    @example([1, 2, 4], 1, 2, [(3, F(1, 2048)), (1, F(1, 16384)),
                               (5, F(1, 16384)), (7, F(1))])
    @example([2, 1, 2, 1], 6, 1, [(7, F(1)), (1, F(1)), (7, F(5, 4))])
    def test_one_measurement_per_distinct_first_period(self, pattern, own,
                                                       m, members):
        # blocks g*P at mixed scales, with P carrying its own gcd ``own``
        # and tiled m times; an unrelated block joins them.  Blocks of
        # equal units share one measurement at any scale, and multiples
        # with distinct g are measured apart
        base = np.tile(np.array(pattern) * own, m)
        blocks = [Block(base * g, sc) for g, sc in members]
        blocks.append(Block(np.resize([1, 3], base.size), F(1, 2)))
        ks = list(range(3 * base.size + 2))
        with counted_measurements() as calls:
            got = list(rows(sk_histograms(blocks, ks)))
        for k, hist in zip(ks, got):
            assert_same_histogram(hist, whole_block_histogram(blocks, k))
        firsts = {tuple(w.units[:w.period].tolist()) for w in blocks}
        pairs = {(u, min(k % len(u), len(u) - k % len(u)))
                 for u in firsts for k in ks}
        assert len(calls) == len(pairs)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.lists(st.integers(2 ** 56, 2 ** 59), min_size=1, max_size=3),
           st.lists(st.sampled_from([1, 2, 3, 5, 7]), min_size=2,
                    max_size=3),
           st.integers(1, 12))
    # only the member with the larger g leaves int64
    @example([2 ** 58, 2 ** 58 + 1], [1, 7], 5)
    # each member's S_3 fits int64, though 15*S_3(P) would not
    @example([2 ** 58, 2 ** 58 + 1], [5, 3], 3)
    def test_multiples_past_int64(self, pattern, gs, k):
        # exact Python-int values of each multiple's S_k, or BlockError as
        # soon as one of them leaves int64
        assume(all(g * sum(pattern) <= INT64_MAX for g in gs))
        blocks = [Block([g * u for u in pattern], F(1, g)) for g in gs]
        h = len(pattern)
        exact = [[g * sum(pattern[(nu + j) % h] for j in range(k))
                  for nu in range(h)] for g in gs]
        if max(map(max, exact)) > INT64_MAX:
            with pytest.raises(BlockError):
                list(sk_histograms(blocks, [k]))
            return
        hist, = sk_histograms(blocks, [k])
        for vals, (u, c) in zip(exact, segments(hist)[0]):
            want_u, want_c = np.unique(np.array(vals, dtype=object),
                                       return_counts=True)
            assert u.dtype == np.int64
            assert u.tolist() == want_u.tolist()
            assert c.tolist() == want_c.tolist()


def bump_chain(base, rep, scale, steps, cap=600):
    """``rep`` copies of Block(base, scale), then one basic_extend per
    (kappa, q, mu) of ``steps``; the chain ends before a step that would
    pass ``cap`` levels."""
    w = self_concat(Block(base, scale), rep)
    for kappa, q, mu in steps:
        if len(w) * q * mu > cap:
            break
        w = self_concat(basic_extend(w, kappa, q), mu)
    return w


def class_law_oracle(w, c):
    """np.unique of S_c over one least period of the materialized units."""
    return np.unique(cyclic_partial_sums_units(w, c)[:w.period],
                     return_counts=True)


def class_laws(w, cs):
    """The (units, counts) law of each class of ``cs``, from one
    ``_class_laws`` call."""
    units, counts, ends = distributions._class_laws(w, cs)
    return [(units[a:b], counts[a:b])
            for a, b in zip(ends[:-1].tolist(), ends[1:].tolist())]


def assert_same_law(got, want):
    for g, x in zip(got, want):
        assert g.dtype == x.dtype and np.array_equal(g, x)


bump_steps = st.lists(
    st.tuples(st.one_of(st.just(F(0)),
                        st.fractions(F(1, 11), F(3), max_denominator=11)),
              st.integers(2, 3), st.integers(1, 2)),
    min_size=1, max_size=3)


class TestBumpDerivedLaw:
    """Blocks that basic_extend built are read down their Bump chain to a
    leaf; every law must equal the materialized oracle."""

    # f = 7, mu = 2, and a child of least period 2 and length 4
    RESCALED = ([1, 2], 2, F(1), [(F(1, 7), 2, 2)])
    # a three-step chain whose last step is a plain tiling (kappa = 0)
    CHAIN = ([3, 1, 2], 1, F(1, 2),
             [(F(1, 3), 2, 1), (F(2, 5), 3, 2), (F(0), 2, 1)])

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3),
           st.integers(1, 3), st.sampled_from([F(1), F(1, 2), F(3, 7)]),
           bump_steps)
    @example(*RESCALED)
    @example(*CHAIN)
    def test_matches_oracle_at_every_class(self, base, rep, scale, steps):
        w = bump_chain(base, rep, scale, steps)
        cs = range(w.period)
        for c, law in zip(cs, class_laws(w, cs)):
            assert_same_law(law, class_law_oracle(w, c))

    @pytest.mark.parametrize("chunk", [1, 3, distributions._CHUNK])
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3),
           st.integers(1, 3), st.sampled_from([F(1), F(1, 2), F(3, 7)]),
           st.one_of(st.just([]), bump_steps), st.randoms())
    @example(*RESCALED, random.Random(0))
    @example(*CHAIN, random.Random(1))
    @example([1, 2, 1, 2], 2, F(1), [], random.Random(2))
    def test_kernel_in_chunks(self, chunk, base, rep, scale, steps, rnd):
        # bump-less blocks (no steps) and bump-tiled ones, f = 7 included,
        # read down the chain to its bottom (leaf 0) and as the default
        # rule reads them; classes 0, p/2 and c >= L (the child's least
        # period) in one call, then a shuffled grid whose classes are
        # measured once each, in calls whose leaf gathers hold at most
        # ``chunk`` positions (one class may pass it alone)
        w = bump_chain(base, rep, scale, steps)
        cs = list(range(w.period // 2 + 1))
        ks = list(range(2 * len(w) + 2)) * 2
        rnd.shuffle(ks)
        measure, gather = distributions._class_laws, \
            distributions._gathered_laws
        for leaf in (0, distributions._LEAF):
            sizes, gathers = [], []

            def counted(v, classes):
                sizes.append(len(classes))
                return measure(v, classes)

            def gathered(v, classes, starts):
                gathers.append(len(classes) * v.period)
                return gather(v, classes, starts)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(distributions, "_LEAF", leaf)
                for c, law in zip(cs, class_laws(w, cs)):
                    assert_same_law(law, class_law_oracle(w, c))
                P = distributions._leaf(w).period
                mp.setattr(distributions, "_CHUNK", chunk)
                mp.setattr(distributions, "_class_laws", counted)
                mp.setattr(distributions, "_gathered_laws", gathered)
                got = list(rows(sk_histograms([w], ks)))
            for k, hist in zip(ks, got):
                assert_same_histogram(hist, whole_block_histogram([w], k))
            assert sum(sizes) == len(cs)
            assert max(sizes) == min(len(cs), max(1, chunk // P))
            # one leaf gather per call, of at most max(chunk, P) positions
            assert len(gathers) == len(sizes)
            assert max(gathers) <= max(chunk, P)

    @pytest.mark.parametrize("case", ["RESCALED", "CHAIN"])
    def test_examples_take_the_derived_path(self, case):
        w = bump_chain(*getattr(self, case))
        child, f, b, s = w.bump
        assert w.period == s and b > 0
        if case == "RESCALED":
            assert f == 7 and len(w) == 2 * s
            assert child.period < len(child)
        else:
            # the plain tiling of the last step carried the bump over
            assert len(w) == 4 * s and len(child) == 6
        bottom = chain_path(w)[-1]
        assert bottom is not w and bottom.bump is None
        # read down the chain to its bottom, or gathered whole: its least
        # period is at most _LEAF
        assert w.period <= distributions._LEAF
        for leaf, read in ((0, bottom), (distributions._LEAF, w)):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(distributions, "_LEAF", leaf)
                with counted_measurements() as calls:
                    got = list(rows(sk_histograms([w], range(2 * len(w)
                                                             + 1))))
            for k, hist in enumerate(got):
                assert_same_histogram(hist, whole_block_histogram([w], k))
            # every class is measured on that block alone
            assert {units for _, units, _ in calls} == \
                {tuple(read.units.tolist())}

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=3),
           st.integers(1, 2), bump_steps,
           st.lists(st.sampled_from([1, 2, 3, 7]), min_size=2, max_size=4))
    @example([1, 2], 2, [(F(1, 7), 2, 2)], [1, 7, 3])
    def test_multiples_derive_their_laws_apart(self, base, rep, steps, gs):
        # g*P siblings: every weight and bump times g, so the units are
        # proportional at whatever scale each chain ends; each distinct
        # g is measured, and a repeated g shares its sibling's measurement
        blocks = [bump_chain(np.array(base) * g, rep, F(1),
                             [(g * kappa, q, mu) for kappa, q, mu in steps],
                             cap=300)
                  for g in gs]
        ks = list(range(2 * len(blocks[0]) + 2))
        with counted_measurements() as calls:
            got = list(rows(sk_histograms(blocks, ks)))
        for k, hist in zip(ks, got):
            assert_same_histogram(hist, whole_block_histogram(blocks, k))
        p = blocks[0].period
        firsts = {tuple(w.units[:p].tolist()) for w in blocks}
        assert len(calls) == \
            len(firsts) * len({min(k % p, p - k % p) for k in ks})

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.integers(2 ** 57, 2 ** 58), min_size=1, max_size=2),
           st.integers(1, 2 ** 58), st.integers(1, 40))
    # units 2^58, 2^58, 2^58, 2^59: the largest S_25 is 2^63, one past
    # int64, while every S_24 fits
    @example([2 ** 58, 2 ** 58], 2 ** 58, 25)
    @example([2 ** 58, 2 ** 58], 2 ** 58, 24)
    def test_past_int64_parity(self, base, bump, k):
        # a bump-tiled block with a total near 2^62: the law of every k is
        # the exact Python-int law, or BlockError when that leaves int64
        child = Block(base)
        w = basic_extend(child, F(bump, 2 * len(child)), 2)
        assert w.bump.amount == bump and w.bump.factor == 1
        units, h = w.units.tolist(), len(w)
        exact = [sum(units[(nu + j) % h] for j in range(k))
                 for nu in range(h)]
        if max(exact) > INT64_MAX:
            with pytest.raises(BlockError):
                list(sk_histograms([w], [k]))
            return
        u, c = np.unique(np.array(exact, dtype=object), return_counts=True)
        hist, = sk_histograms([w], [k])
        assert hist.units.dtype == np.int64
        assert hist.units.tolist() == u.tolist()
        assert hist.counts.tolist() == c.tolist()


    @pytest.mark.parametrize("chunk", [1, 3, distributions._CHUNK])
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.lists(st.integers(2 ** 57, 2 ** 58), min_size=1, max_size=2),
           st.integers(1, 2 ** 58),
           st.lists(st.integers(0, 40), min_size=1, max_size=12))
    # S_24 fits for every unit, S_25 reaches 2^63 at one position
    @example([2 ** 58, 2 ** 58], 2 ** 58, [24, 3, 24, 1, 25, 2])
    @example([2 ** 58, 2 ** 58], 2 ** 58, list(range(40)))
    def test_block_error_at_first_k_past_int64(self, chunk, base, bump, ks):
        # a grid of a bump-tiled block with a total near 2^62: every k
        # before the first whose S_k leaves int64 yields its exact law,
        # and that k raises BlockError, whatever the chunks
        w = basic_extend(Block(base), F(bump, 2 * len(base)), 2)
        units, h = w.units.tolist(), len(w)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distributions, "_CHUNK", chunk)
            hists = rows(sk_histograms([w], ks))
            for k in ks:
                exact = [sum(units[(nu + j) % h] for j in range(k))
                         for nu in range(h)]
                if max(exact) > INT64_MAX:
                    with pytest.raises(BlockError):
                        next(hists)
                    return
                u, c = np.unique(np.array(exact, dtype=object),
                                 return_counts=True)
                hist = next(hists)
                assert hist.units.tolist() == u.tolist()
                assert hist.counts.tolist() == c.tolist()


@st.composite
def example_chains(draw):
    """4 to 7 basic extensions, each tiled 1 or 2 times, as
    build_example_tower builds them: bumps kappa*q*h whose ratio to the
    scale often needs a new denominator (f != 1), and children tiled past
    their least period."""
    w = Block(draw(st.lists(st.integers(1, 9), min_size=1, max_size=2)),
              draw(st.sampled_from([F(1), F(1, 2), F(3, 7)])))
    for _ in range(draw(st.integers(4, 7))):
        q, mu = draw(st.integers(2, 3)), draw(st.integers(1, 2))
        if len(w) * q * mu > 3000:
            break
        kappa = draw(st.fractions(F(1, 13), F(2), max_denominator=13))
        w = self_concat(basic_extend(w, kappa, q), mu)
    return w


@st.composite
def range_cases(draw):
    """(w, cs, starts): a chain, its classes 0 and p - 1 and a few drawn
    ones, each row with J interval starts (0 first, then anywhere in
    [0, p], so intervals may be empty)."""
    w = draw(st.one_of(example_chains(), st.builds(
        bump_chain, st.lists(st.integers(1, 9), min_size=1, max_size=3),
        st.integers(1, 3), st.sampled_from([F(1), F(1, 2), F(3, 7)]),
        bump_steps)))
    p, n = w.period, draw(st.integers(1, 4))
    cs = [0, p - 1] + draw(st.lists(st.integers(0, p - 1), max_size=4))
    starts = [[0] + sorted(draw(st.lists(st.integers(0, p), min_size=n - 1,
                                         max_size=n - 1)))
              for _ in cs]
    return w, cs, starts


def chain_path(w):
    """w and the children that ``_range_laws`` may read down to: each
    bump-tiled at its least period but the last."""
    path = [w]
    while path[-1].bump is not None and \
            path[-1].bump.spacing == path[-1].period:
        path.append(path[-1].bump.child)
    return path


def assert_range_laws(w, cs, starts):
    """``_range_laws`` of (w, cs, starts) equals np.unique over each
    interval of the materialized S_c, with the leaf at every depth of the
    chain."""
    p = w.period
    want = []
    for c, row in zip(cs, starts):
        vals = cyclic_partial_sums_units(w, c)[:p]
        want += [np.unique(vals[a:b], return_counts=True)
                 for a, b in zip(row, row[1:] + [p])]
    for v in chain_path(w):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distributions, "_LEAF", v.period)
            assert distributions._leaf(w) is v
            seg, units, counts = distributions._range_laws(
                w, np.array(cs, dtype=np.int64),
                np.array(starts, dtype=np.int64))
        assert seg.dtype == units.dtype == counts.dtype == np.int64
        # sorted by segment, then value, each pair once
        assert ((np.diff(seg) > 0) |
                ((np.diff(seg) == 0) & (np.diff(units) > 0))).all()
        for i, (u, k) in enumerate(want):
            assert units[seg == i].tolist() == u.tolist()
            assert counts[seg == i].tolist() == k.tolist()


class TestRangeLaws:
    """The law of S_c over intervals of one period, read down the Bump
    chain with the leaf at every depth, against the materialized oracle."""

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(range_cases())
    # the starts 3 and 5 fall on child interval starts mod P = 2, where
    # M(z) = z // P + [lo < z mod P] must not count tau = lo
    @example((bump_chain(*TestBumpDerivedLaw.RESCALED), [0, 7, 3, 5],
              [[0, 3], [0, 5], [0, 0], [0, 8]]))
    def test_matches_oracle_at_every_depth(self, case):
        assert_range_laws(*case)

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.lists(st.integers(2 ** 60, 2 ** 60 + 2 ** 40), min_size=2,
                    max_size=2, unique=True),
           st.sampled_from([F(1, 4), F(3, 4), F(5, 2)]),
           st.lists(st.integers(0, 7), min_size=2, max_size=5),
           st.lists(st.integers(0, 8), min_size=3, max_size=3))
    @example([2 ** 60, 2 ** 60 + 3], F(1, 4), [0, 7, 3], [1, 4, 4])
    def test_past_packed_keys(self, base, kappa, cs, cuts):
        # a period total near 2^62: no (interval, value) key of four
        # intervals fits the leaf's uint64 sort, nor (segment, value,
        # count) one int64, so both merge by lexsort
        w = basic_extend(Block(base), kappa, 2)
        assert w.period == 4 and w.total_units() >= 2 ** 62
        cs = [c % 4 for c in cs]
        starts = [[0] + sorted(x % 5 for x in cuts)] * len(cs)
        lexsorts = []
        lexsort = np.lexsort

        def counted(keys):
            lexsorts.append(len(keys[0]))
            return lexsort(keys)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "lexsort", counted)
            assert_range_laws(w, cs, starts)
        # the leaf w, then the child leaf and the combine above it
        assert len(lexsorts) == 3


@st.composite
def histograms(draw):
    """(record, norms, targets): an SkHistogram of one to three rows of up
    to three blocks at mixed scales, whose counts are small or near 2^40,
    so that equal float values across blocks occur, with one norm and one
    target per row."""
    n = draw(st.integers(1, 3))
    scales = draw(st.lists(st.sampled_from([F(1), F(1, 3), F(5, 2)]),
                           min_size=n, max_size=n))
    laws = []
    for _ in range(draw(st.integers(1, 3))):
        row = []
        for _ in range(n):
            u = sorted(draw(st.lists(st.integers(1, 40), min_size=1,
                                     max_size=6, unique=True)))
            hi = draw(st.sampled_from([9, 2 ** 40]))
            row.append((np.array(u, dtype=np.int64), np.array(draw(st.lists(
                st.integers(1, hi), min_size=len(u), max_size=len(u))),
                dtype=np.int64)))
        laws.append(row)
    ks = draw(st.lists(st.integers(1, 9), min_size=len(laws),
                       max_size=len(laws)))
    norms = draw(st.lists(st.fractions(F(1, 7), F(10), max_denominator=7),
                          min_size=len(laws), max_size=len(laws)))
    dists = draw(st.lists(st.one_of(big_den_dists(2, 12, allow_inf=True),
                                    big_den_dists(2 ** 20, 2 ** 24)),
                          min_size=len(laws), max_size=len(laws)))
    return record(ks, scales, laws), norms, dists


def one_row_calls(laws, metric):
    """The distance of each row of (record, norms, targets) ``laws``, each
    row compared alone."""
    return [transport_distances([hist.row(i)], [norms[i]], [dists[i]],
                                metric)[0]
            for hist, norms, dists in laws for i in range(len(hist.ks))]


def grid_call(laws, metric):
    """One ``transport_distances`` call over the records of (record,
    norms, targets) ``laws``, with their norms and targets joined in grid
    order."""
    return transport_distances([hist for hist, _, _ in laws],
                               [x for _, norms, _ in laws for x in norms],
                               [d for _, _, dists in laws for d in dists],
                               metric)


class TestRowwiseTransport:
    @pytest.mark.parametrize("metric", ["vasershtein", "uniform"])
    @pytest.mark.parametrize("chunk", [7, distributions._CHUNK])
    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.lists(histograms(), min_size=2, max_size=6))
    def test_rows_match_one_row_calls(self, metric, chunk, laws):
        # records of one to three rows, each row against that row alone,
        # bit for bit, whether a record holds int64 or Python-int
        # breakpoints; one _transport call per record, whatever _CHUNK
        # is in force (records come cut, the call does not recut them)
        want = one_row_calls(laws, metric)
        with pytest.MonkeyPatch.context() as mp, transport_calls() as calls:
            mp.setattr(distributions, "_CHUNK", chunk)
            assert grid_call(laws, metric) == want
        assert list(map(len, calls)) == [len(hist.ks) for hist, _, _ in laws]

    @pytest.mark.parametrize("metric", ["vasershtein", "uniform"])
    def test_python_int_breakpoints_match_int64_rows(self, metric):
        # each row alone takes int64 breakpoints (n*L near 2^61) and the
        # record of three passes 2^62, so it takes Python ints; a fourth
        # row passes 2^62 alone
        w = Block([1, 2, 3, 5, 8, 13])
        hist, = sk_histograms([w], [1, 2, 3])
        y = FiniteDist([(F(1, 2), F(1, 2 ** 58)),
                        (F(3), 1 - F(1, 2 ** 58))])
        z = FiniteDist([(F(1), F(1, 2 ** 63)), (F(4), 1 - F(1, 2 ** 63))])
        laws = [(hist, [1] * 3, [y] * 3), (hist.row(0), [1], [z])]
        assert all(n * 2 ** 58 < 2 ** 62 for n in hist.totals)
        assert 3 * hist.totals[0] * 2 ** 58 >= 2 ** 62
        want = one_row_calls(laws, metric)
        assert grid_call(laws[:1], metric) == want[:3]
        assert grid_call(laws, metric) == want

    @pytest.mark.parametrize("metric", ["vasershtein", "uniform"])
    @pytest.mark.parametrize("chunk", [6, 11])
    def test_one_transport_call_per_record(self, metric, chunk):
        # a small chunk cuts one grid into several records: each record
        # takes one _transport call, its rows their own norms and targets
        # (the row slices of the grid's lists), and every distance is the
        # per-k oracle's, bit for bit
        blocks = [Block([1, 2, 3, 5, 8, 13], F(1, 3)), Block([2, 1, 4, 1])]
        ks = [1, 2, 3, 5, 7, 9, 11, 12, 14]
        norms = [F(i + 2, i + 1) for i in range(len(ks))]
        dists = [FiniteDist([(F(1, 2), F(1, 3)), (F(i + 1), F(2, 3))])
                 for i in range(len(ks))]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distributions, "_CHUNK", chunk)
            records = list(sk_histograms(blocks, ks))
            with transport_calls() as calls:
                got = transport_distances(iter(records), norms, dists,
                                          metric)
        assert len(records) >= 3
        assert list(map(len, calls)) == [len(r.ks) for r in records]
        assert got == oracle_transport(
            list(zip(oracle_histograms(blocks, ks), norms, dists)), metric)


def drain(records):
    """The rows of ``records`` until the first BlockError, and that
    error (None when every row came)."""
    got = []
    try:
        for hist in records:
            got.append(hist)
    except BlockError as exc:
        return got, exc
    return got, None


@st.composite
def grids(draw):
    """(blocks, ks): integer multiples g*P of one pattern at mixed scales
    (scale denominators up to near 2^61), a bump-tiled block and an
    unrelated one, with units from 1 up to near 2^62, and a grid of k that
    revisits classes, reflections and whole periods."""
    pattern = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    mag = draw(st.sampled_from([1, 2 ** 40, 2 ** 56]))
    base = np.tile(np.array(pattern, dtype=np.int64) * mag,
                   draw(st.integers(1, 3)))
    scales = st.one_of(st.sampled_from([F(1), F(1, 6), F(5, 4)]),
                       st.builds(F, st.integers(1, 9),
                                 st.integers(2 ** 40, 2 ** 61)))
    members = draw(st.lists(st.tuples(st.sampled_from([1, 2, 3, 7]), scales),
                            min_size=1, max_size=3))
    assume(max(g for g, _ in members) * int(base.sum()) <= INT64_MAX)
    blocks = [Block(base * g, sc) for g, sc in members]
    blocks.append(Block(np.resize([1, 3], base.size) * mag, draw(scales)))
    if draw(st.booleans()):
        child = Block(base)
        c = draw(st.integers(1, 9))
        # two copies of the child and one bump of c*mag: a unit total
        # past int64 is refused by Block, not a grid to measure
        assume(2 * int(base.sum()) + c * mag <= INT64_MAX)
        blocks.append(basic_extend(child, F(c * mag, 2 * len(child)), 2))
    h = max(len(w) for w in blocks)
    ks = draw(st.lists(st.integers(0, 3 * h + 2), min_size=1, max_size=24))
    return blocks, ks


class TestChunkRecords:
    """Chunk records against the per-k path of tests/oracles.py: laws entry
    by entry, counts below every threshold, and distances float by float,
    for _CHUNK small enough that grids cross record boundaries."""

    @pytest.mark.parametrize("chunk", [5, 17, distributions._CHUNK])
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(grids(), st.randoms())
    @example(([Block([1, 2, 3], F(1, 6)), Block([2, 4, 6], F(1, 2 ** 61 - 1)),
               Block([1, 3, 1])], list(range(12))), random.Random(0))
    @example(([Block([2 ** 60, 2 ** 60 + 8]),
               Block([3 * 2 ** 58, 3 * 2 ** 58 + 6], F(1, 3))],
              [1, 3, 2, 5, 4, 7, 6, 9, 8]), random.Random(1))
    def test_records_match_the_oracle(self, chunk, grid, rnd):
        blocks, ks = grid
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(distributions, "_CHUNK", chunk)
            got, err = drain(rows(sk_histograms(blocks, ks)))
            want, want_err = drain(oracle_histograms(blocks, ks))
            assert len(got) == len(want)
            assert (err is None) == (want_err is None)
            if err is not None:
                # the first k of the grid whose S_k leaves int64
                assert f"S_{ks[len(got)]} " in str(err)
            for hist, one in zip(got, want):
                assert hist.ks == [one.k] and hist.totals == [one.total]
                assert hist.scales == one.scales
                for (u, c), wu, wc in zip(segments(hist)[0], one.units,
                                          one.counts):
                    assert u.dtype == wu.dtype and np.array_equal(u, wu)
                    assert c.dtype == wc.dtype and np.array_equal(c, wc)
            if err is not None:
                return
            records = list(sk_histograms(blocks, ks))
            # the rows are the grid in order, no record passes the chunk
            # but a row alone, and a record ends only where the next row
            # would pass it
            assert [k for r in records for k in r.ks] == ks
            assert all(r.units.size <= chunk or len(r.ks) == 1
                       for r in records)
            assert all(a.units.size + b.row(0).units.size > chunk
                       for a, b in zip(records, records[1:]))
            # thresholds on values, at integer and fractional
            # thresh/scale, and just beside them
            values = sorted({sc * int(v) for one in want
                             for sc, u in zip(one.scales, one.units)
                             for v in u.tolist()})
            xs = rnd.sample(values, min(4, len(values)))
            xs += [x + F(1, 2 ** 90) for x in xs] + \
                [x - F(1, 2 ** 90) for x in xs] + [F(0)]
            got_n = [n for r in records
                     for n in r.count_below(xs, [1] * len(r.ks),
                                            [1] * len(r.ks)).tolist()]
            assert got_n == [[one.count_below(x) for x in xs]
                             for one in want]
            xs = [F(3, 10), F(1, 2), F(4, 5)]
            norms = [F(rnd.randint(1, 9), rnd.randint(1, 9)) for _ in ks]
            factors = [k * g for k, g in zip(ks, norms)]
            got_n, i = [], 0
            for r in records:
                part = factors[i:i + len(r.ks)]
                got_n += r.count_below(xs, [f.numerator for f in part],
                                       [f.denominator for f in part]
                                       ).tolist()
                i += len(r.ks)
            assert got_n == [[one.count_below(x * f) for x in xs]
                             for one, f in zip(want, factors)]
            # no distance is taken at k = 0, where S_0/0 is undefined
            if 0 in ks:
                return
            y = FiniteDist([(F(1, 2), F(1, 3)), (F(2), F(2, 3))])
            for metric in ("vasershtein", "uniform"):
                assert transport_distances(records, norms, [y] * len(ks),
                                           metric) == oracle_transport(
                    [(one, g, y) for one, g in zip(want, norms)], metric)


class TestSymRepSplitting:
    def test_splitting_requires_uniform_fibers(self):
        fine = SymRep(("a", "b", "c"), {"a": F(1), "b": F(2), "c": F(3)})
        coarse = SymRep(("x", "y"), {"x": F(1), "y": F(2)})
        with pytest.raises(DistError):
            Splitting(fine, coarse, {"a": "x", "b": "x", "c": "y"})

    def test_cost_is_mean_rho_gap(self):
        fine = SymRep(("a", "b"), {"a": F(1), "b": F(2)})
        coarse = SymRep(("x",), {"x": F(3, 2)})
        s = Splitting(fine, coarse, {"a": "x", "b": "x"})
        expected = (rho(F(1), F(3, 2)) + rho(F(2), F(3, 2))) / 2
        assert s.cost() == pytest.approx(expected)

    def test_eps_splitting_controls_vasershtein(self):
        # a cost bound on the splitting bounds the L1 distance of the laws
        fine = SymRep(tuple("abcd"),
                      {"a": F(1), "b": F(3, 2), "c": F(2), "d": F(3)})
        coarse = SymRep(("x", "y"), {"x": F(5, 4), "y": F(5, 2)})
        s = Splitting(fine, coarse, {"a": "x", "b": "x", "c": "y",
                                     "d": "y"})
        assert vasershtein(FiniteDist.uniform(list(fine.values.values())),
                           FiniteDist.uniform(list(coarse.values.values()))) \
            <= s.cost() + 1e-12


class TestOutputFiles:
    def test_rewrite_replaces_links_not_their_target(self, tmp_path):
        # a hard link and a symbolic link to an earlier file are each
        # replaced by a new file; the earlier file keeps its bytes
        earlier = tmp_path / "earlier.txt"
        earlier.write_text("earlier\n")
        os.link(earlier, tmp_path / "hard.txt")
        os.symlink(earlier, tmp_path / "sym.txt")
        for name in ("hard.txt", "sym.txt"):
            path = tmp_path / name
            with open_output(str(path)) as fh:
                fh.write(f"new {name}\n")
            assert not path.is_symlink()
            assert os.stat(path).st_nlink == 1
            assert path.read_text() == f"new {name}\n"
        assert earlier.read_text() == "earlier\n"

    def test_histogram_csv_through_a_link(self, tmp_path):
        (hist,) = sk_histograms([Block([1, 2], 1)], [1])
        path, outside = tmp_path / "skdist_1.csv", tmp_path / "outside.csv"
        hist.to_csv(str(path))
        want = path.read_bytes()
        os.link(path, outside)
        outside.write_bytes(b"earlier\n")
        hist.to_csv(str(path))
        assert path.read_bytes() == want
        assert want == b"value,count,mass\r\n1,1,1/2\r\n2,1,1/2\r\n"
        assert outside.read_bytes() == b"earlier\n"

    def test_json_bytes(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(str(path), {"b": [1, "1/2"], "a": None})
        assert path.read_bytes() == \
            b'{\n "a": null,\n "b": [\n  1,\n  "1/2"\n ]\n}\n'
