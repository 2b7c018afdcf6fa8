"""Unit tests for the block calculus: exact arithmetic, cyclic partial
sums, and the normalization decision procedure."""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from towerkit import blocks
from towerkit.blocks import (Block, BlockError, _shift_scan,
                             _window_extremes, is_normalized,
                             normalizing_copies, self_concat)
from towerkit.distributions import sk_histograms
from towerkit.lemma_engine import _add_bumps

from oracles import INT64_MAX, cyclic_partial_sums_units, rows

# few letters, so that random blocks are often periodic; tile counts with
# several prime factors
small_units = st.lists(st.integers(1, 3), min_size=1, max_size=8)
tile_counts = st.sampled_from([1, 2, 3, 4, 6, 12])


def cyclic_partial_sum(w, k, nu):
    """S_k(w)(nu): the sum of k consecutive weights from position nu,
    indices taken cyclically, as an exact Fraction from the prefix sums."""
    h = len(w)
    if not 1 <= nu <= h:
        raise IndexError(f"position {nu} out of range 1..{h}")
    pre = np.concatenate([[0], np.cumsum(w.units)])
    wraps, r = divmod(nu - 1 + k, h)
    return w.scale * (wraps * w.total_units() + int(pre[r])
                      - int(pre[nu - 1]))


def least_period_oracle(units):
    """Least d dividing h with units[i] == units[i mod d] for every i."""
    h = len(units)
    return next(d for d in range(1, h + 1)
                if h % d == 0 and all(units[i] == units[i % d]
                                      for i in range(h)))


def random_block(rng, max_h=12, max_u=9, max_den=4):
    h = rng.randint(1, max_h)
    units = [rng.randint(1, max_u) for _ in range(h)]
    return Block(units, F(1, rng.randint(1, max_den)))


class TestConstruction:
    def test_from_weights_exact(self):
        w = Block.from_weights([F(1, 2), F(3, 4), F(5, 2)])
        assert w.weights() == [F(1, 2), F(3, 4), F(5, 2)]
        assert w.scale * w.total_units() == F(15, 4)
        assert w.mean == F(5, 4)

    def test_rejects_floats(self):
        # one arithmetic path: float units, a float scale or float weights
        # never make a block, nor do non-integer units in an object array
        for units, scale in (([0.5, 1.5], 1), (np.array([1.0, 2.0]), 1),
                             ([1, 2], 0.5), ([1, 2], np.float64(1)),
                             (np.array([F(3, 2)], dtype=object), 1)):
            with pytest.raises(BlockError):
                Block(units, scale)
        for weights in ([0.5, 1.5], [F(1, 2), 1.5], [1, 2.0]):
            with pytest.raises(BlockError):
                Block.from_weights(weights)

    def test_rejects_nonpositive(self):
        with pytest.raises(BlockError):
            Block([1, 0, 2])
        with pytest.raises(BlockError):
            Block([], 1)
        with pytest.raises(BlockError):
            Block([1], F(-1, 2))

    def test_prefix_consistency(self):
        rng = random.Random(11)
        for _ in range(50):
            w = random_block(rng)
            pre, p = w.period_prefix(), w.period
            assert pre[0] == 0
            assert list(np.diff(pre)) == list(w.units[:p])
            assert int(pre[-1]) * (len(w) // p) == w.total_units()


class TestConcat:
    def test_self_concat(self):
        w = Block([2, 5], F(1, 4))
        v = self_concat(w, 3)
        assert len(v) == 6
        assert v.weights() == w.weights() * 3
        assert v.mean == w.mean

    def test_inputs_unchanged(self):
        w = Block([1, 2], F(1, 2))
        before = w.weights()
        self_concat(w, 4)
        cyclic_partial_sum(w, 7, 2)
        assert w.weights() == before


class TestOverflow:
    """Unit totals and rescales near 2^63 raise instead of wrapping."""

    @settings(max_examples=100, derandomize=True)
    @given(st.lists(st.integers(2 ** 60, INT64_MAX), min_size=1, max_size=4))
    @example([2 ** 62, 2 ** 62])
    @example([2 ** 62, 2 ** 62 - 1, 1])
    def test_block_total_fits_int64(self, units):
        if sum(units) > INT64_MAX:
            with pytest.raises(BlockError):
                Block(units)
        else:
            w = Block(units)
            assert w.total_units() == sum(units)
            assert w.mean == F(sum(units), len(units))

    def test_units_past_int64_rejected(self):
        for units in ([2 ** 63], [2 ** 64 + 1], [1, 2 ** 64 + 1], [1, -2 ** 64]):
            with pytest.raises(BlockError):
                Block(units)

    @settings(max_examples=60, derandomize=True)
    @given(st.lists(st.integers(1, 2 ** 20), min_size=1, max_size=4),
           st.integers(2 ** 63, 2 ** 64 - 1), st.integers(0, 4))
    @example([1], 2 ** 63, 1)
    def test_mixed_units_past_int64_rejected(self, small, big, at):
        # numpy infers float64 for such a list; it must not become a block
        units = small[:at] + [big] + small[at:]
        with pytest.raises(BlockError):
            Block(units)
        with pytest.raises(BlockError):
            Block.from_weights(units)


class TestPeriod:
    @settings(max_examples=80, derandomize=True)
    @given(small_units, tile_counts)
    @example([1, 2, 1, 2, 1, 3], 12)
    @example([1, 2, 1, 2], 6)
    @example([5], 7)
    @example([1, 1, 2], 35)
    def test_least_period_of_tilings(self, units, m):
        w = Block(units, F(1, 3))
        p = least_period_oracle(units)
        # a fresh tiled block finds the period itself; self_concat of a
        # block whose period is known inherits it
        fresh = Block(np.tile(units, m), F(1, 3))
        assert fresh.period == p
        assert w.period == p
        assert self_concat(w, m).period == p
        assert len(fresh) % p == 0
        assert np.array_equal(fresh.units,
                              np.tile(fresh.units[:p], len(fresh) // p))
        for d in range(1, p):
            if p % d == 0:
                assert not np.array_equal(fresh.units[:p],
                                          np.tile(fresh.units[:d], p // d))

    @settings(max_examples=60, derandomize=True)
    @given(small_units, tile_counts, st.integers(0, 30))
    def test_one_period_of_partial_sums(self, units, m, k):
        # S_k repeats with the least period, so the law over the block is
        # h/p copies of the law over one period
        w = Block(np.tile(units, m))
        p = w.period
        full = cyclic_partial_sums_units(w, k)
        assert np.array_equal(full, np.tile(full[:p], len(w) // p))
        u, c = np.unique(full, return_counts=True)
        hist, = sk_histograms([w], [k])
        assert hist.units.tolist() == u.tolist()
        assert hist.counts.tolist() == c.tolist()


class TestPeriodPrefix:
    """period_prefix and total_units against the units, as Python ints,
    on bump chains and their tilings with units up to 2^62 and past it."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.booleans()),
                    min_size=1, max_size=4),
           st.sampled_from([2 ** 20, 2 ** 40, 2 ** 58, 2 ** 61]),
           st.lists(st.tuples(st.sampled_from([1, 2, 3, 4, 6]),
                              st.integers(0, 5), st.integers(0, 2 ** 61)),
                    min_size=1, max_size=2),
           st.sampled_from([1, 2, 3]))
    # one unit near 2^62 beside small ones: the total fits, but not
    # height times the largest unit
    @example([(3, True), (1, False)], 2 ** 61, [(1, 0, 0)], 1)
    @example([(1, True), (1, False)], 2 ** 61, [(2, 0, 5)], 2)
    @example([(1, True), (2, True)], 2 ** 58, [(4, 1, 2 ** 40)], 3)
    def test_bump_chain_sums(self, units, c, links, r):
        exact = [c * u if big else u for u, big in units]
        try:
            w = Block(exact)
            for m, i, amount in links:
                # a spacing: len(w) times a divisor of m
                divisors = [d for d in range(1, m + 1) if m % d == 0]
                spacing = len(w) * divisors[i % len(divisors)]
                exact = exact * m
                for j in range(spacing - 1, len(exact), spacing):
                    exact[j] += amount
                w = _add_bumps(w, m, amount, spacing)
            exact = exact * r
            w = self_concat(w, r)
        except BlockError:
            assert sum(exact) > INT64_MAX
            return
        assert w.units.tolist() == exact
        assert w.total_units() == sum(exact)
        p = w.period
        assert p == least_period_oracle(exact)
        pre = w.period_prefix()
        assert pre.dtype == np.int64
        assert pre.tolist() == [0] + np.cumsum(w.units[:p]).tolist()

    def test_int64_units_are_not_copied(self):
        units = np.array([3, 1, 2], dtype=np.int64)
        assert Block(units).units is units


class TestWindowExtremes:
    """The running window max/min against numpy's sliding windows, for
    every width 1..n, so most widths do not divide n, and either op."""

    @staticmethod
    def check(x):
        for width in range(1, x.size + 1):
            windows = sliding_window_view(x, width)
            for op, want in ((np.maximum, windows.max(axis=1)),
                             (np.minimum, windows.min(axis=1))):
                got = _window_extremes(x, width, op)
                assert got.dtype == x.dtype
                assert got.tolist() == want.tolist()

    @settings(max_examples=60, derandomize=True)
    @given(st.lists(st.integers(-2 ** 62 - 2 ** 20, -2 ** 62 + 2 ** 20)
                    | st.integers(2 ** 62 - 2 ** 20, 2 ** 62 + 2 ** 20)
                    | st.integers(-3, 3), min_size=1, max_size=23))
    @example([2 ** 62] * 22 + [-2 ** 62])
    def test_int64_near_2_62(self, values):
        self.check(np.array(values, dtype=np.int64))

    @settings(max_examples=60, derandomize=True)
    @given(st.lists(st.integers(2 ** 63, 2 ** 66)
                    | st.integers(-2 ** 66, -2 ** 63), min_size=1, max_size=23))
    def test_python_ints_past_int64(self, values):
        x = np.empty(len(values), dtype=object)
        x[:] = values
        self.check(x)


class TestShiftScan:
    """_shift_scan against a test of every k in [k0, kk] in turn, both
    directions, on int64 and Python-int profiles."""

    @staticmethod
    def check(d, k0, span, unit, a, b, last):
        # the scan reads the first h entries of a deviation profile
        h = len(d)
        kk = k0 + span

        def violates(k, amp):
            return b * int(amp) > a * k * unit

        failing = []
        for k in range(k0, kk + 1):
            diff = [abs(int(d[(s + k) % h]) - int(d[s])) for s in range(h)]
            if violates(k, max(diff)):
                failing.append((k, diff.index(max(diff))))
        want = (failing[-1] if last else failing[0]) if failing else None
        assert _shift_scan(d, h, k0, kk, violates, last) == want

    @settings(max_examples=150, derandomize=True)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=9),
           st.integers(1, 30), st.integers(0, 40), st.integers(1, 4),
           st.integers(1, 4), st.booleans())
    @example([0, 5, -3, 2], 1, 20, 1, 2, True)
    @example([0, 7, 7, 0, 7, 7], 3, 12, 1, 3, True)
    def test_int64_profile(self, d, k0, span, a, b, last):
        self.check(np.array(d, dtype=np.int64), k0, span, 1, a, b, last)

    @settings(max_examples=60, derandomize=True)
    @given(st.lists(st.integers(2 ** 63, 2 ** 66)
                    | st.integers(-2 ** 66, -2 ** 63), min_size=1, max_size=9),
           st.integers(1, 30), st.integers(0, 40), st.integers(1, 4),
           st.integers(1, 4), st.booleans())
    def test_python_int_profile(self, d, k0, span, a, b, last):
        x = np.empty(len(d), dtype=object)
        x[:] = d
        self.check(x, k0, span, 2 ** 63, a, b, last)


class TestCyclicPartialSums:
    def test_small_example(self):
        w = Block([1, 2, 3])
        # wrap once past the end: S_4(2) = 2 + 3 + 1 + 2
        assert cyclic_partial_sums_units(w, 4)[1] == 8
        assert cyclic_partial_sums_units(w, 0).tolist() == [0, 0, 0]
        assert cyclic_partial_sums_units(w, 3)[2] == 6

    def test_against_loop_oracle(self):
        rng = random.Random(23)
        for _ in range(60):
            w = random_block(rng)
            h = len(w)
            ws = w.weights()
            k = rng.randint(0, 3 * h)
            units = cyclic_partial_sums_units(w, k)
            for nu in range(1, h + 1):
                expected = sum(ws[(nu - 1 + j) % h] for j in range(k))
                assert w.scale * int(units[nu - 1]) == expected

    def test_vectorized_matches_scalar(self):
        rng = random.Random(31)
        for _ in range(40):
            w = random_block(rng)
            k = rng.randint(0, 4 * len(w))
            units = cyclic_partial_sums_units(w, k)
            for nu in range(1, len(w) + 1):
                assert w.scale * int(units[nu - 1]) == \
                    cyclic_partial_sum(w, k, nu)

    def test_negative_k_rejected(self):
        for w in (Block([1, 2, 1, 2]), Block([1, 2, 3]), Block([4])):
            with pytest.raises(BlockError):
                list(sk_histograms([w], [-1]))

    @settings(max_examples=60, derandomize=True)
    @given(st.lists(st.integers(1, 50), min_size=1, max_size=20),
           st.integers(0, 5))
    def test_full_turn_identity(self, units, wraps):
        w = Block(units)
        h = len(w)
        hist, = sk_histograms([w], [wraps * h])
        assert hist.units.tolist() == [wraps * w.total_units()]
        assert hist.counts.tolist() == [h]

    @settings(max_examples=60, derandomize=True)
    @given(st.lists(st.integers(1, 50), min_size=1, max_size=20),
           st.integers(0, 40))
    def test_period_shift_identity(self, units, k):
        w = Block(units)
        h = len(w)
        one, turned = rows(sk_histograms([w], [k, k + h]))
        assert np.array_equal(turned.units, one.units + w.total_units())
        assert np.array_equal(turned.counts, one.counts)

    @settings(max_examples=80, derandomize=True)
    @given(st.lists(st.integers(2 ** 60, 2 ** 62), min_size=1, max_size=3),
           st.integers(1, 12))
    @example([2 ** 61, 2 ** 61 - 1], 5)
    def test_past_int64_raises(self, units, k):
        # a total below 2^63 still lets S_k leave int64 once k passes the
        # block: over the grid k, k + h, ... each law is exact in Python
        # ints until the first k whose S_k leaves int64 raises BlockError
        assume(sum(units) <= INT64_MAX)
        w = Block(units)
        h = len(w)
        grid = [k + j * h for j in range(3)]
        hists = rows(sk_histograms([w], grid))
        for kk in grid:
            exact = [sum(units[(nu + j) % h] for j in range(kk))
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


class TestCrudeBound:
    def test_amplitude_bound(self):
        # |S_k - k E| <= 2 h M for every k >= h, exactly
        rng = random.Random(47)
        for _ in range(60):
            w = random_block(rng)
            h = len(w)
            mx = w.scale * int(w.units.max())
            for k in range(h, 3 * h + 1):
                units = cyclic_partial_sums_units(w, k)
                for v in (int(units.min()), int(units.max())):
                    s = w.scale * v
                    assert abs(s - k * w.mean) <= 2 * h * mx


class TestIsNormalized:
    def brute(self, w, eps):
        """Direct quantifier scan over one period of residues."""
        h = len(w)
        k0 = max(1, math.ceil(F(eps) * w.total_units() / int(w.units.max())))
        for k in range(k0, k0 + h):
            units = cyclic_partial_sums_units(w, k)
            for nu in range(1, h + 1):
                s = w.scale * int(units[nu - 1])
                if abs(s - k * w.mean) > F(eps) * k * w.mean:
                    return False, (k, nu)
        return True, None

    def test_matches_brute_force(self):
        rng = random.Random(3)
        eps_grid = [F(1, 2), F(1, 3), F(1, 5), F(1, 8), F(1, 20)]
        agree = 0
        for _ in range(120):
            w = random_block(rng)
            eps = rng.choice(eps_grid)
            expected, _ = self.brute(w, eps)
            assert is_normalized(w, eps) is expected
            agree += 1
        assert agree == 120

    def test_witness_is_genuine(self):
        rng = random.Random(9)
        found = 0
        for _ in range(200):
            w = random_block(rng)
            eps = F(1, 20)
            ok, wit = is_normalized(w, eps, witness=True)
            if ok:
                assert wit is None
                continue
            k, nu = wit
            found += 1
            s = cyclic_partial_sum(w, k, nu)
            mean = w.mean
            assert abs(s - k * mean) > eps * k * mean
        assert found > 0

    def test_constant_block_always_normalized(self):
        w = Block([7] * 5, F(1, 3))
        assert is_normalized(w, F(1, 1000))

    def test_tiling_is_monotone(self):
        # tiling never destroys normalization: the deviation profile is
        # unchanged while the admissible-k threshold grows
        rng = random.Random(17)
        for _ in range(40):
            w = random_block(rng)
            eps = F(1, 4)
            if is_normalized(w, eps):
                assert is_normalized(self_concat(w, 3), eps)

    def matches_brute(self, w, eps):
        ok, wit = is_normalized(w, eps, witness=True)
        expected, first = self.brute(w, eps)
        assert ok is expected
        if ok:
            assert wit is None
            return
        # the smallest failing k, at the first position of largest deviation
        k = first[0]
        mean = w.mean
        devs = [abs(w.scale * int(s) - k * mean)
                for s in cyclic_partial_sums_units(w, k)]
        assert wit == (k, devs.index(max(devs)) + 1)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6), tile_counts,
           st.sampled_from([F(1, 2), F(1, 4), F(1, 8), F(1, 20)]))
    @example([1, 2, 1, 2, 1, 3], 12, F(1, 20))
    @example([1, 3], 6, F(1, 8))
    def test_tiling_matches_brute_force(self, units, m, eps):
        self.matches_brute(self_concat(Block(units, F(1, 2)), m), eps)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=2, max_size=8),
           st.lists(st.integers(0, 2 ** 40), min_size=8, max_size=8),
           st.sampled_from([1, 2, 3, 4]),
           st.sampled_from([F(1, 2), F(1, 4), F(1, 8), F(1, 20)]))
    @example([1, 2, 3, 1, 3, 3], [0] * 8, 4, F(1, 8))
    @example([1, 3, 1, 3, 1, 2], [0] * 8, 1, F(1, 8))
    @example([2, 2, 2], [0, 1, 2 ** 40, 0, 0, 0, 0, 0], 2, F(1, 20))
    def test_past_int64_safe_matches_brute_force(self, units, offsets, m, eps):
        # one period's units near 2^62/h, so that h * Sigma >= 2^62 and the
        # deviation profile is scanned in Python ints; twice the block
        # total must still fit int64, as the oracle's partial sums need
        h = len(units)
        c = -(-2 ** 62 // (h * sum(units)))
        v = Block([c * u + o for u, o in zip(units, offsets)], F(1, 2))
        assume(2 * m * v.total_units() <= INT64_MAX)
        w = self_concat(v, m)
        p = w.period
        assume(p * int(np.cumsum(w.units[:p])[-1]) >= 2 ** 62)
        self.matches_brute(w, eps)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(BlockError):
            is_normalized(Block([1, 2]), 0)


eps_values = st.sampled_from([F(1, 2), F(1, 4), F(1, 8), F(1, 20)])


class TestNormalizingCopies:
    def assert_least(self, w, eps):
        """normalizing_copies(w) is the least m with w^m normalized, by
        deciding the materialized tilings at m and m - 1."""
        m = normalizing_copies(w, eps)
        assert is_normalized(self_concat(w, m), eps)
        if m > 1:
            assert not is_normalized(self_concat(w, m - 1), eps)
        return m

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=1, max_size=6), tile_counts,
           eps_values)
    @example([4, 4, 1, 3, 1], 1, F(1, 20))
    @example([1, 3], 6, F(1, 8))
    @example([2], 1, F(1, 8))
    def test_matches_brute_force(self, units, r, eps):
        # r > 1 gives an input block that is already a tiling (period < h);
        # its least count is that of its period block, divided by r
        base = Block(units, F(1, 2))
        m = self.assert_least(self_concat(base, r), eps)
        assert m == -(-normalizing_copies(base, eps) // r)

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.lists(st.integers(1, 4), min_size=2, max_size=8),
           st.lists(st.integers(0, 2 ** 40), min_size=8, max_size=8),
           st.sampled_from([1, 2]), eps_values)
    @example([1, 3, 1, 3, 1, 2], [0] * 8, 1, F(1, 8))
    @example([2, 2, 2], [0, 1, 2 ** 40, 0, 0, 0, 0, 0], 2, F(1, 20))
    def test_past_int64_safe_matches_brute_force(self, units, offsets, r,
                                                 eps):
        # one period with h * Sigma >= 2^62, so the profile is scanned in
        # Python ints; the least tiling must still fit int64 to be built
        h = len(units)
        c = -(-2 ** 62 // (h * sum(units)))
        w = self_concat(Block([c * u + o for u, o in zip(units, offsets)]),
                        r)
        p = w.period
        assume(p * int(np.cumsum(w.units[:p])[-1]) >= 2 ** 62)
        assume(normalizing_copies(w, eps) * w.total_units() <= INT64_MAX)
        self.assert_least(w, eps)


    @pytest.mark.parametrize("units, eps, m", [
        ([1, 3], F(1, 8), 19), ([1, 2, 1, 2, 1, 3], F(1, 20), 79),
        (list(range(1, 41)), F(1, 20), 180), ([1] * 30 + [50], F(1, 10), 994)])
    def test_one_scan_per_search(self, monkeypatch, units, eps, m):
        calls = []

        def spy(*args):
            calls.append(args[2:4])
            return _shift_scan(*args)

        monkeypatch.setattr(blocks, "_shift_scan", spy)
        assert normalizing_copies(Block(units), eps) == m
        assert len(calls) == 1, calls


def test_normalization_scan_needs_no_scipy():
    # a tiled block that fails normalization is decided by the scan; in a
    # fresh process, neither the package nor the scan may load scipy
    code = ("import sys\n"
            "from fractions import Fraction\n"
            "import towerkit.cli\n"
            "from towerkit.blocks import Block, is_normalized, self_concat\n"
            "w = self_concat(Block([1, 3]), 2)\n"
            "assert is_normalized(w, Fraction(1, 8), witness=True) "
            "== (False, (1, 1))\n"
            "assert 'scipy' not in sys.modules\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env={**os.environ, "PYTHONPATH": path})
