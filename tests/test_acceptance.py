"""Acceptance suite: one test per shipped criterion, each printing a
single pass/fail line with its runtime."""

import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from towerkit.blocks import Block, is_normalized, self_concat
from towerkit.distributions import FiniteDist, rho
from towerkit.lemma_engine import (BlockArray, basic_extend, choose_tile,
                                   compound_extend, extension_step)
from towerkit.skyscraper import (IntegerTower, are_diagnostic, check_duality,
                                 check_inversion, integerize,
                                 occupation_sweep)
from towerkit.splitting import (DyadicRep, build_split_sequence, make_target,
                                split_cost)
from towerkit.tower import (build_example_tower, build_rational_tower,
                            certify_theorem1)

from oracles import b_of, cyclic_partial_sums_units, law_distance

NORM_GRID = [F(1, 2), F(2, 5), F(1, 3), F(1, 4), F(1, 5), F(1, 6), F(1, 8)]


def report(num, ok, desc, t0):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} " \
           f"({time.monotonic() - t0:.1f}s) {desc}"
    print(line)
    assert ok, line


def certified_level(w):
    for d in NORM_GRID:
        if is_normalized(w, d):
            return d
    return None


def sky_n_grid(it, points=14, ratio=1.2):
    horizon = it.covered_horizon()
    wmax = max(int(it.blocks[s].units.max()) for s in it.symbols)
    return sorted({int(horizon * ratio ** -j) for j in range(points)
                   if int(horizon * ratio ** -j) >= 4 * wmax})


@pytest.fixture(scope="module")
def twopoint_trace():
    return build_rational_tower(FiniteDist.uniform([1, 2]),
                                [F(1, 10), F(1, 12)],
                                [F(1, 20), F(1, 24)], rounds=2)


@pytest.fixture(scope="module")
def example_trace():
    return build_example_tower([F(1, n) for n in range(1, 7)],
                               [F(1, n + 3) for n in range(1, 7)],
                               e0=F(5000), size_cap=10 ** 7)


@pytest.fixture(scope="module")
def uniform_sky():
    z = FiniteDist.uniform([F(1, 2), F(1)])
    trace = build_rational_tower(z, [F(1, 20)], [F(1, 40)], rounds=2)
    return integerize(trace)


@pytest.fixture(scope="module")
def pareto_sky():
    z = FiniteDist.uniform([F(j + 1, 8) for j in range(8)])
    trace = build_rational_tower(z, [F(1, 80)], [F(1, 160)], rounds=2)
    return integerize(trace)


def test_criterion_1_block_algebra():
    t0 = time.monotonic()
    rng = random.Random(1)
    for _ in range(1000):
        h = rng.randint(1, 10)
        w = Block([rng.randint(1, 9) for _ in range(h)],
                  F(1, rng.randint(1, 4)))
        mx = w.scale * int(w.units.max())
        assert list(np.diff(w.period_prefix())) == list(w.units[:w.period])
        m = rng.randint(2, 4)
        tiled = self_concat(w, m)
        k = rng.randint(1, 3 * h)
        # equidistribution: cyclic sums of the tiling repeat those of w
        a = cyclic_partial_sums_units(w, k)
        b = cyclic_partial_sums_units(tiled, k)
        assert list(b) == list(a) * m
        # crude partial-sum envelope, exactly
        for kk in (h, h + rng.randint(0, 2 * h)):
            units = cyclic_partial_sums_units(w, kk)
            for v in (int(units.min()), int(units.max())):
                assert abs(w.scale * v - kk * w.mean) <= 2 * h * mx
        nu = rng.randint(1, h)
        ws = w.weights()
        assert w.scale * int(a[nu - 1]) == \
            sum(ws[(nu - 1 + j) % h] for j in range(k))
    report(1, True, "block algebra exact on 1000 instances", t0)


def test_criterion_2_basic_lemma():
    t0 = time.monotonic()
    rng = random.Random(2)
    checked = 0
    while checked < 100:
        h = rng.randint(1, 16)
        w = Block([rng.randint(1, 8) for _ in range(h)],
                  F(1, rng.randint(1, 4)))
        delta = certified_level(w)
        if delta is None:
            continue
        checked += 1
        e, mx = w.mean, w.scale * int(w.units.max())
        kap = F(rng.randint(0, 4), 4) * delta * e
        q = int(1 / delta) + rng.randint(1, 3)
        mu = rng.randint(1, 3)
        wp = self_concat(basic_extend(w, kap, q, delta=delta), mu)
        tiled = self_concat(w, mu * q)
        H, qh = len(wp), q * h
        # (i) normalization by enlarging mu, on a subsample
        if checked % 20 == 0:
            w1 = basic_extend(w, kap, q)
            assert is_normalized(self_concat(w1, choose_tile(w1, delta)),
                                 delta)
        # (ii) exact mean shift and pointwise domination
        assert wp.mean == e + kap
        assert all(a >= b for a, b in zip(wp.weights(), tiled.weights()))
        # value-level disagreement masks (scales may differ)
        sa, sb = F(wp.scale), F(tiled.scale)

        def diff_mask(k):
            a = cyclic_partial_sums_units(wp, k).astype(object)
            b = cyclic_partial_sums_units(tiled, k).astype(object)
            return (a * sa.numerator * sb.denominator) != \
                (b * sb.numerator * sa.denominator)

        # (iii) exact disagreement cardinality, all window lengths <= qh
        if kap > 0:
            for j in range(1, qh + 1):
                assert F(int(diff_mask(j).sum()), H) <= F(j, qh)
        # (iii') fraction untouched below sqrt(delta) qh
        k0 = int(math.isqrt(int(delta * qh * qh)))
        while F(k0 * k0) > delta * qh * qh:
            k0 -= 1
        touched = np.zeros(H, dtype=bool)
        if kap > 0:
            for k in range(1, k0 + 1):
                touched |= diff_mask(k)
        frac = F(int(touched.sum()), H)
        assert frac * frac <= delta
        # (iv) two-sided envelope 1 +- 2 sqrt(delta), exact via squares
        for k in range(k0 + 1, qh + 1):
            units = cyclic_partial_sums_units(wp, k)
            for v in (int(units.min()), int(units.max())):
                s = F(v) * sa
                assert (s - k * e) ** 2 <= 4 * delta * (k * e) ** 2
        # (v) proof's error term beyond qh: deviation bounded by the
        # normalization allowance or the periodic amplitude, plus the
        # bump-miscount allowance
        for k in range(qh + 1, 3 * H + 2, max(1, H // 8)):
            units = cyclic_partial_sums_units(wp, k)
            allow = min(delta * k * e, 2 * h * mx) + delta * e * qh
            for v in (int(units.min()), int(units.max())):
                s = F(v) * sa
                assert abs(s - k * (e + kap)) <= allow
    report(2, True, "Basic Lemma postconditions exact on 100 instances", t0)


def test_criterion_3_compound():
    t0 = time.monotonic()
    rng = random.Random(3)
    t_choices = [F(5, 4), F(3, 2), F(2)]
    for i in range(20):
        base = rng.randint(1, 6)
        blocks = {"a": Block([base], F(1)),
                  "b": Block([2 * base], F(1))}
        arr = BlockArray(("a", "b"), blocks,
                         {"a": F(base), "b": F(2 * base)}, F(1))
        t_map = {"a": rng.choice(t_choices), "b": rng.choice(t_choices)}
        beta = rng.choice([F(1, 3), F(1, 2)])
        out, rep = compound_extend(arr, t_map, beta=beta, eps_out=F(1, 3),
                                   delta=beta)
        for s in arr.symbols:
            assert out.blocks[s].mean == arr.blocks[s].mean * t_map[s]
        steps = [r.p_after - r.p_before for r in rep.rounds]
        assert all(0 <= s <= beta for s in steps)
        ps = [r.p_after for r in rep.rounds]
        assert ps == sorted(ps)
    report(3, True, "compound extension exact means, monotone schedule "
                    "with steps <= beta, 20 instances", t0)


def test_criterion_4_extension_end_to_end():
    t0 = time.monotonic()
    blocks = {"a": Block([1]), "b": Block([2])}
    arr = BlockArray(("a", "b"), blocks, {"a": F(1), "b": F(2)}, F(1))
    out, gamma, cert = extension_step(arr, F(3, 10), F(1, 10), rounds=2)
    change = out.change_mass()
    ok = cert.ok() and change < 0.3 and change < F(3, 10) and \
        out.height <= 10 ** 6
    # replay the certificate distances against the eps chain
    for k, d in cert.distances.items():
        assert d < gamma.eps(k)
    report(4, ok, f"uniform(1,2) extension delta=0.3 eps=0.1 certified on "
                  f"{len(cert.distances)} window lengths, height {out.height}",
           t0)


def test_criterion_5_distance_oracles():
    t0 = time.monotonic()
    rng = random.Random(5)

    def rand_dist():
        n = rng.randint(1, 4)
        d = rng.randint(max(n, 1), 6)
        cuts = sorted(rng.sample(range(1, d), n - 1)) if n > 1 else []
        masses = [F(b - a, d) for a, b in zip([0] + cuts, cuts + [d])]
        vals = rng.sample([F(a, b) for a in range(1, 7)
                           for b in range(1, 7)], n)
        return FiniteDist(list(zip(vals, masses)))

    def expand(dist, length):
        out = []
        for v, m in zip(dist.values, dist.masses):
            out.extend([v] * int(m * length))
        return out

    for _ in range(200):
        p, q = rand_dist(), rand_dist()
        den = 1
        for m in list(p.masses) + list(q.masses):
            den = den * m.denominator // math.gcd(den, m.denominator)
        a, b = expand(p, den), expand(q, den)
        # monotone coupling on the exact common expansion is optimal
        vas_oracle = math.fsum(rho(x, y) for x, y in zip(a, b)) / den
        uni_oracle = max(rho(x, y) for x, y in zip(a, b))
        assert abs(law_distance(p, q) - vas_oracle) <= 1e-12
        assert abs(law_distance(p, q, "uniform") - uni_oracle) <= 1e-12
        # no rearrangement of the coupling can do better
        perm = list(range(den))
        rng.shuffle(perm)
        shuffled = math.fsum(rho(a[i], b[perm[i]]) for i in range(den)) / den
        assert law_distance(p, q) <= shuffled + 1e-12
    report(5, True, "transport distances match coupling oracles on "
                    "200 pairs", t0)


def test_criterion_6_splitting():
    t0 = time.monotonic()
    two = make_target("points", atoms=[(F(1), F(1, 2)), (F(2), F(1, 2))])
    for fine in (2, 3, 4):
        assert split_cost(two, fine, 1) == 0.0
    par = make_target("pareto", alpha=F(1))
    chain = [split_cost(par, d + 1, d) for d in range(1, 7)]
    assert all(a > b for a, b in zip(chain, chain[1:]))
    # depth-3 cost against the full 2^3 cell enumeration
    cells = [par.quantile(F(j + 1, 8)) for j in range(8)]
    for coarse in (1, 2):
        shift = 3 - coarse
        oracle = math.fsum(
            rho(cells[j], cells[((j >> shift) << shift) + (1 << shift) - 1])
            for j in range(8)) / 8
        assert abs(split_cost(par, 3, coarse) - oracle) <= 1e-12
    # cdf domination below the floor, exact at all depths
    seq = build_split_sequence(par, [F(1, 4), F(1, 8)])
    for rep in seq.reps:
        dist = rep.dist()
        for v in dist.values:
            if v < seq.floor_r:
                assert dist.cdf(v) <= par.cdf(v)
    assert seq.dominates
    report(6, True, "splitting costs exact, Pareto depth-3 matches "
                    "enumeration, cdf domination below the floor", t0)


def test_criterion_7_example_pipeline(example_trace):
    t0 = time.monotonic()
    trace = example_trace
    eps_sum = sum(F(1, n + 3) for n in range(1, 7))
    ledger_ok = trace.final.change_mass() < eps_sum
    rep = certify_theorem1(trace)
    doubling_ok = all(
        1.9 <= float(b_of(trace, 2 * k)) / float(b_of(trace, k)) <= 2.1
        for k in rep.doubling.distances)
    vas = rep.eps.distances
    boundary_ok = all(vas[st.height] <= st.eps + 1e-12
                      for st in trace.stages if st.height in vas)
    ok = ledger_ok and doubling_ok and boundary_ok and rep.ok()
    report(7, ok, f"six-stage constant-target pipeline, ledger "
                  f"{float(trace.final.change_mass()):.3f} < "
                  f"{float(eps_sum):.3f}, doubling in [1.9, 2.1]", t0)


def test_criterion_8_lower_bound(twopoint_trace):
    t0 = time.monotonic()
    rep = certify_theorem1(twopoint_trace)
    low = rep.lower_bound
    failures = [e for e in low.exact() if not e[2] <= e[3]]
    ok = low.ok() and not failures and rep.ok()
    report(8, ok, f"exact cdf lower bound with constant 9/8 at every "
                  f"x > 0, one check per k and atom of the target, "
                  f"{len(low.exact())} checks, {len(failures)} failures", t0)


def test_criterion_9_skyscraper_inversion(uniform_sky):
    t0 = time.monotonic()
    rng = random.Random(9)
    # exhaustive duality on small towers, including one at the height cap
    for _ in range(10):
        h = rng.randint(1, 24)
        blocks = {"a": Block([rng.randint(1, 9) for _ in range(h)])}
        it = IntegerTower(None, ("a",), blocks, F(1),
                          FiniteDist.point(1), F(1, 1000))
        assert check_duality(it)
    big = IntegerTower(None, ("a",), {"a": Block(
        [rng.randint(1, 3) for _ in range(512)])}, F(1),
        FiniteDist.point(1), F(1, 1000))
    assert check_duality(big)
    # two-sided inversion on the uniform(1,2) integer tower; the sweep
    # raises InversionError at the first tail check that fails
    reports = occupation_sweep(uniform_sky, sky_n_grid(uniform_sky))
    inv = check_inversion(uniform_sky, reports, tol=0.15)
    top = [n for n in inv.n_grid if n * 10 >= inv.n_grid[-1]]
    top_ok = all(inv.occ_distances[n] <= 0.15 for n in top)
    ok = inv.top.ok() and top_ok
    report(9, ok, f"duality exhaustive to height 512; occupation within "
                  f"0.15 on the top window, tail constant 2 at "
                  f"x in (1.25, 1.5, 2) over {len(inv.n_grid)} horizons",
           t0)


def test_criterion_10_alpha_dichotomy(uniform_sky, pareto_sky):
    t0 = time.monotonic()
    n_grid = sky_n_grid(uniform_sky)
    reports = occupation_sweep(uniform_sky, n_grid, [1.0, 2.0], [2.0])
    rows = are_diagnostic(uniform_sky, reports, [1.0, 2.0], [2.0])
    by_alpha = {r.alpha: r for r in rows}
    expected = (2.5 ** 0.5) / 1.5
    top = [n for n in n_grid if n * 10 >= n_grid[-1]]
    ratio_ok = all(abs(by_alpha[2.0].ratio_to_a1[n] - expected) <= 0.05
                   for n in top)

    def pareto_rho(alpha, t):
        if alpha >= 1:
            return math.inf
        return float(t) ** (1 - 1 / alpha) / (1 / alpha - 1)

    p_grid = sky_n_grid(pareto_sky)
    p_reports = occupation_sweep(pareto_sky, p_grid, [0.5, 1.5],
                                 [2.0, 4.0, 8.0])
    p_rows = are_diagnostic(pareto_sky, p_reports, [0.5, 1.5],
                            [2.0, 4.0, 8.0],
                            rho_fn=pareto_rho, divergent_alphas=[1.5])
    p_by_alpha = {r.alpha: r for r in p_rows}
    divergent_ok = p_by_alpha[1.5].mode == "divergent"
    half = p_by_alpha[0.5]
    bound_ok = half.mode == "integrable" and half.bound.ok() and all(
        half.u_sup[t] <= 2 * half.rho[t] + 1e-9 for t in (2.0, 4.0, 8.0))
    ok = ratio_ok and divergent_ok and bound_ok
    report(10, ok, f"moment ratio near {expected:.4f} on the top window; "
                   f"Pareto(1): alpha=1.5 divergent, u_0.5 below "
                   f"2*rho at t in (2, 4, 8)", t0)
