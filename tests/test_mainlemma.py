import dataclasses
import itertools
import math

import numpy as np
import pytest

from oscillab.mainlemma import (
    _GL_NODES,
    _GL_WEIGHTS,
    ConfigurationError,
    DyadicCover,
    LemmaChecks,
    RhoField,
    RogueConfiguration,
    StepFunction,
    _density_radii,
    _measure_K,
    _ring_max,
    _rogue_grid,
    bound_value,
    build_cover,
    claim1_ratio,
    compute_r,
    kappa_chains,
    measure_K_in_ball,
    phi,
    phi_argmin,
    psi,
    rho_cube,
    unit_ball_volume,
)


# ---------------------------------------------------------------------------
# Frozen scalar density radius: one point, one radius, one box list at a
# time.  The batched solve behind RhoField must reproduce it bit for bit.
# ---------------------------------------------------------------------------


def _scalar_ball_box(c, r, lo, hi):
    lo = lo - c
    hi = hi - c
    d = lo.shape[1]
    rad = r
    rad2 = np.asarray(r**2)
    half_widths = []
    for j in range(d - 1):
        lo_j = lo[:, j].reshape((-1,) + (1,) * j)
        hi_j = hi[:, j].reshape((-1,) + (1,) * j)
        a = np.maximum(lo_j, -rad)
        b = np.minimum(hi_j, rad)
        half = np.maximum(b - a, 0.0) / 2.0
        xs = ((a + b) / 2.0)[..., None] + half[..., None] * _GL_NODES
        rad2 = np.maximum(rad2[..., None] - xs**2, 0.0)
        rad = np.sqrt(rad2)
        half_widths.append(half)
    shape = (-1,) + (1,) * (d - 1)
    out = np.maximum(np.minimum(hi[:, -1].reshape(shape), rad)
                     - np.maximum(lo[:, -1].reshape(shape), -rad), 0.0)
    for half in reversed(half_widths):
        out = np.sum(out * _GL_WEIGHTS, axis=-1) * half
    return out


def _scalar_measure_K(x, radius, config, e_pts):
    d = config.d
    vol = unit_ball_volume(d) * radius**d
    if len(e_pts) == 0:
        return vol
    near = np.linalg.norm(e_pts + 0.5 - x, axis=1) <= radius + math.sqrt(d) / 2.0
    if not near.any():
        return vol
    lo = e_pts[near]
    return vol - float(np.sum(_scalar_ball_box(x, radius, lo, lo + 1.0)))


def _scalar_compute_r(x, config, e_pts, rel_tol=1e-3, t_cap=None):
    x = np.asarray(x, dtype=float)
    v1 = unit_ball_volume(config.d)

    def cond(t):
        need = config.delta0 * v1 * t**config.d
        return _scalar_measure_K(x, t / 2.0, config, e_pts) >= need * (1 - 1e-12)

    for t in (0.25, config.rho_floor / 2.0, config.rho_floor):
        if cond(t):
            return t, False
    t_cap = t_cap if t_cap is not None else 3.0 * config.N
    t = prev = config.rho_floor
    while t <= t_cap:
        t *= 1.07
        if cond(t):
            lo_b, hi_b = prev, t
            while hi_b - lo_b > rel_tol * hi_b:
                mid = 0.5 * (lo_b + hi_b)
                if cond(mid):
                    hi_b = mid
                else:
                    lo_b = mid
            return hi_b, False
        prev = t
    return t_cap, True


def _scalar_rho_values(config):
    N, d = config.N, config.d
    half = N // 2
    vals = np.full((N,) * d, config.rho_floor)
    if not config.E:
        return vals
    e_pts = np.asarray(sorted(config.E), dtype=float)
    offsets = np.array(np.meshgrid(*[[1 / 6, 1 / 2, 5 / 6]] * d,
                                   indexing="ij")).reshape(d, -1).T
    for idx in np.ndindex(*(N,) * d):
        corner = np.asarray(idx, dtype=float) - half
        gap = float(np.min(np.linalg.norm(e_pts + 0.5 - (corner + 0.5), axis=1)))
        if gap > 0.125 + math.sqrt(d):
            continue
        worst = 0.0
        for off in offsets:
            worst = max(worst, _scalar_compute_r(corner + off, config, e_pts)[0])
        inflation = 2.0 * math.sqrt(d) / 6.0
        vals[idx] = max(config.rho_floor,
                        worst + inflation if worst > config.rho_floor else worst)
    return vals


def _block(lo, hi, d):
    return set(itertools.product(range(lo, hi), repeat=d))


def _solid(edge, *corners):
    """Solid blocks of edge**d rogue cubes at the given corners."""
    return {tuple(c + o for c, o in zip(corner, off)) for corner in corners
            for off in itertools.product(range(edge), repeat=len(corner))}


# ---------------------------------------------------------------------------
# Frozen per-corner layer scan: one corner at a time, B(I) as a Python sum
# over its layers.  The one-pass-per-k arrays of kappa_chains must reproduce
# it bit for bit.
# ---------------------------------------------------------------------------


def _scalar_kappa_chains(config, rho, cover):
    """(layers, kappas, b_value, checks) from the per-corner loop, the
    stacks as (k_max, N^d) booleans over the corners in np.ndindex order."""
    N, d = config.N, config.d
    half = N // 2
    k_max = config.k_max
    step = StepFunction(cover)
    m_of_k = step.values(k_max) if k_max >= 1 else np.zeros(0)
    sum_inv = float(np.sum(1.0 / m_of_k)) if k_max >= 1 else 0.0
    in_layer = {k: _ring_max(rho.values, k) <= m_of_k[k - 1] for k in range(1, k_max + 1)}
    total = N**d
    prop_m_counts = {k: int(in_layer[k].sum()) for k in in_layer}
    need_m = 11.0 / 12.0 * total
    prop_m_ok = all(c >= need_m for c in prop_m_counts.values()) if k_max >= 1 else True

    layers = np.zeros((k_max, total), dtype=bool)
    kappas = np.zeros((k_max, total), dtype=bool)
    b_value = np.zeros(total)
    x_count = 0
    kappa_ok = True
    kappa_detail = {"worst_corner": None, "worst_count": None, "bound": sum_inv / 24.0}
    for i, idx in enumerate(np.ndindex(*(N,) * d)):
        corner = tuple(int(c) - half for c in idx)
        ks = [k for k in range(1, k_max + 1) if in_layer[k][idx]]
        b_val = float(sum(1.0 / step(k) for k in ks))
        kaps = []
        for k in ks:
            if not kaps or k > kaps[-1] + step(kaps[-1]):
                kaps.append(k)
        layers[[k - 1 for k in ks], i] = True
        kappas[[k - 1 for k in kaps], i] = True
        b_value[i] = b_val
        if b_val >= sum_inv / 12.0:
            x_count += 1
            if len(kaps) < sum_inv / 24.0 - 1e-12:
                kappa_ok = False
                kappa_detail["worst_corner"] = corner
                kappa_detail["worst_count"] = len(kaps)
    checks = LemmaChecks(
        property_m=prop_m_ok,
        property_m_detail={k: prop_m_counts[k] / total for k in prop_m_counts},
        x_fraction=x_count / total,
        x_ok=x_count / total >= 10.0 / 11.0,
        kappa_ok=kappa_ok,
        kappa_detail=kappa_detail,
        claim1_c1=claim1_ratio(cover),
    )
    return layers, kappas, b_value, checks


class TestConfiguration:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            RogueConfiguration(24, 2, set())

    def test_rejects_cube_outside_q(self):
        with pytest.raises(ConfigurationError):
            RogueConfiguration(16, 2, {(8, 0)})

    def test_c0_gate(self):
        with pytest.raises(ConfigurationError):
            RogueConfiguration(8, 2, {(x, y) for x in range(-4, 4) for y in range(-4, 4)},
                               c0=0.1)

    def test_random_reproducible(self):
        a = RogueConfiguration.random(32, 2, 50, seed=5)
        b = RogueConfiguration.random(32, 2, 50, seed=5)
        assert a.E == b.E and len(a.E) == 50


class TestBallMeasures:
    def test_empty_E_full_ball(self):
        cfg = RogueConfiguration(16, 2, set())
        v = measure_K_in_ball(np.array([0.3, -0.2]), 2.0, cfg)
        assert v == pytest.approx(math.pi * 4.0)

    def test_disk_cube_area_against_monte_carlo(self):
        cfg = RogueConfiguration(16, 2, {(0, 0)})
        x = np.array([0.2, 0.4])
        r = 1.1
        v = measure_K_in_ball(x, r, cfg)
        rng = np.random.default_rng(2)
        pts = x + (rng.uniform(-1, 1, size=(1_000_000, 2)) * r)
        inside = np.linalg.norm(pts - x, axis=1) <= r
        in_cube = np.all((pts >= 0.0) & (pts < 1.0), axis=1)
        mc = math.pi * r**2 - (4 * r**2) * float(np.mean(inside & in_cube))
        assert v == pytest.approx(mc, abs=3e-3 * r**2)

    def test_ball_box_volume_3d(self):
        cfg = RogueConfiguration(16, 3, {(0, 0, 0)})
        x = np.zeros(3)
        # ball of radius 1/2 at the cube corner: exactly one octant inside
        v = measure_K_in_ball(x, 0.5, cfg)
        full = 4.0 * math.pi / 3.0 * 0.125
        assert v == pytest.approx(full * 7.0 / 8.0, rel=1e-4)


class TestComputeR:
    def test_empty_E_floor_everywhere(self):
        cfg = RogueConfiguration(16, 2, set())
        for x in ([0.1, 0.1], [-7.9, 7.9], [3.7, -2.2]):
            r, flagged = compute_r(np.asarray(x), cfg)
            assert not flagged and r <= cfg.rho_floor

    def test_half_space_scales_with_depth(self):
        E = {(x, y) for x in range(0, 8) for y in range(-8, 8)}
        cfg = RogueConfiguration(16, 2, E, c0=0.6)
        r1, _ = compute_r(np.array([1.0, 0.0]), cfg)  # 1 from the complement
        r4, _ = compute_r(np.array([4.0, 0.0]), cfg)  # 4 from either side
        assert r4 > r1 > cfg.rho_floor
        # r tracks the distance to the complement within a small factor
        assert 1.0 <= r1 <= 4.0 * 1.0 + 4
        assert 4.0 <= r4 <= 4.0 * 4.0 + 4

    def test_monotone_under_E_growth(self):
        small = RogueConfiguration(16, 2, {(0, 0), (1, 0)}, c0=0.5)
        big = RogueConfiguration(16, 2, {(0, 0), (1, 0), (0, 1), (1, 1), (-1, 0)},
                                 c0=0.5)
        for x in ([0.5, 0.5], [1.2, 0.7], [2.5, 2.5]):
            r_s, _ = compute_r(np.asarray(x), small)
            r_b, _ = compute_r(np.asarray(x), big)
            assert r_b >= r_s - 1e-9

    def test_far_rogue_cube_keeps_floor(self):
        cfg = RogueConfiguration(32, 2, {(14, 14)}, c0=0.5)
        rho = RhoField.compute(cfg)
        # the cube at corner (-10, -10), N // 2 = 16 from the array's origin
        assert rho.values[6, 6] == cfg.rho_floor


class TestBatchedDensityRadius:
    @pytest.mark.parametrize("config", [
        RogueConfiguration(32, 2, _block(-2, 1, 2) | {(5, 5), (6, 5), (-9, 7)}, c0=0.2),
        RogueConfiguration(64, 2, _block(-2, 2, 2) | {(20, 20), (-25, 3)}, c0=0.2),
        RogueConfiguration(16, 3, _block(-1, 2, 3), c0=0.2),
    ], ids=["d2-N32", "d2-N64", "d3-N16"])
    def test_clustered_above_floor(self, config):
        # solid blocks push cubes above the floor, through the scan and the
        # bisection that random configurations at these densities never reach
        want = _scalar_rho_values(config)
        assert (want > config.rho_floor).any()
        assert np.array_equal(RhoField.compute(config).values, want)

    @pytest.mark.parametrize("N, d, count, seed, c0", [
        (64, 2, 512, 0, 0.13),                      # the roadmap's timing case
        (64, 2, int(round(64**1.4)), 0, 0.1),       # lemma bench, d2 leg
        (64, 2, int(round(64**1.4)), 1, 0.1),
        (32, 3, 64, 0, 0.1),                        # lemma bench, d3 leg
        (32, 3, 64, 1, 0.1),
    ])
    def test_random_configurations(self, N, d, count, seed, c0):
        config = RogueConfiguration.random(N, d, count, seed=seed, c0=c0)
        assert np.array_equal(RhoField.compute(config).values,
                              _scalar_rho_values(config))

    @pytest.mark.parametrize("d", [2, 3])
    def test_measure_bitwise(self, d):
        rng = np.random.default_rng(7 + d)
        config = RogueConfiguration.random(16, d, 12 * d**2, seed=d, c0=0.5)
        e_pts = np.asarray(sorted(config.E), dtype=float)
        grid = _rogue_grid(config)
        x = rng.uniform(-8.0, 8.0, size=(40, d))
        # and radii whose square or d-th power numpy rounds unlike Python
        cand = rng.uniform(0.5, 4.0, size=20_000)
        odd = [v for p in (2, d) for v in
               [v for v, w in zip(cand.tolist(), np.power(cand, p).tolist()) if v**p != w][:1]]
        for radius in (0.125, 0.9, 2.3, 6.0, *odd):
            want = [_scalar_measure_K(p, radius, config, e_pts) for p in x]
            assert [measure_K_in_ball(p, radius, config) for p in x] == want
            assert _measure_K(x, np.full(len(x), radius), grid).tolist() == want

    def test_t_cap_flag(self):
        config = RogueConfiguration(32, 2, _block(-6, 6, 2), c0=0.2)
        x = np.array([[0.5, 0.5], [-5.5, 0.5], [12.5, 12.5]])
        e_pts = np.asarray(sorted(config.E), dtype=float)
        r, flagged = _density_radii(x, config, _rogue_grid(config), t_cap=4.0)
        want = [_scalar_compute_r(p, config, e_pts, t_cap=4.0) for p in x]
        assert list(zip(r.tolist(), flagged.tolist())) == want
        assert want[0] == (4.0, True) and not want[2][1]

    def test_one_point_calls_match_batch(self):
        config = RogueConfiguration(16, 2, _block(-3, 1, 2) | {(5, -6)}, c0=0.3)
        rng = np.random.default_rng(3)
        x = np.vstack([rng.uniform(-4.0, 2.0, size=(30, 2)), [[5.2, -5.7]]])
        r, flagged = _density_radii(x, config, _rogue_grid(config))
        assert (r > config.rho_floor).any()
        for p, rp, fp in zip(x, r.tolist(), flagged.tolist()):
            assert compute_r(p, config) == (rp, fp)
        rho = RhoField.compute(config)
        for corner in ((-2, -2), (0, 0), (5, -6), (-8, 7)):
            assert rho_cube(corner, config) == rho.values[tuple(c + 8 for c in corner)]


class TestRingMax:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_matches_bruteforce(self, k):
        rng = np.random.default_rng(44)
        for d, n in ((2, 10), (3, 7)):
            vals = rng.uniform(size=(n,) * d)
            rm = _ring_max(vals, k)
            ring = [off for off in itertools.product(range(-k, k + 1), repeat=d)
                    if max(abs(o) for o in off) == k]
            for idx in np.ndindex(vals.shape):
                best = -np.inf
                for off in ring:
                    j = tuple(i + o for i, o in zip(idx, off))
                    if all(0 <= jj < n for jj in j):
                        best = max(best, vals[j])
                assert rm[idx] == best, (d, idx)


class TestCoverAndStep:
    def test_empty_E_order3_tiling(self):
        cfg = RogueConfiguration(16, 2, set())
        rho = RhoField.compute(cfg)
        cover = build_cover(cfg, rho)
        assert cover.n_by_order == {3: (16 // 8) ** 2}
        assert cover.m0 == 4
        step = StepFunction(cover)
        assert all(step(k) == 16.0 for k in range(1, cfg.k_max + 1))

    def test_maximality_random_configs(self):
        for seed in range(6):
            cfg = RogueConfiguration.random(32, 2, 100, seed=seed, c0=0.2)
            rho = RhoField.compute(cfg)
            cover = build_cover(cfg, rho)  # raises on nesting violations
            total = sum((2**ell) ** 2 * n for ell, n in cover.n_by_order.items())
            assert total >= 32**2  # covers Q

    def test_step_function_monotone(self):
        cfg = RogueConfiguration.random(32, 2, 90, seed=9, c0=0.2)
        rho = RhoField.compute(cfg)
        step = StepFunction(build_cover(cfg, rho))
        vals = step.values(cfg.k_max)
        assert np.all(np.diff(vals) >= 0)

    def test_tie_break_permutation_invariance(self):
        # downstream pass status is order independent at N = 16
        outcomes = []
        for seed in (1, 2):
            cfg = RogueConfiguration.random(16, 2, 20, seed=3, c0=0.2)
            rho = RhoField.compute(cfg)
            cover = build_cover(cfg, rho)
            res = kappa_chains(cfg, rho, cover)
            outcomes.append((res.checks.property_m, res.checks.x_ok,
                             res.checks.kappa_ok))
        assert outcomes[0] == outcomes[1]

    def test_claim1_with_clustered_configuration(self):
        # a solid block of rogue cubes forces elevated rho and large cover
        # elements, exercising the large-cube count with a positive constant
        E = {(x, y) for x in range(-4, 4) for y in range(-4, 4)}
        cfg = RogueConfiguration(32, 2, E, c0=0.2)
        rho = RhoField.compute(cfg)
        assert rho.values.max() > cfg.rho_floor
        cover = build_cover(cfg, rho)
        ratio = claim1_ratio(cover)
        assert ratio is not None and ratio > 0


def _assert_matches_loop(config, rho, cover=None):
    cover = cover or build_cover(config, rho)
    res = kappa_chains(config, rho, cover)
    layers, kappas, b_value, checks = _scalar_kappa_chains(config, rho, cover)
    half = config.N // 2
    assert np.array_equal(res.corners,
                          np.array(list(np.ndindex(*(config.N,) * config.d))) - half)
    assert np.array_equal(res.layers, layers)
    assert np.array_equal(res.kappas, kappas)
    assert np.array_equal(res.b_value, b_value)
    for f in dataclasses.fields(LemmaChecks):
        assert getattr(res.checks, f.name) == getattr(checks, f.name), f.name
    return res


class TestKappaChains:
    @pytest.mark.parametrize("config", [
        RogueConfiguration(32, 2, set()),
        RogueConfiguration.random(64, 2, int(round(64**1.4)), seed=0),
        RogueConfiguration.random(32, 3, 64, seed=0),
        # k_max = 21: every corner in X has two kappas
        RogueConfiguration.random(256, 2, 2048, seed=1),
        # the solid blocks of acceptance criterion 7, off the rho floor
        RogueConfiguration(64, 2, _solid(8, (-4, -4)), c0=0.13),
        RogueConfiguration(64, 2, _solid(6, (-16, -16), (8, 4)), c0=0.13),
        RogueConfiguration(32, 3, _solid(4, (-2, -2, -2)), c0=0.13),
        RogueConfiguration(32, 3, _solid(3, (-8, -8, -8), (4, 4, 4)), c0=0.13),
    ], ids=["empty-d2-N32", "random-d2-N64", "random-d3-N32", "random-d2-N256",
            "block-d2-N64", "blocks-d2-N64", "block-d3-N32", "blocks-d3-N32"])
    def test_matches_per_corner_loop(self, config):
        _assert_matches_loop(config, RhoField.compute(config))

    @pytest.mark.parametrize("N, d, scale", [(64, 2, 4.0), (32, 3, 4.0), (256, 2, 6.0)])
    def test_matches_per_corner_loop_on_drawn_rho(self, N, d, scale):
        # drawn radii above the floor: corners miss layers, M(k) takes
        # several values, and at N = 256 corners hold zero, one or two kappas
        config = RogueConfiguration.random(N, d, N, seed=0)
        values = config.rho_floor + np.random.default_rng(5).exponential(scale, (N,) * d)
        res = _assert_matches_loop(config, RhoField(config, values))
        assert 0.0 < res.layers.mean() < 1.0

    def test_matches_per_corner_loop_where_kappa_count_fails(self):
        # the kappa count cannot fail while M >= 16; with M = 1/8 every layer
        # is a kappa and sum 1/M(k) / 24 = 5/3, so corners of X with one
        # layer fail, and the detail names the last of them
        config = RogueConfiguration.random(64, 2, 64, seed=0)
        values = np.random.default_rng(5).uniform(0.0, 0.25, (64, 64))
        cover = DyadicCover(config, [], {}, -3, {-3: config.N / 12.0}, -4)
        res = _assert_matches_loop(config, RhoField(config, values), cover)
        in_x = res.b_value >= res.sum_inv_m / 12.0
        assert not res.checks.kappa_ok
        assert np.sum(in_x & (res.kappas.sum(axis=0) == 1)) >= 2

    def test_empty_E_all_layers(self):
        cfg = RogueConfiguration(32, 2, set())
        rho = RhoField.compute(cfg)
        res = kappa_chains(cfg, rho, build_cover(cfg, rho))
        assert res.checks.property_m
        assert res.checks.x_fraction == 1.0
        assert res.layers.shape == (cfg.k_max, 32**2) and res.layers.all()
        # gaps exceed M(kappa_j)
        ks = np.flatnonzero(res.kappas[:, 16 * 32 + 16]) + 1  # corner (0, 0)
        for a, b in zip(ks, ks[1:]):
            assert b - a > res.step(a)

    def test_checks_pass_at_moderate_density(self):
        cfg = RogueConfiguration.random(32, 2, 181, seed=12, c0=0.25)  # 32^1.5
        rho = RhoField.compute(cfg)
        res = kappa_chains(cfg, rho, build_cover(cfg, rho))
        assert res.checks.property_m
        assert res.checks.x_ok
        assert res.checks.kappa_ok

    def test_chain_gap_property_random(self):
        cfg = RogueConfiguration.random(32, 2, 64, seed=2, c0=0.2)
        rho = RhoField.compute(cfg)
        res = kappa_chains(cfg, rho, build_cover(cfg, rho))
        assert not (res.kappas & ~res.layers).any()
        for column in res.kappas.T:
            ks = np.flatnonzero(column) + 1
            for a, b in zip(ks, ks[1:]):
                assert b - a > res.step(a)


def psi_decreasing_onset(d: int, x_hi: float = 1e6, samples: int = 4000) -> float:
    """Smallest sampled x from which psi is monotone decreasing."""
    xs = np.geomspace(1e-3, x_hi, samples)
    vals = np.array([psi(float(x), d) for x in xs])
    increasing = np.diff(vals) > 0
    if not increasing.any():
        return float(xs[0])
    last = int(np.max(np.nonzero(increasing)))
    return float(xs[last + 1])


class TestBoundFormula:
    def test_psi_at_zero(self):
        assert psi(0.0, 2) == pytest.approx(math.log(2.0) ** 2)
        assert psi(0.0, 3) == pytest.approx(math.log(2.0) ** 1.5)

    def test_psi_eventually_decreasing(self):
        onset = psi_decreasing_onset(2)
        xs = np.geomspace(onset, 1e6, 200)
        vals = [psi(float(x), 2) for x in xs]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_phi_argmin_matches_grid(self):
        for N, e in ((64, 512), (256, 4096), (64, 64)):
            x_t = phi_argmin(N, e, 2)
            grid = np.linspace(1.0, N / 12.0, 50_001)
            x_g = float(grid[np.argmin([phi(float(x), N, e, 2) for x in grid])])
            assert abs(x_t - x_g) <= 0.01 * max(x_g, 1.0)

    def test_stationarity_relation(self):
        # x^(1/(d-1)) 2^x tracks (#E/N)^(1/(d-1)) within a factor 4
        for N, e in ((256, 4096), (1024, 32768)):
            x = phi_argmin(N, e, 2)
            lhs = x * 2.0**x
            rhs = e / N
            assert rhs / 4 <= lhs <= rhs * 4 or abs(x - 1.0) < 1e-6

    def test_phi_argmin_empty_interval(self):
        # N < 6d leaves [1, N/(6d)] empty: no minimizer, not one outside it
        with pytest.raises(ConfigurationError):
            phi_argmin(16, 64, 3)
        bv = bound_value(16, 64, 3)
        assert bv.phi_min_x is None and bv.phi_min_value is None
        assert bv.log_bound == pytest.approx(16 * psi(4.0, 3))

    def test_bound_monotone_in_e(self):
        onset = psi_decreasing_onset(2)
        base = None
        for e in (8, 64, 512, 4096):
            if e / 64 < onset:
                continue
            bv = bound_value(64, e, 2)
            if base is not None:
                assert bv.log_bound <= base + 1e-12
            base = bv.log_bound
