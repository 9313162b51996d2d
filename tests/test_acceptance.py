"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The expensive construction (the glued function at rank 7 for d = 2 and
f(t) = t^1.5) is shared across the census and growth criteria.
"""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from oscillab import mainlemma, potential, subfun, treeset, verify
from oscillab.treeset import GrowthParameters

PI = math.pi


def _line(n, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} - {detail}")
    return ok


@pytest.fixture(scope="module")
def growth_f():
    return GrowthParameters(d=2, index=1.5).validate()


@pytest.fixture(scope="module")
def u7(growth_f):
    return subfun.build_u(growth_f, 7, guard_samples=4000)


class TestCriterion1:
    def test_harmonic_base_refinement(self):
        t0 = time.time()
        eps = 0.5
        fn = lambda pts: subfun.eval_T(eps, pts, 2)
        hs = [2.0**-5, 2.0**-6, 2.0**-7]
        mask = lambda pts: np.abs(pts[:, 1]) < hs[-1] / 2
        rows = verify.laplacian_refinement_study(
            fn, np.array([-0.5, -eps / 2]), 1.0, hs, mask)
        mags = [abs(r[1]) for r in rows]
        factors = [a / b for a, b in zip(mags, mags[1:])]
        elapsed = time.time() - t0
        ok = all(3.5 <= f <= 4.5 for f in factors) and elapsed < 60
        assert _line(1, ok, f"stencil refinement factors {np.round(factors, 3)} "
                             f"in [3.5, 4.5], {elapsed:.1f}s")


class TestCriterion2:
    def test_wos_oracle_2d(self):
        t0 = time.time()
        est = potential.wos_harmonic_measure(
            np.array([0.5, 0.0]), potential.SphereShape(0.25, d=2),
            walks=100_000, seed=7)
        elapsed = time.time() - t0
        target = potential.annulus_exact(2, 0.25, 0.5)
        ok = est.within(target) and not est.flagged and elapsed < 120
        assert _line(2, ok, f"d=2 annulus: {est.hit_probability:.4f} +- "
                            f"{est.standard_error:.4f} vs {target}, {elapsed:.1f}s")

    def test_wos_oracle_3d(self):
        t0 = time.time()
        est = potential.wos_harmonic_measure(
            np.array([0.5, 0.0, 0.0]), potential.SphereShape(0.25, d=3),
            walks=100_000, seed=7)
        elapsed = time.time() - t0
        target = potential.annulus_exact(3, 0.25, 0.5)
        ok = est.within(target) and not est.flagged and elapsed < 120
        assert _line(2, ok, f"d=3 annulus: {est.hit_probability:.4f} +- "
                            f"{est.standard_error:.4f} vs {target:.4f}, {elapsed:.1f}s")


class TestCriterion3:
    def test_equilibrium_oracles(self):
        t0 = time.time()
        circle = potential.equilibrium(
            potential.SphereShape(0.25, d=2).sample(512), 2)
        segment = potential.equilibrium(
            potential.SegmentShape([-1.0, 0.0], [1.0, 0.0]).sample(512), 2)
        elapsed = time.time() - t0
        t_c, t_s = math.log(0.25), math.log(0.5)
        ok = (abs(circle.energy - t_c) < 0.05 * abs(t_c)
              and abs(segment.energy - t_s) < 0.05 * abs(t_s)
              and elapsed < 120)
        assert _line(3, ok, f"circle I={circle.energy:.4f} (target {t_c:.4f}), "
                            f"segment I={segment.energy:.4f} (target {t_s:.4f}), "
                            f"{elapsed:.1f}s")


class TestCriterion4:
    def test_claim_chain_family(self):
        t0 = time.time()
        rows = potential.check_claim1(walks=25_000, seed=11, sample_points=256)
        elapsed = time.time() - t0
        ratios = [r.ratio for r in rows]
        alpha_stable = max(ratios) / min(ratios) < 50
        claim4_consts = [r.content_lower * (-r.energy) for r in rows]
        c4 = max(claim4_consts)
        ok = (len(rows) == 12 and min(ratios) > 0 and alpha_stable
              and all(c > 0 for c in claim4_consts) and c4 < 100)
        assert _line(4, ok, f"12 sets: omega/content in "
                            f"[{min(ratios):.3f}, {max(ratios):.3f}] "
                            f"(spread {max(ratios) / min(ratios):.1f} < 50), "
                            f"claim-4 constant {c4:.2f}, {elapsed:.1f}s")


#: sha256 of each level's census rows (corner, p1, p2, class), written as
#: census.csv writes them, recorded while P2 was still decided by sampling
#: on every cube; they hold for the numpy build and CPU features they were
#: recorded with
CENSUS_DIGESTS = {
    3: "60f8017e317b13c88cecbf70607437d82c09dc047a4374f01af8637c8be1b884",
    4: "7b1d7b687c2a6d4ee8c7ec97ec0f155d0e88d10745c7cde7822f54623a7a4c09",
    5: "6fddd53642d0bdaee99a29a6a24f005c01fe04560673fcab364466fc0985e91c",
    6: "a430b4cef8159b87482e6ed80e9a69a634c95600bd7544bb26d770496985b0f8",
}


def _census_digest(reports):
    rows = "\n".join(f"{'|'.join(str(c) for c in r.cube)},{int(r.p1_satisfied)},"
                     f"{int(r.p2_satisfied)},{r.classification}" for r in reports)
    return hashlib.sha256(rows.encode()).hexdigest()


class TestCriterion5:
    def test_construction_census(self, growth_f, u7):
        t0 = time.time()
        gammas = {}
        digests = {}
        nonbranch_bad = 0
        for k in (3, 4, 5, 6):
            node = u7.level_nodes[k]  # the rank-(k+1) level function
            res = verify.rogue_census(node, (0, 0), (2**k, 2**k), growth_f)
            gammas[k] = res.gamma
            digests[k] = _census_digest(res.reports)
            for r in res.reports:
                if not r.rogue:
                    continue
                # a branch is a row wider than the leaves (as cmd_verify reads it)
                if not r.widest > 2 * treeset.EPS1:
                    nonbranch_bad += 1
        elapsed = time.time() - t0
        spread = max(gammas.values()) / min(gammas.values())
        assert digests == CENSUS_DIGESTS
        ok = spread < 3.0 and nonbranch_bad == 0 and elapsed < 600
        assert _line(5, ok, f"rogue/f(2^k) = "
                            f"{ {k: round(v, 3) for k, v in gammas.items()} }, "
                            f"spread {spread:.2f} < 3, "
                            f"non-branch rogue cubes {nonbranch_bad}, "
                            f"{elapsed:.0f}s")


class TestCriterion6:
    def test_growth_sandwich(self, growth_f, u7):
        t0 = time.time()
        prof = verify.growth_profile(u7.level_nodes, growth_f)
        rows = []
        sup_ok = True
        for k in range(3, 7):
            lm = subfun.log_MM(growth_f, k)
            # the certified upper bound of the bracket, not its sampled low
            measured = prof.log_m_upper[k - 1]
            rows.append((k, measured, lm))
            sup_ok = sup_ok and prof.log_m[k - 1] <= measured <= lm + 1e-9
        ratios = prof.ratios[2:7]
        ratio_ok = max(ratios) < 50.0
        elapsed = time.time() - t0
        ok = sup_ok and ratio_ok
        assert _line(6, ok, "log M_u(2^k) <= log threshold at k=3..6: "
                            f"{[(k, round(m, 1), round(t, 1)) for k, m, t in rows]}; "
                            f"ratio to the lower-bound denominator in "
                            f"[{min(ratios):.1f}, {max(ratios):.1f}], {elapsed:.0f}s")


def _solid_blocks(N, d, edge, corners):
    """A rogue set of solid edge**d blocks at the given corners."""
    E = {tuple(c + o for c, o in zip(corner, off)) for corner in corners
         for off in itertools.product(range(edge), repeat=d)}
    return mainlemma.RogueConfiguration(N, d, E, c0=0.13)


class TestCriterion7:
    def test_lemma_engine_matrix(self):
        t0 = time.time()
        failures = []
        c1_by_dim = {2: [], 3: []}
        configs = []
        # (3, 16) has k_max = 0, so only (2, 64) and (3, 32) test the layers
        for d, N in ((2, 64), (3, 16), (3, 32)):
            for count in (0, int(round(N**0.5)), int(round(N**1.5))):
                for seed in range(5):
                    configs.append(((d, N, count, seed), mainlemma.RogueConfiguration.random(
                        N, d, count, seed=seed, c0=0.13)))
        # random sets leave rho at its floor, so the large-cube count sums
        # vanish; solid blocks lift rho and give positive fitted C1
        for N, d, edge, corners in ((64, 2, 8, [(-4, -4)]),
                                    (64, 2, 6, [(-16, -16), (8, 4)]),
                                    (32, 3, 4, [(-2, -2, -2)]),
                                    (32, 3, 3, [(-8, -8, -8), (4, 4, 4)])):
            configs.append(((d, N, f"{len(corners)} {edge}^{d} blocks"),
                            _solid_blocks(N, d, edge, corners)))
        for label, cfg in configs:
            rho = mainlemma.RhoField.compute(cfg)
            cover = mainlemma.build_cover(cfg, rho)
            res = mainlemma.kappa_chains(cfg, rho, cover)
            ch = res.checks
            if not (ch.property_m and ch.x_ok and ch.kappa_ok):
                failures.append(label)
            if ch.claim1_c1 is not None and ch.claim1_c1 > 0:
                c1_by_dim[cfg.d].append(ch.claim1_c1)
        elapsed = time.time() - t0
        # every dimension needs some positive C1, within a factor 4
        c1_stable = all(v and max(v) / min(v) < 4 for v in c1_by_dim.values())
        ok = not failures and c1_stable and elapsed < 900
        pos = {d: [round(v, 2) for v in vals] for d, vals in c1_by_dim.items()}
        assert _line(7, ok, f"{len(configs)} configurations, failures: {failures or 'none'}; "
                            f"positive fitted C1 {pos}; {elapsed:.0f}s")


class TestCriterion8:
    def test_bound_formula_algebra(self):
        t0 = time.time()
        exact = mainlemma.psi(0.0, 2) == pytest.approx(math.log(2.0) ** 2, rel=1e-14)
        exact3 = mainlemma.psi(0.0, 3) == pytest.approx(math.log(2.0) ** 1.5, rel=1e-14)
        grid_ok = True
        for N, e in ((64, 512), (256, 4096)):
            x_t = mainlemma.phi_argmin(N, e, 2)
            grid = np.linspace(1.0, N / 12.0, 40_001)
            x_g = float(grid[np.argmin([mainlemma.phi(float(x), N, e, 2)
                                        for x in grid])])
            grid_ok = grid_ok and abs(x_t - x_g) <= 0.01 * max(x_g, 1.0)
        # specialization shapes over k = 4..8
        f_lin = GrowthParameters(d=2, index=1.0)
        lin_ratios = []
        for k in range(4, 9):
            N = 2**k
            bv = mainlemma.bound_value(N, int(f_lin(N)), 2)
            lin_ratios.append(bv.log_bound / N)
        f_32 = GrowthParameters(d=2, index=1.5)
        pow_ratios = []
        for k in range(4, 9):
            N = 2**k
            bv = mainlemma.bound_value(N, int(f_32(N)), 2)
            target = (N ** (2 - 1.5) * math.log(N) ** 2) ** (1.0 / (2 - 1))
            pow_ratios.append(bv.log_bound / target)
        lin_ok = max(lin_ratios) / min(lin_ratios) < 2.0
        pow_ok = max(pow_ratios) / min(pow_ratios) < 2.0
        elapsed = time.time() - t0
        ok = exact and exact3 and grid_ok and lin_ok and pow_ok
        assert _line(8, ok, f"psi(0) exact, argmin vs grid <= 1%, "
                            f"linear-shape spread {max(lin_ratios) / min(lin_ratios):.2f}, "
                            f"power-shape spread {max(pow_ratios) / min(pow_ratios):.2f}, "
                            f"{elapsed:.0f}s")


class TestCriterion9:
    def test_sharp_observation_case(self):
        t0 = time.time()

        def u(pts):
            r = np.linalg.norm(np.atleast_2d(pts), axis=1)
            return np.maximum(np.log(r / 0.25) / math.log(4.0), 0.0)

        rep = potential.check_obs1(u, np.array([0.5, 0.0]),
                                   potential.SphereShape(0.25, d=2),
                                   sup_ball=1.0, walks=100_000, seed=13)
        elapsed = time.time() - t0
        ok = rep.tight and elapsed < 120
        assert _line(9, ok, f"u(x0) = {rep.lhs:.4f} vs sup(1-omega) = "
                            f"{rep.rhs:.4f} (omega = {rep.omega:.4f} +- "
                            f"{rep.omega_se:.4f}), {elapsed:.1f}s")
