import math

import numpy as np
import pytest

from oscillab import potential
from oscillab.potential import (
    ArcShape,
    CellUnionShape,
    ConvergenceError,
    DiscreteMeasure,
    KernelDomainError,
    SegmentShape,
    Shape,
    SphereShape,
    WosEstimate,
    annulus_exact,
    check_claim1,
    check_obs1,
    default_claim_family,
    energy,
    equilibrium,
    frostman,
    frostman_growth_certificate,
    kernel,
    wos_harmonic_measure,
)


# Frozen copies of the per-origin line_hits and the masked walk-on-spheres
# loop, the references that the batched versions must match bit for bit.


def _line_hits_loop(shape, origins, direction, steps=128):
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    lo, hi = shape.bounds()
    span_lo = float(np.min(np.vstack([lo, hi]) @ direction)) - 0.1
    span_hi = float(np.max(np.vstack([lo, hi]) @ direction)) + 0.1
    ts = np.linspace(span_lo, span_hi, steps)
    dt = (span_hi - span_lo) / (steps - 1)
    hits = np.zeros(origins.shape[0], dtype=bool)
    for i, o in enumerate(origins):
        pts = o[None, :] + (ts - float(np.dot(o, direction)))[:, None] * direction[None, :]
        hits[i] = bool(np.any(shape.distance(pts) <= dt))
    return hits


def _wos_loop(x, shape, walks, seed, shell=1e-4, max_steps=5_000,
              outer_radius=1.0, batch=20_000):
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    rng = np.random.default_rng(seed)
    hits = 0
    capped = 0
    remaining = walks
    while remaining > 0:
        m = min(batch, remaining)
        remaining -= m
        pos = np.tile(x, (m, 1))
        alive = np.ones(m, dtype=bool)
        for _ in range(max_steps):
            if not alive.any():
                break
            p = pos[alive]
            d_out = outer_radius - np.linalg.norm(p, axis=1)
            d_set = shape.distance(p)
            absorbed_set = d_set < shell
            absorbed_out = (d_out < shell) & ~absorbed_set
            hits += int(absorbed_set.sum())
            step = np.minimum(d_out, d_set)
            cont = ~(absorbed_set | absorbed_out)
            idx = np.where(alive)[0]
            alive[idx[~cont]] = False
            if cont.any():
                v = rng.normal(size=(int(cont.sum()), d))
                v /= np.linalg.norm(v, axis=1, keepdims=True)
                pos[idx[cont]] = p[cont] + step[cont, None] * v
        capped += int(alive.sum())
    p_hat = hits / walks
    se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / walks)
    return WosEstimate(p_hat, se, walks, seed, capped > 0.001 * walks)


class _Recorder(Shape):
    """A shape that keeps every point array it is asked the distance of."""

    def __init__(self, shape):
        self.shape = shape
        self.dimension = shape.dimension
        self.queries = []

    def bounds(self):
        return self.shape.bounds()

    def distance(self, pts):
        self.queries.append(np.array(pts))
        return self.shape.distance(pts)


def _query_shapes():
    shapes = list(default_claim_family(2))
    shapes.append(("sphere_d3", SphereShape(0.25, center=[0.1, -0.2, 0.05], d=3)))
    return shapes


class TestKernel:
    def test_values(self):
        assert kernel(1.0, 2) == 0.0
        assert kernel(0.5, 3) == -2.0
        assert kernel(0.25, 2) == pytest.approx(-math.log(4.0), rel=1e-14)

    def test_domain_error(self):
        with pytest.raises(KernelDomainError):
            kernel(0.0, 2)
        with pytest.raises(KernelDomainError):
            kernel(-1.0, 3)


class TestEnergy:
    def test_roots_of_unity_tend_to_capacity(self):
        # discrete log-energy of M uniform points on the unit circle
        # vanishes like log(M)/M
        prev = None
        for M in (64, 256, 1024):
            th = 2 * math.pi * np.arange(M) / M
            nu = DiscreteMeasure(np.column_stack([np.cos(th), np.sin(th)]),
                                 np.full(M, 1.0 / M))
            val = abs(energy(nu))
            assert val < 5 * math.log(M) / M
            if prev is not None:
                assert val < prev
            prev = val

    def test_scaling_law(self):
        # I(s E) = I(E) + log s for fixed probability weights in the plane
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, size=(40, 2))
        w = rng.uniform(0.5, 1.0, size=40)
        w /= w.sum()
        for s in (0.5, 0.25, 2.0):
            a = energy(DiscreteMeasure(pts, w))
            b = energy(DiscreteMeasure(s * pts, w))
            assert b - a == pytest.approx(math.log(s), abs=1e-9)

    def test_circle_quarter_radius(self):
        M = 512
        th = 2 * math.pi * np.arange(M) / M
        nu = DiscreteMeasure(0.25 * np.column_stack([np.cos(th), np.sin(th)]),
                             np.full(M, 1.0 / M))
        assert energy(nu) == pytest.approx(math.log(0.25), abs=0.02)

    def test_coincident_points_merged(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        nu = DiscreteMeasure(pts, np.array([0.25, 0.25, 0.5]))
        assert math.isfinite(energy(nu))


class TestEquilibrium:
    def test_circle_oracle(self):
        eq = equilibrium(SphereShape(0.25, d=2).sample(512), 2)
        target = math.log(0.25)
        assert abs(eq.energy - target) < 0.05 * abs(target)
        # equilibrium on a circle is uniform
        assert eq.measure.weights.std() < 0.2 * eq.measure.weights.mean()

    def test_segment_oracle(self):
        eq = equilibrium(SegmentShape([-1.0, 0.0], [1.0, 0.0]).sample(512), 2)
        target = math.log(0.5)
        assert abs(eq.energy - target) < 0.05 * abs(target)

    def test_two_symmetric_points(self):
        eq = equilibrium(np.array([[0.0, 0.0], [3.0, 0.0]]), 2)
        assert np.allclose(eq.measure.weights, 0.5, atol=1e-6)

    def test_optimality_against_perturbations(self):
        pts = SphereShape(0.25, d=2).sample(64)
        eq = equilibrium(pts, 2)
        rng = np.random.default_rng(8)
        K_energy = eq.energy
        for _ in range(100):
            w = rng.dirichlet(np.ones(64))
            assert energy(DiscreteMeasure(pts, w)) <= K_energy + 1e-9

    def test_needs_two_points(self):
        with pytest.raises(KernelDomainError):
            equilibrium(np.array([[0.0, 0.0]]), 2)


class TestFrostman:
    def test_single_cell(self):
        res = frostman([(0, 0)], 4, 1.0, d=2)
        assert res.measure.total_mass == pytest.approx(2.0**-4)

    def test_full_segment_tight_everywhere(self):
        D = 7
        res = frostman([(i,) for i in range(2**D)], D, 1.0, d=1)
        assert res.measure.total_mass == pytest.approx(1.0)
        w = res.measure.weights
        # every dyadic interval carries exactly its gauge value
        for level in (3, 5):
            block = 2 ** (D - level)
            sums = w.reshape(-1, block).sum(axis=1)
            assert np.allclose(sums, 2.0**-level)

    def test_growth_certificate_stable_under_refinement(self):
        cells_a = [(i, 0) for i in range(2**5)]
        cells_b = [(i, 0) for i in range(2**6)]
        ca = frostman_growth_certificate(frostman(cells_a, 5, 1.0, d=2), 2000)
        cb = frostman_growth_certificate(frostman(cells_b, 6, 1.0, d=2), 2000)
        assert ca <= 8.0 and cb <= 8.0
        assert abs(ca - cb) < 2.0


class TestWalkOnSpheres:
    def test_empty_set(self):
        est = wos_harmonic_measure(np.array([0.5, 0.0]), None, walks=10)
        assert est.hit_probability == 0.0

    def test_annulus_oracle_2d(self):
        est = wos_harmonic_measure(np.array([0.5, 0.0]), SphereShape(0.25, d=2),
                                   walks=40_000, seed=7)
        assert not est.flagged
        assert est.within(annulus_exact(2, 0.25, 0.5))

    def test_annulus_oracle_3d(self):
        est = wos_harmonic_measure(np.array([0.5, 0.0, 0.0]),
                                   SphereShape(0.25, d=3), walks=40_000, seed=7)
        assert not est.flagged
        assert est.within(annulus_exact(3, 0.25, 0.5))

    def test_seed_determinism(self):
        a = wos_harmonic_measure(np.array([0.5, 0.0]), SphereShape(0.25, d=2),
                                 walks=5000, seed=3)
        b = wos_harmonic_measure(np.array([0.5, 0.0]), SphereShape(0.25, d=2),
                                 walks=5000, seed=3)
        assert a.hit_probability == b.hit_probability

    def test_repeated_seeds_within_three_se(self):
        target = annulus_exact(2, 0.25, 0.5)
        hits = 0
        for seed in range(20):
            est = wos_harmonic_measure(np.array([0.5, 0.0]),
                                       SphereShape(0.25, d=2),
                                       walks=4000, seed=seed)
            hits += est.within(target)
        assert hits >= 18


class TestBatchedQueries:
    @pytest.mark.parametrize("label,shape", _query_shapes(),
                             ids=[label for label, _ in _query_shapes()])
    def test_line_hits_matches_per_origin_loop(self, label, shape):
        d = shape.dimension
        lo, hi = shape.bounds()
        rng = np.random.default_rng(5)
        origins = rng.uniform(lo - 0.05, hi + 0.05, size=(300, d))
        axes = [np.eye(d)[i] for i in range(d)] + [np.ones(d) / math.sqrt(d)]
        for ax in axes:
            batched, looped = _Recorder(shape), _Recorder(shape)
            got = batched.line_hits(origins, ax)
            want = _line_hits_loop(looped, origins, ax)
            assert got.dtype == bool
            assert np.array_equal(got, want)
            assert want.any() and not want.all()
            # one distance call, on the very points of the per-origin calls
            assert len(batched.queries) == 1
            assert np.array_equal(batched.queries[0], np.concatenate(looped.queries))

    @pytest.mark.parametrize("x,shape,walks,max_steps", [
        ([0.5, 0.0], SphereShape(0.25, d=2), 6000, 5_000),
        ([0.5, 0.0, 0.0], SphereShape(0.25, d=3), 6000, 5_000),
        ([0.0, 0.0], ArcShape(0.2, math.pi / 6, 5 * math.pi / 6), 6000, 5_000),
        ([0.5, 0.0], SphereShape(0.25, d=2), 20_001, 5_000),
        ([0.5, 0.0], SphereShape(0.25, d=2), 3000, 3),
    ], ids=["annulus_d2", "annulus_d3", "cap", "two_batches", "capped"])
    def test_wos_matches_masked_loop(self, x, shape, walks, max_steps):
        compacted, masked = _Recorder(shape), _Recorder(shape)
        got = wos_harmonic_measure(np.array(x), compacted, walks=walks, seed=9,
                                   max_steps=max_steps)
        want = _wos_loop(x, masked, walks, seed=9, max_steps=max_steps)
        # every step asks the distance of the same walkers at the same points
        assert len(compacted.queries) == len(masked.queries)
        for a, b in zip(compacted.queries, masked.queries):
            assert np.array_equal(a, b)
        assert got.hit_probability == want.hit_probability
        assert got.standard_error == want.standard_error
        assert got.flagged == want.flagged
        assert got.flagged == (max_steps == 3)

    def test_distance_rows_are_independent(self):
        # a row's distance must not depend on the rows batched with it:
        # line_hits decides all lines of a projection in one call
        shapes = [s for _, s in _query_shapes()]
        shapes.append(SphereShape(0.3, center=[0.1, -0.2], d=2))
        subclasses = {c for c in Shape.__subclasses__()
                      if c.__module__ == potential.__name__}
        assert subclasses <= {type(s) for s in shapes}
        rng = np.random.default_rng(3)
        for shape in shapes:
            pts = rng.uniform(-1.3, 1.3, size=(65_536, shape.dimension))
            batch = shape.distance(pts)
            for i in range(0, len(pts), 61):
                assert shape.distance(pts[i:i + 1])[0] == batch[i]


class TestClaims:
    def test_family_has_twelve_members(self):
        assert len(default_claim_family(2)) == 12

    def test_family_is_planar(self):
        with pytest.raises(KernelDomainError):
            default_claim_family(3)
        with pytest.raises(KernelDomainError):
            check_claim1(d=3, walks=100)
        with pytest.raises(KernelDomainError):
            check_claim1([("sphere", SphereShape(0.2, d=3))], walks=100)

    def test_claim_chain_small_family(self):
        fam = [
            ("seg", SegmentShape([-0.2, 0.0], [0.2, 0.0])),
            ("arc", ArcShape(0.25, 0.0, math.pi)),
            ("cells", CellUnionShape([(0, 0), (1, 1)], 0.1,
                                     origin=np.array([-0.1, -0.05]))),
        ]
        rows = check_claim1(fam, walks=8000, sample_points=128)
        for r in rows:
            assert r.omega > 0
            assert r.content_lower > 0
            assert r.content_lower <= r.content_upper + 1e-9
            assert r.energy < 0
            assert r.ratio > 0
        # Claim 4 direction: content <= C * (-1 / I(nu0)) with one C
        consts = [r.content_lower * (-r.energy) for r in rows]
        assert max(consts) < 10.0

    def test_scaling_family_ratio_bounded_below(self):
        rows = check_claim1(
            [(f"s{s}", SegmentShape([-s / 2, 0.0], [s / 2, 0.0]))
             for s in (0.4, 0.2, 0.1)],
            walks=8000, sample_points=128)
        ratios = [r.ratio for r in rows]
        assert min(ratios) > 0.05


class TestObservation1:
    def test_sharp_annulus_case(self):
        # u = log(|x| / (1/4)) / log 4 on the annulus: u(x0) = 1/2 at radius
        # 1/2, sup = 1, omega = 1/2, so the inequality chain is an equality
        def u(pts):
            r = np.linalg.norm(np.atleast_2d(pts), axis=1)
            return np.maximum(np.log(r / 0.25) / math.log(4.0), 0.0)

        rep = check_obs1(u, np.array([0.5, 0.0]), SphereShape(0.25, d=2),
                         sup_ball=1.0, walks=60_000, seed=13)
        assert rep.lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.tight

    def test_inequality_direction_generic(self):
        def u(pts):
            r = np.linalg.norm(np.atleast_2d(pts), axis=1)
            return np.maximum(np.log(r / 0.25) / math.log(4.0), 0.0) ** 1.0 * 0.9

        rep = check_obs1(u, np.array([0.5, 0.0]), SphereShape(0.25, d=2),
                         sup_ball=0.9, walks=20_000, seed=14)
        assert rep.lhs <= rep.rhs + 3 * rep.omega_se * rep.sup_ball
