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
    _kernel_matrix,
    _merge_coincident,
    annulus_exact,
    check_claim1,
    default_claim_family,
    equilibrium,
    kernel,
    wos_harmonic_measure,
)
from test_acceptance import check_obs1


def energy(nu: DiscreteMeasure, d: int | None = None) -> float:
    """Double-sum discrete energy with diagonal regularization: the
    quantity ``equilibrium`` maximizes, on any weights."""
    d = d or nu.points.shape[1]
    pts, w = _merge_coincident(nu.points, nu.weights)
    K = _kernel_matrix(pts, d)
    return float(w @ K @ w)


# Frozen copies of the per-origin line_hits, the masked walk-on-spheres
# loop, the np.linalg.norm-based shape distances and the equilibrium loop
# that scaled K in every iteration: the references that the batched and
# hoisted versions must match bit for bit.


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


def _sphere_distance(shape, pts):
    r = np.linalg.norm(np.atleast_2d(pts) - shape.center, axis=1)
    return np.abs(r - shape.radius)


def _segment_distance(shape, pts):
    pts = np.atleast_2d(pts)
    ab = shape.b - shape.a
    t = np.clip((pts - shape.a) @ ab / np.dot(ab, ab), 0.0, 1.0)
    proj = shape.a + t[:, None] * ab
    return np.linalg.norm(pts - proj, axis=1)


def _arc_distance(shape, pts):
    pts = np.atleast_2d(pts) - shape.center
    th = np.arctan2(pts[:, 1], pts[:, 0])
    r = np.linalg.norm(pts, axis=1)
    tmid = (shape.theta0 + shape.theta1) / 2.0
    half = (shape.theta1 - shape.theta0) / 2.0
    dth = np.abs((th - tmid + math.pi) % (2 * math.pi) - math.pi)
    on_arc = dth <= half
    d_arc = np.abs(r - shape.radius)
    e0 = shape.radius * np.array([math.cos(shape.theta0), math.sin(shape.theta0)])
    e1 = shape.radius * np.array([math.cos(shape.theta1), math.sin(shape.theta1)])
    d_end = np.minimum(np.linalg.norm(pts - e0, axis=1), np.linalg.norm(pts - e1, axis=1))
    return np.where(on_arc, d_arc, d_end)


def _cells_distance(shape, pts):
    pts = np.atleast_2d(pts)
    best = np.full(pts.shape[0], np.inf)
    for lo, hi in zip(shape.lo, shape.hi):
        dv = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
        best = np.minimum(best, np.linalg.norm(dv, axis=1))
    return best


_NORM_DISTANCE = {SphereShape: _sphere_distance, SegmentShape: _segment_distance,
                  ArcShape: _arc_distance, CellUnionShape: _cells_distance}


def _equilibrium_loop(points, d=None, tol=1e-6, max_iter=20_000):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = d or points.shape[1]
    pts, _ = potential._merge_coincident(points, np.ones(len(points)))
    K = potential._kernel_matrix(pts, d)
    n = len(pts)
    w = np.full(n, 1.0 / n)
    f = float(w @ K @ w)
    grad = 2.0 * K @ w
    step = 1.0 / (np.abs(K).max() * 2.0)
    prev_w, prev_g = None, None
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        if prev_w is not None:
            dw = w - prev_w
            dg = grad - prev_g
            denom = float(np.dot(dw, dg))
            if denom < -1e-300:
                step = float(np.dot(dw, dw) / -denom)
            step = float(np.clip(step, 1e-12, 1e6))
        trial = step
        prev_w, prev_g = w, grad
        for _ in range(60):
            w_new = potential._project_simplex(w + trial * grad)
            f_new = float(w_new @ K @ w_new)
            if f_new >= f - 1e-14 * abs(f) or np.allclose(w_new, w):
                break
            trial *= 0.25
        w, f = w_new, f_new
        grad = 2.0 * K @ w
        active = w > 1e-14
        spread = float(grad[active].max() - grad[active].min()) if active.sum() > 1 else 0.0
        comp = float(np.max(grad) - grad[active].max()) if active.any() else 0.0
        residual = max(spread, comp) / max(1.0, abs(f))
        if residual < tol:
            break
    return w, f, residual, it


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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


def _distance_shapes():
    shapes = _query_shapes()
    shapes.append(("segment_d3", SegmentShape([0.1, 0.2, -0.3], [-0.2, 0.1, 0.25])))
    shapes.append(("cells_d3", CellUnionShape([(0, 0, 0), (1, 1, 0), (1, 0, 1)], 0.125,
                                              origin=np.array([-0.1, 0.05, -0.2]), d=3)))
    return shapes


def _equilibrium_inputs():
    inputs = [("circle_oracle", SphereShape(0.25, d=2).sample(512)),
              ("segment_oracle", SegmentShape([-1.0, 0.0], [1.0, 0.0]).sample(512))]
    # check_claim1's samples of its family
    inputs += [(label, shape.sample(256)) for label, shape in default_claim_family(2)]
    return inputs


def _merge_loop(points, weights):
    """``_merge_coincident`` as it was: a dict keyed on each point rounded
    to 12 digits, filled one point at a time."""
    seen = {}
    out_p, out_w = [], []
    for p, w in zip(points, weights):
        key = tuple(np.round(p, 12))
        if key in seen:
            out_w[seen[key]] += w
        else:
            seen[key] = len(out_p)
            out_p.append(p)
            out_w.append(w)
    return np.asarray(out_p), np.asarray(out_w)


def _merge_inputs():
    inputs = _equilibrium_inputs()
    base = np.array([[0.25, -1.5], [1.0, 2.0], [3.0, 0.0]])
    inputs.append(("exact_duplicates", np.vstack([base, base[::-1], base[[1, 1]]])))
    # long groups, so that the order in which a group's weights are added
    # shows in the bits
    inputs.append(("long_groups", base[np.random.default_rng(73).integers(0, 3, 150)]))
    # 1 + 5e-13 is where the 12th digit rounds up: these fall on either
    # side of it, and of 1 - 5e-13, and of the points they round to
    offsets = np.array([0.0, 4.9e-13, 5.1e-13, -4.9e-13, -5.1e-13, 1e-12, 1.4e-12,
                        1.6e-12, -1e-12, 2e-13, -2e-13, 6e-13])
    near = np.column_stack([1.0 + offsets, np.full(offsets.size, 0.5) - offsets[::-1]])
    inputs.append(("near_duplicates", near))
    zeros = np.array([[-0.0, 0.0], [0.0, 0.0], [0.0, -0.0], [-0.0, -0.0], [1.0, -0.0],
                      [1.0, 0.0], [-0.0, 1.0], [-4e-13, 1.0], [4e-13, -0.0]])
    inputs.append(("signed_zeros", zeros))
    inputs.append(("nans", np.array([[np.nan, 0.0], [np.nan, 0.0], [0.0, np.nan], [0.0, 0.0],
                                     [np.nan, 0.0]])))
    return inputs


class TestMergeCoincident:
    @pytest.mark.parametrize("label,pts", _merge_inputs(),
                             ids=[label for label, _ in _merge_inputs()])
    def test_matches_frozen_loop(self, label, pts):
        rng = np.random.default_rng(71)
        # weights that differ, so that the order of the sums shows in the
        # bits, as energy's are; the same with some -0.0; and
        # equilibrium's ones
        signed = rng.uniform(0.0, 1.0, len(pts))
        signed[::3] = -0.0
        for weights in (rng.uniform(0.0, 1.0, len(pts)), signed, np.ones(len(pts))):
            got_p, got_w = potential._merge_coincident(pts, weights)
            want_p, want_w = _merge_loop(pts, weights)
            assert _same_bits(got_p, want_p) and _same_bits(got_w, want_w)

    def test_merges_what_rounds_alike(self):
        inputs = dict(_merge_inputs())
        merged = lambda label: potential._merge_coincident(
            inputs[label], np.ones(len(inputs[label])))
        pts, w = merged("exact_duplicates")
        assert pts.tolist() == [[0.25, -1.5], [1.0, 2.0], [3.0, 0.0]]
        assert w.tolist() == [2.0, 4.0, 2.0]
        # each near duplicate joins the point it rounds to, on its side of
        # the rounding
        assert merged("near_duplicates")[1].tolist() == [2.0, 2.0, 2.0, 1.0, 1.0, 2.0, 1.0, 1.0]
        # 0.0 and -0.0 are one, and 4e-13 rounds to 0; the first point of
        # a group stands for it, with its own signs
        pts, w = merged("signed_zeros")
        assert pts.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        assert np.signbit(pts).tolist() == [[True, False], [False, True], [True, False]]
        assert w.tolist() == [5.0, 2.0, 2.0]
        # a point with a nan is one of its own
        assert len(merged("nans")[0]) == 5


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

    @pytest.mark.parametrize("label,pts", _equilibrium_inputs(),
                             ids=[label for label, _ in _equilibrium_inputs()])
    def test_matches_frozen_loop(self, label, pts):
        # 2K hoisted out of the loop and allclose spelled out keep every bit
        got = equilibrium(pts, 2)
        w, f, residual, it = _equilibrium_loop(pts, 2)
        assert _same_bits(got.measure.weights, w)
        assert _same_bits(got.energy, f)
        assert _same_bits(got.kkt_residual, residual)
        assert got.iterations == it


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

    @pytest.mark.parametrize("label,shape", _distance_shapes(),
                             ids=[label for label, _ in _distance_shapes()])
    def test_distance_matches_norm_reference(self, label, shape):
        frozen = _NORM_DISTANCE[type(shape)]
        rng = np.random.default_rng(12)
        pts = rng.uniform(-1.3, 1.3, size=(20_000, shape.dimension))
        assert _same_bits(shape.distance(pts), frozen(shape, pts))
        # and at every point a walk visits, from a start off every shape
        walked = _Recorder(shape)
        x = np.full(shape.dimension, 0.6 / math.sqrt(shape.dimension))
        wos_harmonic_measure(x, walked, walks=3000, seed=4)
        assert len(walked.queries) > 2
        for q in walked.queries:
            assert _same_bits(shape.distance(q), frozen(shape, q))

    @pytest.mark.parametrize("d", [2, 3])
    def test_box_diagonal_has_norm_bits(self, d):
        # a box is met exactly when its centre's distance is at most
        # np.linalg.norm(hi - lo) / 2: at that distance it is, one float
        # further it is not
        class AtDistance(Shape):
            def __init__(self, dist):
                self.dist, self.dimension = dist, d

            def distance(self, pts):
                return self.dist

        rng = np.random.default_rng(d)
        lo = rng.uniform(-1.0, 1.0, size=(20_000, d))
        hi = lo + rng.uniform(0.0, 1.0, size=(20_000, d))
        half = np.array([float(np.linalg.norm(b - a)) / 2.0 for a, b in zip(lo, hi)])
        assert AtDistance(half).intersects_boxes(lo, hi).all()
        assert not AtDistance(np.nextafter(half, np.inf)).intersects_boxes(lo, hi).any()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_norms_match_linalg_norm(self, d):
        rng = np.random.default_rng(d)
        tiny = np.nextafter(0.0, 1.0)
        rows = [
            rng.normal(size=(5000, d)),
            rng.normal(size=(5000, d)) * 1e-160,    # squares subnormal or zero
            rng.normal(size=(5000, d)) * 1e200,     # squares overflow
            np.full((3, d), tiny),
            np.full((4, d), 2.0 ** -1070),
            np.empty((0, d)),
            np.full((2, d), np.inf),
            np.full((2, d), -np.inf),
        ]
        mixed = rng.normal(size=(6, d))
        mixed[::2, 0] = np.inf
        mixed[1::2, -1] = -np.inf
        rows.append(mixed)
        with np.errstate(over="ignore"):
            for q in rows:
                assert _same_bits(potential._norms(q), np.linalg.norm(q, axis=1))

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
