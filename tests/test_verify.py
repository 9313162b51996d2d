import math

import numpy as np
import pytest

from frozen_tubes import FieldRows
from oscillab.geometry import LatticeCube, enumerate_basic_cubes
from oscillab.potential import SegmentShape, SphereShape
from oscillab.subfun import (Frame, FunctionNode, SlabOscillating, TableBuilder, TubeField,
                             assemble_full, build_u, eval_T, eval_W)
from oscillab.treeset import GrowthParameters, TubeSpec, complete_frame
from oscillab.verify import (
    EmptyDomainError,
    GridField,
    ZeroSetInCube,
    classify_cube,
    content_lower_projection,
    content_upper,
    discrete_laplacian_report,
    growth_profile,
    laplacian_refinement_study,
    near_tube_ends,
    rogue_census,
    sup_on,
    lower_bound_denominator,
    tube_ends,
    zero_set_projection,
    _support_sup_points,
)

PI = math.pi


def segment_table(tube: TubeSpec):
    """A one-row table of the tube's segment and diameter: its support,
    and so its complement in the zero set, lies inside the tube."""
    length = float(np.linalg.norm(tube.b - tube.a))
    rows = FieldRows(len(tube.a))
    rows.add(TubeField(Frame.along(tube.a, tube.b - tube.a), tube.diameter, len(tube.a),
                       0.0, length))
    return rows.table()


def growth(a, d=2):
    return GrowthParameters(d=d, index=a).validate()


@pytest.fixture(scope="module")
def ub5():
    return build_u(growth(1.5), 5, guard_samples=1500)


class TestLaplacian:
    def test_quadratic_is_exact(self):
        fn = lambda pts: np.sum(pts**2, axis=1)
        field = GridField.sample(fn, (-1.0, -1.0), 0.125, (17, 17))
        rep = discrete_laplacian_report(field)
        # stencil of |x|^2 equals 2d at every interior point
        assert rep.min_value == pytest.approx(4.0, abs=1e-9)
        assert not rep.violations

    def test_tube_profile_refinement_rate(self):
        eps = 0.5
        fn = lambda pts: eval_T(eps, pts, 2)
        hs = [2.0**-5, 2.0**-6, 2.0**-7]
        mask = lambda pts: np.abs(pts[:, 1]) < hs[-1] / 2
        rows = laplacian_refinement_study(fn, np.array([-0.5, -eps / 2]), 1.0, hs, mask)
        vals = [abs(r[1]) for r in rows]
        for a, b in zip(vals, vals[1:]):
            assert 3.5 <= a / b <= 4.5

    def test_subharmonic_max_nonnegative_stencil(self):
        eps = 0.5
        fn = lambda pts: np.maximum(eval_T(eps, pts, 2) - 1.0, 0.0)
        field = GridField.sample(fn, (-0.5, -0.3), 2.0**-6, (65, 40))
        rep = discrete_laplacian_report(field)
        assert rep.min_value >= -1e-6

    def test_empty_mask_raises(self):
        fn = lambda pts: np.sum(pts, axis=1)
        field = GridField.sample(fn, (0.0, 0.0), 0.25, (5, 5))
        with pytest.raises(EmptyDomainError):
            discrete_laplacian_report(field, mask=lambda pts: np.zeros(len(pts), bool))


class TestSupOn:
    def test_W_sup_on_strip(self):
        # sup of W over [-1/4,1/4] x [-1,1] is cosh(2 pi), at (0, +-1)
        from oscillab.subfun import BaseW

        node = BaseW(2)
        br = sup_on(node, (-0.25, -1.0), (0.25, 1.0), 0.01)
        target = math.log(math.cosh(2 * PI))
        assert br.low == pytest.approx(target, abs=1e-3)
        assert br.low <= target <= br.high

    def test_T_zero_on_transverse_face(self):
        fn = lambda pts: eval_T(0.5, pts, 2)
        br = sup_on(fn, (0.0, 0.25), (1.0, 0.5), 0.02, lipschitz=100.0)
        assert br.low == 0.0

    def test_bracket_contains_affine_maxima(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            a = rng.uniform(-3, 3, size=2)
            b = float(rng.uniform(-1, 1))
            fn = lambda pts: pts @ a + b
            lo = rng.uniform(-2, 0, size=2)
            hi = lo + rng.uniform(0.5, 2, size=2)
            br = sup_on(fn, lo, hi, 0.2, lipschitz=float(np.linalg.norm(a)))
            corners = np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])
            true = float(np.max(corners @ a + b))
            assert br.low <= true + 1e-12
            assert br.high >= true - 1e-12


class TestContent:
    def test_unit_segment_upper_is_one(self):
        seg = SegmentShape([0.0, 0.0], [1.0, 0.0])
        for depth in (3, 5, 7):
            val = content_upper(seg, depth, box=((0.0, 0.0), (1.0, 1.0)))
            assert val == pytest.approx(1.0, rel=0.01)

    def test_empty_like_shape(self):
        seg = SegmentShape([10.0, 10.0], [11.0, 10.0])
        assert content_upper(seg, 4, box=((0.0, 0.0), (1.0, 1.0))) == 0.0

    def test_cube_face_d3_converges(self):
        class Face:
            dimension = 3

            def bounds(self):
                return np.zeros(3), np.array([1.0, 1.0, 1e-9])

            def intersects_box(self, lo, hi):
                return lo[2] <= 0.0 <= hi[2] and lo[0] < 1 and lo[1] < 1 and hi[0] > 0 and hi[1] > 0

        vals = [content_upper(Face(), depth, box=((0, 0, 0), (1, 1, 1)))
                for depth in (2, 4, 6)]
        assert vals[-1] == pytest.approx(1.0, rel=0.05)
        assert max(vals) / min(vals) < 1.5

    def test_projection_of_full_square(self):
        class Full:
            dimension = 2

            def bounds(self):
                return np.zeros(2), np.ones(2)

            def line_hits(self, origins, direction):
                return np.ones(origins.shape[0], dtype=bool)

        val = content_lower_projection(Full(), np.array([1.0, 0.0]), 256)
        assert val == pytest.approx(1.0, rel=0.02)

    def test_projection_of_point_is_zero(self):
        class Point:
            dimension = 2

            def bounds(self):
                return np.full(2, 0.5), np.full(2, 0.5) + 1e-12

            def line_hits(self, origins, direction):
                return np.zeros(origins.shape[0], dtype=bool)

        assert content_lower_projection(Point(), np.array([1.0, 0.0])) == 0.0

    def test_sandwich_on_zero_sets(self):
        # projection lower bound never exceeds the dyadic cover upper bound
        tube = TubeSpec(np.array([0.1, 0.2]), np.array([0.9, 0.7]), 0.125)
        z = ZeroSetInCube(LatticeCube((0, 0)), segment_table(tube))
        low = content_lower_projection(z, complete_frame(tube.b - tube.a)[0], 128)
        up = content_upper(z, 5, box=((0.0, 0.0), (1.0, 1.0)))
        assert low <= up + 1e-9

    def test_complement_of_thin_strip_projection(self):
        # the complement of a diameter-1/8 tube inside a unit cube projects
        # along the tube axis to measure at least 3/4
        tube = TubeSpec(np.array([-0.5, 0.5]), np.array([1.5, 0.5]), 0.125)
        z = ZeroSetInCube(LatticeCube((0, 0)), segment_table(tube))
        val = content_lower_projection(z, np.array([1.0, 0.0]), 256)
        assert val >= 0.75


class TestClassification:
    def test_slab_function_oscillates_everywhere(self):
        u = SlabOscillating(2)
        for corner in [(0, 0), (2, -1), (-4, 5)]:
            rep = classify_cube(u, LatticeCube(corner))
            assert rep.classification == "oscillating", rep

    def test_wide_branch_cube_is_rogue(self, ub5):
        # a cube strictly inside the level-5 handle tube has empty zero set
        node = ub5.level_nodes[-1]
        handle = node.field(0)  # the level's keep row
        mid = handle.anchor + 3.0 * handle.frame.rows[0]
        corner = tuple(int(math.floor(v)) for v in mid)
        rep = classify_cube(node, LatticeCube(corner))
        assert rep.classification == "rogue"
        assert not rep.p2_satisfied

    def test_leaf_cube_oscillates(self, ub5):
        node = ub5.level_nodes[-1]
        rep = classify_cube(node, LatticeCube((0, 0)))
        assert rep.classification == "oscillating"
        assert rep.p1_satisfied and rep.p2_satisfied


class TestCensus:
    def test_slab_function_census_zero(self):
        u = SlabOscillating(2)
        f_one = GrowthParameters(d=2, index=0.0)
        res = rogue_census(u, (0, 0), (4, 4), f_one)
        assert res.count == 0 and res.gamma == 0.0

    def test_zero_function_all_rogue(self):
        class Zero(FunctionNode):
            def eval_log(self, X):
                return np.full(np.atleast_2d(X).shape[0], -np.inf)

            def upper_local(self, X, slack):
                return self.eval_log(X)

        res = rogue_census(Zero(), (0, 0), (4, 4), growth(1.5))
        assert res.count == 16
        assert res.gamma == pytest.approx(16 / 4.0**1.5)

    def test_table_census_builds_no_tube_spec(self, ub5, monkeypatch):
        # the census takes each cube's tubes from the tables' own arrays,
        # for a level and for the sum of a function's orthant copies
        full, _ = assemble_full(ub5.params, 3, build_u(ub5.params, 3, guard_samples=1000))
        made = []
        post_init = TubeSpec.__post_init__
        monkeypatch.setattr(TubeSpec, "__post_init__",
                            lambda self: made.append(self) or post_init(self))
        res = rogue_census(ub5.level_nodes[3], (0, 0), (8, 8), ub5.params)
        assert res.total == 64 and made == []
        res = rogue_census(full, (-4, -4), (4, 4), ub5.params)
        assert res.total == 64 and made == []

    def test_assembled_census_symmetry(self):
        g = growth(1.5)
        u = build_u(g, 3, guard_samples=1000)
        full, _ = assemble_full(g, 3, u)
        res_pos = rogue_census(u.level_nodes[-1], (0, 0), (4, 4), g)
        res_full = rogue_census(full, (-4, -4), (4, 4), g)
        assert res_full.count == 4 * res_pos.count


class TestSupportSupPoints:
    def test_matches_per_tube_loop(self, ub5):
        table = ub5.level_nodes[3]
        lo, hi = np.array([2.0, 3.0]), np.array([9.0, 7.5])
        ts = np.linspace(0.0, 1.0, 9)
        expected = []
        for a, b in zip(table.tube_a, table.tube_b):
            seg = a[None, :] + ts[:, None] * (b - a)[None, :]
            expected.extend(seg[np.all((seg >= lo) & (seg <= hi), axis=1)])
        got = _support_sup_points(tube_ends(table), lo, hi)
        assert len(expected) > 0 and np.array_equal(got, np.array(expected))
        # a function without tubes has no ends
        assert _support_sup_points(tube_ends(SlabOscillating(2)), lo, hi).shape == (0, 2)


class TestGrowthProfile:
    def test_monotone_and_bounded(self, ub5):
        g = ub5.params
        prof = growth_profile(ub5.node, ub5.k, g, nodes_per_level=ub5.level_nodes)
        assert all(b >= a - 1e-9 for a, b in zip(prof.log_m, prof.log_m[1:]))
        assert all(lo <= hi for lo, hi in zip(prof.log_m, prof.log_m_upper))
        assert prof.max_ratio() < 100.0

    def test_denominator_specializations(self):
        # f(t) = t: D(R) grows like R; f(t) = t^1.5, d = 2: like sqrt(R) log^2 R
        f1 = GrowthParameters(d=2, index=1.0)
        vals = [lower_bound_denominator(2.0**k, f1) / 2.0**k for k in range(4, 9)]
        assert max(vals) / min(vals) < 1.05
        f2 = growth(1.5)
        vals2 = [
            lower_bound_denominator(2.0**k, f2)
            / ((2.0 ** (k * 0.5)) * math.log(2.0**k) ** 2)
            for k in range(4, 9)
        ]
        assert max(vals2) / min(vals2) < 2.0


class _Sampled(FunctionNode):
    """A table's ``eval_log`` that keeps every value it hands out.  It has
    no ``covers`` certificate, so ``zero_set_projection`` samples it."""

    def __init__(self, table):
        self.table = table
        self.values = []

    def eval_log(self, X):
        vals = self.table.eval_log(X)
        self.values.append(vals)
        return vals


def _tube_field(origin, direction, eps, cut, log_amp=0.0):
    return TubeField(Frame.along(origin, direction), eps, 2, log_amp, cut)


class TestVanishes:
    """``TubeTable.vanishes`` accepts a cube only where the function is zero
    at every point P2 samples, and the projection it then gives without
    evaluating is the sampled one."""

    @pytest.mark.parametrize("d, a, k, N", [(2, 1.5, 6, 32), (3, 2.0, 4, 8)])
    def test_lemma_cubes_project_as_sampled(self, d, a, k, N):
        # the cubes of the lemma's box [-N/2, N/2)^d, as ``lemma --E
        # function:F`` classifies them for F from ``build --k (k - 1)``
        u = build_u(growth(a, d=d), k, guard_samples=1000).node
        vanishing = 0
        for corner in np.ndindex(*(N,) * d):
            cube = LatticeCube(tuple(int(c) - N // 2 for c in corner))
            if not u.vanishes(*cube.bounds()):
                continue
            vanishing += 1
            ends = near_tube_ends(u, cube)
            for eps_d in (0.25, math.inf):
                sampled = _Sampled(u)
                want = zero_set_projection(sampled, cube, ends, eps_d)
                assert np.all(np.concatenate(sampled.values) == -np.inf), cube.corner
                got = zero_set_projection(u, cube, ends, eps_d)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert N**d // 2 < vanishing < N**d

    def test_zero_amplitude_rows_vanish(self):
        lo, hi = np.array([2.0, 0.0]), np.array([3.0, 1.0])
        far = (np.array([40.0, 0.0]), np.array([41.0, 1.0]))
        for log_amp, vanishes in ((0.0, False), (-np.inf, True)):
            rows = FieldRows(2)
            rows.add(_tube_field([0.0, 0.5], [1.0, 0.0], 4.0, 20.0, log_amp=log_amp))
            table = rows.table()
            assert table.vanishes(lo, hi) is vanishes
            assert table.vanishes(*far)
        assert SlabOscillating(2).vanishes(np.zeros(2), np.ones(2)) is False


class TestCovers:
    """``TubeTable.covers`` accepts a cube only where the function is
    positive at every point P2 would sample."""

    @staticmethod
    def _accepted_positive(table, k):
        """The census cubes of [0, 2^k)^d that ``covers`` accepts, after
        checking that the function is finite at every sample of every P2
        axis there, so that sampling gives the projection 0.0 as well."""
        cubes = [c for c in enumerate_basic_cubes((0,) * table.d, (2**k,) * table.d)
                 if table.covers(*c.bounds())]
        for cube in cubes:
            u = _Sampled(table)
            # an infinite threshold samples every axis
            proj = zero_set_projection(u, cube, near_tube_ends(table, cube), math.inf)
            vals = np.concatenate(u.values)
            assert vals.size and np.all(np.isfinite(vals)), cube.corner
            assert proj == 0.0
        return cubes

    @pytest.mark.parametrize("d, a, levels", [(2, 1.5, (3, 4, 5)), (3, 2.0, (2, 3))])
    def test_accepted_cubes_positive_at_every_sample(self, d, a, levels):
        built = build_u(growth(a, d=d), max(levels) + 1, guard_samples=1000)
        for k in levels:
            assert self._accepted_positive(built.level_nodes[k], k)

    def test_guards_decide_under_a_zero_handle(self, ub5):
        # with the level's handle at zero amplitude its guard is a zero
        # set inside the wide rows below it, which only the guard test sees
        for k in (3, 4):
            rows = TableBuilder(2)
            rows.extend(ub5.level_nodes[k], np.eye(2), np.zeros(2))
            table = rows.table()
            table.log_amp[0] = -np.inf
            assert self._accepted_positive(table, k)

    def test_refuses_a_keeps_guard(self):
        # a wide row covering the cube, below a thin keep of zero amplitude
        # whose guard crosses it: the function is zero on the guard
        wide = _tube_field([0.0, 0.5], [1.0, 0.0], 4.0, 20.0)
        keep = _tube_field([10.5, -5.0], [0.0, 1.0], 0.05, 10.0, log_amp=-np.inf)
        alone = FieldRows(2)
        alone.add(wide)
        guarded = FieldRows(2)
        guarded.add(wide, (guarded.add(keep),))
        lo, hi = np.array([10.0, 0.0]), np.array([11.0, 1.0])
        assert alone.table().covers(lo, hi)
        table = guarded.table()
        assert not table.covers(lo, hi)
        assert table.eval_log([[10.5, 0.5]])[0] == -np.inf

    def test_refuses_the_cut_face(self):
        lo, hi = np.array([10.0, 0.0]), np.array([11.0, 1.0])
        for cut, accepted in ((20.0, True), (10.5, False)):
            rows = FieldRows(2)
            rows.add(_tube_field([0.0, 0.5], [1.0, 0.0], 4.0, cut))
            assert rows.table().covers(lo, hi) is accepted

    def test_refuses_the_wall_layer(self):
        # the cube lies in the row's support, 0.1 <= x_1 <= 1.1, where
        # T = cosh(pi x_1 / 4) cos(pi x_2 / 4) dips below one at its corners
        rows = FieldRows(2)
        rows.add(_tube_field([-0.1, 0.5], [1.0, 0.0], 4.0, 20.0))
        table = rows.table()
        assert not table.covers(np.zeros(2), np.ones(2))
        assert table.eval_log([[0.0, 0.0]])[0] == -np.inf
        assert table.covers(np.array([2.0, 0.0]), np.array([3.0, 1.0]))

    def test_accepts_the_wide_branch_cube(self, ub5):
        node = ub5.level_nodes[-1]
        handle = node.field(0)
        mid = handle.anchor + 3.0 * handle.frame.rows[0]
        cube = LatticeCube(tuple(int(math.floor(v)) for v in mid))
        assert node.covers(*cube.bounds())

    def test_slab_function_has_no_certificate(self):
        assert SlabOscillating(2).covers(np.zeros(2), np.ones(2)) is False
