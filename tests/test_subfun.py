import math

import numpy as np
import pytest

from oscillab.geometry import OrthantMap
from oscillab.treeset import GrowthParameters
from oscillab.subfun import (
    EPS1,
    BaseW,
    Frame,
    GuardedMax,
    IsometryNode,
    MaxNode,
    ScaleNode,
    SlabOscillating,
    SumNode,
    TubeField,
    TubeTable,
    assemble_full,
    build_tau,
    build_u,
    eval_L,
    eval_T,
    eval_W,
    g_threshold,
    glue_schedule,
    in_region_G,
    log_MM,
    tube_table,
)

PI = math.pi


def growth(a, d=2):
    return GrowthParameters(d=d, index=a).validate()


class TestBaseProfiles:
    def test_W_at_origin(self):
        assert eval_W([[0.0, 0.0]]) == pytest.approx(1.0)
        assert eval_W([[0.0, 0.0, 0.0]]) == pytest.approx(1.0)

    def test_W_vanishes_off_slab(self):
        pts = [[0.26, 3.0], [-0.5, 0.0], [1.0, 1.0]]
        assert np.all(eval_W(pts) == 0.0)

    def test_W_growth_value(self):
        assert eval_W([[0.0, 1.0]]) == pytest.approx(math.cosh(2 * PI), rel=1e-12)

    def test_T_at_origin(self):
        assert eval_T(0.5, [[0.0, 0.0]]) == pytest.approx(1.0)

    def test_T_vanishes_on_transverse_faces(self):
        eps = 0.5
        assert eval_T(eps, [[0.3, eps / 2]]) == 0.0
        vals = eval_T(eps, [[0.3, eps / 2 - 1e-9], [0.3, eps / 2 + 1e-9]])
        assert vals[0] < 1e-6 and vals[1] == 0.0

    def test_T_growth_value(self):
        assert eval_T(1.0, [[1.0, 0.0]]) == pytest.approx(math.cosh(PI), rel=1e-12)

    def test_L_zero_for_negative_axis(self):
        assert np.all(eval_L(1.0, [[-0.1, 0.0], [-5.0, 0.1]]) == 0.0)

    def test_L_exact_value(self):
        x = 2 * math.log(2) / PI
        # cosh(2 ln 2) = (4 + 1/4)/2 = 2.125
        assert eval_L(1.0, [[x, 0.0]]) == pytest.approx(1.125, rel=1e-12)

    def test_L_positive_floor_on_G(self):
        # On G_eps the profile satisfies T >= 1 + 2^-2d (sharp at the corner
        # x_1 = g, |x_j| = eps/3), so L > 2^-2d there; the deeper set with
        # threshold (d+1) log 2 instead of d log 2 gives L > 1.
        rng = np.random.default_rng(3)
        for d, eps in ((2, 1.0), (3, 0.5), (2, 0.125)):
            g = g_threshold(eps, d)
            pts = rng.uniform(-eps / 3, eps / 3, size=(200, d))
            pts[:, 0] = rng.uniform(g, 4 * g, size=200)
            assert np.all(in_region_G(eps, pts, d))
            assert np.all(eval_L(eps, pts, d) > 2.0 ** (-2 * d) * (1 - 1e-9))
            deep = pts.copy()
            deep[:, 0] = rng.uniform(g * (d + 1) / d, 4 * g, size=200)
            assert np.all(eval_L(eps, deep, d) > 1.0)

    def test_L_corner_floor_is_sharp(self):
        for d, eps in ((2, 1.0), (3, 0.5)):
            corner = np.zeros(d)
            corner[0] = g_threshold(eps, d)
            corner[1:] = eps / 3.0
            val = eval_L(eps, corner[None, :], d)
            assert val == pytest.approx(2.0 ** (-2 * d), rel=1e-9)

    def test_G_membership_boundaries(self):
        g = g_threshold(1.0, 2)
        assert in_region_G(1.0, [[g, 0.0]])
        assert not in_region_G(1.0, [[0.9 * g, 0.0]])
        assert not in_region_G(1.0, [[2 * g, 0.4]])


class TestGlueSchedule:
    def test_first_constant(self):
        g = growth(2.0)
        sched = glue_schedule(g, 4)
        # eps_4 = 1/2 so log(1/p_1) = pi d / eps_4 = 4 pi
        assert sched.eps_k == pytest.approx(0.25) or sched.eps_k == pytest.approx(0.5)
        assert sched.ratios[0] == pytest.approx(PI * 2 / sched.eps_k)

    def test_wide_thin_split(self):
        g = growth(1.5)
        k = 6
        sched = glue_schedule(g, k)
        s = sched.s_k
        assert len(sched.ratios) == k + 1
        assert all(r == pytest.approx(PI * 2 / sched.eps_k) for r in sched.ratios[:s])
        thin = sched.ratios[s:]
        orders = list(range(k - s, -1, -1))
        for r, i in zip(thin, orders):
            assert r == pytest.approx(PI * 2 * 2.0**i / EPS1)

    def test_log_p_ladder(self):
        sched = glue_schedule(growth(1.5), 4)
        lp = sched.log_p
        assert lp[0] == pytest.approx(-sched.ratios[0])
        diffs = [lp[i] - lp[i + 1] for i in range(len(lp) - 1)]
        assert diffs == pytest.approx(sched.ratios[1:])

    def test_growth_threshold_matches_display(self):
        # d = 2, f(t) = t^2: the threshold exponent is 8 pi (k ln 2)^2
        g = growth(2.0)
        for k in (3, 4, 6):
            assert log_MM(g, k) == pytest.approx(8 * PI * (k * math.log(2)) ** 2)

    def test_amplitudes_decrease_to_leaves(self):
        sched = glue_schedule(growth(1.5), 5)
        amps = [sched.amplitude(m) for m in range(0, 7)]
        assert amps[-1] == 0.0
        assert all(a > b for a, b in zip(amps, amps[1:]))


class TestNodes:
    def test_isometry_preserves_values_exactly(self):
        field = TubeField.junction_branch(
            np.array([0.5, 0.5]), np.array([1.0, 1.0]), 0.25, 2, 3.0, 2.0
        )
        omap = OrthantMap.from_index(3, 2)
        node = IsometryNode.orthant(field, omap)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-3, 3, size=(500, 2))
        direct = field.eval_log(omap.apply(pts))
        mapped = node.eval_log(pts)
        assert np.array_equal(direct, mapped)

    def test_scale_node(self):
        field = TubeField.junction_branch(
            np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.25, 2, 0.0, 1.0
        )
        scaled = ScaleNode(field, 2.5)
        pts = np.array([[0.7, 0.5]])
        assert scaled.eval_log(pts)[0] == pytest.approx(field.eval_log(pts)[0] + 2.5)

    def test_guarded_max_discards_inside_guard(self):
        d = 2
        keep = TubeField.junction_branch(
            np.zeros(d), np.array([1.0, 0.0]), 1.0, d, 0.0, 5.0
        )
        intr = TubeField.junction_branch(
            np.array([2.0, 0.0]), np.array([1.0, 0.0]), 1.0, d, 50.0, 5.0
        )
        gm = GuardedMax(keep, intr, keep.guard())
        # deep inside the guard region the intruder is discarded
        pt = keep.frame.from_local(np.array([[3.0, 0.0]]))
        assert gm.eval_log(pt)[0] == pytest.approx(keep.eval_log(pt)[0])
        # outside the guard the maximum applies
        pt2 = keep.frame.from_local(np.array([[3.0, 0.45]]))
        assert gm.eval_log(pt2)[0] == pytest.approx(
            max(keep.eval_log(pt2)[0], intr.eval_log(pt2)[0])
        )

    def test_upper_local_bounds_cell_sup(self):
        field = TubeField.junction_branch(
            np.array([0.5, 0.5]), np.array([1.0, 1.0]), 0.25, 2, 1.0, 2.0
        )
        rng = np.random.default_rng(5)
        centers = rng.uniform(0.0, 2.0, size=(200, 2))
        h = 0.05
        hi = field.upper_local(centers, h)
        for c, bound in zip(centers, hi):
            probe = c + rng.uniform(-h, h, size=(64, 2))
            vals = field.eval_log(probe)
            assert np.all(vals <= bound + 1e-9)

    def test_tube_field_support_matches_tube(self):
        field = TubeField.junction_branch(
            np.array([1.0, 1.0]), np.array([0.0, 1.0]), 0.5, 2, 0.0, 2.0
        )
        (tube,) = field.support_tubes()
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 4, size=(2000, 2))
        vals = field.eval_log(pts)
        inside = tube.contains(pts)
        # positive values only inside the support tube
        assert np.all(inside[np.isfinite(vals)])


class TestTauBuild:
    def test_certificates_pass(self):
        tau = build_tau(growth(1.5), 3, guard_samples=2000)
        assert all(c.passed for c in tau.checks)
        assert len(tau.checks) == 4  # trunk + generations 1..3

    def test_leaf_centerline_value(self):
        # at a leaf anchor the rescaled function equals cosh(2 d log 2) - 1
        tau = build_tau(growth(1.5), 2, guard_samples=1000)
        got = tau.node.eval_log(np.array([[0.5, 0.5]]))[0]
        assert got == pytest.approx(math.log(math.cosh(4 * math.log(2)) - 1), abs=1e-9)

    def test_at_least_one_everywhere_on_centerlines(self):
        tau = build_tau(growth(1.5), 3, guard_samples=1000)
        tubes = tau.node.support_tubes()
        for t in tubes[::7]:
            mid = 0.5 * (t.a + t.b)
            v = tau.node.eval_log(mid[None, :])[0]
            # beyond the G threshold every centerline carries value >= 1
            anchor_dist = np.linalg.norm(mid - t.a)
            if anchor_dist > 2 * g_threshold(t.diameter, 2):
                assert v >= -1e-9

    def test_zero_outside_tubes(self):
        tau = build_tau(growth(1.5), 2, guard_samples=1000)
        pts = np.array([[0.1, 0.9], [3.9, 0.1], [2.0, 0.2]])
        tubes = tau.node.support_tubes()
        for p in pts:
            if not any(t.contains(p[None, :])[0] for t in tubes):
                assert tau.node.eval_log(p[None, :])[0] == -np.inf

    def test_sup_bound_recorded(self):
        # sup over the subtree box, against the asymptotic bound
        # exp(2 pi d s_k / eps_k); at desk scale the bound fails for small k
        # and the comparison is reported, not asserted
        g = growth(1.5)
        rows = []
        for k in (2, 3):
            tau = build_tau(g, k, guard_samples=500)
            corner = np.full(2, 2.0 ** (k + 1) - 1e-9)
            sup = tau.node.eval_log(corner[None, :])[0]
            bound = 2 * PI * 2 * tau.schedule.s_k / tau.schedule.eps_k
            rows.append((k, sup, bound, sup <= bound))
        assert all(math.isfinite(r[1]) for r in rows)

    def test_skip_rescale_normalizes_trunk(self):
        tau = build_tau(growth(1.5), 2, skip_rescale=True, check_guards=False)
        # trunk amplitude is zero in the unbounded-oscillation variant
        assert tau.node.keep.log_amp == pytest.approx(0.0 + tau.trunk_inflation)


@pytest.fixture(scope="module")
def ub():
    return build_u(growth(1.5), 5, guard_samples=2000)


class TestUBuild:

    def test_all_checks_pass(self, ub):
        assert all(c.passed for c in ub.checks)

    def test_level_sups_below_threshold(self, ub):
        # property 4 at the levels where the threshold constant has taken
        # over (the small-k inflations are recorded in ub.levels)
        for j, node in enumerate(ub.level_nodes, start=1):
            if j < 3:
                continue
            box_hi = 2.0**j
            corner = np.full(2, box_hi - 1e-6)
            grid = np.linspace(0.25, box_hi - 0.25, 24)
            xx, yy = np.meshgrid(grid, grid)
            pts = np.column_stack([xx.ravel(), yy.ravel()])
            sup = max(float(np.max(node.eval_log(pts))),
                      float(node.eval_log(corner[None, :])[0]))
            assert sup <= log_MM(ub.params, j) + 1e-6, f"level {j}"

    def test_club_inequality_chain(self, ub):
        # M_j * exp(pi d / delta_(j+1)) <= M_(j+1) for the built range
        from oscillab.treeset import delta_k

        for j in range(3, ub.k):
            lhs = log_MM(ub.params, j) + PI * 2 / delta_k(ub.params, j + 1)
            assert lhs <= log_MM(ub.params, j + 1) + 1e-9

    def test_restriction_property_away_from_tips(self, ub):
        # u_(j+1) restricted to [0, 2^j)^d equals u_j away from the anchored
        # tips that poke across the box faces by the 2 g(eps) convention:
        # the next handle's tip along the diagonal, and the adjacent outer
        # subtrees' branch tips across the x = 2^j and y = 2^j faces
        for j in (2, 3):
            small = ub.level_nodes[j - 1]
            big = ub.level_nodes[j]
            handle = big.keep
            rng = np.random.default_rng(17)
            pts = rng.uniform(0.05, 2.0**j - 2.5, size=(4000, 2))
            sel = ~(handle.eval_log(pts) > -np.inf)
            a = small.eval_log(pts[sel])
            b = big.eval_log(pts[sel])
            both_zero = np.isneginf(a) & np.isneginf(b)
            assert np.all((a == b) | both_zero)

    def test_tip_pokes_are_shallow(self, ub):
        # whatever differs between consecutive levels inside the smaller box
        # lies within tip reach of its outer faces or the handle tube
        j = 3
        small, big = ub.level_nodes[j - 1], ub.level_nodes[j]
        handle = big.keep
        rng = np.random.default_rng(19)
        pts = rng.uniform(0.05, 2.0**j - 0.05, size=(6000, 2))
        a = small.eval_log(pts)
        b = big.eval_log(pts)
        differs = ~((a == b) | (np.isneginf(a) & np.isneginf(b)))
        near_handle = handle.eval_log(pts) > -np.inf
        near_face = np.max(pts, axis=1) > 2.0**j - 2.5
        assert np.all(~differs | near_handle | near_face)

    def test_levels_metadata(self, ub):
        assert [l.j for l in ub.levels] == [1, 2, 3, 4]
        for l in ub.levels:
            assert l.amplitude >= l.log_M - 1e-12
            if not l.inflated:
                assert l.amplitude == pytest.approx(l.log_M)


@pytest.fixture(scope="module")
def assembled():
    g = growth(1.5)
    u = build_u(g, 3, guard_samples=1000)
    full, _ = assemble_full(g, 3, u)
    return full


class TestAssembleFull:

    def test_orthant_symmetry(self, assembled):
        rng = np.random.default_rng(23)
        pts = rng.uniform(-7, 7, size=(300, 2))
        base = assembled.eval_log(pts)
        for j in range(4):
            m = OrthantMap.from_index(j, 2)
            assert np.allclose(
                assembled.eval_log(np.array([m.apply(p) for p in pts])),
                base, atol=1e-9, equal_nan=True,
            )

    def test_zero_on_hyperplanes_outside_tubes(self, assembled):
        tubes = assembled.support_tubes()
        rng = np.random.default_rng(29)
        pts = np.zeros((200, 2))
        pts[:, 1] = rng.uniform(-7.5, 7.5, size=200)
        vals = assembled.eval_log(pts)
        for p, v in zip(pts, vals):
            covered = any(t.contains(p[None, :])[0] for t in tubes)
            if not covered:
                assert v == -np.inf


class TestSlabOscillating:
    def test_sup_at_least_one_per_cube(self):
        u = SlabOscillating(2)
        for corner in [(0, 0), (3, -2), (-5, 7)]:
            c = np.asarray(corner, dtype=float)
            pts = c + np.random.default_rng(1).uniform(0, 1, size=(400, 2))
            pts = np.vstack([pts, c + 0.0 + np.array([[0.0, 0.5]])])
            assert np.max(u.eval_log(pts)) >= -1e-12

    def test_zero_band(self):
        u = SlabOscillating(2)
        pts = np.array([[0.5, 0.5], [0.4, 0.6], [3.5, -1.5]])
        assert np.all(u.eval_log(pts) == -np.inf)


def _same_tubes(a, b):
    return len(a) == len(b) and all(
        np.array_equal(s.a, t.a) and np.array_equal(s.b, t.b)
        and (s.diameter, s.generation, s.kind) == (t.diameter, t.generation, t.kind)
        for s, t in zip(a, b))


@pytest.fixture(scope="module")
def ub3d():
    return build_u(growth(2.0, d=3), 3, guard_samples=1000)


class TestTubeTable:
    """The compiled table against the node tree it was built from."""

    @staticmethod
    def _check_against_tree(node, pts):
        table = TubeTable(node)
        tree, flat = node.eval_log(pts), table.eval_log(pts)
        finite = np.isfinite(tree)
        assert finite.any() and not finite.all()
        assert np.array_equal(finite, np.isfinite(flat))
        assert np.allclose(flat[finite], tree[finite], rtol=1e-12, atol=0.0)
        for slack in (0.0625, 0.5):
            up = table.upper_local(pts, slack)
            assert np.all(up >= flat)
            assert np.all(up <= node.upper_local(pts, slack) + 1e-12)
        assert _same_tubes(table.support_tubes(), node.support_tubes())

    def test_matches_tree_d2(self, ub):
        rng = np.random.default_rng(31)
        for j, node in enumerate(ub.level_nodes, start=1):
            # the box of the level and a margin around it
            self._check_against_tree(node, rng.uniform(-2.0, 2.0**j + 2.0, size=(100_000, 2)))

    def test_matches_tree_d3(self, ub3d):
        rng = np.random.default_rng(37)
        for j, node in enumerate(ub3d.level_nodes, start=1):
            self._check_against_tree(node, rng.uniform(-1.0, 2.0**j + 1.0, size=(100_000, 3)))

    def test_batch_independent(self, ub):
        table = TubeTable(ub.level_nodes[-1])
        pts = np.random.default_rng(41).uniform(-1.0, 33.0, size=(100_000, 2))
        for evaluate in (table.eval_log, lambda x: table.upper_local(x, 0.25)):
            whole = evaluate(pts)
            chunked = np.concatenate([evaluate(pts[i:i + 2000])
                                      for i in range(0, len(pts), 2000)])
            assert np.array_equal(chunked, whole)
            single = np.array([evaluate(pts[i:i + 1])[0] for i in range(500)])
            assert np.array_equal(single, whole[:500])

    @pytest.mark.parametrize("d, a, k, levels", [(2, 1.5, 6, (3, 4, 5)), (3, 2.0, 4, (2, 3))])
    def test_near_matches_tube_distance(self, d, a, k, levels):
        # near(c, r) at every unit-cube centre against TubeSpec.distance
        # of every support tube, up to the rounding of the two frames
        built = build_u(growth(a, d=d), k, guard_samples=1000)
        r = math.sqrt(d) / 2.0
        for level in levels:
            table = TubeTable(built.level_nodes[level])
            centres = np.array(list(np.ndindex(*(2**level,) * d))) + 0.5
            dist = np.array([t.distance(centres) for t in table.support_tubes()])
            for c, col in zip(centres, dist.T):
                rows = table.near(c, r)
                assert np.all(np.diff(rows) > 0)
                assert set(np.flatnonzero(col <= r - 1e-12)) <= set(rows.tolist())
                assert np.all(col[rows] <= r + 1e-12)

    def test_non_finite_points_are_zero(self, ub):
        table = TubeTable(ub.level_nodes[-1])
        pts = np.array([[np.nan, 1.0], [np.inf, 2.0], [1.5, 1.5]])
        vals = table.eval_log(pts)
        assert np.all(vals[:2] == -np.inf)
        assert vals[2] == table.eval_log(pts[2:])[0]

    def test_other_functions_pass_through(self, assembled):
        slab = SlabOscillating(2)
        assert tube_table(slab) is slab
        assert isinstance(assembled, SumNode) and tube_table(assembled) is assembled
        keep = TubeField(Frame.along([0.0, 0.0], [1.0, 0.0]), 0.4, 2, 1.0, 3.0)
        branch = TubeField(Frame.along([0.5, 0.0], [1.0, 0.0]), 0.2, 2, 0.0, 1.0)
        foreign = GuardedMax(keep, branch, branch.guard())
        assert tube_table(foreign) is foreign
        own = GuardedMax(keep, branch, keep.guard())
        table = tube_table(own)
        assert isinstance(table, TubeTable) and tube_table(table) is table
