import dataclasses
import math

import numpy as np
import pytest

import frozen_tubes
from frozen_tubes import FieldRows
from slab_function import SlabOscillating
from oscillab.cli import main
from oscillab.geometry import LatticeCube, enumerate_basic_cubes
from oscillab.potential import SegmentShape, SphereShape
from oscillab.mainlemma import RogueConfiguration
from oscillab.subfun import Frame, TableBuilder, TubeField, TubeTable, build_u, eval_T
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
    rogue_census,
    sup_on,
    lower_bound_denominator,
    zero_set_projection,
    _support_sup_points,
)


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


class _ZeroSetCells(ZeroSetInCube):
    """A zero set that ``content_upper`` can cover: a cell meets it when one
    of its corners or its centre, clipped to the cube, is a zero point."""

    def intersects_box(self, lo, hi):
        lo = np.maximum(np.asarray(lo, dtype=float), self._lo)
        hi = np.minimum(np.asarray(hi, dtype=float), self._hi)
        if np.any(hi <= lo):
            return False
        corners = np.array([
            [lo[i] if not (j >> i) & 1 else hi[i] for i in range(len(lo))]
            for j in range(2 ** len(lo))
        ])
        center = (lo + hi) / 2.0
        return bool(self._free(np.vstack([corners, center[None, :]])).any())


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
    def test_one_row_table_bracket(self):
        # the bracket holds the maximum over a dense grid of the box
        rows = FieldRows(2)
        rows.add(_tube_field([0.0, 0.5], [1.0, 0.0], 4.0, 20.0))
        table = rows.table()
        lo, hi = np.array([2.0, 0.0]), np.array([3.0, 1.0])
        br = sup_on(table, lo, hi, 0.1)
        axes = [np.linspace(a, b, 201) for a, b in zip(lo, hi)]
        dense = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        top = np.max(table.eval_log(dense))
        assert np.isfinite(top)
        assert br.low <= top <= br.high


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
        table = segment_table(tube)
        z = _ZeroSetCells(table, table.box_rows(*LatticeCube((0, 0)).bounds()))
        assert not z._whole
        low = content_lower_projection(z, complete_frame(tube.b - tube.a)[0], 128)
        up = content_upper(z, 5, box=((0.0, 0.0), (1.0, 1.0)))
        assert low <= up + 1e-9

    def test_complement_of_thin_strip_projection(self):
        # the complement of a diameter-1/8 tube inside a unit cube projects
        # along the tube axis to measure at least 3/4
        tube = TubeSpec(np.array([-0.5, 0.5]), np.array([1.5, 0.5]), 0.125)
        table = segment_table(tube)
        z = ZeroSetInCube(table, table.box_rows(*LatticeCube((0, 0)).bounds()))
        assert not z._whole
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
        # a table whose every row has amplitude zero (log amplitude -inf)
        rows = FieldRows(2)
        rows.add(_tube_field([0.0, 2.0], [1.0, 0.0], 4.0, 20.0, log_amp=-np.inf))
        res = rogue_census(rows.table(), (0, 0), (4, 4), growth(1.5))
        assert res.count == 16
        assert res.gamma == pytest.approx(16 / 4.0**1.5)

    def test_table_census_builds_no_tube_spec(self, ub5, monkeypatch):
        # the census takes each cube's tubes from the table's own arrays
        made = []
        post_init = TubeSpec.__post_init__
        monkeypatch.setattr(TubeSpec, "__post_init__",
                            lambda self: made.append(self) or post_init(self))
        res = rogue_census(ub5.level_nodes[3], (0, 0), (8, 8), ub5.params)
        assert res.total == 64 and made == []


def _count_lookups(monkeypatch):
    """Count the row lookups (``TubeTable._candidates`` calls) made outside
    evaluation; returns the counter, a one-element list."""
    depth, lookups = [0], [0]

    def evaluating(method):
        def run(self, *args):
            depth[0] += 1
            try:
                return method(self, *args)
            finally:
                depth[0] -= 1
        return run

    for name in ("eval_log", "upper_local", "max_log"):
        monkeypatch.setattr(TubeTable, name, evaluating(getattr(TubeTable, name)))
    candidates = TubeTable._candidates

    def counted(self, *args):
        lookups[0] += depth[0] == 0
        return candidates(self, *args)

    monkeypatch.setattr(TubeTable, "_candidates", counted)
    return lookups


class TestBoxRows:
    """``TubeTable.box_rows`` is each cube's one row lookup and the table's
    only row query, and its rows are those within each radius of the
    cube's centre by the distance to every row (``frozen_tubes.near``)."""

    def test_one_lookup_per_cube(self, ub5, monkeypatch):
        lookups = _count_lookups(monkeypatch)
        res = rogue_census(ub5.level_nodes[3], (0, 0), (8, 8), ub5.params)
        assert res.total == 64 and lookups == [64]
        lookups[0] = 0
        RogueConfiguration.from_function(ub5.node, 8, 2, c0=0.9)
        assert lookups == [64]
        assert not hasattr(TubeTable, "near")

    def test_verify_looks_each_cube_up_once(self, tmp_path, monkeypatch):
        # verify on build --k 4: one lookup for each of the census's 256
        # cubes, and none more for its nonbranch check, which reads the
        # census's reports
        assert main(["build", "--d", "2", "--f", "t^1.5", "--k", "4",
                     "--out", str(tmp_path)]) == 0
        lookups = _count_lookups(monkeypatch)
        assert main(["verify", "--function", str(tmp_path / "function.json"),
                     "--out", str(tmp_path)]) == 0
        assert lookups == [256]

    @pytest.mark.parametrize("level, lo, hi", [
        (3, (0, 0), (16, 16)), (4, (-8, -8), (8, 8)), (4, (0, 0), (32, 32)),
        (None, (-4, -4), (20, 20))])
    def test_rows_are_near_at_both_radii(self, ub5, level, lo, hi):
        # level None: the tree-set view, every row but row 0
        table = (ub5.node.span(1, len(ub5.node)) if level is None
                 else ub5.level_nodes[level])
        for cube in enumerate_basic_cubes(lo, hi):
            lo_c, hi_c = cube.bounds()
            box = table.box_rows(lo_c, hi_c)
            centre, r = (lo_c + hi_c) / 2.0, math.sqrt(2) / 2.0
            assert np.array_equal(box.near, frozen_tubes.near(table, centre, r))
            assert np.array_equal(box.rows,
                                  frozen_tubes.near(table, centre, r + table._margin32))
            live = np.isfinite(table.log_amp[box.rows] + table.log_c[box.rows])
            assert box.vanishes == (not live.any())


class TestSupportSupPoints:
    def test_matches_per_tube_loop(self, ub5):
        table = ub5.level_nodes[3]
        lo, hi = np.array([2.0, 3.0]), np.array([9.0, 7.5])
        ts = np.linspace(0.0, 1.0, 9)
        expected = []
        for a, b in zip(table.tube_a, table.tube_b):
            seg = a[None, :] + ts[:, None] * (b - a)[None, :]
            expected.extend(seg[np.all((seg >= lo) & (seg <= hi), axis=1)])
        got = _support_sup_points((table.tube_a, table.tube_b), lo, hi)
        assert len(expected) > 0 and np.array_equal(got, np.array(expected))

    @pytest.mark.parametrize("edge", [1.0, 3.0, 16.0])
    def test_box_rows_hold_every_sample(self, ub5, edge):
        # chain_contraction's boxes take the samples of their box_rows only
        table = ub5.node
        rng = np.random.default_rng(5)
        sampled = 0
        for lo in rng.integers(-4, 32, size=(40, 2)).astype(float):
            hi = lo + edge
            rows = table.box_rows(lo, hi).rows
            want = _support_sup_points((table.tube_a, table.tube_b), lo, hi)
            got = _support_sup_points((table.tube_a[rows], table.tube_b[rows]), lo, hi)
            assert np.array_equal(got, want)
            sampled += len(want) > 0
        assert sampled > 10


class TestGrowthProfile:
    def test_monotone_and_bounded(self, ub5):
        g = ub5.params
        prof = growth_profile(ub5.level_nodes, g)
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


class _Sampled:
    """A table's ``eval_log`` that keeps every value it hands out, with its
    rows.  It has no ``covers`` or ``vanishes`` certificate, so
    ``zero_set_projection`` samples it."""

    def __init__(self, table):
        self.table = table
        self.tube_a, self.tube_b = table.tube_a, table.tube_b
        self.values = []

    def eval_log(self, X):
        vals = self.table.eval_log(X)
        self.values.append(vals)
        return vals

    def covers(self, box):
        return False

    @staticmethod
    def uncertified(box):
        """``box`` with its ``vanishes`` certificate taken away."""
        return dataclasses.replace(box, vanishes=False)


def _covers(table, lo, hi):
    return table.covers(table.box_rows(lo, hi))


def _tube_field(origin, direction, eps, cut, log_amp=0.0):
    return TubeField(Frame.along(origin, direction), eps, 2, log_amp, cut)


class TestVanishes:
    """``BoxRows.vanishes`` accepts a cube only where the function is zero
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
            box = u.box_rows(*cube.bounds())
            if not box.vanishes:
                continue
            vanishing += 1
            for eps_d in (0.25, math.inf):
                sampled = _Sampled(u)
                want = zero_set_projection(sampled, sampled.uncertified(box), eps_d)
                assert np.all(np.concatenate(sampled.values) == -np.inf), cube.corner
                got = zero_set_projection(u, box, eps_d)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert N**d // 2 < vanishing < N**d

    def test_zero_amplitude_rows_vanish(self):
        lo, hi = np.array([2.0, 0.0]), np.array([3.0, 1.0])
        far = (np.array([40.0, 0.0]), np.array([41.0, 1.0]))
        for log_amp, vanishes in ((0.0, False), (-np.inf, True)):
            rows = FieldRows(2)
            rows.add(_tube_field([0.0, 0.5], [1.0, 0.0], 4.0, 20.0, log_amp=log_amp))
            table = rows.table()
            assert table.box_rows(lo, hi).vanishes is vanishes
            assert table.box_rows(*far).vanishes


class TestCovers:
    """``TubeTable.covers`` accepts a cube only where the function is
    positive at every point P2 would sample."""

    @staticmethod
    def _accepted_positive(table, k):
        """The census cubes of [0, 2^k)^d that ``covers`` accepts, after
        checking that the function is finite at every sample of every P2
        axis there, so that sampling gives the projection 0.0 as well."""
        boxes = {c: table.box_rows(*c.bounds())
                 for c in enumerate_basic_cubes((0,) * table.d, (2**k,) * table.d)}
        cubes = [c for c, box in boxes.items() if table.covers(box)]
        for cube in cubes:
            u = _Sampled(table)
            # an infinite threshold samples every axis
            proj = zero_set_projection(u, u.uncertified(boxes[cube]), math.inf)
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
        assert _covers(alone.table(), lo, hi)
        table = guarded.table()
        assert not _covers(table, lo, hi)
        assert table.eval_log([[10.5, 0.5]])[0] == -np.inf

    def test_refuses_the_cut_face(self):
        lo, hi = np.array([10.0, 0.0]), np.array([11.0, 1.0])
        for cut, accepted in ((20.0, True), (10.5, False)):
            rows = FieldRows(2)
            rows.add(_tube_field([0.0, 0.5], [1.0, 0.0], 4.0, cut))
            assert _covers(rows.table(), lo, hi) is accepted

    def test_refuses_the_wall_layer(self):
        # the cube lies in the row's support, 0.1 <= x_1 <= 1.1, where
        # T = cosh(pi x_1 / 4) cos(pi x_2 / 4) dips below one at its corners
        rows = FieldRows(2)
        rows.add(_tube_field([-0.1, 0.5], [1.0, 0.0], 4.0, 20.0))
        table = rows.table()
        assert not _covers(table, np.zeros(2), np.ones(2))
        assert table.eval_log([[0.0, 0.0]])[0] == -np.inf
        assert _covers(table, np.array([2.0, 0.0]), np.array([3.0, 1.0]))

    def test_accepts_the_wide_branch_cube(self, ub5):
        node = ub5.level_nodes[-1]
        handle = node.field(0)
        mid = handle.anchor + 3.0 * handle.frame.rows[0]
        cube = LatticeCube(tuple(int(math.floor(v)) for v in mid))
        assert _covers(node, *cube.bounds())
