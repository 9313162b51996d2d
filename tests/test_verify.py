import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import frozen_tubes
from frozen_tubes import FieldRows
from slab_function import SlabOscillating
from oscillab.cli import main
from oscillab.geometry import LatticeCube, enumerate_basic_cubes
from oscillab.potential import CellUnionShape, SegmentShape, SphereShape, default_claim_family
from oscillab.mainlemma import RogueConfiguration
from oscillab.subfun import (BoxRows, Frame, TableBuilder, TubeField, TubeTable,
                             build_u, eval_T)
from oscillab.treeset import GrowthParameters, complete_frame
from oscillab.verify import (
    LINE_COARSE,
    LINE_STEPS,
    SAMPLE_BATCH,
    EmptyDomainError,
    GridField,
    ZeroSetInCube,
    classify_cube,
    classify_cubes,
    content_lower_projection,
    content_upper,
    discrete_laplacian_report,
    growth_profile,
    laplacian_refinement_study,
    rogue_census,
    sup_on,
    lower_bound_denominator,
    zero_set_projection,
    _box_samples,
)


def segment_table(a, b, diameter):
    """A one-row table of the segment [a, b] and the diameter: its support,
    and so its complement in the zero set, lies inside the tube of that
    diameter around the segment."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rows = FieldRows(len(a))
    rows.add(TubeField(Frame.along(a, b - a), diameter, len(a), 0.0,
                       float(np.linalg.norm(b - a))))
    return rows.table()


def _same_float(a, b) -> bool:
    return type(a) is float and np.float64(a).tobytes() == np.float64(b).tobytes()


def growth(a, d=2):
    return GrowthParameters(d=d, index=a).validate()


class _ZeroSetCells(ZeroSetInCube):
    """A zero set that ``content_upper`` can cover: a cell meets it when one
    of its corners or its centre, clipped to the cube, is a zero point."""

    def intersects_boxes(self, lo, hi):
        cube_lo, cube_hi = self.bounds()
        lo = np.maximum(lo, cube_lo)
        hi = np.minimum(hi, cube_hi)
        d = lo.shape[1]
        # the 2^d corners of each box, then its centre
        pick = np.array(list(np.ndindex(*(2,) * d)), dtype=bool)
        pts = np.concatenate([np.where(pick[None], hi[:, None], lo[:, None]),
                              ((lo + hi) / 2.0)[:, None]], axis=1)
        zero = ~np.isfinite(self.fn.eval_log(pts.reshape(-1, d)))
        return np.all(hi > lo, axis=1) & zero.reshape(len(lo), -1).any(axis=1)


def _intersects_box(shape, lo, hi):
    """``Shape.intersects_box`` as it was: one box, the diagonal by
    ``np.linalg.norm``."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    center = (lo + hi) / 2.0
    r = float(np.linalg.norm(hi - lo)) / 2.0
    return float(shape.distance(center[None, :])[0]) <= r


def _content_upper_rec(shape, depth, box=None, intersects=None):
    """The depth-first ``content_upper`` as it was, one cell per query,
    the reference that the level-by-level version must match bit for bit."""
    intersects = intersects or (lambda lo, hi: _intersects_box(shape, lo, hi))
    d = shape.dimension
    if box is None:
        lo, hi = shape.bounds()
        edge = float(np.max(hi - lo))
        edge = 2.0 ** math.ceil(math.log2(max(edge, 1e-12)))
    else:
        lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
        edge = float(np.max(hi - lo))
    lo = np.asarray(lo, dtype=float)

    def rec(cell_lo, cell_edge, depth_left):
        if not intersects(cell_lo, cell_lo + cell_edge):
            return 0.0
        own = cell_edge ** (d - 1)
        if depth_left == 0:
            return own
        half = cell_edge / 2.0
        total = 0.0
        for offs in np.ndindex(*(2,) * d):
            total += rec(cell_lo + np.asarray(offs) * half, half, depth_left - 1)
            if total >= own:
                return own
        return min(own, total)

    return rec(lo, edge, depth)


class _Counted:
    """A shape that counts its ``intersects_boxes`` calls."""

    def __init__(self, shape):
        self.shape = shape
        self.dimension = shape.dimension
        self.calls = 0

    def bounds(self):
        return self.shape.bounds()

    def intersects_boxes(self, lo, hi):
        self.calls += 1
        return self.shape.intersects_boxes(lo, hi)


def _content_shapes():
    shapes = list(default_claim_family(2))
    shapes.append(("sphere_d3", SphereShape(0.25, center=[0.1, -0.2, 0.05], d=3)))
    shapes.append(("segment_d3", SegmentShape([0.1, 0.2, -0.3], [-0.2, 0.1, 0.25])))
    shapes.append(("cells_d3", CellUnionShape([(0, 0, 0), (1, 1, 0), (1, 0, 1)], 0.125,
                                              origin=np.array([-0.1, 0.05, -0.2]), d=3)))
    return shapes


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

            def intersects_boxes(self, lo, hi):
                return ((lo[:, 2] <= 0.0) & (0.0 <= hi[:, 2]) & (lo[:, 0] < 1) & (lo[:, 1] < 1)
                        & (hi[:, 0] > 0) & (hi[:, 1] > 0))

        face = Face()
        vals = [content_upper(face, depth, box=((0, 0, 0), (1, 1, 1)))
                for depth in (2, 4, 6)]
        one = lambda lo, hi: bool(face.intersects_boxes(lo[None], hi[None])[0])
        for depth, val in zip((2, 4, 6), vals):
            assert _same_float(val, _content_upper_rec(face, depth, ((0, 0, 0), (1, 1, 1)), one))
        assert vals[-1] == pytest.approx(1.0, rel=0.05)
        assert max(vals) / min(vals) < 1.5

    @pytest.mark.parametrize("label,shape", _content_shapes(),
                             ids=[label for label, _ in _content_shapes()])
    def test_levels_match_recursion(self, label, shape):
        d = shape.dimension
        depths = range(1, 8) if d == 2 else range(1, 6)
        # edges 1 and 0.7: with the latter the worths are not dyadic, so the
        # order of the children's sums shows in the bits
        boxes = [None, (np.full(d, -0.5), np.full(d, 0.5)), (np.full(d, -0.35), np.full(d, 0.35))]
        for depth in depths:
            for box in boxes:
                counted = _Counted(shape)
                got = content_upper(counted, depth, box=box)
                assert _same_float(got, _content_upper_rec(shape, depth, box=box))
                # one query per dyadic level
                assert counted.calls <= depth + 1

    @pytest.mark.parametrize("label,shape", _content_shapes(),
                             ids=[label for label, _ in _content_shapes()])
    def test_intersects_boxes_match_per_box(self, label, shape):
        d = shape.dimension
        rng = np.random.default_rng(21)
        lo = rng.uniform(-0.7, 0.6, size=(3000, d))
        side = np.exp(rng.uniform(np.log(1e-6), np.log(0.5), size=(3000, 1)))
        for hi in (lo + side, lo + side * rng.uniform(0.5, 1.0, size=(3000, d))):
            got = shape.intersects_boxes(lo, hi)
            want = [_intersects_box(shape, a, b) for a, b in zip(lo, hi)]
            assert got.dtype == bool and got.tolist() == want
            assert got.any() and not got.all()

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
        a, b = np.array([0.1, 0.2]), np.array([0.9, 0.7])
        table = segment_table(a, b, 0.125)
        z = _ZeroSetCells(table, table.box_rows((0.0, 0.0), (1.0, 1.0)))
        assert not z._whole[0]
        low = content_lower_projection(z, complete_frame(b - a)[0], 128)
        up = content_upper(z, 5, box=((0.0, 0.0), (1.0, 1.0)))
        assert low <= up + 1e-9
        one = lambda lo, hi: bool(z.intersects_boxes(lo[None], hi[None])[0])
        assert _same_float(up, _content_upper_rec(z, 5, ((0.0, 0.0), (1.0, 1.0)), one))

    def test_complement_of_thin_strip_projection(self):
        # the complement of a diameter-1/8 tube inside a unit cube projects
        # along the tube axis to measure at least 3/4
        table = segment_table([-0.5, 0.5], [1.5, 0.5], 0.125)
        z = ZeroSetInCube(table, table.box_rows((0.0, 0.0), (1.0, 1.0)))
        assert not z._whole[0]
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
        mid = node.anchored_tubes()[0][0] + 3.0 * handle.frame.rows[0]
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

    def test_no_cubes(self):
        assert classify_cubes(build_u(growth(1.5), 2).node, np.zeros((0, 2), np.int64)) == []

    def test_zero_function_all_rogue(self):
        # a table whose every row has amplitude zero (log amplitude -inf)
        rows = FieldRows(2)
        rows.add(_tube_field([0.0, 2.0], [1.0, 0.0], 4.0, 20.0, log_amp=-np.inf))
        res = rogue_census(rows.table(), (0, 0), (4, 4), growth(1.5))
        assert res.count == 16
        assert res.gamma == pytest.approx(16 / 4.0**1.5)


def _same_report(report, frozen):
    """Two reports alike bit for bit."""
    assert (report.cube, report.p1_satisfied, report.p2_satisfied, report.classification) == (
        frozen.cube, frozen.p1_satisfied, frozen.p2_satisfied, frozen.classification)
    for name in ("sup_low", "projection", "widest"):
        assert (np.float64(getattr(report, name)).tobytes()
                == np.float64(getattr(frozen, name)).tobytes()), (report.cube, name)


@pytest.fixture(scope="module")
def ub6():
    return build_u(growth(1.5), 6)


class TestCensusOracle:
    """``classify_cubes``, which classifies a level's cubes together,
    against the per-cube path it replaced (``frozen_tubes.classify_cube``),
    report by report and bit for bit."""

    @pytest.mark.parametrize("d, k", [(2, 3), (2, 4), (2, 5), (3, 2), (3, 3)])
    def test_census_reports(self, ub5, ub6, d, k):
        table = ((ub5 if k < 5 else ub6).level_nodes[k] if d == 2
                 else build_u(growth(2.0, d=3), 4, guard_samples=1000).level_nodes[k])
        res = rogue_census(table, (0,) * d, (2**k,) * d, growth(1.5))
        assert res.total == 2 ** (d * k) and 0 < res.count < res.total
        for report in res.reports:
            _same_report(report, frozen_tubes.classify_cube(table, report.cube))

    def test_function_rogue_set(self, ub6):
        # the lemma's E for --E function: at N = 32 on build --k 5
        N, u = 32, ub6.node
        want = set()
        for corner in np.ndindex(N, N):
            lo = np.array(corner, dtype=float) - N // 2
            _rows, near, whole = frozen_tubes.box_rows(u, lo, lo + 1.0)
            if frozen_tubes.zero_set_projection(u, lo, lo + 1.0, near, whole, 0.25) < 0.25:
                want.add(tuple(int(c) for c in lo))
        assert len(want) == 99
        assert RogueConfiguration.from_function(u, N, 2, c0=0.5).E == want

    def test_line_hit_only_at_a_fine_sample(self):
        # one wide row along x_1 cut at x_1 = 0.99: the cube's zero set is
        # the slab 0.99 < x_1 <= 1, where a line along x_1 has one sample,
        # its last, which the coarse stage does not take
        assert (LINE_STEPS - 1) % LINE_COARSE
        rows = FieldRows(2)
        rows.add(_tube_field([-2.0, 0.5], [1.0, 0.0], 4.0, 2.99))
        table = rows.table()
        line = np.column_stack([np.linspace(0.0, 1.0, LINE_STEPS), np.full(LINE_STEPS, 0.5)])
        assert np.isinf(table.eval_log(line)).tolist() == [False] * (LINE_STEPS - 1) + [True]
        report = classify_cube(table, LatticeCube((0, 0)))
        _same_report(report, frozen_tubes.classify_cube(table, (0, 0)))
        assert report.p2_satisfied and report.projection == pytest.approx(1.0)


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
    """``TubeTable.box_rows`` is a level's one row lookup and the table's
    only row query, and its rows are those within each radius of each
    cube's centre by the distance to every row (``frozen_tubes.near``)."""

    def test_one_lookup_per_level(self, ub5, monkeypatch):
        lookups = _count_lookups(monkeypatch)
        res = rogue_census(ub5.level_nodes[3], (0, 0), (8, 8), ub5.params)
        assert res.total == 64 and lookups == [1]
        lookups[0] = 0
        RogueConfiguration.from_function(ub5.node, 8, 2, c0=0.9)
        assert lookups == [1]
        assert not hasattr(TubeTable, "near")

    def test_verify_looks_the_level_up_once(self, tmp_path, monkeypatch):
        # verify on build --k 4: one lookup for all of the census's 256
        # cubes, and none more for its nonbranch check, which reads the
        # census's reports
        assert main(["build", "--d", "2", "--f", "t^1.5", "--k", "4",
                     "--out", str(tmp_path)]) == 0
        lookups = _count_lookups(monkeypatch)
        assert main(["verify", "--function", str(tmp_path / "function.json"),
                     "--out", str(tmp_path)]) == 0
        assert lookups == [1]

    def test_one_batch_per_stage_in_p2(self, ub5, monkeypatch):
        # each stage of a P2 axis round takes the lines of all its cubes
        # SAMPLE_BATCH samples at a time: every batch but the stage's last
        # is full, and a batch makes one eval_log call at most
        table = ub5.level_nodes[4]
        rounds, calls = [], [0]
        hits, sample, eval_log = ZeroSetInCube.hits, ZeroSetInCube._sample, TubeTable.eval_log

        def round_(self, *args):
            rounds.append([])
            return hits(self, *args)

        def sampled(self, box, origins, offs, direction):
            before = calls[0]
            out = sample(self, box, origins, offs, direction)
            rounds[-1].append((len(box), offs.shape[1], calls[0] - before))
            return out

        def counted(self, X):
            calls[0] += 1
            return eval_log(self, X)

        monkeypatch.setattr(ZeroSetInCube, "hits", round_)
        monkeypatch.setattr(ZeroSetInCube, "_sample", sampled)
        monkeypatch.setattr(TubeTable, "eval_log", counted)
        res = rogue_census(table, (0, 0), (16, 16), ub5.params)
        assert res.total == 256
        split = 0
        for batches in rounds:
            assert all(evaluated <= 1 for _lines, _samples, evaluated in batches)
            for samples in {s for _lines, s, _e in batches}:
                lines = [n for n, s, _e in batches if s == samples]
                full = SAMPLE_BATCH // samples
                assert all(n == full for n in lines[:-1]) and 0 < lines[-1] <= full
                split += len(lines) > 1
        assert split > 0

    @pytest.mark.parametrize("level, lo, hi", [
        (3, (0, 0), (16, 16)), (4, (-8, -8), (8, 8)), (4, (0, 0), (32, 32)),
        (None, (-4, -4), (20, 20))])
    def test_rows_are_near_at_both_radii(self, ub5, level, lo, hi):
        # level None: the tree-set view, every row but row 0
        table = (ub5.node.span(1, len(ub5.node)) if level is None
                 else ub5.level_nodes[level])
        corners = np.array([c.corner for c in enumerate_basic_cubes(lo, hi)], dtype=float)
        boxes = table.box_rows(corners, corners + 1.0)
        assert len(boxes) == len(corners)
        for i, corner in enumerate(corners):
            rows = boxes.rows[boxes.ptr[i]:boxes.ptr[i + 1]]
            near = boxes.near[boxes.near_ptr[i]:boxes.near_ptr[i + 1]]
            centre, r = corner + 0.5, math.sqrt(2) / 2.0
            assert np.array_equal(near, frozen_tubes.near(table, centre, r))
            assert np.array_equal(rows, frozen_tubes.near(table, centre, r + table._margin32))
            assert boxes.vanishes[i] == (not np.isfinite(table.log_amp[rows]).any())
            one = table.box_rows(corner, corner + 1.0)
            assert np.array_equal(one.rows, rows) and np.array_equal(one.near, near)


def box_samples(table, lo, hi, h, rows):
    """``_box_samples`` of the one box [lo, hi] with the given rows."""
    return _box_samples(table, np.atleast_2d(lo), np.atleast_2d(hi), h,
                        np.array([0, len(rows)]), rows)


class TestSupportSupPoints:
    def test_matches_per_tube_loop(self, ub5):
        table = ub5.level_nodes[3]
        lo, hi = np.array([2.0, 3.0]), np.array([9.0, 7.5])
        ts = np.linspace(0.0, 1.0, 9)
        expected = []
        for a, b in zip(table.tube_a, table.tube_b):
            seg = a[None, :] + ts[:, None] * (b - a)[None, :]
            expected.extend(seg[np.all((seg >= lo) & (seg <= hi), axis=1)])
        pts, owner, slack = box_samples(table, lo, hi, 0.5, np.arange(len(table)))
        axes = [np.linspace(a, b, n) for a, b, n in zip(lo, hi, (15, 10))]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        assert len(expected) > 0 and np.array_equal(pts, np.vstack([grid, expected]))
        assert not owner.any() and slack == 0.25

    @pytest.mark.parametrize("edge", [1.0, 3.0, 16.0])
    def test_box_rows_hold_every_sample(self, ub5, edge):
        # a box's samples with its box_rows are those with every row
        table = ub5.node
        rng = np.random.default_rng(5)
        sampled = 0
        grid = math.prod(int(math.ceil(edge / 0.25)) + 1 for _ in range(2))
        for lo in rng.integers(-4, 32, size=(40, 2)).astype(float):
            hi = lo + edge
            rows = table.box_rows(lo, hi).rows
            want = box_samples(table, lo, hi, 0.25, np.arange(len(table)))[0]
            got = box_samples(table, lo, hi, 0.25, rows)[0]
            assert np.array_equal(got, want)
            sampled += len(want) > grid
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

    def covers(self, boxes):
        return np.zeros((len(boxes),) + (1,) * self.table.d, dtype=bool)

    @staticmethod
    def uncertified(boxes):
        """``boxes`` with their ``vanishes`` certificates taken away."""
        return dataclasses.replace(boxes, vanishes=np.zeros(len(boxes), dtype=bool))


class _GridFunction:
    """A function with the given ``covers`` grid, one everywhere, that
    keeps the points it evaluates."""

    def __init__(self, cells):
        self.cells, self.asked = cells, []

    def covers(self, boxes):
        return self.cells

    def eval_log(self, X):
        self.asked.append(X.copy())
        return np.zeros(len(X))


class _InCertifiedCells(_Sampled):
    """A table's ``eval_log`` that checks that it is finite at every point
    that lies in a closed cell certified on ``grid``, the cells of edge
    1/side over [0, 2^k)^d offset by one, and counts those points: all of
    them, and those in a cell of a cube not ``accepted`` (a boolean grid
    of the cubes)."""

    def __init__(self, table, grid, side, accepted):
        super().__init__(table)
        self.grid, self.side, self.accepted = grid, side, accepted
        self.samples = self.certified = self.refused = 0

    def eval_log(self, X):
        vals = self.table.eval_log(X)
        # side is a power of two, so that X * side is exact
        Y = X * self.side
        base = np.floor(Y).astype(np.int64)
        held = self._held(base)
        # on a face, the cells below it hold the point too
        face = np.flatnonzero(np.any(Y == base, axis=1))
        for low in list(itertools.product((0, 1), repeat=self.table.d))[1:]:
            on = np.all((np.array(low) == 0) | (Y[face] == base[face]), axis=1)
            held[face[on]] |= self._held(base[face[on]] - np.array(low))
        assert np.all(np.isfinite(vals[held != 0]))
        self.samples += len(X)
        self.certified += int(np.count_nonzero(held))
        self.refused += int(np.count_nonzero(held & 2))
        return vals

    def _held(self, cell):
        """1 where the cells are certified, 3 where their cube is also not
        accepted, else 0."""
        sure = self.grid[tuple((cell + 1).T)]
        cube = np.clip(cell // self.side, 0, self.accepted.shape[0] - 1)
        return sure * (1 + 2 * ~self.accepted[tuple(cube.T)])


def _covers(table, lo, hi):
    """Whether ``covers`` certifies every cell of the one box [lo, hi]."""
    return bool(table.covers(table.box_rows(lo, hi))[0].all())


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
            lo = np.asarray(cube.corner, dtype=float)
            box = u.box_rows(lo, lo + 1.0)
            if not box.vanishes[0]:
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
            assert table.box_rows(lo, hi).vanishes.tolist() == [vanishes]
            assert table.box_rows(*far).vanishes.tolist() == [True]
            both = table.box_rows(np.stack([lo, far[0]]), np.stack([hi, far[1]]))
            assert both.vanishes.tolist() == [vanishes, True]


class TestCovers:
    """``TubeTable.covers`` accepts a cube only where the function is
    positive at every point P2 would sample."""

    @staticmethod
    def _accepted_positive(table, k):
        """The census cubes of [0, 2^k)^d whose every cell ``covers``
        certifies, after sampling the zero sets of all the cubes as the
        census does, at once, as if nothing were certified, and checking that
        the function is finite at every sample that lies in a closed
        certified cell of any cube, accepted or refused; the accepted cubes
        project to 0.0 as well."""
        d = table.d
        corners = np.array([c.corner for c in enumerate_basic_cubes((0,) * d, (2**k,) * d)])
        lo = corners.astype(float)
        boxes = table.box_rows(lo, lo + 1.0)
        cells = table.covers(boxes)
        side = cells.shape[1]
        # the certified cells of the level on one grid of edge 1/side, with
        # a border of uncertified ones
        grid = np.zeros((2**k * side + 2,) * d, dtype=bool)
        for corner, cube in zip(corners.tolist(), cells):
            grid[tuple(slice(1 + c * side, 1 + (c + 1) * side) for c in corner)] = cube
        flat = cells.reshape(len(corners), -1)
        accepted = flat.all(axis=1)
        u = _InCertifiedCells(table, grid, side, accepted.reshape((2**k,) * d))
        # the cubes with a certified cell, at the census's threshold: a cube
        # without a zero point is sampled on every axis
        some = flat.any(axis=1)
        proj = zero_set_projection(u, u.uncertified(table.box_rows(lo[some], lo[some] + 1.0)),
                                   0.25)
        assert u.samples and u.certified > 0 and u.refused > 0
        assert np.all(proj[accepted[some]] == 0.0)
        return int(accepted.sum())

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
        # the zero point is the corner the four middle cells share: none
        # of them is certified, though cells clear of the guard are
        cells = table.covers(table.box_rows(lo, hi))[0]
        mid = cells.shape[0] // 2
        assert not cells[mid - 1:mid + 1, mid - 1:mid + 1].any()
        assert cells[0].all() and cells[-1].all()

    def test_refuses_guarded_cubes_of_a_level(self):
        # a wide row covering a row of cubes, below two thin keeps of zero
        # amplitude whose guards cross two of them: searched together, the
        # cubes are refused exactly where a keep's guard crosses them
        rows = FieldRows(2)
        keeps = [rows.add(_tube_field([x, -5.0], [0.0, 1.0], 0.05, 10.0, log_amp=-np.inf))
                 for x in (10.5, 12.5)]
        rows.add(_tube_field([0.0, 0.5], [1.0, 0.0], 4.0, 20.0), keeps)
        table = rows.table()
        lo = np.column_stack([np.arange(6.0, 16.0), np.zeros(10)])
        accepted = table.covers(table.box_rows(lo, lo + 1.0)).reshape(len(lo), -1).all(axis=1)
        assert accepted.tolist() == [x not in (10, 12) for x in range(6, 16)]
        assert [_covers(table, a, a + 1.0) for a in lo] == accepted.tolist()
        assert np.all(table.eval_log([[10.5, 0.5], [12.5, 0.5]]) == -np.inf)

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
        # the cell at the zero point (the corner) is not certified, the
        # one at the opposite corner is
        cells = table.covers(table.box_rows(np.zeros(2), np.ones(2)))[0]
        assert not cells[0, 0] and cells[-1, -1]
        assert _covers(table, np.array([2.0, 0.0]), np.array([3.0, 1.0]))

    def test_skips_only_samples_in_certified_cells(self):
        # points on the face two cells share, on the cube's upper face, one
        # float below a cell boundary, and near the corner of a cube at -1
        # with a tiny negative coordinate: P2 evaluates every sample but
        # those that lie in a closed certified cell of their cube, and
        # skips those inside the cell its index names
        below = np.nextafter
        for corner, certified, points, skips in [
                # (0.125, 0.3) lies in the certified (0, 2), on its face
                # with (1, 2)
                ((0.0, 0.0), [(0, 0), (0, 2), (7, 3), (1, 5)],
                 [(0.125, 0.3), (0.0625, 0.0625), (1.0, 0.4), (0.9, 1.0), (0.3, 0.7),
                  (below(0.25, 0.0), 0.7), (0.25, 0.7), (below(0.125, 0.0), 0.0)],
                 [(0.0625, 0.0625), (1.0, 0.4), (below(0.25, 0.0), 0.7),
                  (below(0.125, 0.0), 0.0)]),
                # the second point's (x_1 + 1) / (1/8) rounds to 7, but
                # it lies in cell 6
                ((-1.0, -1.0), [(7, 7), (6, 7), (7, 4)],
                 [(-1e-300, -1e-300), (below(-0.125, -1.0), -0.5), (-0.125, -1e-300),
                  (-0.2, -0.1), (-0.05, -0.5)],
                 [(-1e-300, -1e-300), (-0.125, -1e-300), (-0.2, -0.1), (-0.05, -0.5)])]:
            lo = np.array([corner])
            cells = np.zeros((1, 8, 8), dtype=bool)
            cells[0][tuple(np.array(certified).T)] = True
            fn = _GridFunction(cells)
            empty = np.zeros(2, dtype=np.intp)
            zset = ZeroSetInCube(fn, BoxRows(lo, lo + 1.0, empty, empty[:0], empty,
                                             empty[:0], np.zeros(1, dtype=bool)))
            pts = np.array(points)
            # each point a line of one sample, at offset 0 along x_1
            hit = zset._sample(np.zeros(len(pts), dtype=np.intp), pts,
                               np.zeros((len(pts), 1)), np.tile([1.0, 0.0], (len(pts), 1)))
            assert not hit.any()
            asked = {tuple(p) for X in fn.asked for p in X.tolist()}
            skipped = [tuple(p) for p in pts.tolist() if tuple(p) not in asked]
            assert skipped == [tuple(p) for p in skips]
            for p in skipped:
                # exactly: a certified cell [lo + j/8, lo + (j + 1)/8] holds it
                x = [Fraction(v) - Fraction(c) for v, c in zip(p, corner)]
                assert any(all(Fraction(j, 8) <= v <= Fraction(j + 1, 8) for v, j in zip(x, c))
                           for c in certified), p

    def test_accepts_the_wide_branch_cube(self, ub5):
        node = ub5.level_nodes[-1]
        handle = node.field(0)
        mid = node.anchored_tubes()[0][0] + 3.0 * handle.frame.rows[0]
        lo = np.floor(mid)
        assert _covers(node, lo, lo + 1.0)
