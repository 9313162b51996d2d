import hashlib
import math

import numpy as np
import pytest

import frozen_tubes
from frozen_tubes import FieldRows, junction_branch, tubes_of
from oscillab import subfun
from oscillab.cli import GUARD_SAMPLES
from oscillab.geometry import OrthantMap
from oscillab.treeset import GrowthParameters
from oscillab.subfun import (
    EPS1,
    Frame,
    TableBuilder,
    TubeField,
    build_tau,
    build_u,
    eval_L,
    eval_T,
    eval_W,
    g_threshold,
    glue_schedule,
    in_region_G,
    log_L_profile,
    log_L_upper,
    log_MM,
    TILE_PAIRS,
    _COLUMNS,
    _best_first,
)
from oscillab.verify import _sup_points, _support_sup_points

PI = math.pi


def growth(a, d=2):
    return GrowthParameters(d=d, index=a).validate()


def support_tubes(table):
    """Frozen tubes around each row's support segment, from its frame
    origin to its junction, with the row's eps as diameter."""
    return tubes_of(table.tube_a, table.tube_b, table.eps)


def table_of(*fields, log_c=0.0):
    """A table of the given fields, each below no junction."""
    rows = FieldRows(fields[0].d)
    for f in fields:
        rows.add(f, log_c=log_c)
    return rows.table()


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
        field = junction_branch(
            np.array([0.5, 0.5]), np.array([1.0, 1.0]), 0.25, 2, 3.0, 2.0
        )
        table = table_of(field)
        omap = OrthantMap.from_index(3, 2)
        rows = TableBuilder(2)
        rows.extend(table, omap.matrix(), np.zeros(2))
        mapped = rows.table()
        rng = np.random.default_rng(11)
        pts = rng.uniform(-3, 3, size=(500, 2))
        direct = table.eval_log(omap.apply(pts))
        assert np.isfinite(direct).any()
        assert np.array_equal(direct, mapped.eval_log(pts))

    def test_scale_node(self):
        field = junction_branch(
            np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.25, 2, 0.0, 1.0
        )
        pts = np.array([[0.7, 0.5]])
        scaled = table_of(field, log_c=2.5).eval_log(pts)[0]
        assert scaled == pytest.approx(table_of(field).eval_log(pts)[0] + 2.5)

    def test_guarded_max_discards_inside_guard(self):
        d = 2
        keep = junction_branch(
            np.zeros(d), np.array([1.0, 0.0]), 1.0, d, 0.0, 5.0
        )
        intr = junction_branch(
            np.array([2.0, 0.0]), np.array([1.0, 0.0]), 1.0, d, 50.0, 5.0
        )
        rows = FieldRows(d)
        rows.add(intr, (rows.add(keep),))
        table = rows.table()
        gm, keep_row, intr_row = table, table.span(0, 1), table.span(1, 2)
        # deep inside the guard region the intruder is discarded
        pt = keep.frame.from_local(np.array([[3.0, 0.0]]))
        assert intr_row.eval_log(pt)[0] > keep_row.eval_log(pt)[0]
        assert gm.eval_log(pt)[0] == pytest.approx(keep_row.eval_log(pt)[0])
        # outside the guard the maximum applies
        pt2 = keep.frame.from_local(np.array([[3.0, 0.45]]))
        assert gm.eval_log(pt2)[0] == pytest.approx(
            max(keep_row.eval_log(pt2)[0], intr_row.eval_log(pt2)[0])
        )

    def test_upper_local_bounds_cell_sup(self):
        field = table_of(junction_branch(
            np.array([0.5, 0.5]), np.array([1.0, 1.0]), 0.25, 2, 1.0, 2.0
        ))
        rng = np.random.default_rng(5)
        centers = rng.uniform(0.0, 2.0, size=(200, 2))
        h = 0.05
        hi = field.upper_local(centers, h)
        for c, bound in zip(centers, hi):
            probe = c + rng.uniform(-h, h, size=(64, 2))
            vals = field.eval_log(probe)
            assert np.all(vals <= bound + 1e-9)

    def test_tube_field_support_matches_tube(self):
        field = table_of(junction_branch(
            np.array([1.0, 1.0]), np.array([0.0, 1.0]), 0.5, 2, 0.0, 2.0
        ))
        (tube,) = support_tubes(field)
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
        tubes = support_tubes(tau.node)
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
        tubes = support_tubes(tau.node)
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
        # trunk amplitude is zero in the unbounded-oscillation variant, and
        # the rest of the subtree is rescaled by the trunk's prescribed one
        assert tau.node.log_amp[0] == pytest.approx(0.0 + tau.trunk_inflation)
        assert tau.node.log_c[0] == 0.0
        assert np.all(tau.node.log_c[1:] == -tau.schedule.amplitude(0))


def assert_same_rows(new, old):
    """Every column of two tube tables and their guards, bit for bit."""
    for name in _COLUMNS + ("guard_ptr", "guard_idx"):
        x, y = getattr(new, name), getattr(old, name)
        assert (x.dtype, x.shape) == (y.dtype, y.shape), name
        assert x.tobytes() == y.tobytes(), name


class TestFrozenRows:
    """The rows ``_tree_rows`` makes as columns are, bit for bit, those the
    former path made one tube field at a time (``frozen_tubes.tree_rows``)."""

    @pytest.mark.parametrize("skip_rescale", [False, True])
    @pytest.mark.parametrize("d, a, k", [(2, a, k) for a in (1.5, 2.0) for k in range(1, 6)]
                             + [(3, 2.0, k) for k in range(1, 4)])
    def test_outer_subtree(self, monkeypatch, d, a, k, skip_rescale):
        g = growth(a, d)
        new = build_tau(g, k, skip_rescale, check_guards=False).node
        monkeypatch.setattr(subfun, "_tree_rows", frozen_tubes.tree_rows)
        assert_same_rows(new, build_tau(g, k, skip_rescale, check_guards=False).node)

    def test_every_level_of_u7(self, monkeypatch):
        # the handles and level-1 leaves, the certified amplitudes and the
        # reflected outer subtrees, as ``build`` makes them
        new = build_u(growth(1.5), 7, guard_samples=GUARD_SAMPLES)
        monkeypatch.setattr(subfun, "_tree_rows", frozen_tubes.tree_rows)
        old = build_u(growth(1.5), 7, guard_samples=GUARD_SAMPLES)
        assert len(new.level_nodes) == len(old.level_nodes) == 7
        for x, y in zip(new.level_nodes, old.level_nodes):
            assert_same_rows(x, y)


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
            handle = big.span(0, 1)  # the level's keep row
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
        handle = big.span(0, 1)  # the level's keep row
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
def ub3d():
    return build_u(growth(2.0, d=3), 3, guard_samples=1000)


def _chain_points(table, c, X):
    """X in the coordinates of chain c: each isometry of the chain applied
    as X @ matrix.T + shift, the outermost first."""
    path = []
    while c != 0:
        path.append(c)
        c = table.chains[c][0]
    for c in reversed(path):
        _parent, m, s = table.chains[c]
        X = X @ m.T + s
    return X


def reference_values(table, X, slack, guards=True):
    """Brute-force evaluation of a table, row by row: the point mapped
    through the row's chain and ``Frame.to_local``, the profile truncated
    at the cut, dropped (unless ``guards`` is false) where
    ``GuardRegion.contains`` puts it in one of the row's guards, and the
    max over rows; with ``slack``, ``log_L_upper`` instead, with no guards.
    Only points in a row's local box are taken."""
    d = table.d
    out = np.full(len(X), -np.inf)
    in_chain = {}

    def points(i):
        c = int(table.chain[i])
        if c not in in_chain:
            in_chain[c] = _chain_points(table, c, X)
        return in_chain[c]

    pad = 0.0 if slack is None else slack
    for i in range(len(table)):
        f, Y = table.field(i), points(i)
        sel = np.flatnonzero(np.all((Y >= f.box[0] - pad) & (Y <= f.box[1] + pad), axis=1))
        loc = f.frame.to_local(Y[sel])
        if slack is None:
            vals = log_L_profile(f.eps, d, loc)
            vals[loc[:, 0] > f.cut] = -np.inf
            for k in table.guards(i) if guards else ():
                vals[table.field(k).guard().contains(points(k)[sel])] = -np.inf
        else:
            vals = log_L_upper(f.eps, d, f.cut, loc, slack * math.sqrt(d))
        out[sel] = np.maximum(out[sel], vals + f.log_amp + table.log_c[i])
    return out


def _near_tube_points(table, per_row, rng):
    """Points around every row's centerline, within its diameter."""
    t = rng.uniform(0.0, 1.0, size=(len(table), per_row, 1))
    a, b = table.tube_a[:, None, :], table.tube_b[:, None, :]
    jitter = rng.uniform(-1.0, 1.0, size=t.shape[:2] + (table.d,)) * table.eps[:, None, None]
    return (a + t * (b - a) + jitter).reshape(-1, table.d)


#: sha256 over the bytes of eval_log, upper_local(., 1/16) and
#: upper_local(., 1/2), per level, on the seeded 100,000-point sets of
#: TestTubeTable, recorded when each level's table was still compiled from
#: the node tree the build then made (and checked against it); they hold
#: for the numpy build and CPU features they were recorded with
TREE_DIGESTS = {
    2: ["9649b6e61bdeb711d7165752fff94585cb7649ebf5c4d2145812af303439eec5",
        "ffc56e74095325c480789003f2f4fef75d5cb5520c8b445a373d376336858375",
        "2a3760a8fc9b692b78e12eb8ec0adbe135464777370d3747d2230c2c25ff6d7c",
        "34cafb3dfd2b44f907982654106e5c2c457a877d1d9c02f704ce4afac81d55bb",
        "68239702290ec78b27f7a6e43f4e0461542878a545d41402d94ac6612caaf878"],
    3: ["c5ce940263e9492b0cf91379d05d9de4eecea2c521523abd1f18a94e5a29da32",
        "4b14ddbc1083fa8647b8a38a257e51179fa10ae9a9dc47c16bdd50be69b373a5",
        "30d337935a9c7dd03ac66d6ae308f8ae445f83909e1199b97214bb2ee526726a"],
}


class TestTubeTable:
    """Every level of the built table against a brute-force reference and
    against the digests of its earlier values."""

    @staticmethod
    def _check(table, pts, digest, rng):
        flat = table.eval_log(pts)
        ups = [table.upper_local(pts, slack) for slack in (0.0625, 0.5)]
        h = hashlib.sha256()
        for v in [flat] + ups:
            h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
        assert h.hexdigest() == digest
        # the reference on part of the set and around every tube, where
        # guards, walls and cuts decide
        probe = np.vstack([pts[:20_000], _near_tube_points(table, 8, rng)])
        flat, ref = table.eval_log(probe), reference_values(table, probe, None)
        finite = np.isfinite(ref)
        assert finite.any() and not finite.all()
        assert np.array_equal(finite, np.isfinite(flat))
        assert np.allclose(flat[finite], ref[finite], rtol=1e-12, atol=0.0)
        for slack in (0.0625, 0.5):
            up = table.upper_local(probe, slack)
            assert np.all(up >= flat)
            assert np.all(up <= reference_values(table, probe, slack) + 1e-12)

    def test_matches_reference_d2(self, ub):
        rng = np.random.default_rng(31)
        for j, (table, digest) in enumerate(zip(ub.level_nodes, TREE_DIGESTS[2]), start=1):
            # the box of the level and a margin around it
            self._check(table, rng.uniform(-2.0, 2.0**j + 2.0, size=(100_000, 2)), digest,
                        np.random.default_rng(j))

    def test_matches_reference_d3(self, ub3d):
        rng = np.random.default_rng(37)
        for j, (table, digest) in enumerate(zip(ub3d.level_nodes, TREE_DIGESTS[3]), start=1):
            self._check(table, rng.uniform(-1.0, 2.0**j + 1.0, size=(100_000, 3)), digest,
                        np.random.default_rng(j))

    @pytest.mark.parametrize("d", [2, 3])
    def test_guards_match_reference(self, ub, ub3d, d):
        # with every amplitude set to one the guards decide many values,
        # where the built amplitudes make the keep dominate its guard
        built = ub if d == 2 else ub3d
        level = built.level_nodes[-2]
        rows = TableBuilder(d)
        rows.extend(level, np.eye(d), np.zeros(d))
        flat = rows.table()
        flat.log_amp[:] = 0.0
        flat.log_c[:] = 0.0
        rng = np.random.default_rng(43)
        pts = _near_tube_points(flat, 8, rng)
        vals, ref = flat.eval_log(pts), reference_values(flat, pts, None)
        assert np.sum(reference_values(flat, pts, None, guards=False) != ref) > 100
        finite = np.isfinite(ref)
        assert np.array_equal(finite, np.isfinite(vals))
        assert np.allclose(vals[finite], ref[finite], rtol=1e-12, atol=0.0)

    def test_levels_are_row_ranges(self, ub):
        # level j is the junction of row k - j, sharing the top table's arrays
        for j, table in enumerate(ub.level_nodes, start=1):
            assert np.shares_memory(table.eps, ub.node.eps)
            assert len(table) == (4 ** (j + 1) - 1) // 3
            assert table.tag[0] == "handle"
            assert np.array_equal(table.eps, ub.node.eps[ub.k - j:ub.k - j + len(table)])

    def test_batch_independent(self, ub):
        table = ub.level_nodes[-1]
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
        # the near rows of every unit cube against the distance to every
        # row, and against the frozen distance to every support tube, up
        # to the rounding of the two frames
        built = build_u(growth(a, d=d), k, guard_samples=1000)
        r = math.sqrt(d) / 2.0
        for level in levels:
            table = built.level_nodes[level]
            centres = np.array(list(np.ndindex(*(2**level,) * d))) + 0.5
            dist = np.array([t.distance(centres) for t in support_tubes(table)])
            for c, col in zip(centres, dist.T):
                rows = table.box_rows(c - 0.5, c + 0.5).near
                assert np.array_equal(rows, frozen_tubes.near(table, c, r))
                assert np.all(np.diff(rows) > 0)
                assert set(np.flatnonzero(col <= r - 1e-12)) <= set(rows.tolist())
                assert np.all(col[rows] <= r + 1e-12)

    def test_non_finite_points_are_zero(self, ub):
        table = ub.level_nodes[-1]
        pts = np.array([[np.nan, 1.0], [np.inf, 2.0], [1.5, 1.5]])
        vals = table.eval_log(pts)
        assert np.all(vals[:2] == -np.inf)
        assert vals[2] == table.eval_log(pts[2:])[0]


def growth_point_sets(built):
    """``growth_profile``'s sample points and slack at each radius 2^k,
    with the level function it measures there."""
    d = built.d
    for k, fn in enumerate(built.level_nodes, start=1):
        R = 2.0**k
        lo, hi = np.zeros(d), np.full(d, R)
        extra = _support_sup_points((fn.tube_a, fn.tube_b), lo, hi)
        yield (fn, *_sup_points(lo, hi, max(0.25, R / 64.0), extra))


def tile_count(table, pts):
    """The number of tiles ``TubeTable._tiles`` splits pts into."""
    return table._tiles(np.atleast_2d(pts))[1].size - 1


def assert_max_log_exact(fn, pts, slack):
    """``max_log`` gives the bits of np.argmax and the maximum of the full
    evaluation, of ``eval_log`` and of ``upper_local(., slack)``."""
    for s in (None, slack):
        vals = fn.eval_log(pts) if s is None else fn.upper_local(pts, s)
        i = int(np.argmax(vals))
        first, best = fn.max_log(pts, s)
        assert first == i
        assert np.float64(best).tobytes() == vals[i].tobytes()


@pytest.fixture(scope="module")
def ub7():
    return build_u(growth(1.5), 7, guard_samples=1000)


@pytest.fixture(scope="module")
def ub3d4():
    return build_u(growth(2.0, d=3), 4, guard_samples=1000)


@pytest.fixture
def growth_builds(ub7, ub3d, ub3d4):
    return {(2, 7): ub7, (3, 3): ub3d, (3, 4): ub3d4}


class TestMaxLog:
    """``TubeTable.max_log`` evaluates the tiles that can hold the maximum
    and gives what full evaluation gives."""

    @pytest.mark.parametrize("d, k", [(2, 7), (3, 3), (3, 4)])
    def test_growth_point_sets(self, growth_builds, d, k):
        built = growth_builds[d, k]
        tiled = 0
        for fn, pts, slack in growth_point_sets(built):
            assert_max_log_exact(fn, pts, slack)
            tiled += tile_count(fn, pts) > 1
        assert tiled >= k - 3

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_point_sets(self, ub7, ub3d, d):
        built = ub7 if d == 2 else ub3d
        rng = np.random.default_rng(47 + d)
        for j, table in enumerate(built.level_nodes, start=1):
            pts = rng.uniform(-2.0, 2.0**j + 2.0, size=(30_000, d))
            pts[rng.choice(len(pts), 5, replace=False), rng.integers(0, d)] = np.nan
            assert_max_log_exact(table, pts, rng.uniform(0.01, 1.0))

    def test_zero_and_one_tile_sets(self, ub7):
        table = ub7.level_nodes[-1]
        rng = np.random.default_rng(53)
        # far from every tube, over many tiles: all -inf, the first point
        far = rng.uniform(-300.0, -200.0, size=(20_000, 2))
        assert tile_count(table, far) > 1
        assert table.max_log(far) == (0, -np.inf)
        assert table.max_log(far, 0.5) == (0, -np.inf)
        assert_max_log_exact(table, far, 0.5)
        # one tile, on and off the function
        for corner in ([40.0, 40.0], [60.0, 60.0], [-20.0, 3.0]):
            one = np.asarray(corner) + rng.uniform(0.0, 1.0, size=(300, 2))
            assert tile_count(table, one) == 1
            assert_max_log_exact(table, one, 0.25)

    def test_one_tiling_per_call(self, ub7, monkeypatch):
        table = ub7.level_nodes[-1]
        rng = np.random.default_rng(61)
        one = np.array([40.0, 40.0]) + rng.uniform(0.0, 1.0, size=(300, 2))
        # one tile where every value is -inf, and one with rows that are
        # not finite
        off = rng.uniform(-300.0, -299.0, size=(300, 2))
        holes = one.copy()
        holes[::7, 0] = np.nan
        holes[3, 1] = np.inf
        spread = rng.uniform(-2.0, 130.0, size=(30_000, 2))
        batches = (one, off, holes, np.full((4, 2), np.nan), spread)
        tilings = []
        tiles = subfun.TubeTable._tiles
        monkeypatch.setattr(subfun.TubeTable, "_tiles",
                            lambda self, X: tilings.append(len(X)) or tiles(self, X))
        for pts in batches:
            for s in (None, 0.25):
                tilings.clear()
                table.max_log(pts, s)
                assert tilings == [len(pts)]
        monkeypatch.undo()
        assert [tile_count(table, pts) for pts in batches[:4]] == [1, 1, 1, 0]
        for pts in batches:
            assert_max_log_exact(table, pts, 0.25)
        assert table.max_log(off) == table.max_log(off, 0.25) == (0, -np.inf)
        # an empty batch has no argmax: the answer of a batch without a
        # finite value
        empty = np.zeros((0, 2))
        assert table.max_log(empty) == table.max_log(empty, 0.25) == (0, -np.inf)

    def test_first_argmax_in_the_tile_evaluated_second(self):
        # two rows whose amplitudes 2^60 and log_c = -2^60 cancel: every
        # value is rounded to a multiple of 256, the ulp at 2^60, and both
        # rows reach 256 at their far ends, where log L is about 299.3
        # (row A) and 200.4 (row B), while the sums a + c + pi cut / eps,
        # taken in that order, are about 300.0 and 201.1.  A's tile has the
        # larger bound and goes first; B's tile holds the same maximum at
        # an earlier point, so it must still be evaluated: its bound must
        # not fall below 256, which takes the margin.
        row_a = TubeField(Frame.along([0.0, 0.0], [1.0, 0.0]), 1.0, 2, 2.0**60, 95.5)
        row_b = TubeField(Frame.along([0.0, 8.0], [1.0, 0.0]), 1.0, 2, 2.0**60, 64.0)
        table = table_of(row_a, row_b, log_c=-(2.0**60))
        rng = np.random.default_rng(59)
        # far points that no row meets spread the batch over many tiles
        filler = rng.uniform([200.0, -20.0], [260.0, -10.0], size=(40_000, 2))
        pts = np.vstack([[[64.0, 8.0], [95.5, 0.0]], filler])
        vals = table.eval_log(pts)
        assert vals[0] == vals[1] == vals.max() == 256.0
        assert tile_count(table, pts) > 2
        assert table.max_log(pts) == (0, 256.0)

    def test_best_first_evaluates_ties_and_stops_below(self):
        # tiles bounded by values they attain: tile 0 (first on the tie)
        # holds the maximum 1.0 at point 5, tile 1 at point 2; tile 2's
        # bound is below it, so tile 2 is never evaluated once a run
        # before it has reached 1.0
        tiles = {0: (np.array([4, 5]), np.array([0.5, 1.0])),
                 1: (np.array([2, 3]), np.array([1.0, -np.inf])),
                 2: (np.array([0, 1]), np.array([0.75, 0.25]))}
        seen = []

        def evaluate(ts):
            seen.append(ts.tolist())
            return tuple(np.concatenate([tiles[t][i] for t in ts.tolist()]) for i in (0, 1))

        bounds, rows = np.array([1.0, 1.0, 0.75]), np.ones(3, dtype=np.intp)
        # every tile a run of its own
        assert _best_first(bounds, rows, np.full(3, TILE_PAIRS), evaluate) == (2, 1.0)
        assert seen == [[0], [1]]
        # tiles 0 and 1 in one run, tile 2 in the next: the tie is settled
        # within the run, and the stop rule holds between runs
        seen.clear()
        assert _best_first(bounds, rows, np.full(3, TILE_PAIRS // 2), evaluate) == (2, 1.0)
        assert seen == [[0, 1]]
        # all three in one run
        seen.clear()
        assert _best_first(bounds, rows, np.ones(3, dtype=np.intp), evaluate) == (2, 1.0)
        assert seen == [[0, 1, 2]]
        # tiles bounded by -inf hold no finite value: none is evaluated
        seen.clear()
        assert _best_first(np.full(3, -np.inf), rows, rows, evaluate) == (0, -np.inf)
        assert seen == []


class TestArrayPasses:
    """A batch's tiles are evaluated in array passes, with the bits and
    the candidate rows of the per-tile path kept in ``frozen_tubes``."""

    @pytest.mark.parametrize("d, k", [(2, 7), (3, 3), (3, 4)])
    def test_growth_point_sets_match_per_tile_path(self, growth_builds, d, k):
        for fn, pts, slack in growth_point_sets(growth_builds[d, k]):
            assert np.array_equal(fn.eval_log(pts), frozen_tubes.evaluate(fn, pts))
            assert (fn.upper_local(pts, slack).tobytes()
                    == frozen_tubes.evaluate(fn, pts, slack).tobytes())

    @pytest.mark.parametrize("d, k", [(2, 7), (3, 4)])
    def test_tiles_and_candidates_match_per_tile_path(self, growth_builds, d, k):
        # the same tiles, each with the rows the per-tile lookup gives,
        # ascending; also for near's one-point boxes
        for fn, pts, slack in growth_point_sets(growth_builds[d, k]):
            tiles = frozen_tubes.tiles(fn, pts)
            order, ptr, lo, hi = fn._tiles(pts)
            assert ptr.size - 1 == len(tiles)
            for s in (None, slack):
                cptr, crows = fn._candidates(lo, hi, *fn._pads(s))
                for t, (part, _P, tlo, thi) in enumerate(tiles):
                    assert np.array_equal(order[ptr[t]:ptr[t + 1]], part)
                    assert np.array_equal(lo[t], tlo) and np.array_equal(hi[t], thi)
                    assert np.array_equal(crows[cptr[t]:cptr[t + 1]],
                                          frozen_tubes.tile_rows(fn, tlo, thi, s))
            for x in pts[::max(1, len(pts) // 50)]:
                rows = fn._candidates(x[None, :], x[None, :], 0.75, 0.75)[1]
                assert np.array_equal(rows, frozen_tubes.candidates(fn, x, x, 0.75, 0.75))

    def test_certificate_samples_match_per_tile_path(self, monkeypatch):
        # every batch build_u(7) evaluates, the guard and face samples of
        # its junction certificates
        seen = []
        eval_log = subfun.TubeTable.eval_log

        def record(table, X):
            seen.append((table, np.array(X)))
            return eval_log(table, X)

        monkeypatch.setattr(subfun.TubeTable, "eval_log", record)
        build_u(growth(1.5), 7, guard_samples=1000)
        monkeypatch.undo()
        assert len(seen) >= 2 * 37
        for table, X in seen:
            assert table.eval_log(X).tobytes() == frozen_tubes.evaluate(table, X).tobytes()

    def test_passes_and_candidate_lookups(self, monkeypatch, ub7):
        calls = {"_candidates": 0, "_pass": 0}
        tiles = []
        for name in calls:
            method = getattr(subfun.TubeTable, name)

            def counted(table, *args, _name=name, _method=method):
                calls[_name] += 1
                if _name == "_candidates":
                    tiles.append(args[0].shape[0])
                return _method(table, *args)

            monkeypatch.setattr(subfun.TubeTable, name, counted)
        # one candidate lookup per max_log half, however many tiles
        fn, pts, slack = list(growth_point_sets(ub7))[-1]
        for s in (None, slack):
            calls["_candidates"] = 0
            fn.max_log(pts, s)
            assert calls["_candidates"] == 1 and tiles[-1] > 1000
        # the certificates of build_u(7): 561 tiles in far fewer passes
        calls.update(_candidates=0, _pass=0)
        tiles.clear()
        build_u(growth(1.5), 7, guard_samples=GUARD_SAMPLES)
        assert calls["_candidates"] == 2 * 37 and sum(tiles) == 561
        assert calls["_pass"] * 4 < sum(tiles)
