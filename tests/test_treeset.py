import hashlib
import io
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frozen_tubes import FrozenTube, cube_measure, tubes_of
from oscillab.subfun import TableBuilder, TubeField, build_tau, build_u
from oscillab.treeset import (
    EPS1,
    GrowthParameters,
    GrowthValidationError,
    ParameterRangeError,
    TreeSpec,
    TubeSpec,
    _anchored,
    _distance,
    _inside,
    allclose,
    choose_s_k,
    complete_frame,
    count_nonsparse,
    delta_k,
    is_sparse,
    parse_growth,
    sparseness_threshold,
    tube_measure_in_cube,
)


def growth(a, d=2):
    return GrowthParameters(d=d, index=a).validate()


@lru_cache(maxsize=None)
def tree_of(a, k, d=2):
    """The rank-(k+1) tree: the tube set of build_u at k+1 (the tube
    geometry does not depend on the guard certificates)."""
    return build_u(growth(a, d), k + 1, check_guards=False).tree()


@lru_cache(maxsize=None)
def outer_subtree(a, k):
    """The rows of the rank-(k+1) outer subtree, trunk first, and its
    schedule."""
    tau = build_tau(growth(a), k, check_guards=False)
    return tau.node.anchored_tubes(), tau.schedule


def tube_table(a, b, diameter):
    """A one-row tube table whose anchored tube is the tube of the given
    diameter around [a, b]."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    rows = TableBuilder(len(a))
    rows.add(TubeField.junction_branch(a, b - a, diameter, len(a), 0.0,
                                       float(np.linalg.norm(b - a))))
    return rows.table()


def row_test(table, pts):
    """``_inside`` and ``_distance`` of the points against the anchored
    tube of the table's single row."""
    tubes = _anchored(table, np.array([0]))
    pts = np.asarray(pts, dtype=float)[None]
    return _inside(tubes, pts)[0], _distance(tubes, pts)[0]


def dumped(tree):
    fp = io.StringIO()
    tree.dump(fp)
    return fp.getvalue()


class TestGrowthParameters:
    def test_parse_forms(self):
        g = parse_growth("t^1.5", 2)
        assert g.index == 1.5 and g(4.0) == pytest.approx(8.0)
        g = parse_growth("t^3/2", 2)
        assert g.index == 1.5
        g = parse_growth("0.5*t^2", 2)
        assert g(2.0) == pytest.approx(2.0)
        g = parse_growth("t^1*log(2+t)^1", 2)
        assert g(2.0) == pytest.approx(2.0 * math.log(4.0))

    def test_rejects_super_volume_growth(self):
        with pytest.raises(GrowthValidationError):
            parse_growth("t^3", 2)

    def test_rejects_garbage(self):
        with pytest.raises(GrowthValidationError):
            parse_growth("exp(t)", 2)

    def test_doubling_window_measured(self):
        g = growth(1.5)
        # f(t)/f(2t) = 2^-1.5 which sits inside (2^-3, 2/3) for all t.
        assert g.t_onset == pytest.approx(1.0)


class TestChooseSk:
    def test_square_growth_k4(self):
        s, eps = choose_s_k(growth(2.0), 4)
        assert (s, eps) == (3, 0.5)

    def test_square_growth_k6(self):
        s, eps = choose_s_k(growth(2.0), 6)
        assert (s, eps) == (4, 0.25)

    def test_cubic_growth_d3_k4(self):
        s, eps = choose_s_k(growth(3.0, d=3), 4)
        assert (s, eps) == (4, 1.0)

    def test_smallest_s_and_sandwich(self):
        for a in (1.5, 2.0):
            g = growth(a)
            for k in range(1, 12):
                s, eps = choose_s_k(g, k)
                lo = (g(2.0**k) / 2.0**k) ** (1.0 / (g.d - 1))
                val = s ** (1.0 / (g.d - 1)) * 2.0**s
                assert lo <= val <= 4 * lo
                assert s <= k
                assert eps == 2.0 ** (s - k)
                for smaller in range(1, s):
                    v = smaller ** (1.0 / (g.d - 1)) * 2.0**smaller
                    assert not (lo <= v <= 4 * lo)

    def test_range_error_reported(self):
        g = GrowthParameters(d=2, index=0.5)  # f(2^k) << 2^k
        with pytest.raises(ParameterRangeError):
            choose_s_k(g, 4)


class TestBasicSubtree:
    def test_d2_layout(self):
        tubes = tree_of(1.5, 0).tubes
        tips = {tuple(t.a) for t in tubes}
        assert tips == {(0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5)}
        assert all(np.allclose(t.b, (1.0, 1.0)) for t in tubes)
        assert len(tubes) == 4
        assert all((t.kind, t.generation, t.diameter) == ("leaf", -1, EPS1) for t in tubes)

    def test_d3_count(self):
        assert len(tree_of(2.0, 0, d=3).tubes) == 8


class TestOuterSubtree:
    def test_generation_counts_d2_k3(self):
        k = 3
        tubes, sched = outer_subtree(1.5, k)
        per_gen = {}
        for t in tubes:
            per_gen[t.generation] = per_gen.get(t.generation, 0) + 1
        # generation m holds 2^(d m) tubes, the leaves 2^(d (k+1)); the
        # trunk is generation 0
        for m in range(1, k + 1):
            assert per_gen[m] == 2 ** (2 * m)
        assert per_gen[-1] == 2 ** (2 * (k + 1)) and per_gen[0] == 1
        assert len(tubes) == sum(per_gen.values())
        wide = {t.generation for t in tubes if t.kind == "wide"}
        thin = {t.generation for t in tubes if t.kind == "thin"}
        assert wide == set(range(1, sched.s_k + 1))
        assert thin == set(range(sched.s_k + 1, k + 1))
        assert {t.generation for t in tubes if t.kind == "leaf"} == {-1}
        assert [t.kind for t in tubes if t.generation == 0] == ["trunk"]

    def test_first_generation_diameter(self):
        for k in (3, 4, 6):
            tubes, sched = outer_subtree(1.5, k)
            assert sched.s_k == choose_s_k(growth(1.5), k)[0]
            first = [t for t in tubes if t.generation == 1]
            assert first and all(t.diameter == pytest.approx(2.0**sched.s_k) for t in first)

    def test_wide_generation_diameters_halve(self):
        k = 5
        tubes, sched = outer_subtree(2.0, k)
        s_k, eps_k = sched.s_k, sched.eps_k
        for m in range(1, s_k + 1):
            gen = [t for t in tubes if t.generation == m]
            assert gen and all(
                t.diameter == pytest.approx(2.0 ** (k + 1 - m) * eps_k) for t in gen
            )
        for t in tubes:
            if t.generation > s_k or t.kind == "leaf":
                assert t.diameter == pytest.approx(EPS1)
        (trunk,) = [t for t in tubes if t.kind == "trunk"]
        assert trunk.diameter == pytest.approx(2.0**k * eps_k)

    def test_tubes_connect_consecutive_dyadic_centers(self):
        k = 2
        tubes, _sched = outer_subtree(1.5, k)
        for t in tubes:
            if t.kind == "leaf":
                child_edge = 1.0
            elif t.kind == "trunk":
                # from the box centre to the corner 2^(k+1) v_0
                assert np.allclose(t.a, 2.0**k) and np.allclose(t.b, 2.0 ** (k + 1))
                continue
            else:
                child_edge = 2.0 ** (k + 1 - t.generation)
            assert np.allclose((t.a - child_edge / 2) % child_edge, 0.0)
            assert np.allclose((t.b - child_edge) % (2 * child_edge), 0.0)
            assert np.allclose(np.abs(t.b - t.a), child_edge / 2)


#: sha256 (first 16 hex digits) of the sorted endpoint tuples (a, b), each
#: coordinate rounded to 12 digits, and the tube count, of the rank-(k+1)
#: tree as the former independent construction of the tube geometry
#: (``treeset.build_tree``) gave them
ENDPOINT_ORACLE = {
    (2, 1.5, 1): ("ee6dd51960a69652", 20),
    (2, 1.5, 2): ("0bb6fd1a7a292977", 84),
    (2, 1.5, 3): ("d2711620aa4fa23c", 340),
    (2, 1.5, 4): ("0fef0804350dde6d", 1364),
    (3, 2.0, 2): ("5c11590ffc4951dc", 584),
    (3, 2.0, 3): ("2338431d08daa60f", 4680),
}


class TestBuildTree:
    def test_handle_diameters(self):
        g = growth(1.5)
        k = 4
        tree = tree_of(1.5, k)
        for j in range(1, k + 1):
            ends = [t for t in tree.tubes
                    if t.generation == 0 and np.allclose(t.b, 2.0**j)]
            assert len(ends) == 4
            for t in ends:
                corner = bool(np.all(t.a < 2.0**j))
                # the corner cell's handle, and all four at level 1, have
                # 2^j delta_j; a non-corner cell's is the trunk of its outer
                # subtree, 2^(j-1) eps_(j-1)
                if corner or j == 1:
                    assert t.kind == "handle"
                    assert t.diameter == pytest.approx(2.0**j * tree.delta_values[j])
                else:
                    assert t.kind == "trunk"
                    assert t.diameter == pytest.approx(2.0 ** (j - 1) * tree.eps_values[j - 1])
        # delta_4 = 2^(-2), absolute diameter 2^4 * 2^-2 = 4
        assert delta_k(g, 4) == pytest.approx(0.25)
        assert all(t.diameter == pytest.approx(4.0) for t in tree.tubes
                   if t.generation == 0 and np.allclose(t.b, 16.0))

    def test_degenerate_maximal_growth(self):
        g = growth(2.0)
        for k in (1, 3, 5):
            assert delta_k(g, k) == pytest.approx(1.0)

    def test_nesting(self):
        t1 = tree_of(1.5, 1)
        t2 = tree_of(1.5, 2)
        sig = lambda t: (tuple(t.a), tuple(t.b), t.diameter)
        sigs2 = {sig(t) for t in t2.tubes}
        assert {sig(t) for t in t1.tubes} <= sigs2

    def test_deterministic(self):
        g = growth(1.5)
        a = build_u(g, 4, check_guards=False).tree()
        b = build_u(g, 4, check_guards=False).tree()
        assert dumped(a) == dumped(b)

    def test_json_roundtrip(self):
        tree = tree_of(1.5, 2)
        back = TreeSpec.from_json(dumped(tree))
        assert len(back.tubes) == len(tree.tubes)
        assert (back.dimension, back.rank, back.eps1) == (tree.dimension, tree.rank, tree.eps1)
        assert back.s_values == tree.s_values
        # the file rounds to 12 digits
        assert back.eps_values == pytest.approx(tree.eps_values, rel=1e-11)
        assert back.delta_values == pytest.approx(tree.delta_values, rel=1e-11)
        for s, t in zip(back.tubes, tree.tubes):
            assert np.allclose(s.a, t.a) and np.allclose(s.b, t.b)
            assert s.diameter == pytest.approx(t.diameter, rel=1e-11)
            assert (s.generation, s.kind) == (t.generation, t.kind)

    def test_branch_split(self):
        tree = tree_of(1.5, 3)
        for t in tree.branches():
            assert t.diameter > 2 * EPS1

    @pytest.mark.parametrize("config", sorted(ENDPOINT_ORACLE))
    def test_endpoints_match_frozen_oracle(self, config):
        d, a, k = config
        tubes = tree_of(a, k, d=d).tubes
        rows = sorted(tuple(round(float(v), 12) + 0.0 for v in (*t.a, *t.b)) for t in tubes)
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
        assert (digest, len(rows)) == ENDPOINT_ORACLE[config]


class TestTubeGeometry:
    def test_frame_orthonormal(self):
        f = complete_frame(np.array([1.0, 1.0, -2.0]))
        assert np.allclose(f @ f.T, np.eye(3), atol=1e-12)

    def test_contains_matches_definition(self):
        table = tube_table([0.0, 0.0], [2.0, 0.0], 0.5)
        pts = np.array([[1.0, 0.2], [1.0, 0.3], [-0.1, 0.0], [2.1, 0.0], [0.0, 0.0]])
        inside, _dist = row_test(table, pts)
        assert list(inside) == [True, False, False, False, True]

    def test_distance_exact_for_axis_tube(self):
        table = tube_table([0.0, 0.0], [1.0, 0.0], 1.0)
        pts = np.array([[0.5, 1.5], [2.0, 0.0], [-1.0, 0.5]])
        _inside, dist = row_test(table, pts)
        assert np.allclose(dist, [1.0, 1.0, 1.0])


#: coordinates at the edges of the float range and of numpy's tolerances
_SPECIAL = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e-8, -1e-8, 1.0, 1e308, -1e308, 1.7976931348623157e308,
    -1.7976931348623157e308, math.inf, -math.inf, math.nan])
_COORD = st.one_of(st.floats(), st.floats(allow_subnormal=True, min_value=-1e-300,
                                          max_value=1e-300), _SPECIAL)


class TestEndpointTest:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_allclose_matches_numpy(self, data):
        d = data.draw(st.integers(2, 3))
        a = data.draw(st.lists(_COORD, min_size=d, max_size=d))
        # each coordinate of b is free, equal to a's, or near it on the
        # scale of the tolerances
        b = [data.draw(st.one_of(
            _COORD, st.just(x),
            st.builds(lambda r, s, x=x: x * (1.0 + r) + s,
                      st.floats(-3e-5, 3e-5), st.floats(-3e-8, 3e-8))))
            for x in a]
        with np.errstate(all="ignore"):
            expected = bool(np.allclose(np.array(a), np.array(b)))
            assert allclose(np.array(a), np.array(b)) == expected

    def test_tube_rejects_coincident_endpoints(self):
        with pytest.raises(ParameterRangeError):
            TubeSpec(np.array([1.0, 2.0]), np.array([1.0 + 1e-9, 2.0]), 0.5)
        TubeSpec(np.array([1.0, 2.0]), np.array([1.0 + 1e-3, 2.0]), 0.5)


class TestSparseness:
    def test_threshold_below_half(self):
        assert sparseness_threshold(2) == pytest.approx(math.sqrt(2) / 4)
        assert sparseness_threshold(3) < 0.5

    def test_single_leaf_tube_sparse_with_mc_crosscheck(self):
        # One leaf tube through the cube: measure far below the threshold.
        table = tube_table([0.5, 0.5], [1.5, 1.5], EPS1)
        rep = is_sparse((0, 0), table)
        assert rep.status == "sparse"
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 1.0, size=(1_000_000, 2))
        mc = float(np.mean(FrozenTube([0.5, 0.5], [1.5, 1.5], EPS1).contains(pts)))
        assert rep.measure_low - 3e-3 <= mc <= rep.measure_high + 3e-3
        assert rep.estimate == pytest.approx(mc, abs=2e-3)

    def test_cube_inside_wide_branch(self):
        rep = is_sparse((0, 0), tube_table([-1.0, 0.5], [4.0, 0.5], 3.0))
        assert rep.status == "nonsparse"
        assert rep.measure_low == pytest.approx(1.0)

    def test_cube_disjoint_from_tubes(self):
        rep = is_sparse((0, 0), tube_table([5.0, 5.0], [6.0, 6.0], 0.125))
        assert rep.status == "sparse"
        assert rep.measure_high == 0.0

    def test_measure_bounds_ordering(self):
        table = tube_table([0.2, 0.3], [0.9, 0.8], 0.25)
        low, high, est, se = tube_measure_in_cube((0, 0), (1, 1), table, depth_cap=5)
        assert low <= est <= high
        assert 0 <= low and high <= 1.0

    @pytest.mark.parametrize("k", [1, 2])
    def test_brackets_hold_frozen_estimates(self, k):
        # the census on the table's rows against the frozen TubeSpec census
        # on the tubes tree.json records: the two frames and anchors differ
        # by rounding alone, which decides only cell corners lying exactly
        # on a tube face or end, so each bracket holds the other's estimate
        g = growth(1.5)
        build = build_u(g, k + 1, check_guards=False)
        tree = build.tree()
        tubes = tubes_of([t.a for t in tree.tubes], [t.b for t in tree.tubes],
                         [t.diameter for t in tree.tubes])
        _count, _ratio, _unc, reports, _touched = count_nonsparse(g, k, build)
        for rep in reports:
            low, high, est, _se = cube_measure(rep.corner, tubes, 6, 4096)
            assert rep.measure_low <= est <= rep.measure_high
            assert low <= rep.estimate <= high
