import hashlib
import io
import json
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frozen_tubes import FrozenTube
from oscillab.subfun import _frames, build_tau, build_u
from oscillab.treeset import (
    EPS1,
    GrowthParameters,
    GrowthValidationError,
    ParameterRangeError,
    TreeSpec,
    choose_s_k,
    delta_k,
    parse_growth,
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
    """The tree of the rank-(k+1) outer subtree, trunk first, and its
    schedule."""
    tau = build_tau(growth(a), k, check_guards=False)
    table = tau.node
    tree = TreeSpec(2, k + 1, *table.anchored_tubes(), table.eps, table.generation, table.tag)
    return tree, tau.schedule


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
        tree = tree_of(1.5, 0)
        tips = {tuple(a) for a in tree.a.tolist()}
        assert tips == {(0.5, 0.5), (0.5, 1.5), (1.5, 0.5), (1.5, 1.5)}
        assert np.allclose(tree.b, (1.0, 1.0))
        assert tree.diameter.size == 4
        assert np.all(tree.kind == "leaf") and np.all(tree.generation == -1)
        assert np.all(tree.diameter == EPS1)

    def test_d3_count(self):
        assert tree_of(2.0, 0, d=3).diameter.size == 8


class TestOuterSubtree:
    def test_generation_counts_d2_k3(self):
        k = 3
        tree, sched = outer_subtree(1.5, k)
        generation, kind = tree.generation, tree.kind
        per_gen = dict(zip(*(c.tolist() for c in np.unique(generation, return_counts=True))))
        # generation m holds 2^(d m) tubes, the leaves 2^(d (k+1)); the
        # trunk is generation 0
        for m in range(1, k + 1):
            assert per_gen[m] == 2 ** (2 * m)
        assert per_gen[-1] == 2 ** (2 * (k + 1)) and per_gen[0] == 1
        assert set(per_gen) == set(range(-1, k + 1))
        assert set(generation[kind == "wide"].tolist()) == set(range(1, sched.s_k + 1))
        assert set(generation[kind == "thin"].tolist()) == set(range(sched.s_k + 1, k + 1))
        assert set(generation[kind == "leaf"].tolist()) == {-1}
        assert kind[generation == 0].tolist() == ["trunk"]

    def test_first_generation_diameter(self):
        for k in (3, 4, 6):
            tree, sched = outer_subtree(1.5, k)
            assert sched.s_k == choose_s_k(growth(1.5), k)[0]
            first = tree.diameter[tree.generation == 1]
            assert first.size and first == pytest.approx(2.0**sched.s_k)

    def test_wide_generation_diameters_halve(self):
        k = 5
        tree, sched = outer_subtree(2.0, k)
        s_k, eps_k = sched.s_k, sched.eps_k
        for m in range(1, s_k + 1):
            gen = tree.diameter[tree.generation == m]
            assert gen.size and gen == pytest.approx(2.0 ** (k + 1 - m) * eps_k)
        thin = (tree.generation > s_k) | (tree.kind == "leaf")
        assert tree.diameter[thin] == pytest.approx(EPS1)
        (trunk,) = tree.diameter[tree.kind == "trunk"]
        assert trunk == pytest.approx(2.0**k * eps_k)

    def test_tubes_connect_consecutive_dyadic_centers(self):
        k = 2
        tree, _sched = outer_subtree(1.5, k)
        trunk = tree.kind == "trunk"
        # the trunk runs from the box centre to the corner 2^(k+1) v_0
        assert np.allclose(tree.a[trunk], 2.0**k) and np.allclose(tree.b[trunk], 2.0 ** (k + 1))
        a, b = tree.a[~trunk], tree.b[~trunk]
        child_edge = np.where(tree.kind[~trunk] == "leaf", 1.0,
                              2.0 ** (k + 1 - tree.generation[~trunk]))[:, None]
        assert np.allclose((a - child_edge / 2) % child_edge, 0.0)
        assert np.allclose((b - child_edge) % (2 * child_edge), 0.0)
        assert np.allclose(np.abs(b - a), child_edge / 2)


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
        top = lambda j: (tree.generation == 0) & np.isclose(tree.b, 2.0**j).all(axis=1)
        for j in range(1, k + 1):
            ends = np.flatnonzero(top(j))
            assert len(ends) == 4
            for i in ends:
                corner = bool(np.all(tree.a[i] < 2.0**j))
                # the corner cell's handle, and all four at level 1, have
                # 2^j delta_j; a non-corner cell's is the trunk of its outer
                # subtree, 2^(j-1) eps_(j-1)
                if corner or j == 1:
                    assert tree.kind[i] == "handle"
                    assert tree.diameter[i] == pytest.approx(2.0**j * tree.delta_values[j])
                else:
                    assert tree.kind[i] == "trunk"
                    assert tree.diameter[i] == pytest.approx(
                        2.0 ** (j - 1) * tree.eps_values[j - 1])
        # delta_4 = 2^(-2), absolute diameter 2^4 * 2^-2 = 4
        assert delta_k(g, 4) == pytest.approx(0.25)
        assert tree.diameter[top(4)] == pytest.approx(4.0)

    def test_degenerate_maximal_growth(self):
        g = growth(2.0)
        for k in (1, 3, 5):
            assert delta_k(g, k) == pytest.approx(1.0)

    def test_nesting(self):
        sigs = lambda t: {(tuple(a), tuple(b), e) for a, b, e in
                          zip(t.a.tolist(), t.b.tolist(), t.diameter.tolist())}
        assert sigs(tree_of(1.5, 1)) <= sigs(tree_of(1.5, 2))

    def test_deterministic(self):
        g = growth(1.5)
        a = build_u(g, 4, check_guards=False).tree()
        b = build_u(g, 4, check_guards=False).tree()
        assert dumped(a) == dumped(b)

    def test_json_roundtrip(self):
        tree = tree_of(1.5, 2)
        back = TreeSpec.from_json(dumped(tree))
        assert back.a.shape == tree.a.shape and back.b.shape == tree.b.shape
        assert (back.dimension, back.rank, back.eps1) == (tree.dimension, tree.rank, tree.eps1)
        assert back.s_values == tree.s_values
        # the file rounds to 12 digits
        assert back.eps_values == pytest.approx(tree.eps_values, rel=1e-11)
        assert back.delta_values == pytest.approx(tree.delta_values, rel=1e-11)
        assert np.allclose(back.a, tree.a) and np.allclose(back.b, tree.b)
        assert back.diameter == pytest.approx(tree.diameter, rel=1e-11)
        assert np.array_equal(back.generation, tree.generation)
        assert np.array_equal(back.kind, tree.kind)

    @pytest.mark.parametrize("config", sorted(ENDPOINT_ORACLE))
    def test_endpoints_match_frozen_oracle(self, config):
        d, a, k = config
        tree = tree_of(a, k, d=d)
        rows = sorted(tuple(round(v, 12) + 0.0 for v in row)
                      for row in np.hstack([tree.a, tree.b]).tolist())
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
        assert (digest, len(rows)) == ENDPOINT_ORACLE[config]


class TestTubeGeometry:
    def test_frame_orthonormal(self):
        f = _frames(np.array([[1.0, 1.0, -2.0]]))[0]
        assert np.allclose(f @ f.T, np.eye(3), atol=1e-12)

    def test_contains_matches_definition(self):
        tube = FrozenTube([0.0, 0.0], [2.0, 0.0], 0.5)
        pts = np.array([[1.0, 0.2], [1.0, 0.3], [-0.1, 0.0], [2.1, 0.0], [0.0, 0.0]])
        assert list(tube.contains(pts)) == [True, False, False, False, True]
        assert list(tube.distance(pts) == 0.0) == [True, False, False, False, True]

    def test_distance_exact_for_axis_tube(self):
        tube = FrozenTube([0.0, 0.0], [1.0, 0.0], 1.0)
        pts = np.array([[0.5, 1.5], [2.0, 0.0], [-1.0, 0.5]])
        assert np.allclose(tube.distance(pts), [1.0, 1.0, 1.0])


class TestSparseness:
    def test_threshold_below_half(self):
        # the paper's sparseness threshold sqrt(d) (2 eps_1)^(d-1) at the
        # leaf diameter eps_1
        def threshold(d):
            return math.sqrt(d) * (2.0 * EPS1) ** (d - 1)

        assert threshold(2) == pytest.approx(math.sqrt(2) / 4)
        assert threshold(3) < 0.5


#: coordinates at the edges of the float range and of numpy's tolerances
_SPECIAL = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e-8, -1e-8, 1.0, 1e308, -1e308, 1.7976931348623157e308,
    -1.7976931348623157e308, math.inf, -math.inf, math.nan])
_COORD = st.one_of(st.floats(), st.floats(allow_subnormal=True, min_value=-1e-300,
                                          max_value=1e-300), _SPECIAL)


def tree_text(*tubes):
    """``tree.json`` text of the given (a, b, diameter) tubes."""
    return json.dumps({
        "dimension": len(tubes[0][0]), "rank": 2, "eps1": EPS1, "s_values": {},
        "eps_values": {}, "delta_values": {},
        "tubes": [{"a": list(a), "b": list(b), "diameter": e} for a, b, e in tubes]})


class TestEndpointTest:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_allclose_matches_numpy(self, data):
        # TreeSpec.check's rule for one row, read through from_json: a tube
        # after a good one is refused, by its own index, exactly when a
        # value is not finite or np.allclose takes its ends as one
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
            finite = np.isfinite([*a, *b]).all()
            refused = not finite or bool(np.allclose(np.array(a), np.array(b)))
        text = tree_text(([0.0] * d, [1.0] * d, 0.5), (a, b, 0.5))
        if refused:
            with pytest.raises(ParameterRangeError, match=r"\btube 1\b"):
                TreeSpec.from_json(text)
        else:
            assert TreeSpec.from_json(text).diameter.size == 2

    def test_tube_rejects_coincident_endpoints(self):
        with pytest.raises(ParameterRangeError):
            TreeSpec.from_json(tree_text(([1.0, 2.0], [1.0 + 1e-9, 2.0], 0.5)))
        TreeSpec.from_json(tree_text(([1.0, 2.0], [1.0 + 1e-3, 2.0], 0.5)))


def json_dumped(tree):
    """The tree as ``json.dump(..., indent=1)`` wrote it from each tube's
    record, every value rounded to 12 digits."""
    tubes = [{"a": [round(v, 12) for v in a], "b": [round(v, 12) for v in b],
              "diameter": round(e, 12), "generation": g, "kind": t}
             for a, b, e, g, t in zip(tree.a.tolist(), tree.b.tolist(), tree.diameter.tolist(),
                                      tree.generation.tolist(), tree.kind.tolist())]
    return json.dumps({
        "dimension": tree.dimension,
        "rank": tree.rank,
        "eps1": tree.eps1,
        "s_values": {str(k): v for k, v in tree.s_values.items()},
        "eps_values": {str(k): round(v, 12) for k, v in tree.eps_values.items()},
        "delta_values": {str(k): round(v, 12) for k, v in tree.delta_values.items()},
        "tubes": tubes,
    }, indent=1) + "\n"


def small_tree(d=2, **bad):
    """Three tubes in [0, 4)^d; ``bad`` sets column[row] = value."""
    a = np.array([[0.0] * d, [1.0] * d, [-0.0] + [3.0] * (d - 1)])
    b = np.array([[1.0] * d, [2.0] + [1e-13] * (d - 1), [1234.5678901234567] * d])
    columns = dict(a=a, b=b, diameter=np.array([0.5, 0.125, 1 / 3]),
                   generation=np.array([0, -1, 2]), kind=np.array(["trunk", "leaf", 'w\u00e9"']))
    for name, (row, value) in bad.items():
        columns[name][row] = value
    return TreeSpec(d, 2, **columns, s_values={1: 1}, eps_values={1: 0.1},
                    delta_values={1: 2 / 3, 2: 0.5})


class TestTreeWriter:
    @pytest.mark.parametrize("make", [lambda: tree_of(1.5, 3), lambda: tree_of(2.0, 2, d=3),
                                      small_tree, lambda: small_tree(d=3)],
                             ids=["d2", "d3", "small", "small_d3"])
    def test_writes_what_json_wrote(self, make):
        tree = make()
        assert dumped(tree) == json_dumped(tree)

    def test_empty_tree(self):
        tree = small_tree()
        empty = TreeSpec(2, 2, tree.a[:0], tree.b[:0], tree.diameter[:0], tree.generation[:0],
                         tree.kind[:0])
        assert dumped(empty) == json_dumped(empty)
        back = TreeSpec.from_json(dumped(empty))
        assert back.a.shape == back.b.shape == (0, 2) and back.diameter.size == 0

    @pytest.mark.parametrize("bad", [
        {"diameter": (1, 0.0)}, {"diameter": (1, -0.125)}, {"diameter": (0, math.nan)},
        {"diameter": (2, math.inf)}, {"a": (0, math.inf)}, {"b": (2, -math.inf)},
        {"a": (1, math.nan)}, {"b": (1, 1.0 + 1e-9)}, {"b": (0, 1e-9)}])
    def test_refuses_what_a_tube_record_refuses(self, bad):
        # a bad row: a diameter not above 0, ends np.allclose takes as one
        # point, or a value that is not finite, which json would write as
        # a bare NaN or Infinity; nothing is written
        tree = small_tree(**bad)
        fp = io.StringIO()
        with pytest.raises(ParameterRangeError):
            tree.dump(fp)
        assert fp.getvalue() == ""
        with pytest.raises(ParameterRangeError):
            TreeSpec.from_json(json_dumped(tree))
