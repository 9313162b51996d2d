"""Censuses over the tube set itself and the contraction reports."""

import math

import numpy as np
import pytest

from oscillab.mainlemma import (
    RhoField,
    RogueConfiguration,
    build_cover,
    chain_contraction,
    kappa_chains,
)
from oscillab.geometry import LatticeCube
from oscillab.potential import SegmentShape, frostman
from oscillab.subfun import SlabOscillating, build_u
from oscillab.treeset import (
    GrowthParameters,
    count_nonsparse,
    sparseness_threshold,
)
from oscillab.verify import classify_cube, content_lower_projection


def growth(a, d=2):
    return GrowthParameters(d=d, index=a).validate()


def tree_of(g, k):
    """The rank-(k+1) tree: the tube set of build_u at k+1."""
    return build_u(g, k + 1, check_guards=False).tree()


class TestTreeCensus:
    def test_every_cube_touched_and_ratio_bounded(self):
        g = growth(1.5)
        ratios = {}
        for k in (2, 3, 4):
            count, ratio, uncertain, reports, touched = count_nonsparse(
                g, k, tree_of(g, k), depth_cap=5, mc_samples=2048)
            ratios[k] = ratio
            assert touched, f"k={k}: some cube misses the tree"
            assert uncertain <= 0.05 * len(reports)
        assert max(ratios.values()) / min(ratios.values()) < 4.0

    def test_smallest_rank_has_handle_cubes(self):
        # the rank-2 tree already carries its handles (absolute diameter
        # 2 delta_1 > 2 eps_1): the cube riding the inner handle segment is
        # not sparse, while the off-diagonal cubes and the far corner stay
        # below the threshold
        g = growth(1.5)
        count, ratio, _unc, reports, _t = count_nonsparse(
            g, 1, tree_of(g, 1), depth_cap=6, mc_samples=4096)
        by_corner = {r.corner: r for r in reports}
        assert by_corner[(0, 0)].sparse
        assert by_corner[(0, 1)].sparse
        assert by_corner[(1, 0)].sparse
        assert not by_corner[(1, 1)].sparse
        assert count == 1

    def test_branch_census_proportional_to_growth(self):
        # cubes meeting branches, against the comparison function
        g = growth(1.5)
        vals = {}
        for k in (2, 3, 4):
            branches = tree_of(g, k).branches()
            hit = 0
            for corner in np.ndindex(2**k, 2**k):
                center = np.asarray(corner, dtype=float) + 0.5
                if any(float(b.distance(center[None, :])[0]) <= math.sqrt(2) / 2
                       for b in branches):
                    hit += 1
            vals[k] = hit / float(g(2.0**k))
        assert max(vals.values()) / min(vals.values()) < 4.0

    def test_threshold_margin(self):
        for d in (2, 3):
            assert sparseness_threshold(d) < 0.5


class TestChainContraction:
    def test_oscillating_function_contracts_linearly(self):
        u = SlabOscillating(2)
        cfg = RogueConfiguration(16, 2, set())
        rho = RhoField.compute(cfg)
        res = kappa_chains(cfg, rho, build_cover(cfg, rho))
        rows = chain_contraction(u, cfg, res, max_cubes=12, h=0.2)
        assert rows
        for row in rows:
            # nested boxes: every per-step ratio respects the maximum principle
            assert all(step >= -1e-9 for step in row.per_step)
            # the cube-to-Q ratio is a genuine contraction
            assert row.log_ratio <= 1e-9
        # growth along the chain is at least linear in the number of layers
        deep = [r for r in rows if r.kappa_count >= 1]
        assert deep
        for r in deep:
            assert -r.log_ratio >= 0.5 * r.kappa_count


class TestFrostmanDuality:
    def test_mass_against_projection_bound(self):
        # both quantities bound the gauge content from below; the measured
        # comparison stays within a uniform factor on segment-like sets
        D = 6
        cells = [(i, 0) for i in range(2**D)]
        res = frostman(cells, D, 1.0, d=2)
        seg = SegmentShape([0.0, 2.0**-D / 2], [1.0, 2.0**-D / 2])
        proj = content_lower_projection(seg, np.array([1.0, 0.0]), 256)
        assert res.measure.total_mass >= 0.5 * proj
        assert res.measure.total_mass == pytest.approx(1.0, rel=1e-9)


class TestFunctionPath:
    def test_table_gives_tree_rogue_set(self):
        # from_function's P2-only pass over the cubes gives the same E as
        # classifying every cube in full
        u = build_u(growth(1.5), 3, guard_samples=1000).node
        N = 8
        cfg = RogueConfiguration.from_function(u, N, 2, c0=0.9)
        on_tree = set()
        for corner in np.ndindex(N, N):
            cube = LatticeCube(tuple(int(c) - N // 2 for c in corner))
            if not classify_cube(u, cube, 0.25).p2_satisfied:
                on_tree.add(cube.corner)
        assert on_tree and cfg.E == on_tree
