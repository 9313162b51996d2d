"""Censuses over the tube set itself and the contraction reports."""

import math

import numpy as np
import pytest

import frozen_tubes
from slab_function import SlabOscillating
from oscillab import mainlemma
from oscillab.cli import main
from oscillab.mainlemma import (
    RhoField,
    RogueConfiguration,
    build_cover,
    chain_contraction,
    kappa_chains,
)
from oscillab.geometry import LatticeCube
from oscillab.subfun import TubeTable, build_u
from oscillab.treeset import EPS1, GrowthParameters
from oscillab.verify import classify_cube


def growth(a, d=2):
    return GrowthParameters(d=d, index=a).validate()


def function_of(g, k):
    """The rank-(k+1) function, whose tube set is the rank-(k+1) tree (the
    tube geometry does not depend on the guard certificates)."""
    return build_u(g, k + 1, check_guards=False)


def level_points(k, d, n):
    """The centres of the n^d cells of each basic cube of [0, 2^k)^d, as
    (cubes, n^d, d)."""
    corners = np.indices((2**k,) * d).reshape(d, -1).T
    cells = (np.indices((n,) * d).reshape(d, -1).T + 0.5) / n
    return corners[:, None, :] + cells[None]


def tree_share(g, k, n=8):
    """The share of each basic cube of [0, 2^k)^d that the tubes of the
    rank-(k+1) tree (as ``tree.json`` records them) cover, sampled at the
    centres of n^d cells per cube."""
    tree = function_of(g, k).tree()
    pts = level_points(k, g.d, n)
    flat = pts.reshape(-1, g.d)
    inside = np.zeros(len(flat), dtype=bool)
    for tube in frozen_tubes.tubes_of(tree.a, tree.b, tree.diameter):
        inside |= tube.distance(flat) == 0.0
    return inside.reshape(pts.shape[:2]).mean(axis=1)


class TestTreeCensus:
    def test_every_cube_touched_and_ratio_bounded(self):
        # the cubes the tree fills past the paper's sparseness threshold
        # sqrt(d) (2 eps_1)^(d-1) are as many as f(2^k), up to a bounded
        # factor
        g = growth(1.5)
        ratios = {}
        for k in (2, 3, 4):
            share = tree_share(g, k)
            assert (share > 0).all(), f"k={k}: some cube misses the tree"
            dense = np.count_nonzero(share >= math.sqrt(2) * 2 * EPS1)
            ratios[k] = dense / float(g(2.0**k))
        assert max(ratios.values()) / min(ratios.values()) < 4.0

    def test_every_cube_touched_d3(self):
        share = tree_share(growth(2.0, d=3), 2)
        assert (share > 0).all(), "some cube misses the tree"

    def test_branch_census_proportional_to_growth(self):
        # cubes whose centre lies within the half diagonal of a branch (a
        # tube wider than the leaves), against the comparison function
        g = growth(1.5)
        vals = {}
        r = math.sqrt(2) / 2
        for k in (2, 3, 4):
            tree = function_of(g, k).tree()
            wide = tree.diameter > 2 * EPS1
            centres = level_points(k, 2, 1)[:, 0]
            near = np.zeros(len(centres), dtype=bool)
            for tube in frozen_tubes.tubes_of(tree.a[wide], tree.b[wide], tree.diameter[wide]):
                near |= tube.distance(centres) <= r
            vals[k] = np.count_nonzero(near) / float(g(2.0**k))
        assert max(vals.values()) / min(vals.values()) < 4.0

    def test_threshold_margin(self):
        # the leaf diameter keeps the sparseness threshold below 1/2
        for d in (2, 3):
            assert math.sqrt(d) * (2.0 * EPS1) ** (d - 1) < 0.5


class TestChainContraction:
    def test_oscillating_function_contracts_linearly(self):
        u = SlabOscillating(2)
        cfg = RogueConfiguration(16, 2, set())
        rho = RhoField.compute(cfg)
        res = kappa_chains(cfg, rho, build_cover(cfg, rho))
        rows = chain_contraction(u, cfg, res)
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


def contraction_of(tmp_path, monkeypatch, d, f, k, N):
    """``build --d D --f F --k K`` then ``lemma --d D --N N --E function:F
    --function F``: the arguments and the rows of its chain contraction,
    and the number of boxes of each ``box_rows`` call the contraction
    makes."""
    assert main(["build", "--d", str(d), "--f", f, "--k", str(k),
                 "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "function.json")
    seen = {}
    contraction, box_rows = mainlemma.chain_contraction, TubeTable.box_rows

    def recorded(*args):
        lookups = []
        monkeypatch.setattr(TubeTable, "box_rows", lambda self, lo, hi: lookups.append(
            len(np.atleast_2d(lo))) or box_rows(self, lo, hi))
        rows = contraction(*args)
        monkeypatch.setattr(TubeTable, "box_rows", box_rows)
        seen.update(args=args, rows=rows, lookups=lookups)
        return rows

    monkeypatch.setattr(mainlemma, "chain_contraction", recorded)
    assert main(["lemma", "--d", str(d), "--N", str(N), "--E", f"function:{path}",
                 "--function", path, "--out", str(tmp_path / "lemma")]) == 0
    return seen


@pytest.mark.parametrize("d, f, k, N", [(2, "t^1.5", 5, 32), (2, "t^1.5", 4, 32),
                                        (3, "t^2", 3, 16)])
def test_contraction_matches_per_box_path(tmp_path, monkeypatch, d, f, k, N):
    # each extent's boxes looked up and evaluated together give the rows,
    # bit for bit, of every box's supremum taken on its own
    seen = contraction_of(tmp_path, monkeypatch, d, f, k, N)
    rows, want = seen["rows"], frozen_tubes.chain_contraction(*seen["args"])
    assert len(rows) == len(want) == 64
    for row, old in zip(rows, want):
        assert (row.corner, row.kappa_count) == (old.corner, old.kappa_count)
        assert type(row.log_ratio) is float
        assert np.float64(row.log_ratio).tobytes() == np.float64(old.log_ratio).tobytes()
        assert np.array(row.per_step).tobytes() == np.array(old.per_step).tobytes()
    # d = 3 at N = 16 has k_max = 0: there, only Q and the cubes are
    # compared
    assert (sum(row.kappa_count for row in rows) > 0) == (d == 2)


def test_contraction_lookups(tmp_path, monkeypatch):
    # one lookup for Q, one for the cubes and one per kappa extent, where
    # a box at a time took one per box
    seen = contraction_of(tmp_path, monkeypatch, 2, "t^1.5", 5, 32)
    config = seen["args"][1]
    kappas = sum(row.kappa_count for row in seen["rows"])
    assert seen["lookups"][:2] == [1, 64]
    assert len(seen["lookups"]) <= config.k_max + 2 < 1 + 64 + kappas
    assert sum(seen["lookups"]) == 1 + 64 + kappas


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
