"""Censuses over the tube set itself and the contraction reports."""

import hashlib
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
from oscillab.treeset import (
    EPS1,
    GrowthParameters,
    _anchored,
    _distance,
    count_nonsparse,
    sparseness_threshold,
)
from oscillab.verify import classify_cube


def growth(a, d=2):
    return GrowthParameters(d=d, index=a).validate()


def function_of(g, k):
    """The rank-(k+1) function, whose tube set is the rank-(k+1) tree (the
    tube geometry does not depend on the guard certificates)."""
    return build_u(g, k + 1, check_guards=False)


#: sha256 (first 16 hex digits) of the (corner, status) rows and of the
#: (count, uncertain, every cube touched) triple of ``count_nonsparse`` at
#: its defaults, per (d, f index, k), as the census on the tree set's
#: per-tube records gave them before it moved to the tube table's rows
CENSUS_ORACLE = {
    (2, 1.5, 1): ("6060a88f5f2f9aa2", "3a8a888e2a21f450"),
    (2, 1.5, 2): ("1ae89ce7e874a350", "d1414674c4096909"),
    (2, 1.5, 3): ("7f2ec2822f82db03", "7b582766ca7a24e9"),
    (2, 1.5, 4): ("76dfa6bf73b7ccc2", "f4c217f70d448b53"),
    (3, 2.0, 2): ("865e3f764b684c0c", "719042ef29d1711c"),
}


#: the same for the d = 3 reports' (corner, measure_low, measure_high,
#: estimate) as float hex, which the table's rows reproduce bit for bit
#: (on the numpy build and CPU features it was recorded with)
CENSUS_MEASURES_D3 = "995ca4d94c3581d6"


def _digest(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


class TestTreeCensus:
    def test_every_cube_touched_and_ratio_bounded(self):
        g = growth(1.5)
        ratios = {}
        for k in (2, 3, 4):
            count, ratio, uncertain, reports, touched = count_nonsparse(
                g, k, function_of(g, k), depth_cap=5, mc_samples=2048)
            ratios[k] = ratio
            assert touched, f"k={k}: some cube misses the tree"
            assert uncertain <= 0.05 * len(reports)
        assert max(ratios.values()) / min(ratios.values()) < 4.0

    def test_every_cube_touched_d3(self):
        g = growth(2.0, d=3)
        count, _ratio, uncertain, reports, touched = count_nonsparse(g, 2, function_of(g, 2))
        assert touched, "some cube misses the tree"
        assert uncertain <= 0.05 * len(reports)
        rows = [(r.corner, r.status) for r in reports]
        assert (_digest(rows), _digest((count, uncertain, touched))) == CENSUS_ORACLE[(3, 2.0, 2)]
        measures = [(r.corner, r.measure_low.hex(), r.measure_high.hex(), r.estimate.hex())
                    for r in reports]
        assert _digest(measures) == CENSUS_MEASURES_D3

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_frozen_census_d2(self, k):
        g = growth(1.5)
        count, _ratio, uncertain, reports, touched = count_nonsparse(g, k, function_of(g, k))
        rows = [(r.corner, r.status) for r in reports]
        assert (_digest(rows), _digest((count, uncertain, touched))) == CENSUS_ORACLE[(2, 1.5, k)]

    def test_smallest_rank_has_handle_cubes(self):
        # the rank-2 tree already carries its handles (absolute diameter
        # 2 delta_1 > 2 eps_1): the cube riding the inner handle segment is
        # not sparse, while the off-diagonal cubes and the far corner stay
        # below the threshold
        g = growth(1.5)
        count, ratio, _unc, reports, _t = count_nonsparse(
            g, 1, function_of(g, 1), depth_cap=6, mc_samples=4096)
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
        r = math.sqrt(2) / 2
        for k in (2, 3, 4):
            table = function_of(g, k).node
            # the tree set: every row but row 0, the outgoing handle
            table = table.span(1, len(table))
            hit = 0
            for corner in np.ndindex(2**k, 2**k):
                center = np.asarray(corner, dtype=float) + 0.5
                rows = table.box_rows(center - 0.5, center + 0.5).near
                rows = rows[table.eps[rows] > 2 * EPS1]
                pts = np.broadcast_to(center, (rows.size, 1, 2))
                if np.any(_distance(_anchored(table, rows), pts) <= r):
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
