import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscillab.geometry import (
    DyadicCube,
    InvalidLayerError,
    InvalidRegionError,
    LatticeCube,
    containing_dyadic,
    enumerate_basic_cubes,
)


class TestEnumerateBasicCubes:
    def test_unit_square_block(self):
        cubes = enumerate_basic_cubes((0, 0), (2, 2))
        assert [c.corner for c in cubes] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("k,d", [(1, 2), (2, 2), (1, 3), (2, 3)])
    def test_power_of_two_box_count(self, k, d):
        cubes = enumerate_basic_cubes((0,) * d, (2**k,) * d)
        assert len(cubes) == 2 ** (k * d)

    def test_symmetric_box_3d(self):
        assert len(enumerate_basic_cubes((-1, -1, -1), (1, 1, 1))) == 8

    def test_rejects_empty_region(self):
        with pytest.raises(InvalidRegionError):
            enumerate_basic_cubes((0, 0), (0, 2))

    def test_rejects_non_integer_region(self):
        with pytest.raises(InvalidRegionError):
            enumerate_basic_cubes((0.5, 0), (2, 2))

    def test_unique_and_sorted(self):
        cubes = enumerate_basic_cubes((-2, 1), (1, 3))
        corners = [c.corner for c in cubes]
        assert corners == sorted(set(corners))
        assert len(cubes) == 6


class TestDyadicCube:
    def test_rejects_negative_order(self):
        with pytest.raises(InvalidLayerError):
            DyadicCube(-1, (0, 0))

    def test_rejects_misaligned_corner(self):
        with pytest.raises(InvalidRegionError):
            DyadicCube(2, (2, 0))

    def test_same_order_disjoint_or_equal(self):
        a = DyadicCube(1, (0, 0))
        b = DyadicCube(1, (2, 0))
        cubes_a = {c.corner for c in enumerate_basic_cubes(a.corner, np.add(a.corner, a.edge))}
        cubes_b = {c.corner for c in enumerate_basic_cubes(b.corner, np.add(b.corner, b.edge))}
        assert cubes_a.isdisjoint(cubes_b)


class TestContainingDyadic:
    def test_rho_2sqrt2(self):
        j = containing_dyadic(LatticeCube((0, 0)), 2 * math.sqrt(2))
        assert j.order == 3 and j.corner == (0, 0)

    def test_rho_3_offset_cube(self):
        j = containing_dyadic(LatticeCube((5, 2)), 3.0)
        assert j.order == 3 and j.corner == (0, 0)

    @pytest.mark.parametrize("m", [3, 4, 5, 9])
    def test_left_endpoint_inclusive(self, m):
        # rho = 2^m / 2 exactly: the interval [2 rho, 4 rho) = [2^m, 2^(m+1)).
        j = containing_dyadic(LatticeCube((0,) * 2), 2.0**m / 2.0)
        assert j.order == m

    def test_negative_corner(self):
        j = containing_dyadic(LatticeCube((-3, -9)), 2 * math.sqrt(2))
        assert j.order == 3
        assert j.contains_cube(LatticeCube((-3, -9)))
        assert j.corner == (-8, -16)

    @given(
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
        st.floats(min_value=2.83, max_value=200.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_edge_in_window_and_contains(self, corner, rho):
        cube = LatticeCube(corner)
        j = containing_dyadic(cube, rho)
        assert 2 * rho <= j.edge < 4 * rho
        assert j.contains_cube(cube)

    def test_monotone_in_rho(self):
        cube = LatticeCube((7, -5))
        for rho in np.linspace(3.0, 40.0, 60):
            small = containing_dyadic(cube, float(rho))
            big = containing_dyadic(cube, float(2 * rho))
            assert big.edge >= small.edge

