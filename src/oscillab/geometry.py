"""Integer lattice and dyadic cube combinatorics.

Basic cubes are half-open unit cubes whose corners lie on the integer
lattice; a dyadic cube of order k has edge 2**k and corner coordinates that
are integer multiples of 2**k, so the cubes of one order tile space and two
cubes of the same order are disjoint or equal.  Everything in this module is
exact integer arithmetic; the only float that ever enters is the scale
parameter of ``containing_dyadic``, which is rounded to a power of two
before any containment decision is made.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class InvalidRegionError(ValueError):
    """Raised for regions that are not non-degenerate integer boxes."""


class InvalidLayerError(ValueError):
    """Raised when a dyadic order is outside its admissible range."""


@dataclass(frozen=True)
class LatticeCube:
    """Half-open unit cube prod_j [n_j, n_j + 1) with integer corner."""

    corner: tuple[int, ...]

    def __post_init__(self):
        if len(self.corner) == 0:
            raise InvalidRegionError("corner must have positive dimension")
        if not all(isinstance(c, (int, np.integer)) for c in self.corner):
            raise InvalidRegionError(f"corner must be integer, got {self.corner!r}")
        object.__setattr__(self, "corner", tuple(int(c) for c in self.corner))


@dataclass(frozen=True)
class DyadicCube:
    """Cube of edge 2**order whose corner is a multiple of 2**order."""

    order: int
    corner: tuple[int, ...]

    def __post_init__(self):
        if self.order < 0:
            raise InvalidLayerError(f"order must be non-negative, got {self.order}")
        edge = 1 << self.order
        if any(c % edge != 0 for c in self.corner):
            raise InvalidRegionError(
                f"corner {self.corner} is not aligned to the order-{self.order} grid"
            )
        object.__setattr__(self, "corner", tuple(int(c) for c in self.corner))

    @property
    def edge(self) -> int:
        return 1 << self.order

    def contains_cube(self, cube: LatticeCube) -> bool:
        return all(
            c0 <= c < c0 + self.edge for c, c0 in zip(cube.corner, self.corner)
        )


def _check_region(lo, hi) -> tuple[tuple[int, ...], tuple[int, ...]]:
    lo = tuple(lo)
    hi = tuple(hi)
    if len(lo) != len(hi) or len(lo) == 0:
        raise InvalidRegionError("region corners must have equal positive length")
    for a, b in zip(lo, hi):
        if not (float(a).is_integer() and float(b).is_integer()):
            raise InvalidRegionError(f"region corners must be integer: {lo}, {hi}")
        if int(b) <= int(a):
            raise InvalidRegionError(f"region is empty along an axis: {lo}, {hi}")
    return tuple(int(a) for a in lo), tuple(int(b) for b in hi)


def enumerate_basic_cubes(lo, hi) -> list[LatticeCube]:
    """Every basic cube contained in the box prod [lo_j, hi_j), exactly once,
    in lexicographic corner order."""
    lo, hi = _check_region(lo, hi)
    ranges = [range(a, b) for a, b in zip(lo, hi)]
    return [LatticeCube(corner) for corner in itertools.product(*ranges)]


def containing_dyadic(cube: LatticeCube, rho: float) -> DyadicCube:
    """The unique dyadic cube J containing ``cube`` whose edge is the power
    of two in the half-open interval [2*rho, 4*rho).

    Exactly one power of two lies in that interval, and the dyadic cubes of
    the corresponding order partition space, so J exists and is unique.
    Requires rho >= 2*sqrt(d) which forces the edge to exceed the unit cube.
    """
    if rho <= 0 or not math.isfinite(rho):
        raise InvalidRegionError(f"rho must be positive and finite, got {rho}")
    # Candidate order from floats, then fixed up with exact comparisons
    # against integer powers so boundary cases land left-inclusive.
    m = math.ceil(math.log2(2.0 * rho))
    while 2.0**m < 2.0 * rho:
        m += 1
    while 2.0 ** (m - 1) >= 2.0 * rho:
        m -= 1
    if not 2.0 * rho <= 2.0**m < 4.0 * rho:
        raise InvalidRegionError(f"no power of two in [2*{rho}, 4*{rho})")
    edge = 1 << m
    corner = tuple((c // edge) * edge for c in cube.corner)
    out = DyadicCube(m, corner)
    if not out.contains_cube(cube):
        # Cannot happen for rho >= 2 sqrt(d): the edge is at least 8 times
        # the unit cube and grid alignment forces containment.
        raise InvalidRegionError(f"dyadic cube {out} does not contain {cube}")
    return out
