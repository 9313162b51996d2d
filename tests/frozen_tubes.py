"""Frozen reference for the tube geometry, kept as an independent oracle.

A tube of diameter delta around the segment [a, b] is the set of points
whose coordinate along the segment lies in [0, |b - a|] and whose
transverse coordinates, in an orthonormal frame completed from b - a, are
all below delta/2 in absolute value (square cross-section).  This is the
geometry ``TubeSpec`` computed, and the sparseness measure on it, as they
were before both moved to the rows of ``subfun.TubeTable``; the tests
compare the table against it.
"""

import math

import numpy as np

from oscillab.treeset import complete_frame


class FrozenTube:
    def __init__(self, a, b, diameter):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.diameter = float(diameter)
        self.length = float(np.linalg.norm(self.b - self.a))
        self.frame = complete_frame(self.b - self.a)

    def local(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.a) @ self.frame.T

    def contains(self, points):
        loc = self.local(points)
        axial = (loc[:, 0] >= 0.0) & (loc[:, 0] <= self.length)
        trans = np.all(np.abs(loc[:, 1:]) < self.diameter / 2.0, axis=1)
        return axial & trans

    def distance(self, points):
        """Euclidean distance to the tube (exact: box in frame coordinates)."""
        loc = self.local(points)
        dx = np.maximum(np.maximum(-loc[:, 0], loc[:, 0] - self.length), 0.0)
        dt = np.maximum(np.abs(loc[:, 1:]) - self.diameter / 2.0, 0.0)
        return np.sqrt(dx**2 + np.sum(dt**2, axis=1))


def tubes_of(a, b, diameters):
    """Frozen tubes around the segments [a[i], b[i]]."""
    return [FrozenTube(x, y, e) for x, y, e in zip(a, b, diameters)]


def _cell_vs_tubes(lo, hi, tubes):
    """-1 cell disjoint from all tubes, +1 cell inside some tube, 0 unresolved."""
    corners = np.asarray(
        [[lo[i] if not (j >> i) & 1 else hi[i] for i in range(len(lo))]
         for j in range(2 ** len(lo))]
    )
    center = (np.asarray(lo) + np.asarray(hi)) / 2.0
    circum = float(np.linalg.norm(np.asarray(hi) - np.asarray(lo)) / 2.0)
    survivors = []
    for t in tubes:
        if bool(np.all(t.contains(corners))):
            return 1, ()
        if float(t.distance(center[None, :])[0]) <= circum:
            survivors.append(t)
    if not survivors:
        return -1, ()
    return 0, tuple(survivors)


def tube_measure_in_cube(cube_lo, cube_hi, tubes, depth_cap=8, mc_samples=100_000,
                         seed=2024):
    """(low, high, estimate, standard error) of the measure of the box's
    intersection with the union of the tubes, by depth-first dyadic
    subdivision and a fixed-seed Monte-Carlo sweep over the cells left at
    the depth cap."""
    cube_lo = np.asarray(cube_lo, dtype=float)
    cube_hi = np.asarray(cube_hi, dtype=float)
    inside_vol = 0.0
    unresolved = []
    state, survivors = _cell_vs_tubes(cube_lo, cube_hi, tubes)
    stack = [(cube_lo, cube_hi, survivors, 0)] if state == 0 else []
    if state == 1:
        inside_vol = float(np.prod(cube_hi - cube_lo))
    while stack:
        lo, hi, cand, depth = stack.pop()
        if depth >= depth_cap:
            unresolved.append((lo, hi, cand))
            continue
        mid = (lo + hi) / 2.0
        for idx in np.ndindex(*(2,) * len(lo)):
            sub_lo = np.where(np.asarray(idx) == 0, lo, mid)
            sub_hi = np.where(np.asarray(idx) == 0, mid, hi)
            state, surv = _cell_vs_tubes(sub_lo, sub_hi, cand)
            if state == 1:
                inside_vol += float(np.prod(sub_hi - sub_lo))
            elif state == 0:
                stack.append((sub_lo, sub_hi, surv, depth + 1))
    unresolved_vol = float(sum(np.prod(hi - lo) for lo, hi, _ in unresolved))
    if not unresolved:
        return inside_vol, inside_vol, inside_vol, 0.0
    rng = np.random.default_rng(
        np.random.SeedSequence([seed] + [int(v * 16) & 0xFFFF for v in cube_lo]))
    per_cell = max(16, mc_samples // len(unresolved))
    hits = 0
    total = 0
    for lo, hi, cand in unresolved:
        pts = rng.uniform(lo, hi, size=(per_cell, len(lo)))
        inside = np.zeros(per_cell, dtype=bool)
        for t in cand:
            inside |= t.contains(pts)
        hits += int(inside.sum())
        total += per_cell
    frac = hits / total
    est = inside_vol + frac * unresolved_vol
    se = unresolved_vol * math.sqrt(max(frac * (1 - frac), 1e-12) / total)
    return inside_vol, inside_vol + unresolved_vol, est, se


def cube_measure(corner, tubes, depth_cap, mc_samples, seed=2024):
    """``tube_measure_in_cube`` on the unit cube at ``corner``, over the
    tubes within its circumradius of its centre."""
    lo = np.asarray(corner, dtype=float)
    centre = (lo + 0.5)[None, :]
    near = [t for t in tubes if float(t.distance(centre)[0]) <= math.sqrt(len(lo)) / 2]
    return tube_measure_in_cube(lo, lo + 1.0, near, depth_cap, mc_samples, seed)
