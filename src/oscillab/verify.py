"""Grid-based numerical verification: discrete subharmonicity, certified
suprema, Hausdorff-content sandwich estimates, per-cube oscillation
classification, the rogue census, and growth profiles.

Conventions.  Content covers are scored by (cell edge)^(d-1), which makes
the unit segment's limit exactly one; the oscillation threshold eps_d
defaults to 1/4 in this normalization.  Classification is conservative: a
cube counts as oscillating only when both properties are certified, so
raising the resolution can only move cubes from rogue to oscillating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import LatticeCube, enumerate_basic_cubes
from .subfun import BoxRows, TubeTable, _dots, _frames
from .treeset import GrowthParameters, _distinct

EPS_D_DEFAULT = 0.25


class EmptyDomainError(ValueError):
    """The mask excludes every interior grid point."""


class DomainError(ValueError):
    """A region falls outside the function's evaluation domain."""


# ---------------------------------------------------------------------------
# Grid fields and the discrete Laplacian
# ---------------------------------------------------------------------------


@dataclass
class GridField:
    """Dense scalar samples on a uniform grid."""

    origin: np.ndarray
    h: float
    values: np.ndarray

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float)
        if self.h <= 0:
            raise DomainError(f"grid spacing must be positive, got {self.h}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("grid fields must be finite everywhere")

    @classmethod
    def sample(cls, fn, origin, h: float, shape) -> "GridField":
        origin = np.asarray(origin, dtype=float)
        axes = [origin[i] + h * np.arange(shape[i]) for i in range(len(shape))]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        vals = fn(pts)
        return cls(origin, h, np.asarray(vals, dtype=float).reshape(shape))


@dataclass
class LaplacianReport:
    h: float
    min_value: float
    min_point: tuple
    violations: list
    checked: int


def _interior_coords(start, h: float, i):
    """The coordinates of the interior points i = 0, 1, ... along one axis
    of a grid from ``start`` with step h, where the stencil is taken."""
    return start + h * (1 + i)


def discrete_laplacian_report(field: GridField, mask=None) -> LaplacianReport:
    """(2d+1)-point stencil at interior masked points; reports the minimum
    and every point where the stencil is negative."""
    v = field.values
    d = v.ndim
    if any(n < 3 for n in v.shape):
        raise EmptyDomainError("field needs at least 3 samples per axis")
    interior = tuple(slice(1, -1) for _ in range(d))
    lap = -2.0 * d * v[interior]
    for ax in range(d):
        lo = tuple(slice(0, -2) if i == ax else slice(1, -1) for i in range(d))
        hi = tuple(slice(2, None) if i == ax else slice(1, -1) for i in range(d))
        lap = lap + v[lo] + v[hi]
    lap = lap / field.h**2
    if mask is not None:
        pts_shape = lap.shape
        axes = [_interior_coords(field.origin[i], field.h, np.arange(n))
                for i, n in enumerate(pts_shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        keep = np.asarray(mask(pts), dtype=bool).reshape(pts_shape)
    else:
        keep = np.ones_like(lap, dtype=bool)
    if not keep.any():
        raise EmptyDomainError("mask excludes all interior grid points")
    masked = np.where(keep, lap, np.inf)
    idx = np.unravel_index(int(np.argmin(masked)), masked.shape)
    min_val = float(masked[idx])
    min_pt = tuple(float(_interior_coords(field.origin[i], field.h, idx[i])) for i in range(d))
    viol_idx = np.argwhere(keep & (lap < 0.0))
    violations = [
        tuple(float(_interior_coords(field.origin[i], field.h, j[i])) for i in range(d))
        for j in viol_idx[:100]
    ]
    return LaplacianReport(field.h, min_val, min_pt, violations, int(keep.sum()))


def laplacian_refinement_study(fn, origin, extent: float, hs, mask=None):
    """Minimum-stencil magnitudes across grid refinements; for a harmonic
    base the magnitude scales like h^2."""
    rows = []
    for h in hs:
        field = GridField.sample(fn, origin, h, (grid_size(extent, h),) * len(origin))
        rep = discrete_laplacian_report(field, mask)
        rows.append((h, rep.min_value))
    return rows


def grid_size(extent: float, h: float) -> int:
    """Points per axis of ``laplacian_refinement_study``'s step-h grid."""
    return int(round(extent / h)) + 1


#: points of the largest grid ``laplacian_refinement_study`` is asked to
#: sample, grid_size(extent, h)^d: its grid, points, values, stencil and
#: mask peak under 80 bytes a point (61 measured at d = 2, 78 at d = 3), so
#: 2^21 points take under 160 MiB
REFINEMENT_POINTS_MAX = 2**21


def centreline_mask(width: float):
    """The points within width/2 of the x_1 axis in every coordinate
    j >= 2, where a refinement pins the stencil minimum."""
    return lambda pts: np.all(np.abs(pts[:, 1:]) < width / 2, axis=1)


def refinement_mask_empty(start: float, extent: float, h: float, width: float) -> bool:
    """True when ``laplacian_refinement_study``'s step-h grid, starting at
    ``start`` with the given extent on every axis j >= 2, has no interior
    point in ``centreline_mask(width)``, so that ``discrete_laplacian_report``
    would raise EmptyDomainError; also when it has no interior point at
    all.  The mask is one condition per coordinate, so one axis decides
    for every d.  The coordinates grow with the index, so the one nearest
    0 is one of the two that bracket it, clipped to the interior; only
    those two are computed, and the grid is never built."""
    last = grid_size(extent, h) - 3
    if last < 0:
        return True
    near = math.floor(-start / h) - 1
    i = np.clip(np.array([near, near + 1]), 0, last)
    return not np.any(np.abs(_interior_coords(np.float64(start), h, i)) < width / 2)


# ---------------------------------------------------------------------------
# Certified suprema
# ---------------------------------------------------------------------------


@dataclass
class SupBracket:
    low: float     # value attained at a sample point: a true lower bound
    high: float    # cell-max upper bound


def _grid_counts(lo, hi, h: float) -> list[int]:
    """Points per axis of the grid of step at most h over the box [lo, hi]."""
    return [max(2, int(math.ceil((b - a) / h)) + 1) for a, b in zip(lo.tolist(), hi.tolist())]


def _box_samples(u, lo, hi, h: float, ptr, rows):
    """The sample points of the suprema over the boxes [lo[k], hi[k]] (n,
    d), all of the first one's extent: every box's grid of step at most h,
    in C order, then the nine evenly spaced centerline points inside box k
    of each of its rows ``rows[ptr[k]:ptr[k + 1]]``, in row order, box
    after box.  The profile is monotone along a tube's axis, so a tube's
    maximum within a box sits on its centerline near the clipped far end.
    Returns the points, each point's box (owner) and the slack, half the
    grid's largest step."""
    n, d = lo.shape
    ns = _grid_counts(lo[0], hi[0], h)
    at = np.indices(ns).reshape(d, -1)
    grid = np.stack([_spaced(lo[:, i], hi[:, i], ns[i])[:, at[i]] for i in range(d)], axis=-1)
    owner = np.repeat(np.arange(n), np.diff(ptr))
    a, b = u.tube_a[rows], u.tube_b[rows]
    seg = a[:, None, :] + np.linspace(0.0, 1.0, 9)[None, :, None] * (b - a)[:, None, :]
    inside = np.all((seg >= lo[owner, None]) & (seg <= hi[owner, None]), axis=2)
    slack = max((hi[0, i] - lo[0, i]) / (m - 1) for i, m in enumerate(ns)) / 2.0
    return (np.concatenate([grid.reshape(-1, d), seg[inside]]),
            np.concatenate([np.repeat(np.arange(n), grid.shape[1]),
                            np.repeat(owner, inside.sum(axis=1))]),
            slack)


def sup_on(fn: TubeTable, lo, hi, h: float) -> SupBracket:
    """Certified bracket for the log-supremum over the box [lo, hi], from
    its samples (``_box_samples``) with the centerline points of every row
    of the table: the largest ``eval_log`` below, the largest
    ``upper_local`` (the table's monotone cell bound) above, both from one
    ``max_log``, which evaluates the tiles best first and skips those that
    cannot exceed the running maximum, with the values full evaluation
    gives.
    """
    lo = np.asarray(lo, dtype=float)[None]
    hi = np.asarray(hi, dtype=float)[None]
    if np.any(hi <= lo):
        raise DomainError(f"empty region {lo[0]} .. {hi[0]}")
    pts, _owner, slack = _box_samples(fn, lo, hi, h, np.array([0, len(fn)]), np.arange(len(fn)))
    low, high = fn.max_log(pts, slack)
    return SupBracket(low, max(high, low))


# ---------------------------------------------------------------------------
# Hausdorff content sandwich
# ---------------------------------------------------------------------------


def content_upper(shape, depth: int, box=None) -> float:
    """Greedy dyadic cover value: sum of (cell edge)^(d-1) over the cheapest
    dyadic refinement (down to ``depth``) of the cells meeting the shape.
    An upper bound for the content by definition (infimum over covers).

    ``shape`` implements intersects_boxes(lo, hi) -> bool per row, and
    dimension.  One call per dyadic level asks about the children of the
    cells hit at the level above.  The levels are then reduced bottom-up: a
    hit cell is worth the lesser of its own edge^(d-1) and the sum of its
    children's worths, added one after another in ``np.ndindex`` order.
    That is the depth-first recursion's value bit for bit, as its partial
    sums only grow, so stopping once one reaches the cell's own worth gives
    the same value as adding up every child.
    """
    if depth < 1:
        raise DomainError("depth must be >= 1")
    d = shape.dimension
    if box is None:
        lo, hi = shape.bounds()
        edge = float(np.max(hi - lo))
        edge = 2.0 ** math.ceil(math.log2(max(edge, 1e-12)))
    else:
        lo, hi = np.asarray(box[0], dtype=float), np.asarray(box[1], dtype=float)
        edge = float(np.max(hi - lo))
    cells = np.asarray(lo, dtype=float)[None, :]
    offs = np.array(list(np.ndindex(*(2,) * d)), dtype=float)
    hits = [shape.intersects_boxes(cells, cells + edge)]
    owns = [edge ** (d - 1)]
    for _ in range(depth):
        parents = cells[hits[-1]]
        if not len(parents):
            break
        edge /= 2.0
        cells = (parents[:, None, :] + offs * edge).reshape(-1, d)
        hits.append(shape.intersects_boxes(cells, cells + edge))
        owns.append(edge ** (d - 1))
    worth = np.where(hits[-1], owns[-1], 0.0)
    for hit, own in zip(hits[-2::-1], owns[-2::-1]):
        total = np.cumsum(worth.reshape(-1, 2 ** d), axis=1)[:, -1]
        worth = np.zeros(len(hit))
        worth[hit] = np.minimum(own, total)
    return float(worth[0])


def content_lower_projection(shape, axis: np.ndarray, samples: int = 256) -> float:
    """Certified lower bound for the edge-normalized (d-1)-content: the
    measure of the shape's orthogonal shadow on the hyperplane normal to
    ``axis``, divided by the L1 norm of the unit axis.

    A dyadic cell of edge s shadows a set of (d-1)-measure s^(d-1) |v|_1
    (the cube-shadow identity), so any cover's edge sum dominates the
    shadow measure divided by |v|_1; the divisor is one for coordinate
    axes.  ``shape`` implements line_hits(origins, direction) plus a
    bounding box.
    """
    axis, frame, shadow_factor = _projection_axes(np.asarray(axis, dtype=float)[None])
    lo, hi = shape.bounds()
    origins, cell = _projection_lines(frame, lo[None], hi[None], samples)
    hits = shape.line_hits(origins[0], axis[0])
    # n samples certify at most n-1 cells of the shadow (conservative)
    count = max(0.0, float(np.sum(hits)) - 1.0)
    return count * float(cell[0]) / float(shadow_factor[0])


def _unit(v):
    """The rows of v (n, d) over their lengths, each rounded as
    ``v[i] / np.linalg.norm(v[i])``."""
    return v / np.sqrt(_dots(v, v))[:, None]


def _projection_axes(axes):
    """The rows of ``axes`` (n, d) as a projection takes them: the unit
    axes, their completed frames (n, d, d) and the shadow factors
    |axis|_1."""
    axes = _unit(axes)
    return axes, _frames(axes), np.sum(np.abs(axes), axis=1)


def _spaced(start, stop, num: int) -> np.ndarray:
    """np.linspace(start[k], stop[k], num) for every k, as rows, with the
    bits of each call on its own."""
    start, stop = np.asarray(start, dtype=float), np.asarray(stop, dtype=float)
    i = np.arange(num, dtype=float)
    delta = stop - start
    step = delta / (num - 1)
    with np.errstate(invalid="ignore"):
        y = np.where((step == 0)[:, None], i / (num - 1) * delta[:, None], i * step[:, None])
    y += start[:, None]
    y[:, -1] = stop
    return y


def _projection_lines(frames, lo, hi, samples: int):
    """The sample lines of ``content_lower_projection`` for P (frame,
    box) pairs: the origins (P, L, d) of the lines along frames[p, 0], on
    a grid of n^(d-1) points spanning the shadow of the box [lo[p], hi[p]]
    on the other frame rows, and the shadow area (P,) each line certifies.
    The matrix products are made per pair, stacked, so each pair's values
    are those of a call on that pair alone."""
    P, d = lo.shape
    bits = ((np.arange(2**d)[:, None] >> np.arange(d)) & 1).astype(bool)
    corners = np.where(bits, hi[:, None, :], lo[:, None, :])
    tcoords = corners @ frames[:, 1:].transpose(0, 2, 1)
    tlo, thi = tcoords.min(axis=1), tcoords.max(axis=1)
    n = max(2, int(round(samples ** (1.0 / (d - 1)))))
    grid = np.indices((n,) * (d - 1)).reshape(d - 1, -1)
    tpts = np.stack([_spaced(tlo[:, i], thi[:, i], n)[:, grid[i]] for i in range(d - 1)],
                    axis=-1)
    return tpts @ frames[:, 1:], np.prod((thi - tlo) / (n - 1), axis=1)


class ZeroSetInCube:
    """The zero set of a tube-supported function within each box of one
    ``box_rows`` lookup (a level's cubes).

    A point is certified zero exactly when the log-value is -inf (the
    profiles vanish identically outside the half-tube level sets, so this
    is the true zero set, including the wall layers inside tubes where
    max(T-1, 0) dies).  Where the function ``vanishes`` on a box, the set
    is the whole box and nothing is evaluated.  The function's ``covers``
    grid names the cells of each box on which it is finite throughout
    (``covered`` boxes, all of whose cells it names, hold no zero point):
    a sample inside such a cell is not zero, and is not evaluated.  With
    one box it is a shape for ``content_lower_projection`` (``bounds``,
    ``line_hits``)."""

    def __init__(self, fn, boxes: BoxRows):
        self.fn = fn
        self.dimension = boxes.lo.shape[1]
        self._lo, self._hi, self._whole = boxes.lo, boxes.hi, boxes.vanishes
        cells = np.asarray(fn.covers(boxes), dtype=bool)
        self._side = cells.shape[1]
        self._cells = cells.reshape(len(boxes), self._side**self.dimension)
        self.covered = self._cells.all(axis=1)

    def bounds(self):
        return self._lo[0], self._hi[0]

    def line_hits(self, origins: np.ndarray, direction: np.ndarray) -> np.ndarray:
        """``hits`` of lines through the first box."""
        direction = np.asarray(direction, dtype=float)
        direction = direction / np.linalg.norm(direction)
        return self.hits(np.zeros(1, dtype=np.intp), origins[None], direction[None])[0]

    def hits(self, at, origins, direction) -> np.ndarray:
        """Which lines origins[p, l] + t direction[p] (unit) certifiably
        contain a zero point inside box at[p], sampled at LINE_STEPS points
        spanning the box along the direction (sampling misses only
        undercount).  Every LINE_COARSE-th sample of every line is taken
        first, then the others on the lines with no zero point yet: a line
        is hit when any of its samples is zero, in either order.  Each
        stage evaluates its lines in batches of SAMPLE_BATCH samples at
        most; a sample's zero test does not depend on the samples
        evaluated with it."""
        lo, hi = self._lo[at], self._hi[at]
        # stacked products, each the one a call on its box alone makes
        span_lo = (lo[:, None, :] @ direction[:, :, None])[:, 0, 0]
        span_hi = (hi[:, None, :] @ direction[:, :, None])[:, 0, 0]
        ts = _spaced(span_lo, span_hi, LINE_STEPS)
        along = (origins @ direction[:, :, None])[:, :, 0]
        steps = np.arange(LINE_STEPS)
        coarse = steps % LINE_COARSE == 0
        hit = np.zeros(along.shape, dtype=bool)
        for samples in (steps[coarse], steps[~coarse]):
            p, line = np.nonzero(~hit)
            step = max(1, SAMPLE_BATCH // samples.size)
            for i in range(0, p.size, step):
                q, j = p[i:i + step], line[i:i + step]
                hit[q, j] = self._sample(at[q], origins[q, j],
                                         ts[q[:, None], samples] - along[q, j, None],
                                         direction[q])
        return hit

    def _sample(self, box, origins, offs, direction) -> np.ndarray:
        """Whether each line origins[q] + offs[q, s] direction[q] has a zero
        point among its samples inside box box[q]: every sample of a box
        that vanishes is one, a sample in a certified cell (``_certified``)
        is none, and the others are evaluated."""
        pts = origins[:, None, :] + offs[:, :, None] * direction[:, None, :]
        del offs
        lo, hi = self._lo[box], self._hi[box]
        # per column: a reduction over rows of length d is slow
        inside = np.logical_and.reduce([(pts[..., i] >= lo[:, i, None])
                                        & (pts[..., i] <= hi[:, i, None])
                                        for i in range(self.dimension)])
        zero = inside & self._whole[box][:, None]
        ask = inside & ~zero
        ask &= ~self._certified(box, pts)
        if ask.any():
            X = pts[ask]
            del pts
            zero[ask] = ~np.isfinite(self.fn.eval_log(X))
        return zero.any(axis=1)

    def _certified(self, box, pts) -> np.ndarray:
        """Whether each point pts[q, s] lies in a cell of box box[q]'s
        ``covers`` grid that the grid certifies.  The cell's number along
        each axis is floor((x - lo) / e), clipped to the grid, and the
        point counts only where the float comparisons lo + j e <= x <= lo
        + (j + 1) e, with the bounds ``covers`` certifies, show it inside
        that cell: a point the rounded quotient puts one cell off, or one
        on a face whose other cell alone is certified, is evaluated."""
        side = self._side
        lo = self._lo[box]
        step = (self._hi[box] - lo) / side
        inside = np.ones(pts.shape[:2], dtype=bool)
        where = np.zeros(pts.shape[:2], dtype=np.intp)
        for i in range(self.dimension):
            x, a, e = pts[..., i], lo[:, i, None], step[:, i, None]
            j = np.clip(np.floor((x - a) / e), 0.0, side - 1.0)
            where *= side
            where += j.astype(np.intp)
            inside &= a + j * e <= x
            j += 1.0
            inside &= x <= a + j * e
        return inside & self._cells[box[:, None], where]


# ---------------------------------------------------------------------------
# Oscillation classification and census
# ---------------------------------------------------------------------------


@dataclass
class OscillationReport:
    cube: tuple
    p1_satisfied: bool
    p2_satisfied: bool
    classification: str  # oscillating | rogue
    sup_low: float = float("nan")
    projection: float = float("nan")
    widest: float = 0.0  # the largest eps among the cube's near rows

    @property
    def rogue(self) -> bool:
        return self.classification == "rogue"


#: sample lines per projection axis of P2
PROJECTION_SAMPLES = 64
#: sample points per line of P2
LINE_STEPS = 96
#: stride of the samples a P2 line takes first
LINE_COARSE = 8
#: census sample points evaluated in one call at most, which bounds its
#: memory
SAMPLE_BATCH = 2**14
#: grid step of P1's samples
P1_STEP = 0.125
#: least grid step of ``growth_profile``'s samples
GROWTH_STEP = 0.25


def zero_set_projection(u, boxes: BoxRows, eps_d: float) -> np.ndarray:
    """P2's certificate for each box of ``boxes`` (a ``box_rows`` lookup):
    the best projection lower bound on the content of the zero set of
    ``u`` in the box, over the coordinate axes and the axes of the first
    four tubes ``near`` it, stopping once it reaches eps_d.

    ``u.covers`` is searched once for all boxes (``ZeroSetInCube``).
    Where it certifies every cell of a box (the function is certainly
    positive on all of it), the answer is 0.0 without sampling.  That is
    the value sampling returns: no point of any line is zero, so no line
    hits and every axis counts max(0, 0 - 1) = 0 cells.  The other boxes
    are sampled in rounds, one axis a round, each round taking every box
    still below eps_d that has that axis (``ZeroSetInCube.hits``): a box
    ends with the value the axes taken in turn give it.  Their samples in
    certified cells are not zero points and are not evaluated; whether an
    evaluated sample is finite does not depend on its batch, so every line
    hits as it would with all its samples evaluated."""
    n, d = boxes.lo.shape
    best = np.zeros(n)
    zset = ZeroSetInCube(u, boxes)
    open_ = ~zset.covered
    tubes = np.diff(boxes.near_ptr)
    for a in range(d + 4):
        at = np.flatnonzero(open_ & (best < eps_d) & (tubes > a - d))
        if at.size == 0:
            continue
        if a < d:
            axes = np.zeros((1, d))
            axes[0, a] = 1.0
            which = np.zeros(at.size, dtype=np.intp)
        else:
            rows, which = _distinct(boxes.near[boxes.near_ptr[at] + a - d])
            axes = _unit(u.tube_b[rows] - u.tube_a[rows])
        axis, frame, shadow = _projection_axes(axes)
        # normalized once more, as ``ZeroSetInCube.line_hits`` takes it
        direction = _unit(axis)
        origins, cell = _projection_lines(frame[which], boxes.lo[at], boxes.hi[at],
                                          PROJECTION_SAMPLES)
        hits = zset.hits(at, origins, direction[which])
        count = np.maximum(0.0, hits.sum(axis=1) - 1.0)
        best[at] = np.maximum(best[at], count * cell / shadow[which])
    return best


def _sup_lows(u, boxes: BoxRows, h: float) -> np.ndarray:
    """The largest ``eval_log`` at the samples (``_box_samples``) of each
    box of ``boxes`` (all of the first one's extent) with the centerline
    points of its rows: the points of as many boxes as make about
    SAMPLE_BATCH go to one ``eval_log``, and the maxima are taken per
    box."""
    lo, hi, ptr = boxes.lo, boxes.hi, boxes.ptr
    n = len(boxes)
    low = np.full(n, -np.inf)
    if n == 0:
        return low
    step = max(1, SAMPLE_BATCH // math.prod(_grid_counts(lo[0], hi[0], h)))
    for a in range(0, n, step):
        b = min(a + step, n)
        pts, owner, _slack = _box_samples(u, lo[a:b], hi[a:b], h, ptr[a:b + 1] - ptr[a],
                                          boxes.rows[ptr[a]:ptr[b]])
        np.maximum.at(low, owner + a, u.eval_log(pts))
    return low


def classify_cubes(u, corners, eps_d: float = EPS_D_DEFAULT) -> list[OscillationReport]:
    """The reports of the basic cubes with the given corners (n, d), from
    one row lookup, P1's batches, one ``covers`` search and P2's axis
    rounds over all of them.  P1 by a certified supremum lower bound (grid
    plus tube centerlines), P2 by the projection lower bound on the zero
    set's content.  A cube is rogue when either certification fails;
    near-threshold uncertainty counts as rogue (conservative)."""
    corners = np.asarray(corners, dtype=np.int64)
    lo = corners.astype(float)
    boxes = u.box_rows(lo, lo + 1.0)
    low = _sup_lows(u, boxes, P1_STEP)
    proj = zero_set_projection(u, boxes, eps_d)
    widest = np.zeros(len(corners))
    some = np.diff(boxes.near_ptr) > 0
    if some.any():
        widest[some] = np.maximum.reduceat(u.eps[boxes.near], boxes.near_ptr[:-1][some])
    p1, p2 = (low >= 0.0).tolist(), (proj >= eps_d).tolist()  # P1 on log scale: sup >= 1
    return [OscillationReport(tuple(c), a, b, "oscillating" if (a and b) else "rogue", s, p, w)
            for c, a, b, s, p, w in zip(corners.tolist(), p1, p2, low.tolist(), proj.tolist(),
                                        widest.tolist())]


def classify_cube(u, cube: LatticeCube, eps_d: float = EPS_D_DEFAULT) -> OscillationReport:
    """``classify_cubes`` of the one cube."""
    return classify_cubes(u, [cube.corner], eps_d)[0]


@dataclass
class CensusResult:
    count: int
    gamma: float
    total: int
    f_value: float
    reports: list


def rogue_census(u, lo, hi, f: GrowthParameters,
                 eps_d: float = EPS_D_DEFAULT) -> CensusResult:
    """Exact rogue count over the basic cubes of the box, divided by
    f(edge length), with every cube's report, all classified together
    (``classify_cubes``)."""
    cubes = enumerate_basic_cubes(lo, hi)
    reports = classify_cubes(u, [c.corner for c in cubes], eps_d)
    count = sum(1 for r in reports if r.rogue)
    edge = float(max(b - a for a, b in zip(lo, hi)))
    fval = float(f(edge))
    return CensusResult(count, count / fval, len(cubes), fval, reports)


# ---------------------------------------------------------------------------
# Growth profile
# ---------------------------------------------------------------------------


@dataclass
class GrowthProfile:
    radii: list
    log_m: list        # sampled lower bound of log M_u(R) (SupBracket.low)
    denominators: list
    ratios: list
    log_m_upper: list  # certified upper bound of log M_u(R) (SupBracket.high)

    def max_ratio(self) -> float:
        return max(self.ratios)

    def min_ratio(self) -> float:
        return min(self.ratios)


def lower_bound_denominator(R: float, f: GrowthParameters) -> float:
    """R log^(d/(d-1))(2 + f(R)/R) / (1 + (f(R)/R)^(1/(d-1)))."""
    d = f.d
    ratio = float(f(R)) / R
    return R * math.log(2.0 + ratio) ** (d / (d - 1)) / (1.0 + ratio ** (1.0 / (d - 1)))


def growth_profile(levels: list[TubeTable], f: GrowthParameters) -> GrowthProfile:
    """Measured log M_u(2^k) against the lower-bound denominator, per dyadic
    radius, as the bracket of ``sup_on``: the ratios use the sampled lower
    bound, ``log_m_upper`` is the certified upper bound.  Radius 2^k is
    measured on its own level function, ``levels[k - 1]`` (``build_u``'s
    ``level_nodes``), for k = 1 .. len(levels)."""
    radii, logs, dens, ratios, uppers = [], [], [], [], []
    d = f.d
    for k, fn in enumerate(levels, start=1):
        R = 2.0**k
        lo = np.zeros(d)
        hi = np.full(d, R)
        bracket = sup_on(fn, lo, hi, max(GROWTH_STEP, R / 64.0))
        radii.append(R)
        logs.append(bracket.low)
        uppers.append(bracket.high)
        dens.append(lower_bound_denominator(R, f))
        ratios.append(bracket.low / dens[-1])
    return GrowthProfile(radii, logs, dens, ratios, uppers)
