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
from .subfun import BoxRows, TubeTable
from .treeset import GrowthParameters

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

    def points(self) -> np.ndarray:
        axes = [self.origin[i] + self.h * np.arange(n) for i, n in enumerate(self.values.shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])


@dataclass
class LaplacianReport:
    h: float
    min_value: float
    min_point: tuple
    violations: list
    tolerance: float
    checked: int


def _interior_coords(start, h: float, i):
    """The coordinates of the interior points i = 0, 1, ... along one axis
    of a grid from ``start`` with step h, where the stencil is taken."""
    return start + h * (1 + i)


def discrete_laplacian_report(field: GridField, mask=None,
                              tol: float | None = None) -> LaplacianReport:
    """(2d+1)-point stencil at interior masked points; reports the minimum
    and every point where the stencil falls below -tol."""
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
    tol = 0.0 if tol is None else tol
    masked = np.where(keep, lap, np.inf)
    idx = np.unravel_index(int(np.argmin(masked)), masked.shape)
    min_val = float(masked[idx])
    min_pt = tuple(float(_interior_coords(field.origin[i], field.h, idx[i])) for i in range(d))
    viol_idx = np.argwhere(keep & (lap < -tol))
    violations = [
        tuple(float(_interior_coords(field.origin[i], field.h, j[i])) for i in range(d))
        for j in viol_idx[:100]
    ]
    return LaplacianReport(field.h, min_val, min_pt, violations, tol, int(keep.sum()))


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
    argmax: tuple


def _sup_points(lo, hi, h: float, extra_points):
    """The sample points of ``sup_on`` over the box [lo, hi] (a grid of
    step at most h, then the extra points inside the box) and the slack,
    half the grid's largest step."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(hi <= lo):
        raise DomainError(f"empty region {lo} .. {hi}")
    d = lo.shape[0]
    ns = [max(2, int(math.ceil((hi[i] - lo[i]) / h)) + 1) for i in range(d)]
    axes = [np.linspace(lo[i], hi[i], ns[i]) for i in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    if extra_points is not None and len(extra_points):
        extra = np.atleast_2d(extra_points)
        inside = np.all((extra >= lo) & (extra <= hi), axis=1)
        pts = np.vstack([pts, extra[inside]])
    slack = max((hi[i] - lo[i]) / (ns[i] - 1) for i in range(d)) / 2.0
    return pts, slack


def sup_low(fn: TubeTable, lo, hi, h: float, extra_points: np.ndarray | None = None) -> float:
    """The lower half of ``sup_on``'s bracket alone: the largest log-value
    at its sample points."""
    pts, _slack = _sup_points(lo, hi, h, extra_points)
    return fn.max_log(pts)[1]


def sup_on(fn: TubeTable, lo, hi, h: float,
           extra_points: np.ndarray | None = None) -> SupBracket:
    """Certified bracket for the log-supremum over the box [lo, hi]: the
    largest ``eval_log`` at the sample points below, the largest
    ``upper_local`` (the table's monotone cell bound) above, both through
    ``max_log``, which evaluates the tiles best first and skips those that
    cannot reach the running maximum, with the values full evaluation
    gives.
    """
    pts, slack = _sup_points(lo, hi, h, extra_points)
    i, low = fn.max_log(pts)
    high = fn.max_log(pts, slack)[1]
    return SupBracket(low, max(high, low), tuple(np.round(pts[i], 9)))


def _support_sup_points(ends, lo, hi) -> np.ndarray:
    """Candidate maximizers: per tube, samples along the centerline clipped
    to the box (the profile is monotone along the axis, so the within-box
    maximum sits on the centerline near the clipped far end).  ``ends`` is
    the (a, b) pair of endpoint arrays (``tube_a``, ``tube_b``) of a
    table's rows."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    a, b = ends
    if len(a) == 0:
        return np.zeros((0, len(lo)))
    ts = np.linspace(0.0, 1.0, 9)
    seg = a[:, None, :] + ts[None, :, None] * (b - a)[:, None, :]
    inside = np.all((seg >= lo) & (seg <= hi), axis=2)
    return seg[inside]


# ---------------------------------------------------------------------------
# Hausdorff content sandwich
# ---------------------------------------------------------------------------


def content_upper(shape, depth: int, box=None) -> float:
    """Greedy dyadic cover value: sum of (cell edge)^(d-1) over the cheapest
    dyadic refinement (down to ``depth``) of the cells meeting the shape.
    An upper bound for the content by definition (infimum over covers).

    ``shape`` implements intersects_box(lo, hi) -> bool and dimension.
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
    lo = np.asarray(lo, dtype=float)

    def rec(cell_lo, cell_edge, depth_left):
        if not shape.intersects_box(cell_lo, cell_lo + cell_edge):
            return 0.0
        own = cell_edge ** (d - 1)
        if depth_left == 0:
            return own
        half = cell_edge / 2.0
        total = 0.0
        for offs in np.ndindex(*(2,) * d):
            total += rec(cell_lo + np.asarray(offs) * half, half, depth_left - 1)
            if total >= own:
                return own
        return min(own, total)

    return rec(lo, edge, depth)


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
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    shadow_factor = float(np.sum(np.abs(axis)))
    lo, hi = shape.bounds()
    d = lo.shape[0]
    from .treeset import complete_frame

    frame = complete_frame(axis)
    corners = np.array([
        [lo[i] if not (j >> i) & 1 else hi[i] for i in range(d)]
        for j in range(2**d)
    ])
    tcoords = corners @ frame[1:].T
    tlo, thi = tcoords.min(axis=0), tcoords.max(axis=0)
    n = max(2, int(round(samples ** (1.0 / (d - 1)))))
    axes = [np.linspace(tlo[i], thi[i], n) for i in range(d - 1)]
    mesh = np.meshgrid(*axes, indexing="ij")
    tpts = np.column_stack([m.ravel() for m in mesh])
    origins = tpts @ frame[1:]
    hits = shape.line_hits(origins, axis)
    cell = float(np.prod((thi - tlo) / (n - 1)))
    # n samples certify at most n-1 cells of the shadow (conservative)
    count = max(0.0, float(np.sum(hits)) - 1.0)
    return count * cell / shadow_factor


class ZeroSetInCube:
    """The zero set of a tube-supported function within one basic cube.

    A point is certified zero exactly when the log-value is -inf (the
    profiles vanish identically outside the half-tube level sets, so this
    is the true zero set, including the wall layers inside tubes where
    max(T-1, 0) dies).  ``zero_set_projection`` samples it only when the
    function's ``covers`` cannot show the set empty.  Where the function
    ``vanishes`` on the cube (``BoxRows.vanishes``), the set is the whole
    cube and nothing is evaluated."""

    def __init__(self, cube: LatticeCube, fn, vanishes: bool):
        self.fn = fn
        self.dimension = cube.dimension
        self._lo, self._hi = cube.bounds()
        self._whole = vanishes

    def bounds(self):
        return self._lo, self._hi

    def _free(self, pts: np.ndarray) -> np.ndarray:
        if self._whole:
            return np.ones(len(pts), dtype=bool)
        return ~np.isfinite(self.fn.eval_log(pts))

    def line_hits(self, origins: np.ndarray, direction: np.ndarray,
                  steps: int = 96) -> np.ndarray:
        """A line counts when it certifiably contains a zero point inside
        the cube (sampling misses only undercount)."""
        direction = np.asarray(direction, dtype=float)
        direction = direction / np.linalg.norm(direction)
        span_lo = float(np.min((self._lo) @ direction))
        span_hi = float(np.max((self._hi) @ direction))
        ts = np.linspace(span_lo, span_hi, steps)
        n = origins.shape[0]
        offs = ts[None, :] - (origins @ direction)[:, None]
        pts = origins[:, None, :] + offs[:, :, None] * direction[None, None, :]
        pts = pts.reshape(-1, self.dimension)
        # per column: a reduction over rows of length d is slow
        inside = np.logical_and.reduce([(c >= a) & (c <= b)
                                        for c, a, b in zip(pts.T, self._lo, self._hi)])
        free = np.zeros(pts.shape[0], dtype=bool)
        if inside.any():
            free[inside] = self._free(pts[inside])
        return free.reshape(n, len(ts)).any(axis=1)


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

    @property
    def rogue(self) -> bool:
        return self.classification == "rogue"


#: sample lines per projection axis of P2
PROJECTION_SAMPLES = 64


def zero_set_projection(u, cube: LatticeCube, box: BoxRows, eps_d: float) -> float:
    """P2's certificate: the best projection lower bound on the content of
    the zero set of ``u`` in the cube, over the coordinate axes and the axes
    of the first four tubes ``near`` the cube in ``box`` (its
    ``box_rows``), stopping once it reaches eps_d.

    When ``u.covers`` the cube (the function is certainly positive on all
    of it), the answer is 0.0 without sampling.  That is the value
    sampling returns: no point of any line is zero, so no line hits and
    every axis counts max(0, 0 - 1) = 0 cells.  When the box ``vanishes``,
    nothing is evaluated either: ``ZeroSetInCube`` counts every sample
    inside the cube as zero, which is what evaluating would give."""
    if u.covers(box):
        return 0.0
    zset = ZeroSetInCube(cube, u, box.vanishes)
    first = box.near[:4]
    axes = list(np.eye(cube.dimension))
    axes += [(b - a) / np.linalg.norm(b - a) for a, b in zip(u.tube_a[first], u.tube_b[first])]
    best = 0.0
    for ax in axes:
        best = max(best, content_lower_projection(zset, ax, PROJECTION_SAMPLES))
        if best >= eps_d:
            break
    return best


def classify_cube(u, cube: LatticeCube, eps_d: float = EPS_D_DEFAULT,
                  h: float = 0.125) -> OscillationReport:
    """P1 by a certified supremum lower bound (grid plus tube centerlines),
    P2 by the projection lower bound on the zero set's content.  A cube is
    rogue when either certification fails; near-threshold uncertainty counts
    as rogue (conservative)."""
    lo, hi = cube.bounds()
    box = u.box_rows(lo, hi)
    ends = u.tube_a[box.near], u.tube_b[box.near]
    low = sup_low(u, lo, hi, h, extra_points=_support_sup_points(ends, lo, hi))
    p1 = low >= 0.0  # log scale: sup >= 1
    best_proj = zero_set_projection(u, cube, box, eps_d)
    p2 = best_proj >= eps_d
    cls = "oscillating" if (p1 and p2) else "rogue"
    return OscillationReport(cube.corner, p1, p2, cls, low, best_proj)


@dataclass
class CensusResult:
    count: int
    gamma: float
    total: int
    f_value: float
    reports: list


def rogue_census(u, lo, hi, f: GrowthParameters, eps_d: float = EPS_D_DEFAULT,
                 h: float = 0.125) -> CensusResult:
    """Exact rogue count over the basic cubes of the box, divided by
    f(edge length), with every cube's report."""
    cubes = enumerate_basic_cubes(lo, hi)
    reports = [classify_cube(u, c, eps_d, h) for c in cubes]
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


def growth_profile(levels: list[TubeTable], f: GrowthParameters,
                   h: float = 0.25) -> GrowthProfile:
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
        extra = _support_sup_points((fn.tube_a, fn.tube_b), lo, hi)
        bracket = sup_on(fn, lo, hi, max(h, R / 64.0), extra_points=extra)
        radii.append(R)
        logs.append(bracket.low)
        uppers.append(bracket.high)
        dens.append(lower_bound_denominator(R, f))
        ratios.append(bracket.low / dens[-1])
    return GrowthProfile(radii, logs, dens, ratios, uppers)
