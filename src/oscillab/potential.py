"""Numerical potential theory: Riesz kernels, discrete equilibrium measures
and walk-on-spheres harmonic measure.

The kernel is log t in the plane and -t^(2-d) in higher dimensions, so the
energy I(nu) of a probability measure is negative for small sets and -1/I
acts as a capacity proxy.  All estimators here come with closed-form
oracles (circles, spheres, segments) used by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class KernelDomainError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def kernel(t, d: int):
    """Riesz kernel k_d: log t for d = 2, -1/t^(d-2) for d >= 3."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise KernelDomainError("kernel argument must be positive")
    out = np.log(t) if d == 2 else -t ** (2 - d) * 1.0
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Discrete measures, energy, equilibrium
# ---------------------------------------------------------------------------


@dataclass
class DiscreteMeasure:
    """A probability measure on finitely many points."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0):
            raise KernelDomainError("weights must be non-negative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise KernelDomainError("probability measure weights must sum to 1")


def _merge_coincident(points: np.ndarray, weights: np.ndarray):
    """Points that agree to 12 digits as one point: the first of them, in
    order of first occurrence, with their weights added in input order to
    the first one's.  0.0 and -0.0 agree; a point with a nan agrees with
    no other."""
    # + 0.0 makes -0.0 into 0.0, whatever unique's row comparison makes of
    # the two; rows with a nan compare unequal in it
    key = np.round(points, 12) + 0.0
    _, first, group = np.unique(key, axis=0, return_index=True, return_inverse=True)
    heads = np.sort(first)
    # each point's group, numbered in order of first occurrence
    at = np.searchsorted(heads, first[group.reshape(-1)])
    rest = np.ones(len(points), dtype=bool)
    rest[heads] = False
    merged = weights[heads]
    np.add.at(merged, at[rest], weights[rest])
    return points[heads], merged


def _kernel_matrix(points: np.ndarray, d: int) -> np.ndarray:
    """Pairwise kernel with diagonal regularized at half the nearest
    neighbor distance (the standard point-cloud discretization)."""
    diff = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diff**2, axis=-1))
    n = dist.shape[0]
    if n == 1:
        eff = np.array([[1e-6]])
        return kernel(eff, d)
    off = dist.copy()
    np.fill_diagonal(off, np.inf)
    nearest = off.min(axis=1)
    np.fill_diagonal(dist, np.maximum(nearest / 2.0, 1e-300))
    return kernel(dist, d)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(v - theta, 0.0)


@dataclass
class EquilibriumResult:
    measure: DiscreteMeasure
    energy: float
    kkt_residual: float
    iterations: int


def equilibrium(points: np.ndarray, d: int | None = None, tol: float = 1e-6,
                max_iter: int = 20_000) -> EquilibriumResult:
    """Equilibrium measure of a point cloud: maximize the (negative-valued)
    discrete energy over the probability simplex by projected gradient
    ascent with Armijo backtracking, to first-order stationarity."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = d or points.shape[1]
    pts, _ = _merge_coincident(points, np.ones(len(points)))
    if len(pts) < 2:
        raise KernelDomainError("equilibrium needs at least 2 distinct points")
    K = _kernel_matrix(pts, d)
    # 2.0 * K @ w parses as (2.0 * K) @ w: scale the matrix once
    K2 = 2.0 * K
    n = len(pts)
    w = np.full(n, 1.0 / n)
    f = float(w @ K @ w)
    grad = K2 @ w
    step = 1.0 / (np.abs(K).max() * 2.0)
    prev_w, prev_g = None, None
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        if prev_w is not None:
            dw = w - prev_w
            dg = grad - prev_g
            denom = float(np.dot(dw, dg))
            # Barzilai-Borwein spectral step (ascent: denom is negative for
            # concave objectives); fall back to the conservative step
            if denom < -1e-300:
                step = float(np.dot(dw, dw) / -denom)
            step = min(max(step, 1e-12), 1e6)
        trial = step
        prev_w, prev_g = w, grad
        for _ in range(60):
            w_new = _project_simplex(w + trial * grad)
            f_new = float(w_new @ K @ w_new)
            # np.allclose(w_new, w) on finite weights, without its dispatch
            if f_new >= f - 1e-14 * abs(f) or (abs(w_new - w) <= 1e-8 + 1e-5 * abs(w)).all():
                break
            trial *= 0.25
        w, f = w_new, f_new
        grad = K2 @ w
        # KKT: the potential 2 K w is constant on the support and no larger
        # off it
        active = w > 1e-14
        spread = float(grad[active].max() - grad[active].min()) if active.sum() > 1 else 0.0
        comp = float(np.max(grad) - grad[active].max()) if active.any() else 0.0
        residual = max(spread, comp) / max(1.0, abs(f))
        if residual < tol:
            break
    if residual >= tol:
        raise ConvergenceError(
            f"equilibrium iteration did not reach KKT residual {tol} "
            f"(got {residual:.3g} after {it} iterations)", residual=residual)
    return EquilibriumResult(DiscreteMeasure(pts, w), f, residual, it)


# ---------------------------------------------------------------------------
# Shapes with distance and projection support
# ---------------------------------------------------------------------------


def _norms(q: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``q``: the squared columns added one
    after another, then ``sqrt``.  For d <= 3 columns this is the order in
    which ``np.linalg.norm(q, axis=1)`` adds them, so the bits are the
    same, without its dispatch and without a reduction over a short axis."""
    s = q[:, 0] * q[:, 0]
    for j in range(1, q.shape[1]):
        s = s + q[:, j] * q[:, j]
    return np.sqrt(s)


class Shape:
    """Compact set descriptor with exact or conservative distance queries:
    each shape defines ``distance(pts)`` and its bounding box ``bounds()``."""

    dimension: int

    def intersects_boxes(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Per row i, whether the shape may meet the box [lo_i, hi_i]: its
        distance from the box centre is at most half the diagonal."""
        side = hi - lo
        # a stack of 1 x d by d x 1 products runs np.dot's kernel per box, so
        # each squared diagonal is the one np.linalg.norm(hi_i - lo_i) takes
        r = np.sqrt((side[:, None, :] @ side[:, :, None])[:, 0, 0]) / 2.0
        return self.distance((lo + hi) / 2.0) <= r

    def line_hits(self, origins: np.ndarray, direction: np.ndarray,
                  steps: int = 128) -> np.ndarray:
        direction = np.asarray(direction, dtype=float)
        direction = direction / np.linalg.norm(direction)
        lo, hi = self.bounds()
        span_lo = float(np.min(np.vstack([lo, hi]) @ direction)) - 0.1
        span_hi = float(np.max(np.vstack([lo, hi]) @ direction)) + 0.1
        ts = np.linspace(span_lo, span_hi, steps)
        dt = (span_hi - span_lo) / (steps - 1)
        # a stack of 1 x d by d x 1 products runs np.dot's kernel per origin,
        # so each offset is the float np.dot(o, direction) gives (a
        # matrix-vector product rounds differently); distance treats rows
        # alone, so one call decides every line as a call per line would
        offset = (origins[:, None, :] @ direction[:, None])[:, 0, 0]
        pts = origins[:, None, :] + (ts[None, :] - offset[:, None])[:, :, None] * direction
        dist = self.distance(pts.reshape(-1, direction.shape[0]))
        return np.any(dist.reshape(len(origins), steps) <= dt, axis=1)


class SphereShape(Shape):
    """Circle (d=2) or sphere (d=3) of given radius about a center."""

    def __init__(self, radius: float, center=None, d: int = 2):
        self.radius = radius
        self.dimension = d
        self.center = np.zeros(d) if center is None else np.asarray(center, dtype=float)

    def distance(self, pts):
        r = _norms(np.atleast_2d(pts) - self.center)
        return np.abs(r - self.radius)

    def bounds(self):
        return self.center - self.radius, self.center + self.radius

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        if self.dimension == 2:
            th = 2 * math.pi * np.arange(n) / n
            return self.center + self.radius * np.column_stack([np.cos(th), np.sin(th)])
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n, self.dimension))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return self.center + self.radius * v


class SegmentShape(Shape):
    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.dimension = self.a.shape[0]

    def distance(self, pts):
        pts = np.atleast_2d(pts)
        ab = self.b - self.a
        t = np.clip((pts - self.a) @ ab / np.dot(ab, ab), 0.0, 1.0)
        proj = self.a + t[:, None] * ab
        return _norms(pts - proj)

    def bounds(self):
        return np.minimum(self.a, self.b), np.maximum(self.a, self.b)

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        t = np.linspace(0.0, 1.0, n)
        return self.a + t[:, None] * (self.b - self.a)


class ArcShape(Shape):
    """Circular arc (d=2 cap) of given radius and angular extent."""

    def __init__(self, radius: float, theta0: float, theta1: float, center=None):
        self.radius = radius
        self.theta0 = theta0
        self.theta1 = theta1
        self.dimension = 2
        self.center = np.zeros(2) if center is None else np.asarray(center, dtype=float)

    def distance(self, pts):
        pts = np.atleast_2d(pts) - self.center
        th = np.arctan2(pts[:, 1], pts[:, 0])
        r = _norms(pts)
        tmid = (self.theta0 + self.theta1) / 2.0
        half = (self.theta1 - self.theta0) / 2.0
        dth = np.abs((th - tmid + math.pi) % (2 * math.pi) - math.pi)
        on_arc = dth <= half
        d_arc = np.abs(r - self.radius)
        e0 = self.radius * np.array([math.cos(self.theta0), math.sin(self.theta0)])
        e1 = self.radius * np.array([math.cos(self.theta1), math.sin(self.theta1)])
        d_end = np.minimum(_norms(pts - e0), _norms(pts - e1))
        return np.where(on_arc, d_arc, d_end)

    def bounds(self):
        t = np.linspace(self.theta0, self.theta1, 64)
        pts = self.center + self.radius * np.column_stack([np.cos(t), np.sin(t)])
        return pts.min(axis=0), pts.max(axis=0)

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        t = np.linspace(self.theta0, self.theta1, n)
        return self.center + self.radius * np.column_stack([np.cos(t), np.sin(t)])


class CellUnionShape(Shape):
    """Union of axis-aligned boxes (dyadic cells)."""

    def __init__(self, cells: list[tuple], edge: float, origin=None, d: int = 2):
        self.dimension = d
        self.edge = edge
        origin = np.zeros(d) if origin is None else np.asarray(origin, dtype=float)
        self.lo = np.array([origin + np.asarray(c, dtype=float) * edge for c in cells])
        self.hi = self.lo + edge

    def distance(self, pts):
        pts = np.atleast_2d(pts)
        best = np.full(pts.shape[0], np.inf)
        for lo, hi in zip(self.lo, self.hi):
            dv = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
            best = np.minimum(best, _norms(dv))
        return best

    def bounds(self):
        return self.lo.min(axis=0), self.hi.max(axis=0)

    def sample(self, n: int, seed: int = 0) -> np.ndarray:
        rng = np.random.default_rng(seed)
        per = max(1, n // len(self.lo))
        out = [rng.uniform(lo, hi, size=(per, self.dimension)) for lo, hi in zip(self.lo, self.hi)]
        return np.vstack(out)


# ---------------------------------------------------------------------------
# Walk on spheres
# ---------------------------------------------------------------------------


@dataclass
class WosEstimate:
    hit_probability: float
    standard_error: float
    walks: int
    seed: int
    flagged: bool = False

    def within(self, target: float, n_se: float = 3.0) -> bool:
        return abs(self.hit_probability - target) <= n_se * max(self.standard_error, 1e-12)


def wos_harmonic_measure(x, shape: Shape | None, walks: int = 100_000,
                         seed: int = 7, shell: float = 1e-4,
                         max_steps: int = 5_000, outer_radius: float = 1.0,
                         batch: int = 20_000) -> WosEstimate:
    """Walk-on-spheres estimate of omega(x, E; B(0, R) \\ E): the probability
    that Brownian motion from x hits E before the outer sphere.

    Each step jumps to a uniform point on the sphere of radius
    min(dist to outer boundary, dist to E); a walk absorbs on whichever
    boundary lies within the shell.  Per-walk randomness comes from a
    single seeded generator consumed in batches of ``batch`` walks, so the
    same arguments give the same estimate, bit for bit.
    """
    if walks < 1:
        raise KernelDomainError(f"walks must be positive, got {walks}")
    x = np.asarray(x, dtype=float)
    if shape is None:
        return WosEstimate(0.0, 0.0, walks, seed)
    rng = np.random.default_rng(seed)
    hits = 0
    capped = 0
    remaining = walks
    while remaining > 0:
        m = min(batch, remaining)
        remaining -= m
        # the live walkers only, in walk order: the i-th normal row drawn
        # at a step moves the i-th walker still alive
        p = np.tile(x, (m, 1))
        for _ in range(max_steps):
            if not len(p):
                break
            d_out = outer_radius - _norms(p)
            d_set = shape.distance(p)
            absorbed_set = d_set < shell
            absorbed_out = (d_out < shell) & ~absorbed_set
            hits += int(np.count_nonzero(absorbed_set))
            cont = ~(absorbed_set | absorbed_out)
            step = np.minimum(d_out[cont], d_set[cont])
            p = p[cont]
            if len(p):
                v = rng.normal(size=p.shape)
                v /= _norms(v)[:, None]
                p = p + step[:, None] * v
        capped += len(p)
    p_hat = hits / walks
    se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / walks)
    flagged = capped > 0.001 * walks
    return WosEstimate(p_hat, se, walks, seed, flagged)


def annulus_exact(d: int, r_inner: float, radius_x: float, outer: float = 1.0) -> float:
    """Closed-form harmonic measure of the inner sphere seen from radius
    |x| in the annulus: log-ratio in the plane, 1/r harmonics in space."""
    if d == 2:
        return math.log(radius_x / outer) / math.log(r_inner / outer)
    return (radius_x ** (2 - d) - outer ** (2 - d)) / (r_inner ** (2 - d) - outer ** (2 - d))


# ---------------------------------------------------------------------------
# Claim checks
# ---------------------------------------------------------------------------


@dataclass
class ClaimRow:
    label: str
    content_lower: float
    content_upper: float
    omega: float
    omega_se: float
    energy: float

    @property
    def ratio(self) -> float:
        return self.omega / max(self.content_lower, 1e-12)

    @property
    def capacity_proxy(self) -> float:
        return -1.0 / self.energy if self.energy < 0 else float("inf")


def default_claim_family(d: int = 2) -> list[tuple[str, Shape]]:
    """Caps, segments, and cell unions at three scales each, all compact
    subsets of B(0, 1/2).  The family is planar: any other ``d`` raises
    KernelDomainError."""
    if d != 2:
        raise KernelDomainError(f"the claim family is planar, got d = {d}")
    fam: list[tuple[str, Shape]] = []
    for s in (0.4, 0.2, 0.1):
        fam.append((f"segment_{s}", SegmentShape([-s / 2, 0.0], [s / 2, 0.0])))
    for s in (0.4, 0.2, 0.1):
        fam.append((f"cap_{s}", ArcShape(s, math.pi / 6, 5 * math.pi / 6)))
    for s in (0.25, 0.125, 0.0625):
        cells = [(0, 0), (1, 1), (2, 0), (3, 1)]
        fam.append((f"cells_{s}", CellUnionShape(cells, s / 4.0,
                                                 origin=np.array([-s / 2, -s / 8]))))
    for s in (0.35, 0.2, 0.1):
        fam.append((f"vsegment_{s}", SegmentShape([0.05, -s / 2], [0.05, s / 2])))
    return fam


def shape_content_estimates(shape: Shape, depth: int = 7) -> tuple[float, float]:
    from .verify import content_lower_projection, content_upper

    d = shape.dimension
    best_lower = 0.0
    axes = [np.eye(d)[i] for i in range(d)]
    axes.append(np.ones(d) / math.sqrt(d))
    for ax in axes:
        best_lower = max(best_lower, content_lower_projection(shape, ax, samples=512))
    upper = content_upper(shape, depth)
    return best_lower, upper


def check_claim1(family=None, walks: int = 30_000, seed: int = 11,
                 sample_points: int = 256, d: int = 2) -> list[ClaimRow]:
    """Harmonic measure against content over a family of compact sets:
    the empirical constant of the lower bound omega >= alpha_d * content,
    and the capacity link content <= C * (-1 / I(nu_0)).  Every member must
    live in dimension ``d``; the default family exists only for d = 2."""
    family = family if family is not None else default_claim_family(d)
    rows = []
    for label, shape in family:
        if shape.dimension != d:
            raise KernelDomainError(
                f"claim shape {label} has dimension {shape.dimension}, not d = {d}")
        lowc, upc = shape_content_estimates(shape)
        est = wos_harmonic_measure(np.zeros(d), shape, walks=walks, seed=seed)
        eq = equilibrium(shape.sample(sample_points), d)
        rows.append(ClaimRow(label, lowc, upc, est.hit_probability,
                             est.standard_error, eq.energy))
    return rows
