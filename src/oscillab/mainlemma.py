"""Combinatorial lower-bound engine on rogue-cube configurations.

Given a set E of rogue basic cubes in Q = [-N/2, N/2]^d, the engine builds
the density radius rho, the maximal dyadic cover, the step function M, the
admissible-layer sets K_I with their kappa sequences, and checks every
intermediate counting claim exhaustively.

Density convention: the complement K of the rogue set is taken to be
everything outside the rogue cubes, including the region beyond Q.  The
literal complement-within-Q would give every boundary cube a density
deficit of one half no matter how small E is, poisoning the layer counts
at desk scale; with the extended complement an empty E gives rho identical
to its floor everywhere, which is also what the maximal-function step of
the large-cube count actually uses (only rogue cubes create deficit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import LatticeCube, containing_dyadic
from .subfun import TubeTable

TWO_SQRT = {2: 2.0 * math.sqrt(2.0), 3: 2.0 * math.sqrt(3.0)}

#: The interior ball density m(B(x, t/2)) / (m(B(0,1)) t^d) equals 2^-d
#: exactly, so delta_0 must sit strictly below 2^-d for points inside or
#: near rogue cubes to recover an admissible scale at all; a quarter of the
#: interior density keeps half-space configurations admissible too while
#: satisfying the 1 - delta_0 >= 1/2 requirement of the large-cube count.
DELTA0_DEFAULT = {2: 1.0 / 16.0, 3: 1.0 / 32.0}


class ConfigurationError(ValueError):
    pass


class CoverInvariantError(RuntimeError):
    pass


@dataclass
class RogueConfiguration:
    """Rogue cube set E inside Q = [-N/2, N/2]^d, N a power of two."""

    N: int
    d: int
    E: set
    c0: float = 0.1
    delta0: float | None = None  # None: DELTA0_DEFAULT[d]
    alpha: float = 1.0 / 12.0

    def __post_init__(self):
        if self.N < 4 or (self.N & (self.N - 1)) != 0:
            raise ConfigurationError(f"N must be a power of two >= 4, got {self.N}")
        if self.delta0 is None:
            self.delta0 = DELTA0_DEFAULT[self.d]
        for name, value, top in (("alpha", self.alpha, math.inf),
                                 ("delta0", self.delta0, 1.0), ("c0", self.c0, math.inf)):
            if not (math.isfinite(value) and 0.0 < value <= top):
                bound = f" and at most {top:g}" if math.isfinite(top) else ""
                raise ConfigurationError(
                    f"{name} must be finite and positive{bound}, got {value}")
        half = self.N // 2
        self.E = {tuple(int(c) for c in e) for e in self.E}
        for e in self.E:
            if len(e) != self.d or any(c < -half or c >= half for c in e):
                raise ConfigurationError(f"rogue cube {e} outside Q")
        if len(self.E) > self.c0 * self.N**self.d:
            raise ConfigurationError(
                f"#E = {len(self.E)} exceeds the gate c0 N^d = {self.c0 * self.N ** self.d:.1f}")

    @classmethod
    def random(cls, N: int, d: int, count: int, seed: int, **kw) -> "RogueConfiguration":
        rng = np.random.default_rng(seed)
        half = N // 2
        total = N**d
        count = min(count, total)
        flat = rng.choice(total, size=count, replace=False)
        corners = set()
        for f in flat:
            c = []
            v = int(f)
            for _ in range(d):
                c.append(v % N - half)
                v //= N
            corners.add(tuple(c))
        return cls(N, d, corners, **kw)

    @classmethod
    def from_function(cls, u, N: int, d: int, eps_d: float = 0.25, **kw) -> "RogueConfiguration":
        """E = the basic cubes of Q failing the zero-set content property
        (the census's P2), from one row lookup, one ``covers`` search and
        P2's axis rounds over all N^d cubes together
        (``verify.zero_set_projection``)."""
        from .verify import zero_set_projection

        corners = np.indices((N,) * d).reshape(d, -1).T - N // 2
        lo = corners.astype(float)
        proj = zero_set_projection(u, u.box_rows(lo, lo + 1.0), eps_d)
        return cls(N, d, {tuple(c) for c in corners[proj < eps_d].tolist()}, **kw)

    @property
    def k_max(self) -> int:
        return self.N // (6 * self.d)

    @property
    def rho_floor(self) -> float:
        return TWO_SQRT[self.d]


# ---------------------------------------------------------------------------
# Ball measures and the density radius
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)

#: The 3^d sample lattice of a basic cube, as offsets from its corner.
_SAMPLE_OFFSETS = {d: np.array(np.meshgrid(*[[1 / 6, 1 / 2, 5 / 6]] * d, indexing="ij"))
                   .reshape(d, -1).T for d in (2, 3)}
#: Cubes per batched density-radius solve, (point, lattice cell) candidates
#: per block of the near-box lookup, and quadrature nodes per block of
#: (point, box) pairs: they bound the temporaries, not the results.
CUBE_BLOCK = 128
CANDIDATE_BLOCK = 1 << 13
QUADRATURE_BLOCK = 1 << 14


def _ball_box_measure(r, r2, lo, hi) -> np.ndarray:
    """Measures of ball(0, r) ∩ [lo, hi] for each row of the box corners
    lo, hi (relative to the ball's centre), where r and r2 = r**2 are shared
    or given per row: tensor Gauss-Legendre quadrature over the first d-1
    axes, each node restricting the ball to a lower-dimensional slice, and
    the exact chord on the last axis.  Every operation is elementwise in the
    row, so a row's measure does not depend on the rows batched with it, and
    a box outside [-r, r] on some axis measures exactly 0: a width or chord
    vanishes at every node, since no slice radius exceeds r."""
    d = lo.shape[1]
    rad = r                       # slice radius at the quadrature nodes
    rad2 = np.asarray(r2)
    half_widths = []
    for j in range(d - 1):
        lo_j = lo[:, j].reshape((-1,) + (1,) * j)
        hi_j = hi[:, j].reshape((-1,) + (1,) * j)
        a = np.maximum(lo_j, -rad)
        b = np.minimum(hi_j, rad)
        half = np.maximum(b - a, 0.0) / 2.0
        xs = ((a + b) / 2.0)[..., None] + half[..., None] * _GL_NODES
        rad2 = np.maximum(rad2[..., None] - xs**2, 0.0)
        rad = np.sqrt(rad2)
        half_widths.append(half)
    shape = (-1,) + (1,) * (d - 1)
    out = np.maximum(np.minimum(hi[:, -1].reshape(shape), rad)
                     - np.maximum(lo[:, -1].reshape(shape), -rad), 0.0)
    for half in reversed(half_widths):
        out = np.sum(out * _GL_WEIGHTS, axis=-1) * half
    return out


def unit_ball_volume(d: int) -> float:
    return math.pi if d == 2 else 4.0 * math.pi / 3.0


def _pow(t, p: int):
    """t**p, for a float or elementwise, through Python's float power (the
    C library's pow), which numpy's power and square do not match in the
    last bit."""
    return float(t)**p if np.ndim(t) == 0 else np.array([v**p for v in t.tolist()])


def _rogue_grid(config: RogueConfiguration) -> np.ndarray:
    """Occupancy of the rogue cubes, indexed by corner + N/2."""
    grid = np.zeros((config.N,) * config.d, dtype=bool)
    if config.E:
        grid[tuple((np.array(list(config.E)) + config.N // 2).T)] = True
    return grid


def _near_boxes(x, thr, grid, e, width):
    """The rogue cubes with |e + 1/2 - x_i| <= thr_i, as (row, corner)
    pairs grouped by row, each row's cubes in lexicographic (sorted-E)
    order.  Candidates come from each point's lattice window of ``width``
    cells per axis, or from all of e (the sorted corners) when that is
    smaller; the distance test is the scalar one."""
    d = x.shape[1]
    half = grid.shape[0] // 2
    if width**d <= len(e):
        window = np.stack(np.meshgrid(*[np.arange(width)] * d, indexing="ij"),
                          axis=-1).reshape(-1, d)
        start = np.ceil(x - 0.5 - thr[:, None] - 1e-9).astype(np.int64)
        cells = start[:, None, :] + window
        inside = np.all((cells >= -half) & (cells < half), axis=2)
        rows, cols = np.nonzero(inside)
        corners = cells[rows, cols]
        hit = grid[tuple((corners + half).T)]
        rows, corners = rows[hit], corners[hit]
    else:
        rows = np.repeat(np.arange(len(x)), len(e))
        corners = np.tile(e, (len(x), 1))
    lo = corners.astype(float)
    near = np.linalg.norm(lo + 0.5 - x[rows], axis=1) <= thr[rows]
    return rows[near], lo[near]


def _measure_K(x: np.ndarray, radius, grid: np.ndarray) -> np.ndarray:
    """Lebesgue measure of (complement of the rogue cubes) ∩ B(x_i, radius_i)
    for each row of x, with one radius (a float) or one per row.  Each row's
    box measures are summed as one contiguous row of a group of rows with as
    many boxes, which rounds as the sum over that row alone."""
    d = x.shape[1]
    vol = unit_ball_volume(d) * _pow(radius, d)
    radius, r2, thr = (np.broadcast_to(v, len(x)) for v in
                       (radius, _pow(radius, 2), radius + math.sqrt(d) / 2.0))
    e = np.argwhere(grid) - grid.shape[0] // 2
    # lattice cells per axis that can hold a cube within thr of a point; a
    # cube outside that range fails the distance test by far more than
    # rounding, so the 1e-9 margin only widens the window
    width = int(math.floor(2.0 * float(thr.max(initial=0.0)) + 2e-9)) + 1
    step = max(1, CANDIDATE_BLOCK // max(min(width**d, len(e)), 1))
    pair_step = max(1, QUADRATURE_BLOCK // len(_GL_NODES) ** (d - 1))
    boxed = np.zeros(len(x))
    for p0 in range(0, len(x), step):
        xs = x[p0:p0 + step]
        rows, lo = _near_boxes(xs, thr[p0:p0 + step], grid, e, width)
        rs, r2s = radius[p0:p0 + step][rows], r2[p0:p0 + step][rows]
        lo, hi = lo - xs[rows], (lo + 1.0) - xs[rows]
        # boxes that miss the ball's bounding box (with a margin far above
        # rounding) measure exactly 0 and keep their place in the sums
        reach = (rs * (1.0 + 1e-12))[:, None]
        meets = np.flatnonzero(np.all((lo < reach) & (hi > -reach), axis=1))
        meas = np.zeros(len(rows))
        for q0 in range(0, len(meets), pair_step):
            k = meets[q0:q0 + pair_step]
            meas[k] = _ball_box_measure(rs[k], r2s[k], lo[k], hi[k])
        counts = np.bincount(rows, minlength=len(xs))
        first = np.cumsum(counts) - counts
        for n in np.flatnonzero(np.bincount(counts)):
            if n == 0:
                continue
            sel = np.flatnonzero(counts == n)
            boxed[p0 + sel] = np.sum(meas[first[sel, None] + np.arange(n)], axis=1)
    return vol - boxed


def measure_K_in_ball(x: np.ndarray, radius: float, config: RogueConfiguration) -> float:
    """Lebesgue measure of (complement of the rogue cubes) ∩ B(x, radius)."""
    x = np.asarray(x, dtype=float).reshape(1, config.d)
    return float(_measure_K(x, float(radius), _rogue_grid(config))[0])


def _density_radii(x: np.ndarray, config: RogueConfiguration, grid: np.ndarray,
                   rel_tol: float = 1e-3,
                   t_cap: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """compute_r for every row of x at once: the cheap tests, then one
    geometric scan shared by the points still open, then a bisection per
    bracketed point with its own interval and stopping test."""
    d = config.d
    need_per_volume = config.delta0 * unit_ball_volume(d)
    r = np.empty(len(x))
    flagged = np.zeros(len(x), dtype=bool)

    def passes(idx, t):
        need = need_per_volume * _pow(t, d)
        return _measure_K(x[idx], t / 2.0, grid) >= need * (1 - 1e-12)

    open_ = np.arange(len(x))
    # cheap admissible scales below the floor: any pass pins rho at the floor
    for t in (0.25, config.rho_floor / 2.0, config.rho_floor):
        ok = passes(open_, t)
        r[open_[ok]] = t
        open_ = open_[~ok]
    t_cap = t_cap if t_cap is not None else 3.0 * config.N
    t = config.rho_floor
    prev = t
    scanned = open_
    lo_b = np.empty(len(x))
    hi_b = np.empty(len(x))
    while t <= t_cap and len(open_):
        t *= 1.07
        ok = passes(open_, t)
        lo_b[open_[ok]] = prev
        hi_b[open_[ok]] = t
        open_ = open_[~ok]
        prev = t
    r[open_] = t_cap
    flagged[open_] = True
    bracketed = scanned[~flagged[scanned]]

    def wide(idx):
        return idx[hi_b[idx] - lo_b[idx] > rel_tol * hi_b[idx]]

    active = wide(bracketed)
    while len(active):
        mid = 0.5 * (lo_b[active] + hi_b[active])
        ok = passes(active, mid)
        hi_b[active[ok]] = mid[ok]
        lo_b[active[~ok]] = mid[~ok]
        active = wide(active)
    r[bracketed] = hi_b[bracketed]
    return r, flagged


def compute_r(x, config: RogueConfiguration, rel_tol: float = 1e-3,
              t_cap: float | None = None) -> tuple[float, bool]:
    """inf over t of the density condition
    m(K ∩ B(x, t/2)) >= delta0 * m(B(0,1)) * t^d, located by a geometric
    scan refined by bisection; returns (r, flagged) where the flag marks a
    scan that ran past the cap without an admissible t."""
    x = np.asarray(x, dtype=float).reshape(1, config.d)
    r, flagged = _density_radii(x, config, _rogue_grid(config), rel_tol, t_cap)
    return float(r[0]), bool(flagged[0])


def _rho_cubes(corners: np.ndarray, config: RogueConfiguration,
               grid: np.ndarray) -> np.ndarray:
    """rho_cube for every row of corners, from batched solves over the
    sample points of CUBE_BLOCK cubes at a time."""
    d = config.d
    offsets = _SAMPLE_OFFSETS[d]
    worst = np.empty(len(corners))
    for c0 in range(0, len(corners), CUBE_BLOCK):
        block = corners[c0:c0 + CUBE_BLOCK]
        r, _flagged = _density_radii((block[:, None, :] + offsets).reshape(-1, d),
                                     config, grid)
        worst[c0:c0 + CUBE_BLOCK] = r.reshape(len(block), len(offsets)).max(axis=1)
    inflation = 2.0 * math.sqrt(d) / 6.0
    return np.maximum(config.rho_floor,
                      np.where(worst > config.rho_floor, worst + inflation, worst))


def rho_cube(cube_corner, config: RogueConfiguration) -> float:
    """sup of rho over the cube from a 3^d sample lattice with a movement
    inflation of twice the lattice cover radius, floored at 2 sqrt(d)."""
    corner = np.asarray(cube_corner, dtype=float).reshape(1, config.d)
    return float(_rho_cubes(corner, config, _rogue_grid(config))[0])


@dataclass
class RhoField:
    """Per-cube density radii, indexed by corner + N/2."""

    config: RogueConfiguration
    values: np.ndarray

    @classmethod
    def compute(cls, config: RogueConfiguration) -> "RhoField":
        N, d = config.N, config.d
        vals = np.full((N,) * d, config.rho_floor)
        grid = _rogue_grid(config)
        # cubes far from every rogue cube keep the floor: the density
        # condition passes at t = 1/4 for all samples.  Centre distances are
        # norms of integer offsets, so the gap test is a dilation of the grid.
        reach = 0.125 + math.sqrt(d)
        span = int(math.ceil(reach))
        padded = np.pad(grid, span)
        near = np.zeros_like(grid)
        for off in np.ndindex(*(2 * span + 1,) * d):
            if np.linalg.norm(np.asarray(off, dtype=float) - span) <= reach:
                near |= padded[tuple(slice(o, o + N) for o in off)]
        corners = np.argwhere(near).astype(float) - N // 2
        vals[near] = _rho_cubes(corners, config, grid)
        return cls(config, vals)


# ---------------------------------------------------------------------------
# Maximal dyadic cover and the step function
# ---------------------------------------------------------------------------


@dataclass
class DyadicCover:
    config: RogueConfiguration
    cubes: list          # maximal cover elements (DyadicCube)
    n_by_order: dict     # order -> count
    m0: int
    s_values: dict       # m -> s_m (real-valued, capped at N/(6d))
    m_bar: int


def build_cover(config: RogueConfiguration, rho: RhoField) -> DyadicCover:
    """Maximal dyadic cover: cubes processed in descending rho (lexicographic
    tie-break); each contributes its containing dyadic cube with edge in
    [2 rho, 4 rho) unless already covered."""
    N, d = config.N, config.d
    half = N // 2
    vals = rho.values.ravel()
    # np.lexsort sorts by its last key first: -rho, then the corner axes
    order = np.lexsort(tuple(np.indices((N,) * d).reshape(d, -1)[::-1]) + (-vals,))
    covered = np.zeros((N,) * d, dtype=bool)
    covered_flat = covered.reshape(-1)
    kept: list = []
    kept_by_order: dict[int, set] = {}
    for i in order.tolist():
        if covered_flat[i]:
            continue
        corner = tuple(int(c) - half for c in np.unravel_index(i, covered.shape))
        j = containing_dyadic(LatticeCube(corner), float(vals[i]))
        kept.append(j)
        kept_by_order.setdefault(j.order, set()).add(j.corner)
        covered[tuple(slice(max(c + half, 0), c + half + j.edge) for c in j.corner)] = True
    # invariants: pairwise non-nested, and the union covers Q
    for j in kept:
        for ell, cset in kept_by_order.items():
            if ell <= j.order:
                continue
            edge = 1 << ell
            anchor = tuple((c // edge) * edge for c in j.corner)
            if anchor in cset:
                raise CoverInvariantError(f"cover element {j} nested in an order-{ell} element")
    if not covered.all():
        corner = tuple(int(c) - half for c in np.argwhere(~covered)[0])
        raise CoverInvariantError(f"basic cube {corner} not covered")
    n_by_order = {ell: len(cset) for ell, cset in kept_by_order.items()}
    m0 = 1
    while 2**m0 <= 8 * math.sqrt(d):
        m0 += 1
    cap = config.N / (6.0 * d)
    s_values: dict[int, float] = {}
    m = m0
    m_bar = m0 - 1
    while True:
        tail = sum(2.0**ell * n for ell, n in n_by_order.items() if ell >= m)
        if tail <= 0:
            s_values[m] = cap
            m_bar = m - 1
            break
        s = (config.alpha * config.N**d / tail) ** (1.0 / (d - 1))
        s_values[m] = min(s, cap)
        if s_values[m] >= cap:
            m_bar = m - 1
            break
        m += 1
        if m > 64:
            raise CoverInvariantError("step sequence did not reach the cap")
    return DyadicCover(config, kept, n_by_order, m0, s_values, m_bar)


@dataclass
class StepFunction:
    """The monotone step function M(k) built from the cover's step sequence."""

    cover: DyadicCover

    def __call__(self, k: int) -> float:
        m0 = self.cover.m0
        s = self.cover.s_values
        if k <= s[m0]:
            return 2.0**m0
        for m in sorted(s):
            if m == m0:
                continue
            if s[m - 1] < k <= s[m]:
                return 2.0**m
        return 2.0 ** max(s)

    def values(self, k_max: int) -> np.ndarray:
        return np.array([self(k) for k in range(1, k_max + 1)])


def fitted_c2(config: RogueConfiguration, cover: DyadicCover,
              ks=(1, 2, 3)) -> float | None:
    """Measured constant of the neighborhood count: for cover elements J
    above the base order, #{I : A(I,k) ∩ J != 0} against
    ell(J)^d + k^(d-1) ell(J).  None when no large elements exist."""
    big = [j for j in cover.cubes if j.order >= cover.m0]
    if not big:
        return None
    N, d = config.N, config.d
    half = N // 2
    grid = np.stack(np.meshgrid(*[np.arange(-half, half)] * d, indexing="ij"), axis=-1)
    flat = grid.reshape(-1, d)
    worst = 0.0
    for j in big:
        jlo = np.asarray(j.corner)
        jhi = jlo + j.edge - 1  # inclusive cube-index bounds of J
        # the Chebyshev distances from a cube index c to J's cube indices
        # form the contiguous range [d_min(c), d_max(c)]
        d_min = np.max(np.maximum(np.maximum(jlo - flat, flat - jhi), 0), axis=1)
        d_max = np.max(np.maximum(flat - jlo, jhi - flat), axis=1)
        for k in ks:
            if config.k_max >= 1 and k > config.k_max:
                continue
            count = int(np.sum((d_min <= k) & (k <= d_max)))
            denom = j.edge**d + k ** (d - 1) * j.edge
            worst = max(worst, count / denom)
    return worst


def claim1_ratio(cover: DyadicCover) -> float | None:
    """sum over m >= m0 of 2^(m d) n_m against #E: the fitted constant of
    the large-cube bound (None when E is empty and the sum vanishes)."""
    config = cover.config
    total = sum((2.0**ell) ** config.d * n
                for ell, n in cover.n_by_order.items() if ell >= cover.m0)
    if not config.E:
        return None if total == 0 else math.inf
    return total / len(config.E)


# ---------------------------------------------------------------------------
# Layer sets, kappa chains, and the Step-1 checks
# ---------------------------------------------------------------------------


def _ring_max(vals: np.ndarray, k: int) -> np.ndarray:
    """Max of vals over the k-th cube ring around every cell (Chebyshev
    distance exactly k), with cells outside the array treated as absent.

    The ring decomposes into 2d faces.  The two faces normal to axis a sit
    at offsets -k and +k along a, and each is a box maximum of width 2k + 1
    over the other axes: separable sliding windows over the padded array,
    then two shifted slices along a.
    """
    N = vals.shape[0]
    pad = np.pad(vals, k, constant_values=-np.inf)
    out = np.full(vals.shape, -np.inf)
    for a in range(vals.ndim):
        box = pad
        for b in range(vals.ndim):
            if b != a:
                box = sliding_window_view(box, 2 * k + 1, axis=b).max(axis=-1)
        for shift in (0, 2 * k):
            np.maximum(out, box[(slice(None),) * a + (slice(shift, shift + N),)], out=out)
    return out


@dataclass
class LemmaChecks:
    property_m: bool
    property_m_detail: dict
    x_fraction: float
    x_ok: bool
    kappa_ok: bool
    kappa_detail: dict
    claim1_c1: float | None


@dataclass
class KappaResult:
    """Per-corner layer data as arrays over the N^d basic cubes I, in
    ``np.ndindex`` order: ``corners`` (N^d x d, shifted by -N/2);
    ``layers`` and ``kappas`` (k_max x N^d booleans, row k - 1 marking
    k in K_I and k in I's kappa sequence); and ``b_value``,
    B(I) = sum over k in K_I of 1/M(k)."""

    corners: np.ndarray
    layers: np.ndarray
    kappas: np.ndarray
    b_value: np.ndarray
    checks: LemmaChecks
    sum_inv_m: float
    step: StepFunction


def kappa_chains(config: RogueConfiguration, rho: RhoField,
                 cover: DyadicCover) -> KappaResult:
    """K_I by exhaustive layer scan, kappa sequences, B(I), the set X, and
    the three Step-1 counting checks, one layer k at a time across all
    corners.  B(I) adds 1/M(k) in ascending k, as the scalar sum does.  A
    corner's kappas are chosen greedily: k joins when it lies in K_I and
    exceeds the last kappa plus its M.  Failures are reported, not raised:
    they are the falsification surface for the configured constants."""
    N, d = config.N, config.d
    k_max = config.k_max
    step = StepFunction(cover)
    m_of_k = step.values(k_max)
    sum_inv = float(np.sum(1.0 / m_of_k))
    total = N**d
    corners = np.indices((N,) * d).reshape(d, -1).T - N // 2
    layers = np.zeros((k_max, total), dtype=bool)
    kappas = np.zeros((k_max, total), dtype=bool)
    b_value = np.zeros(total)
    reach = np.zeros(total)   # the next kappa must exceed this
    for k in range(1, k_max + 1):
        m = m_of_k[k - 1]
        layers[k - 1] = (_ring_max(rho.values, k) <= m).ravel()
        b_value = b_value + np.where(layers[k - 1], 1.0 / m, 0.0)
        kappas[k - 1] = layers[k - 1] & (k > reach)
        reach[kappas[k - 1]] = k + m

    layer_counts = layers.sum(axis=1).tolist()
    in_x = b_value >= sum_inv / 12.0
    n_kappa = kappas.sum(axis=0)
    failing = np.flatnonzero(in_x & (n_kappa < sum_inv / 24.0 - 1e-12))
    kappa_detail = {"worst_corner": None, "worst_count": None, "bound": sum_inv / 24.0}
    if len(failing):
        last = failing[-1]
        kappa_detail["worst_corner"] = tuple(corners[last].tolist())
        kappa_detail["worst_count"] = int(n_kappa[last])
    x_frac = int(in_x.sum()) / total
    checks = LemmaChecks(
        property_m=all(c >= 11.0 / 12.0 * total for c in layer_counts),
        property_m_detail={k: c / total for k, c in enumerate(layer_counts, 1)},
        x_fraction=x_frac,
        x_ok=x_frac >= 10.0 / 11.0,
        kappa_ok=not len(failing),
        kappa_detail=kappa_detail,
        claim1_c1=claim1_ratio(cover),
    )
    return KappaResult(corners, layers, kappas, b_value, checks, sum_inv, step)


# ---------------------------------------------------------------------------
# The bound formula
# ---------------------------------------------------------------------------


def psi(x: float, d: int) -> float:
    """log^(d/(d-1))(2 + x) / (1 + x^(1/(d-1)))."""
    return math.log(2.0 + x) ** (d / (d - 1)) / (1.0 + x ** (1.0 / (d - 1)))


def phi(x: float, N: float, e_count: float, d: int) -> float:
    """2^-x + x^(1 + 1/(d-1)) (N / #E)^(1/(d-1)); the convex objective whose
    minimum produces the lemma's exponent."""
    if e_count <= 0:
        return 2.0**-x
    return 2.0**-x + x ** (1.0 + 1.0 / (d - 1)) * (N / e_count) ** (1.0 / (d - 1))


def phi_argmin(N: float, e_count: float, d: int, lo: float = 1.0,
               hi: float | None = None, iters: int = 200) -> float:
    """Ternary search for the minimizer of the convex phi on [lo, N/(6d)];
    an empty interval (N < 6d by default) is a ConfigurationError."""
    hi = hi if hi is not None else N / (6.0 * d)
    if hi < lo:
        raise ConfigurationError(f"empty search interval [{lo:g}, {hi:g}] for phi")
    a, b = lo, hi
    for _ in range(iters):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if phi(m1, N, e_count, d) <= phi(m2, N, e_count, d):
            b = m2
        else:
            a = m1
    return 0.5 * (a + b)


@dataclass
class BoundValue:
    N: int
    e_count: int
    d: int
    psi_value: float
    log_bound: float   # N * psi(#E / N): the exponent without c_d
    phi_min_x: float | None      # None when N < 6d leaves no x to search
    phi_min_value: float | None


def bound_value(N: int, e_count: int, d: int) -> BoundValue:
    p = psi(e_count / N, d)
    try:
        x_star = phi_argmin(N, e_count, d)
    except ConfigurationError:
        return BoundValue(N, e_count, d, p, N * p, None, None)
    return BoundValue(N, e_count, d, p, N * p, x_star, phi(x_star, N, e_count, d))


# ---------------------------------------------------------------------------
# Chain contraction measurements (report only)
# ---------------------------------------------------------------------------


@dataclass
class ContractionRow:
    corner: tuple
    kappa_count: int
    log_ratio: float       # log(M_u(I) / M_u(Q))
    per_step: list


#: the contraction's cubes at most, their seed and its sample step
CONTRACTION_CUBES = 64
CONTRACTION_SEED = 3
CONTRACTION_STEP = 0.25


def chain_contraction(u: TubeTable, config: RogueConfiguration,
                      result: KappaResult) -> list[ContractionRow]:
    """Measured sup contraction along the kappa chains against the nested
    maximum principle; report-only.  A box's supremum is the largest
    ``eval_log`` at its samples with the centerline points of its
    ``box_rows``, which hold every row with a centerline sample in it; the
    boxes of one extent (Q, the cubes, and the cubes widened by each kappa)
    are looked up and evaluated together (``verify._sup_lows``)."""
    from .verify import _sup_lows

    rng = np.random.default_rng(CONTRACTION_SEED)
    N, d = config.N, config.d
    half = N // 2
    k_max = config.k_max
    corners = result.corners
    central = np.flatnonzero(np.all((-half + k_max <= corners)
                                    & (corners + 1 + k_max <= half), axis=1))
    if not len(central):
        return []
    pick = central[rng.choice(len(central), size=min(CONTRACTION_CUBES, len(central)),
                              replace=False)]
    m_q = _sup_lows(u, u.box_rows(np.full(d, -half, dtype=float), np.full(d, half, dtype=float)),
                    CONTRACTION_STEP).tolist()[0]
    lo = corners[pick].astype(float)
    kappas = result.kappas[:, pick]
    # sups[k, i]: the supremum over cube i widened by k, for k = 0 and
    # each of its kappas
    sups = np.full((k_max + 1, len(pick)), np.nan)
    sups[0] = _sup_lows(u, u.box_rows(lo, lo + 1.0), CONTRACTION_STEP)
    for kap in range(1, k_max + 1):
        at = np.flatnonzero(kappas[kap - 1])
        if at.size:
            sups[kap, at] = _sup_lows(u, u.box_rows(lo[at] - kap, lo[at] + 1.0 + kap),
                                      CONTRACTION_STEP)
    rows = []
    for i, idx in enumerate(pick.tolist()):
        chain = sups[np.concatenate([[0], np.flatnonzero(kappas[:, i]) + 1]), i].tolist()
        # in Python floats: -inf - -inf is nan without numpy's warning
        per_step = [b - a for a, b in zip(chain, chain[1:])]
        rows.append(ContractionRow(tuple(corners[idx].tolist()), len(chain) - 1,
                                   chain[0] - m_q, per_step))
    return rows
