"""Symbolic construction and log-space evaluation of the glued subharmonic
tube functions.

Base profiles:

  T_eps(x)  = cosh(pi sqrt(d-1) x_1 / eps) prod_j cos(pi x_j / eps)
              1{|x_j| < eps/2 for j >= 2}
  L_eps(x)  = max(T_eps(x) - 1, 0) for x_1 >= 0, else 0

A glued function is a maximum of translated/rotated/scaled half-tube
profiles joined at junctions by guarded maxima, built as one table of
rows (``TubeTable``), one per profile.  The branch entering a
junction is anchored so that its coordinate x_1 = 2 g(eps) sits exactly at
the junction point, where g(eps) = eps d log2 / (pi sqrt(d-1)) is the
threshold of the closed set

  G_eps = {|x_j| <= eps/3 for j >= 2} and {|x_1| >= g(eps)},

on which L_eps stays above the uniform floor 2^(-2d) (above one along the
core).  Children attached at the junction are discarded inside
the parent's (anchored, one-sided) G region and are support-truncated at the
junction point itself, which lies inside that region; the parent therefore
absorbs them provided it dominates them on the region boundary and on the
truncation faces.  Those dominance inequalities are certified by sampling at
build time, never assumed.

Every amplitude is carried as a logarithm; evaluation returns log-values
(-inf for zero), since the glue constants far exceed double range.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .treeset import (
    EPS1,
    GrowthParameters,
    ParameterRangeError,
    TreeSpec,
    _distinct,
    _run_heads,
    choose_s_k,
    delta_k,
    round12,
)

PI = math.pi
LOG2 = math.log(2.0)
NEG_INF = -np.inf

#: log-values above this are reported as logs only; exp would overflow.
LINEAR_LIMIT = 300.0


class GuardConsistencyError(RuntimeError):
    """A guarded junction failed its sampled dominance certificate."""

    def __init__(self, message, point=None, gap=None):
        super().__init__(message)
        self.point = point
        self.gap = gap


# ---------------------------------------------------------------------------
# Base profiles
# ---------------------------------------------------------------------------


def g_threshold(eps: float, d: int) -> float:
    """Onset |x_1| >= g of the set G_eps."""
    return eps * d * LOG2 / (PI * math.sqrt(d - 1))


def log_cosh(y):
    y = np.abs(np.asarray(y, dtype=float))
    return y + np.log1p(np.exp(-2.0 * y)) - LOG2


def log_T_profile(eps, d: int, local: np.ndarray) -> np.ndarray:
    """log T_eps over local frame coordinates (n, d); ``eps`` is a number
    or one value per row."""
    x1 = local[:, 0]
    eps = np.broadcast_to(np.asarray(eps, dtype=float), x1.shape)
    inside = np.abs(local[:, 1]) < eps / 2.0
    for j in range(2, d):
        inside &= np.abs(local[:, j]) < eps / 2.0
    out = np.full(local.shape[0], NEG_INF)
    if inside.any():
        e = eps[inside]
        vals = log_cosh(PI * math.sqrt(d - 1) / e * x1[inside])
        with np.errstate(divide="ignore"):
            vals = vals + _sum_log_cos(local[inside, 1:], e)
        out[inside] = vals
    return out


def _sum_log_cos(trans, eps):
    """sum_j log cos(pi x_j / eps) over the columns of trans, added in
    column order (as np.sum does over so few terms)."""
    s = np.log(np.cos(PI * trans[:, 0] / eps))
    for j in range(1, trans.shape[1]):
        s = s + np.log(np.cos(PI * trans[:, j] / eps))
    return s


def log_L_profile(eps, d: int, local: np.ndarray) -> np.ndarray:
    """log L_eps = log(T_eps - 1) on {x_1 >= 0, T_eps > 1}, else -inf."""
    lt = log_T_profile(eps, d, local)
    out = np.full(local.shape[0], NEG_INF)
    ok = (local[:, 0] >= 0.0) & (lt > 0.0)
    out[ok] = lt[ok] + np.log1p(-np.exp(-lt[ok]))
    return out


def log_L_upper(eps, d: int, cut, local: np.ndarray, r: float) -> np.ndarray:
    """Upper bound for log L_eps, truncated at x_1 = cut, over the local
    ball of radius r around each point: the profile is monotone in x_1 and
    in each |x_j|.  ``eps`` and ``cut`` are numbers or one value per row."""
    n = local.shape[0]
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (n,))
    x1 = np.minimum(local[:, 0] + r, cut)
    trans = np.maximum(np.abs(local[:, 1:]) - r, 0.0)
    ok = (x1 >= 0) & (local[:, 0] - r <= cut)
    for j in range(d - 1):
        ok &= trans[:, j] < eps / 2.0
    out = np.full(n, NEG_INF)
    if ok.any():
        e = eps[ok]
        lt = log_cosh(PI * math.sqrt(d - 1) / e * x1[ok]) + _sum_log_cos(trans[ok], e)
        val = np.full(lt.shape, NEG_INF)
        pos = lt > 0
        val[pos] = lt[pos] + np.log1p(-np.exp(-lt[pos]))
        out[ok] = val
    return out


def _as_points(x, d=None):
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if d is not None and pts.shape[1] != d:
        raise ValueError(f"expected points of dimension {d}, got {pts.shape[1]}")
    return pts


def eval_T(eps: float, x, d: int | None = None):
    pts = _as_points(x)
    d = d or pts.shape[1]
    lt = log_T_profile(eps, d, pts)
    with np.errstate(over="ignore"):
        out = np.where(np.isfinite(lt), np.exp(np.minimum(lt, LINEAR_LIMIT)), 0.0)
    return out if out.size > 1 else float(out[0])


# ---------------------------------------------------------------------------
# Tube table
# ---------------------------------------------------------------------------


class FunctionNode:
    """An empty base class of ``TubeTable``.  It stays only because the
    benchmark's layer tracer (``bench/layers.py``) finds the evaluation
    methods it times through ``_subclasses(subfun.FunctionNode)``; nothing
    else needs it."""


#: edge of the axis-aligned tiles a spread-out batch is split into; tubes are
#: found per tile, so a batch over a large box never meets every tube at once
TILE = 4.0

#: (field, point) pairs taken through the exact coordinates at a time,
#: which bounds the memory of one evaluation
EXACT_BLOCK = 4096

#: (row, point) pairs under which a batch is one tile however wide it is,
#: as a junction's keep row takes the samples along its whole guard
TILE_PAIRS = 2**16

#: halvings of a box down to which ``TubeTable.covers`` looks for one row
#: covering each part (2^(d COVER_DEPTH) sub-boxes at most), which is also
#: its grid of certified cells
COVER_DEPTH = 3

#: (sub-box, row) pairs ``TubeTable.covers`` tests at a time
COVER_BLOCK = 4096


def _affine(Y, matrix, shift):
    """matrix @ Y + shift for points stored as columns of Y (d, n), summed
    in a fixed order per coordinate.  For the signed permutations of the
    orthant maps and cell reflections every product is exact, so this
    equals ``X @ matrix.T + shift``."""
    out = np.empty_like(Y)
    for j in range(Y.shape[0]):
        acc = Y[0] * matrix[j, 0]
        for i in range(1, Y.shape[0]):
            acc = acc + Y[i] * matrix[j, i]
        out[j] = acc + shift[j]
    return out


#: Veltkamp's splitter for doubles, 2^27 + 1
_SPLIT = 134217729.0


def _split(a):
    """a = hi + lo exactly, each half fitting in 26 bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _frame_coords(D, rows):
    """Frame coordinates sum_i D[i] * rows[:, j, i], j = 0..d-1, where D[i]
    is the i-th coordinate of the points relative to the frame origin.

    Each sum is the chain acc = D[0] r0, acc = fma(D[i], r_i, acc) that a
    matrix product computes on fused multiply-add hardware, so the values
    match ``(X - origin) @ rows.T`` there.  It is evaluated elementwise
    (Dekker's exact product plus Knuth's two-sum, rounded once up to a
    final rounding of the tiny error terms), so a point's coordinates do
    not depend on the batch it arrives in."""
    d = len(D)
    halves = [_split(Di) for Di in D[1:]]
    out = []
    for j in range(d):
        acc = D[0] * rows[:, j, 0]
        for i in range(1, d):
            b = rows[:, j, i]
            b_hi, b_lo = _split(b)
            a_hi, a_lo = halves[i - 1]
            p = D[i] * b
            # p + e = D[i] * b exactly
            e = a_hi * b_hi
            e -= p
            t = a_hi * b_lo
            e += t
            e += np.multiply(a_lo, b_hi, out=t)
            e += np.multiply(a_lo, b_lo, out=t)
            # s + (p - (s - v)) + (acc - v) = p + acc exactly
            s = p + acc
            v = s - p
            np.subtract(s, v, out=t)
            np.subtract(p, t, out=t)
            acc -= v
            t += acc
            t += e
            s += t
            acc = s
        out.append(acc)
    return out


def _ranges(start, count):
    """The runs start[i], ..., start[i] + count[i] - 1, one after another."""
    if start.size == 1:
        return np.arange(start[0], start[0] + count[0])
    end = np.cumsum(count)
    return np.repeat(start + count - end, count) + np.arange(end[-1] if end.size else 0)


def _pointers(owner, n):
    """CSR pointers of n groups from the ascending group of each entry."""
    return np.searchsorted(owner, np.arange(n + 1))


@functools.lru_cache(maxsize=64)
def _steps(shape):
    """Every index of an array of the given shape, as rows, in C order
    (read-only, as it is shared)."""
    out = np.indices(shape).reshape(len(shape), -1).T
    out.flags.writeable = False
    return out


def _blocks(tiles, rows, points):
    """The tiles in runs that are evaluated together: as many whole tiles
    in a row as make at most TILE_PAIRS (row, point) pairs, counting each
    tile's rows against the most points any tile of the run has; a larger
    tile is a run of its own."""
    starts, total, wide = [], 0, 0
    for i, (m, n) in enumerate(zip(rows.tolist(), points.tolist())):
        if not total or (total + m) * max(wide, n) > TILE_PAIRS:
            starts.append(i)
            total = wide = 0
        total, wide = total + m, max(wide, n)
    return [tiles[a:b] for a, b in zip(starts, starts[1:] + [tiles.size])]


def _best_first(bounds, rows, points, evaluate):
    """The maximum over tiles whose values are at most their ``bounds``.
    ``evaluate(ts)`` gives the indices and the values of the points of the
    tiles ts, which have ``rows[ts]`` candidate rows and ``points[ts]``
    points; tiles are evaluated in runs of ``_blocks``.

    The tiles are taken in descending bound order (in tile order on ties)
    until a run's first bound is at most the running maximum; the later
    tiles' bounds are too, so none holds a larger value.  Tiles bounded by
    -inf hold no finite value; when no tile has one, the answer is -inf."""
    best = NEG_INF
    order = np.argsort(-bounds, kind="stable")
    order = order[bounds[order] > NEG_INF]
    for ts in _blocks(order, rows[order], points[order]):
        if bounds[ts[0]] <= best:
            break
        best = max(best, float(evaluate(ts)[1].max()))
    return best


def _column_bounds(X):
    """Per-coordinate min and max of the rows of X (faster than a reduction
    over axis 0 when the rows are short)."""
    cols = X.T
    return (np.array([c.min() for c in cols]), np.array([c.max() for c in cols]))


#: per-row columns of a tube table, in the coordinates of the row's chain
_COLUMNS = ("origin", "rows", "eps", "cut", "log_amp", "end", "box_lo", "box_hi",
            "chain", "generation", "tag")
#: per-row arrays a row range of a table takes as views
_ROW_ARRAYS = _COLUMNS + ("half", "tube_a", "tube_b", "global_rows", "glo", "ghi",
                          "rows32", "offset32", "_support_lo", "_support_hi")


@dataclass
class BoxRows:
    """``TubeTable.box_rows`` of n boxes [lo[i], hi[i]], as CSR lists
    ascending within each box: ``rows[ptr[i]:ptr[i + 1]]``, the rows
    within the half diagonal of box i plus ``_margin32`` of its centre, and
    ``near[near_ptr[i]:near_ptr[i + 1]]``, those within the half diagonal;
    ``vanishes[i]`` when the table is zero on box i.  For one box, ``rows``
    and ``near`` are its own."""

    lo: np.ndarray
    hi: np.ndarray
    ptr: np.ndarray
    rows: np.ndarray
    near_ptr: np.ndarray
    near: np.ndarray
    vanishes: np.ndarray

    def __len__(self):
        return self.lo.shape[0]


class TubeTable(FunctionNode):
    """The built function as flat arrays, one row per tube field.

    A row holds the field's frame, eps, cut and log amplitude, its local
    and global bounding boxes, its chain (the one isometry it is seen
    through, ``chains[chain]``, a (matrix, shift) pair mapping a point x
    to matrix @ x + shift; chain 0 is the identity), and (in CSR form, as
    row indices) the keep rows of the junctions it sits below on the
    branch side: each such junction discards the row inside the keep's
    anchored G region, its guard.  ``eval_log`` is the max over rows of
    the field's profile at the mapped point, dropped where one of its guards
    contains the point; ``upper_local`` is the same max without guards,
    each field cut off outside its bounding box padded by the slack.
    Every point's value is a function of that point alone, whatever batch
    it arrives in.

    ``TableBuilder`` lays the rows out so that a junction is a contiguous
    range, its keep row followed by its branch (``junction``), and so is
    every level of ``build_u``.  ``span`` takes such a range as a table of
    its own that shares this table's arrays and grid; guards whose keep
    row lies outside the range drop out, since that keep is never a
    candidate there.

    A batch wider than TILE is split into tiles of that extent
    (``_tiles``).  A tile meets only the fields whose global boxes it
    touches, found through a fixed grid of TILE cells, and whose tubes
    reach its box; the rows of every tile of a batch are looked up at
    once (``_candidates``).  The tiles are then evaluated in array passes
    (``_pass``), as many whole tiles as make at most TILE_PAIRS (row,
    point) pairs at a time: every pair's frame coordinates are computed
    in single precision, and exactly only near the supports.
    """

    def __init__(self, d: int, chains: list, columns: dict,
                 guard_ptr: np.ndarray, guard_idx: np.ndarray):
        self.d = d
        for name in _COLUMNS:
            setattr(self, name, columns[name])
        self.guard_ptr, self.guard_idx = guard_ptr, guard_idx
        # index of row 0 in the arrays the guard rows and the grid refer to
        self._first = 0
        self.chains = chains
        self.half = self.eps / 2.0
        # the support as ranges of its frame coordinates: 0 <= x_1 <= cut
        # and -eps/2 <= x_j <= eps/2
        self._support_hi = np.column_stack([self.cut] + [self.half] * (d - 1))
        self._support_lo = -self._support_hi
        self._support_lo[:, 0] = 0.0

        # tube endpoints (a is the frame origin), frame rows and bounding
        # boxes in global coordinates
        self.tube_a = self.origin.copy()
        self.tube_b = self.end.copy()
        self.global_rows = self.rows.copy()
        corners = np.stack([np.where(np.asarray(bits, dtype=bool), self.box_hi, self.box_lo)
                            for bits in np.ndindex(*(2,) * d)], axis=1)
        for c in range(1, len(chains)):
            sel = np.flatnonzero(self.chain == c)
            m, s = chains[c]
            self.tube_a[sel] = (self.tube_a[sel] - s) @ m
            self.tube_b[sel] = (self.tube_b[sel] - s) @ m
            self.global_rows[sel] = self.global_rows[sel] @ m
            corners[sel] = (corners[sel] - s) @ m
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        # every support point, in global and in chain coordinates, lies
        # within ``scale`` of the origin; global boxes widened by 1e-9 scale,
        # far above rounding, hold every point a field's own test accepts
        scale = 1.0 + max(float(np.max(np.abs(corners))), float(np.max(np.abs(self.box_lo))),
                          float(np.max(np.abs(self.box_hi))))
        glo, ghi = self.glo, self.ghi = lo - 1e-9 * scale, hi + 1e-9 * scale
        # bound on the error of single-precision frame coordinates of points
        # of a support: under 2^5 roundings of relative size 2^-24 of
        # magnitudes up to 2 scale, with a factor 4 to spare (times 1 + 2 pad
        # for supports widened by a slack pad)
        self._margin32 = 2.0**-16 * scale
        self.rows32 = self.rows.astype(np.float32)
        self.offset32 = np.einsum("fji,fi->fj", self.rows, self.origin).astype(np.float32)

        # fields per cell of a fixed TILE grid, by their global boxes
        self._cell0 = np.floor(glo.min(axis=0) / TILE).astype(np.int64)
        clo = np.floor(glo / TILE).astype(np.int64) - self._cell0
        chi = np.floor(ghi / TILE).astype(np.int64) - self._cell0
        self._cells = chi.max(axis=0) + 1
        self._strides = np.array([int(np.prod(self._cells[ax + 1:])) for ax in range(d)])
        span = chi - clo + 1
        size = np.prod(span, axis=1)
        owner = np.repeat(np.arange(len(self.eps)), size)
        k = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
        lin = np.zeros(owner.size, dtype=np.int64)
        for ax in range(d - 1, -1, -1):
            lin += (clo[owner, ax] + k % span[owner, ax]) * self._strides[ax]
            k = k // span[owner, ax]
        order = np.argsort(lin, kind="stable")
        self._cell_fields = owner[order]
        self._cell_ptr = np.searchsorted(lin[order], np.arange(int(np.prod(self._cells)) + 1))
        self._cell_count = np.diff(self._cell_ptr)
        # each cell entry's global box as (lo, -hi), so that one test
        # (<= the box's (hi, -lo)) says whether it meets a box
        self._cell_box = np.concatenate([glo, -ghi], axis=1)[self._cell_fields]

    # -- structure ---------------------------------------------------------

    def __len__(self):
        return self.eps.size

    def span(self, start: int, stop: int) -> "TubeTable":
        """Rows [start, stop) as a table of their own, on views of this
        table's arrays."""
        view = copy.copy(self)
        for name in _ROW_ARRAYS:
            setattr(view, name, getattr(self, name)[start:stop])
        view.guard_ptr = self.guard_ptr[start:stop + 1]
        view._first = self._first + start
        return view

    def junction(self, keep: int) -> "TubeTable":
        """Row ``keep`` followed by the rows below its junction (its
        branch), which the builder lays out right after it."""
        ptr = self.guard_ptr
        at = np.flatnonzero(self.guard_idx[ptr[0]:ptr[-1]] == self._first + keep)
        stop = (keep + 1 if at.size == 0
                else int(np.searchsorted(ptr, ptr[0] + at[-1], side="right")))
        return self.span(keep, stop)

    def anchored_tubes(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's tube as the paper's segment from its anchor (local
        x_1 = 2 g(eps)) to its junction b, as the
        arrays of the a and of the b ends.  They are rounded to 12 digits
        by Python's ``round``, as ``tree.json`` records them; that gives
        back the construction's dyadic points, which the anchor,
        recovered from the frame origin, misses by a rounding error."""
        g2 = 2.0 * g_threshold(self.eps, self.d)
        return round12(self.tube_a + g2[:, None] * self.global_rows[:, 0]), round12(self.tube_b)

    def box_rows(self, lo, hi) -> BoxRows:
        """The table's one row lookup, for the closed boxes [lo[i], hi[i]]
        of a (n, d) pair of bounds (or one box, given as two points): per
        box, the rows whose support lies within its half diagonal r plus
        ``_margin32`` = 2^-16 scale of its centre, and those within r,
        each at its exact distance in the row's global frame.  All boxes
        are looked up in one ``_candidates`` call at the largest radius
        (candidates grow with the radius).  A box ``vanishes`` when no row
        of its wider set has a finite amplitude: a finite value needs a row
        whose support holds the point, up to roundings under 2^-45 scale
        (``covers``)."""
        lo = np.atleast_2d(np.asarray(lo, dtype=float))
        hi = np.atleast_2d(np.asarray(hi, dtype=float))
        n = lo.shape[0]
        r = np.linalg.norm(hi - lo, axis=1) / 2.0
        wide = r + self._margin32
        x = (lo + hi) / 2.0
        top = float(wide.max(initial=0.0))
        ptr, rows = self._candidates(x, x, top, top)
        box = np.repeat(np.arange(n), np.diff(ptr))
        loc = np.einsum("fji,fi->fj", self.global_rows[rows], x[box] - self.tube_a[rows])
        dx = np.maximum(np.maximum(-loc[:, 0], loc[:, 0] - self.cut[rows]), 0.0)
        dt = np.maximum(np.abs(loc[:, 1:]) - self.half[rows, None], 0.0)
        dist2 = dx**2 + np.sum(dt**2, axis=1)
        near = dist2 <= (r * r)[box]
        held = dist2 <= (wide * wide)[box]
        finite = np.bincount(box[held][np.isfinite(self.log_amp[rows[held]])], minlength=n)
        return BoxRows(lo, hi, _pointers(box[held], n), rows[held],
                       _pointers(box[near], n), rows[near], finite == 0)

    def covers(self, boxes: BoxRows) -> np.ndarray:
        """For each box [lo, hi] of ``boxes``, the cells of its grid of S =
        2^COVER_DEPTH equal parts per axis on which ``eval_log`` is finite
        at every point of the closed cell, certified without evaluating it:
        the cell, or a dyadic sub-box of the box that holds it, lies in the
        finite region of one row and clear of all that row's guards.  The
        result is (n, S, ..., S), indexed by the cell's number along each
        axis; the cell j of a box is [lo + j e, lo + (j + 1) e], e = (hi -
        lo) / S, as ``verify.ZeroSetInCube`` computes it.  The function is
        finite on the whole box when every cell is certified.

        The rows tried are the box's ``near`` rows that have a finite
        amplitude.  A row takes a sub-box when, in the row's global frame,
        the sub-box's coordinate ranges lie in 0 < x_1 < cut and |x_j| <
        eps/2, and log T_eps > tau at the worst point of those ranges, the
        least x_1 with the largest |x_j| (log T_eps grows with x_1 >= 0 and
        falls with each |x_j|).
        A guard of the row is clear of the sub-box when one slab of its keep's
        frame separates them: x_1 < g or x_1 > cut, or x_j < -eps/3 or
        x_j > eps/3, with the keep's g(eps), cut and eps.

        Every range is widened by mu = 2^-40 scale (2^-24 ``_margin32``).
        The coordinates computed here and the chain coordinates ``_pass``
        evaluates are images of a point under the same stored frame rows
        (``global_rows`` are the rows times the chains' signed
        permutations, exactly) and the same affine maps, so they differ by
        rounding alone: one rounding for the chain's isometry of the point
        and one of the frame origin (``tube_a``), one in each difference,
        and the d-term dot products, which ``_frame_coords`` rounds once
        and einsum d times.  For d <= 3 that is under 2^5 roundings of
        relative size 2^-53 of magnitudes up to 4 scale, times a row norm
        factor sqrt(d) <= 2: under 2^-45 scale.  The sub-box at level l
        with index J per axis is [lo + J e_l, lo + (J + 1) e_l], e_l = (hi
        - lo) / 2^l.  Its bounds as this search computes them, and a cell's
        bounds as ``ZeroSetInCube`` computes them, are off the real ones by
        two roundings of magnitudes up to scale, which mu covers as well.

        tau = 2^-44 (A + sum_j sec theta_j + 1) bounds the rounding of log
        T twice over, where A = pi sqrt(d-1) cut / eps is the largest
        argument of its log_cosh and theta_j = pi |x_j| / eps at the worst
        point.  At any point of the sub-box ``log_T_profile`` is off its
        real value by under 2^-49 (A + sum_j sec theta_j + 1): each
        argument carries three roundings, so cos has an absolute error
        under 4u (u = 2^-53), a relative error 4u sec theta, and its log an
        error under 8u sec theta while sec theta < 2^40; log_cosh is
        1-Lipschitz; the d sums add roundings of terms under A and log sec
        theta <= sec theta.  sec theta_j is largest at the worst point, so
        the computed log T of every point of the sub-box exceeds tau/2,
        far above the 2^-52 below which log1p(-exp(-log T)) would be -inf.

        A sub-box that a row takes is certified, and so are all its cells;
        a sub-box on which no row is positive even at its best point is
        zero throughout, and its cells are not.  Neither is split; the
        others are, down to COVER_DEPTH halvings, and each part tries only
        the rows positive at the best point of the sub-box it was split
        from.  The sub-boxes of all
        boxes are searched a level at a time, as (sub-box, row) pairs,
        COVER_BLOCK at a time.  Each cell's verdict is a predicate of the
        tree of sub-boxes, so it does not depend on the order they are
        searched in.
        """
        n, d = len(boxes), self.d
        S = 2**COVER_DEPTH
        mu = 2.0**-24 * self._margin32
        # the (box, row) pairs tried: a row of zero amplitude is no
        # candidate, though it still guards
        owner = np.repeat(np.arange(n), np.diff(boxes.near_ptr))
        live = np.isfinite(self.log_amp[boxes.near])
        owner, rows = owner[live], boxes.near[live]
        ptr = _pointers(owner, n)
        # the keep rows that guard each pair, ``gptr`` per pair
        gpair, keeps = self._guard_pairs(rows)
        mine = keeps >= 0
        gptr, keeps = _pointers(gpair[mine], rows.size), keeps[mine]
        corners = _steps((2,) * d)
        strides = S ** np.arange(d - 1, -1, -1)
        cells = np.zeros((n, S**d), dtype=bool)
        # each sub-box's box, its index along every axis at its level, and
        # its rows (as pairs of ``rows``), ``count`` of them
        box = np.flatnonzero(np.diff(ptr) > 0)
        at = np.zeros((box.size, d), dtype=np.int64)
        count = np.diff(ptr)[box]
        pair = _ranges(ptr[box], count)
        for level in range(COVER_DEPTH + 1):
            if box.size == 0:
                break
            edge = (boxes.hi - boxes.lo) / 2**level
            lo = boxes.lo[box] + at * edge[box]
            sptr = np.concatenate([[0], np.cumsum(count)])
            cuts = np.searchsorted(sptr[1:], np.arange(COVER_BLOCK, sptr[-1], COVER_BLOCK),
                                   side="right").tolist()
            sure = np.zeros(box.size, dtype=bool)
            alive = np.zeros(pair.size, dtype=bool)
            for s, e in zip([0] + cuts, cuts + [box.size]):
                sure[s:e], alive[sptr[s]:sptr[e]] = self._cover_block(
                    box[s:e], lo[s:e], edge, mu, count[s:e], pair[sptr[s]:sptr[e]], rows,
                    gptr, keeps)
            # a certified sub-box's cells
            fine = 2 ** (COVER_DEPTH - level)
            cells[box[sure, None],
                  (at[sure, None, :] * fine + _steps((fine,) * d)) @ strides] = True
            if level == COVER_DEPTH:
                break
            # the parts of the other sub-boxes, each with the rows positive
            # somewhere on it: a row positive nowhere on a sub-box is
            # positive nowhere on its parts, and a sub-box with none is dead
            owner = np.repeat(np.arange(box.size), count)
            alive &= ~sure[owner]
            pair = pair[alive]
            count = np.bincount(owner[alive], minlength=box.size)
            split = count > 0
            start = np.repeat((np.cumsum(count) - count)[split], 2**d)
            box = np.repeat(box[split], 2**d)
            at = (2 * at[split, None, :] + corners).reshape(-1, d)
            count = np.repeat(count[split], 2**d)
            pair = pair[_ranges(start, count)]
        return cells.reshape((n,) + (S,) * d)

    def _cover_block(self, box, lo, edge, mu, count, pair, rows, gptr, keeps):
        """``covers`` on the sub-boxes [lo[e], lo[e] + edge[box[e]]] of the
        boxes ``box``, each with its ``count`` rows, given as the pairs
        ``pair`` of ``rows``: which sub-boxes a row covers, and which of the
        pairs' rows are positive at their best point of the sub-box.  The
        keep rows that guard pair p are ``keeps[gptr[p]:gptr[p + 1]]``."""
        d = self.d
        sub = np.repeat(np.arange(box.size), count)
        f = rows[pair]
        half = edge[box][sub] / 2.0
        low, high = self._frame_ranges(f, lo[sub] + half, half, mu)
        eps, cut, half = self.eps[f], self.cut[f], self.half[f]
        slope = PI * math.sqrt(d - 1) / eps
        top = slope * cut  # A, the largest argument of log_cosh
        with np.errstate(divide="ignore", invalid="ignore"):
            # a row not positive even at its best point of the sub-box,
            # the largest x_1 <= cut with the least |x_j|, is positive
            # nowhere on it, nor on any part of it
            best = np.minimum(high[:, 0], cut)
            cosines = np.cos(PI * np.maximum(np.maximum(low[:, 1:], -high[:, 1:]), 0.0)
                             / eps[:, None])
            alive = (best >= 0.0) & (low[:, 0] <= cut) & np.all(cosines > 0.0, axis=-1)
            alive &= log_cosh(slope * best) + np.sum(np.log(cosines), axis=-1) > 0.0
            x1 = low[:, 0]
            xj = np.maximum(-low[:, 1:], high[:, 1:])
            cosines = np.cos(PI * xj / eps[:, None])
            sec = np.sum(1.0 / cosines, axis=-1)
            log_t = log_cosh(slope * x1) + np.sum(np.log(cosines), axis=-1)
            ok = ((x1 > 0.0) & (high[:, 0] < cut) & np.all(xj < half[:, None], axis=-1)
                  & (sec < 2.0**40) & (log_t > 2.0**-44 * (top + sec + 1.0)))
        # the guards of the pairs whose row covers the sub-box
        gcount = np.where(ok, np.diff(gptr)[pair], 0)
        g = _ranges(gptr[pair], gcount)
        if g.size:
            owner = np.repeat(np.arange(pair.size), gcount)
            k, at = keeps[g], sub[owner]
            half = edge[box][at] / 2.0
            low, high = self._frame_ranges(k, lo[at] + half, half, mu)
            wall = self.eps[k, None] / 3.0
            clear = ((high[:, 0] < g_threshold(self.eps[k], d)) | (low[:, 0] > self.cut[k])
                     | np.any((high[:, 1:] < -wall) | (low[:, 1:] > wall), axis=-1))
            ok[owner[~clear]] = False
        return np.bincount(sub[ok], minlength=box.size) > 0, alive

    def _frame_ranges(self, rows, centre, half, pad):
        """Low and high ends (pairs, d) of the global-frame coordinates of
        row rows[p] over the box of centre centre[p] and half extent
        half[p], widened by pad."""
        frames = self.global_rows[rows]
        proj = np.einsum("fji,fi->fj", frames, centre - self.tube_a[rows])
        reach = (np.abs(frames) @ half[:, :, None])[:, :, 0] + pad
        return proj - reach, proj + reach

    # -- evaluation --------------------------------------------------------

    def eval_log(self, X):
        return self._evaluate(X, None)

    def upper_local(self, X, slack):
        return self._evaluate(X, float(slack))

    def max_log(self, X, slack):
        """The maxima of ``eval_log(X)`` and of ``upper_local(X, slack)``,
        with the bits full evaluation gives, from one tiling: each from one
        candidate lookup and the tiles that can hold it (``_best_first``).
        A tile is bounded by the largest peak of its candidate rows; an
        empty batch gives (-inf, -inf).

        A row's peak bounds every value ``_pass`` computes for it.  At a
        finite value, 0 <= x_1 <= cut, so the computed argument y =
        fl(s x_1) of log_cosh, with s = fl(fl(pi sqrt(d-1)) / eps), is at
        most top = fl(s cut), computed by the same expression (rounding is
        monotone).  With numpy's exp and log1p within an ulp, the computed
        log_cosh(y) = fl(fl(y + log1p(exp(-2y))) - LOG2) is under y +
        4u (y + 1), u = 2^-53: log1p of a value <= 1 is under log 2 +
        2^-53, LOG2 is log 2 within 2^-54, and each of the two roundings
        adds u (y + 1) at most.  Adding the log cos terms (cos <= 1, so
        each is <= 0) and then log1p(-exp(-log T)) <= 0 cannot raise it, as
        the roundings are monotone; so the profile P <= T = top + 2^-51
        (top + 1).  Guards and box clips only drop values.  The table adds
        the amplitude a = log_amp as fl(P + a); as z -> z + u|z| is
        increasing and bounds fl(z), that is at most T + a + u (T + |a|),
        under top + a + 2^-50 S, S = top + |a| + 1.

        The peak is fl(fl(a + top) + m), with the margin m = 2^-48 times
        the computed S (three roundings, so at least 2^-48 S (1 - 4u)).
        fl(a + top) is off top + a by under 2^-53 S and the last rounding
        takes under 2^-52 S, so the peak exceeds top + a + 2^-49 S, above
        every value.  A row with a = -inf has peak -inf: it has no finite
        value.

        With one amplitude per row, fl(P + a) <= fl(a + top) already
        holds, and the margin is not needed.  A row's cut lies past its
        anchor 2 g(eps), so top > 2 d log 2 > 1.  For y <= 1 the computed
        log_cosh(y) is near log cosh 1 < 1/2; for 1 <= y <= top it falls
        short of y by log(2 / (1 + e^-2y)) > 1/2, far more than its few
        u (y + 1) of rounding at any top the tables reach.  So P <= top,
        and rounding is monotone.  The margin only guards a future change
        to ``_profile`` (a second amplitude added to a row, or a profile
        that can reach its cosh bound) against a peak that no longer
        bounds.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        order, ptr, lo, hi = self._tiles(X)
        points = ptr[1:] - ptr[:-1]
        # a row of amplitude -inf keeps peak -inf: in the formula its
        # margin is inf, and -inf + inf is nan
        amp = self.log_amp
        top = PI * math.sqrt(self.d - 1) / self.eps * self.cut
        with np.errstate(invalid="ignore"):
            peak = np.where(amp > NEG_INF, amp + top + 2.0**-48 * (top + np.abs(amp) + 1.0),
                            NEG_INF)
        halves = []
        for s in (None, float(slack)):
            cptr, crows = self._candidates(lo, hi, *self._pads(s))
            count = cptr[1:] - cptr[:-1]
            bounds = np.full(count.size, NEG_INF)
            some = count > 0
            if crows.size:
                bounds[some] = np.maximum.reduceat(peak[crows], cptr[:-1][some])
            halves.append(_best_first(bounds, count, points, functools.partial(
                self._pass, X, order, ptr, cptr, crows, s)))
        return tuple(halves)

    def _evaluate(self, X, slack):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        order, ptr, lo, hi = self._tiles(X)
        cptr, crows = self._candidates(lo, hi, *self._pads(slack))
        out = np.full(X.shape[0], NEG_INF)
        rows, points = cptr[1:] - cptr[:-1], ptr[1:] - ptr[:-1]
        # tiles of like size together, so that little of a run is padding
        tiles = np.flatnonzero(rows)
        tiles = tiles[np.argsort(points[tiles], kind="stable")]
        for ts in _blocks(tiles, rows[tiles], points[tiles]):
            part, vals = self._pass(X, order, ptr, cptr, crows, slack, ts)
            out[part] = vals
        return out

    def _pads(self, slack):
        """How far a row's global box (pad) and its support along its own
        axes (r) are widened for ``upper_local(., slack)``; neither is for
        ``eval_log``."""
        if slack is None:
            return 0.0, 0.0
        return slack, slack * math.sqrt(self.d)

    def _tiles(self, X):
        """X split into the tiles it is evaluated in, as arrays: the finite
        points' indices in X grouped by tile, ascending within each
        (order), the tile pointers into it (ptr, T + 1 of them) and each
        tile's per-coordinate bounds (lo, hi, T x d).  A point with a
        non-finite coordinate is in no tile: its value is -inf.  A batch
        within TILE, or one whose (row, point) pairs are few, is a single
        tile, however wide."""
        n, d = X.shape
        lo, hi = _column_bounds(X) if n else (np.zeros(d), np.zeros(d))
        order = np.arange(n)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            order = np.flatnonzero(np.all(np.isfinite(X), axis=1))
            n = order.size
            lo, hi = _column_bounds(X[order]) if n else (lo, hi)
        if n == 0:
            return order, np.zeros(1, dtype=np.intp), np.zeros((0, d)), np.zeros((0, d))
        if np.all(hi - lo <= TILE) or len(self) * n <= TILE_PAIRS:
            return order, np.array([0, n]), lo[None, :], hi[None, :]
        key = np.floor(np.minimum((X[order] - lo) / TILE, 2.0**20)).astype(np.int64)
        lin = np.ravel_multi_index(key.T, key.max(axis=0) + 1)
        del key
        by = np.argsort(lin, kind="stable")
        order = order[by]
        start = np.flatnonzero(_run_heads(lin[by]))
        del lin, by
        # per coordinate, so that the sorted points are never all copied
        cols = [X[order, i] for i in range(d)]
        return (order, np.concatenate([start, [n]]),
                np.column_stack([np.minimum.reduceat(c, start) for c in cols]),
                np.column_stack([np.maximum.reduceat(c, start) for c in cols]))

    def _candidates(self, lo, hi, pad, r):
        """The rows that can be finite in each box [lo[t], hi[t]] of a
        (T, d) pair of bounds, as CSR (ptr, rows), ascending within each
        box: their global box widened by ``pad`` meets it, and so does
        their support widened by ``r`` along each of the tube's own axes.
        The boxes' cells of the TILE grid are enumerated all at once, and
        the (box, row) pairs those cells hold are tested TILE_PAIRS at a
        time."""
        T, d = lo.shape
        lo_pad, hi_pad = lo - pad, hi + pad
        # each box's first cell and its number of cells along every axis,
        # clipped to the grid (in floating point, so a far box cannot
        # overflow); c0 + step for every step within the span
        c0 = np.maximum(np.floor(lo_pad / TILE) - self._cell0, 0.0)
        span = np.minimum(np.floor(hi_pad / TILE) - self._cell0, self._cells - 1.0) - c0
        span = np.maximum(span + 1.0, 0.0).astype(np.int64)
        steps = _steps(tuple(span.max(axis=0, initial=0).tolist()))
        box, step = np.nonzero((steps < span[:, None, :]).all(axis=2))
        cell = (c0.astype(np.int64) @ self._strides)[box] + (steps @ self._strides)[step]
        count = self._cell_count[cell]
        boxes = (np.concatenate([hi_pad, -lo_pad], axis=1), (lo + hi) / 2.0, (hi - lo) / 2.0)
        held = np.cumsum(count)
        if held.size and held[-1] > TILE_PAIRS:
            cuts = np.searchsorted(held, np.arange(TILE_PAIRS, held[-1], TILE_PAIRS),
                                   side="right").tolist()
            parts = [self._held_rows(boxes, r, box[s:e], cell[s:e], count[s:e])
                     for s, e in zip([0] + cuts, cuts + [cell.size])]
            box, rows = (np.concatenate(part) for part in zip(*parts))
        else:
            box, rows = self._held_rows(boxes, r, box, cell, count)
        if steps.shape[0] > 1:
            # a row held by several of a box's cells is one candidate
            key = np.sort(box * len(self) + rows)
            key = key[_run_heads(key)]
            box, rows = np.divmod(key, len(self))
        return _pointers(box, T), rows

    def _held_rows(self, boxes, r, box, cell, count):
        """For (box, cell) pairs, the (box, row) pairs of the rows of this
        range that the cell holds (``count`` of them) and that
        ``_candidates`` keeps for the box, ascending for each (box, cell)
        pair.  ``boxes`` holds the boxes' padded bounds as (hi, -lo), their
        centres and half extents."""
        bounds, centre, extent = boxes
        at = _ranges(self._cell_ptr[cell], count)
        box = np.repeat(box, count)
        # rows of the whole table: those outside this range wrap to large
        cand = (self._cell_fields[at] - self._first).astype(np.uint64)
        keep = (self._cell_box[at] <= bounds[box]).all(axis=1) & (cand < len(self))
        box, cand = box[keep], cand[keep].astype(np.intp)
        low, high = self._frame_ranges(cand, centre[box], extent[box], r + self._margin32)
        # the ranges meet the support's: for j >= 1, |p| - r <= eps/2 is
        # p - r <= eps/2 and -(p + r) <= eps/2, exactly
        meets = ((high >= self._support_lo[cand]).all(axis=1)
                 & (low <= self._support_hi[cand]).all(axis=1))
        return box[meets], cand[meets]

    def _pass(self, X, order, ptr, cptr, crows, slack, ts):
        """The values of the points of the tiles ts (``_tiles``) from their
        candidate rows (``_candidates``), as the points' indices in X and
        their values, tile after tile, in one pass over the (row, point)
        pairs of the tiles.

        The pairs are a (rows, width) array: the rows of every tile, each
        against its tile's points, padded to the widest tile.  The rows
        go by slab, a (chain, tile) pair, whose points are mapped through
        the chain's isometry once.  A pair's frame coordinates are computed
        in single precision, one broadcast per slab; pairs within the
        rounding margin of the row's support (or of its slack-widened
        copy), and clear of its guards, go on to the exact coordinates,
        EXACT_BLOCK at a time."""
        d = self.d
        pad, r = self._pads(slack)
        npts = ptr[ts + 1] - ptr[ts]
        nrows = cptr[ts + 1] - cptr[ts]
        width = int(npts.max())
        cols = np.arange(width)
        # the tiles' points, each tile's padded with its last
        part = np.take(order, ptr[ts, None] + np.minimum(cols, npts[:, None] - 1))
        f = crows[_ranges(cptr[ts], nrows)]
        tile = np.repeat(np.arange(ts.size), nrows)
        key = self.chain[f] * ts.size + tile
        by = np.argsort(key, kind="stable")
        f, tile = f[by], tile[by]
        head = _run_heads(key[by])
        first, slab = np.flatnonzero(head), np.cumsum(head) - 1
        # every slab's points in its chain's coordinates: Y[:, k] is slab
        # k, and row e's points are slab[e]'s
        Y = np.empty((d, first.size, width))
        chain = self.chain[f[first]]
        runs = np.flatnonzero(_run_heads(chain)).tolist()
        for a, b in zip(runs, runs[1:] + [first.size]):
            # gather each coordinate's points; np.take(X.T, ...) would copy
            # all of X first, and X[idx] gathers rows of d values slowly
            idx = part[tile[first[a:b]]]
            y = np.stack([x[idx] for x in X.T])
            Y[:, a:b] = _affine(y, *self.chains[chain[a]]) if chain[a] else y
        # single-precision frame coordinates rows . y - rows . origin
        Y32 = Y.astype(np.float32)
        rows, offset = self.rows32[f], self.offset32[f]
        loc = [np.empty((f.size, width), dtype=np.float32) for _ in range(d)]
        tmp = np.empty((f.size, width), dtype=np.float32)
        for k, (s, e) in enumerate(zip(first.tolist(), [*first[1:].tolist(), f.size])):
            y = Y32[:, k]
            for j in range(d):
                np.multiply(y[0], rows[s:e, j, 0, None], out=loc[j][s:e])
                for i in range(1, d):
                    loc[j][s:e] += np.multiply(y[i], rows[s:e, j, i, None], out=tmp[s:e])
                loc[j][s:e] -= offset[s:e, j, None]
        del tmp, Y32
        margin = r + self._margin32 * (1.0 + 2.0 * pad)
        near = ((loc[0] > np.float32(-margin))
                & (loc[0] < (self.cut[f] + margin).astype(np.float32)[:, None]))
        reach = (self.half[f] + margin).astype(np.float32)[:, None]
        for t in loc[1:]:
            near &= np.abs(t) < reach
        if ts.size > 1:
            # the padding repeats a tile's last point
            near &= cols < npts[tile, None]
        Y = Y.reshape(d, -1)
        if slack is None:
            gone = self._guarded(f, tile, slab * width, loc, Y)
            if gone is not None:
                near &= ~gone
        del loc
        out = np.full(ts.size * width, NEG_INF)
        fi, pi = np.nonzero(near)
        for k in range(0, fi.size, EXACT_BLOCK):
            fk, pk = fi[k:k + EXACT_BLOCK], pi[k:k + EXACT_BLOCK]
            g, y = f[fk], np.take(Y, slab[fk] * width + pk, axis=1)
            loc = self._exact_coords(g, y)
            at = tile[fk] * width + pk
            if slack is None:
                vals, at = self._profile(g, at, loc)
            else:
                vals = self._upper_profile(g, loc, r)
                for i in range(d):
                    vals[(y[i] < self.box_lo[g, i] - pad) | (y[i] > self.box_hi[g, i] + pad)] = NEG_INF
            np.maximum.at(out, at, vals)
        real = cols < npts[:, None]
        return part[real], out.reshape(ts.size, width)[real]

    def _exact_coords(self, f, Y):
        """Frame coordinates of rows f at the points Y (d, n), given in
        the rows' chain coordinates."""
        return _frame_coords([Y[i] - self.origin[f, i] for i in range(self.d)], self.rows[f])

    def _guard_pairs(self, rows):
        """The guards of the given rows as (position in ``rows``, keep row)
        pairs, grouped by position; a keep row outside this range is
        negative."""
        start = self.guard_ptr[rows]
        count = self.guard_ptr[rows + 1] - start
        flat = self.guard_idx[_ranges(start, count)]
        return np.repeat(np.arange(rows.size), count), flat - self._first

    def _guarded(self, f, tile, base, loc, Y):
        """The (row, point) pairs of ``_pass`` where one of the row's guards
        contains the point, or None.  Row e's points in its chain's
        coordinates are Y[:, base[e] + p].  A guard is the core of its
        keep field, so only a guard whose keep is a row of the same tile
        can contain a point of it; each such keep is tested once on the
        tile's points, on its single precision coordinates, and exactly
        where those are within ``_margin32`` of the guard's boundary."""
        owner, flat = self._guard_pairs(f)
        if flat.size == 0:
            return None
        # the keep's position among the same tile's rows, if it is one
        key = tile * len(self) + f
        order = np.argsort(key)
        want = tile[owner] * len(self) + flat
        at = np.minimum(np.searchsorted(key[order], want), key.size - 1)
        live = (flat >= 0) & (key[order][at] == want)
        if not live.any():
            return None
        # a guard is named by its keep row: the keep's anchored G region,
        # g <= x_1 <= cut and |x_j| <= eps/3 in the keep's frame
        keep, slot = _distinct(order[at[live]])
        g = f[keep]
        lo, hi = g_threshold(self.eps[g], self.d), self.cut[g]
        wall = self.eps[g] / 3.0
        mid = (lo + hi) / 2.0
        margin = self._margin32
        # |x1 - mid| against the half length and |t| against the half
        # width, each with the margin inwards (surely inside) and outwards
        tests = [(loc[0], mid, hi - mid)] + [(t, None, wall) for t in loc[1:]]
        inside = maybe = True
        for coord, centre, half in tests:
            u = coord[keep]
            if centre is not None:
                u -= centre.astype(np.float32)[:, None]
            np.abs(u, out=u)
            inside = inside & (u <= (half - margin).astype(np.float32)[:, None])
            maybe = maybe & (u <= (half + margin).astype(np.float32)[:, None])
            del u
        gi, pi = np.nonzero(maybe & ~inside)
        for b in range(0, gi.size, EXACT_BLOCK):
            gb, pb = gi[b:b + EXACT_BLOCK], pi[b:b + EXACT_BLOCK]
            k = keep[gb]
            ex = self._exact_coords(f[k], np.take(Y, base[k] + pb, axis=1))
            ok = (ex[0] >= lo[gb]) & (ex[0] <= hi[gb])
            for t in ex[1:]:
                ok &= np.abs(t) <= wall[gb]
            inside[gb, pb] = ok
        # OR over each row's guards, taking the r-th guard of every row at
        # once (the pairs are grouped by row)
        owner = owner[live]
        head = _run_heads(owner)
        rank = np.arange(owner.size) - np.flatnonzero(head)[np.cumsum(head) - 1]
        gone = np.zeros((f.size, inside.shape[1]), dtype=bool)
        for r in range(int(rank.max()) + 1):
            sel = rank == r
            gone[owner[sel]] |= inside[slot[sel]]
        return gone

    def _profile(self, f, pi, loc):
        """The rows' log amplitude plus log L_eps truncated at the cut, at
        frame coordinates, at the pairs where it is finite."""
        local = np.column_stack(loc)
        vals = log_L_profile(self.eps[f], self.d, local)
        vals[local[:, 0] > self.cut[f]] = NEG_INF
        ok = np.isfinite(vals)
        f = f[ok]
        return vals[ok] + self.log_amp[f], pi[ok]

    def _upper_profile(self, f, loc, r):
        """``log_L_upper`` plus the rows' log amplitude at frame
        coordinates, for every pair."""
        return (log_L_upper(self.eps[f], self.d, self.cut[f], np.column_stack(loc), r)
                + self.log_amp[f])


class TableBuilder:
    """Rows of a tube table in evaluation order.  Rows are added as columns
    in the table's own coordinates (``add``, as ``_tree_rows`` makes them),
    or as all the rows of a finished table seen through an isometry
    (``extend``); each carries the keep rows, of this builder, of the
    junctions it sits below on the branch side.  A junction's keep row
    comes before its branch."""

    def __init__(self, d: int):
        self.d = d
        self.chains = [(np.eye(d), np.zeros(d))]
        self.size = 0
        self._parts = []    # (columns, guard counts, guard rows)

    def add(self, columns: dict, counts, keeps) -> None:
        """Append rows given as the columns of ``_COLUMNS`` but the chain;
        row i sits below the junctions of the next counts[i] rows of
        ``keeps``, rows of this builder."""
        n = len(columns["eps"])
        columns = dict(columns, chain=np.zeros(n, dtype=np.intp))
        self._parts.append((columns, np.asarray(counts), np.asarray(keeps, dtype=np.intp)))
        self.size += n

    def extend(self, table: TubeTable, matrix, shift, guards=()) -> None:
        """Append the rows of ``table`` evaluated at local = matrix @ x +
        shift, below the given junctions as well as their own.  A row
        seen through (m, s) in ``table`` is seen through their composition
        (m @ matrix, m @ shift + s) here; the identity, chain 0, composes
        to (matrix, shift) itself.  Only the chains the rows use are
        composed, renumbered in order."""
        top = len(self.chains)
        matrix, shift = np.asarray(matrix, dtype=float), np.asarray(shift, dtype=float)
        used, chain = _distinct(table.chain)
        self.chains += [(matrix, shift) if c == 0 else (m @ matrix, m @ shift + s)
                        for c in used.tolist() for m, s in [table.chains[c]]]
        columns = {name: getattr(table, name) for name in _COLUMNS}
        columns["chain"] = top + chain
        n = len(table)
        ptr = table.guard_ptr
        own = table.guard_idx[ptr[0]:ptr[-1]] - table._first
        row = np.repeat(np.arange(n), np.diff(ptr))
        inside = own >= 0
        guards = np.asarray(guards, dtype=np.intp)
        rows = np.concatenate([np.repeat(np.arange(n), guards.size), row[inside]])
        keeps = np.concatenate([np.tile(guards, n), own[inside] + self.size])
        order = np.argsort(rows, kind="stable")
        self._parts.append((columns, np.bincount(rows, minlength=n), keeps[order]))
        self.size += n

    def table(self) -> TubeTable:
        columns = {name: np.concatenate([p[name] for p, _c, _k in self._parts])
                   for name in _COLUMNS}
        counts = np.concatenate([c for _p, c, _k in self._parts])
        guard_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        guard_idx = np.concatenate([k for _p, _c, k in self._parts]).astype(np.intp)
        return TubeTable(self.d, self.chains, columns, guard_ptr, guard_idx)


def _dots(a, b):
    """Row-wise dot products of two (n, d) arrays.  A stack of 1 x d by
    d x 1 products runs np.dot's kernel per row, so each is the float
    np.dot, and np.linalg.norm through it, gives for that pair alone
    (np.einsum and reductions round differently)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _frames(axis):
    """An orthonormal frame (rows) for every row of ``axis`` (n, d), as
    (n, d, d), completed by Gram-Schmidt in a fixed order: the row
    normalized, then the standard basis vectors in order, each less its
    projections on the rows found so far and normalized, unless under 1e-9
    long, until d rows are found.  Every norm and projection is ``_dots``
    of one row, so each frame has the bits the same steps give for that
    axis alone."""
    n, d = axis.shape
    out = np.zeros((n, d, d))
    out[:, 0] = axis / np.sqrt(_dots(axis, axis))[:, None]
    found = np.ones(n, dtype=np.intp)
    for i in range(d):
        todo = np.flatnonzero(found < d)
        cand = np.zeros((todo.size, d))
        cand[:, i] = 1.0
        for r in range(d - 1):
            sel = found[todo] > r
            row = out[todo[sel], r]
            cand[sel] = cand[sel] - _dots(cand[sel], row)[:, None] * row
        norm = np.sqrt(_dots(cand, cand))
        ok = norm > 1e-9
        at = todo[ok]
        out[at, found[at]] = cand[ok] / norm[ok, None]
        found[at] += 1
    return out


def _branch_columns(d: int, anchor, direction, eps, run) -> dict:
    """Frame, cut, junction and bounding box of branches (n rows) anchored
    with x_1 = 2 g(eps) at ``anchor``, growing along ``direction`` and
    truncated after ``run`` further length, so that the truncation face,
    the junction, sits at anchor + run * direction / |direction|."""
    axis = direction / np.sqrt(_dots(direction, direction))[:, None]
    g2 = 2.0 * g_threshold(eps, d)
    origin = anchor - g2[:, None] * axis
    rows = _frames(axis)
    cut = g2 + run
    end = cut[:, None] * rows[:, 0] + origin
    # axis-aligned bounding box of the tube around [origin, end]
    r = (eps / 2.0 * math.sqrt(d - 1))[:, None]
    return {"origin": origin, "rows": rows, "cut": cut, "end": end,
            "box_lo": np.minimum(origin, end) - r, "box_hi": np.maximum(origin, end) + r}


def _tree_rows(rows: TableBuilder, stems, order: int, generations) -> None:
    """Append a tree of branch rows to ``rows``, in depth-first order: the
    stems, each below the junctions of the stems before it, then the
    dyadic cell [0, 2^order)^d below the junction of the last stem.

    A cell of order o >= 1 holds its 2^d subcells of order o - 1, in
    np.ndindex order.  Each subcell has a branch from its centre to the
    cell's centre, and its own subcells sit below that branch's junction.
    The branches of the cells at depth m take (eps, log amplitude, tag)
    from generations[m - 1] and generation m, but those of the cells of
    order 0, the leaves, generation -1.  A stem is (anchor, direction,
    eps, log amplitude, run, tag), of generation 0.  Every row is seen
    through the identity, chain 0.

    The rows are made one generation at a time, and every column of all
    of them at once (``_branch_columns``); each row then moves to its
    cell's place in the depth-first walk."""
    d = rows.d
    fan = 2**d
    offs = np.array(list(np.ndindex(*(2,) * d)), dtype=float)
    names = [stem[5] for stem in stems] + [tag for _eps, _amp, tag in generations]
    # one group per stem and per generation: the rows' positions, their
    # branches, and the rows whose junctions they sit below
    groups = [{"pos": np.array([i]), "anchor": np.array([anchor], dtype=float),
               "direction": np.array([direction], dtype=float), "eps": np.array([eps]),
               "log_amp": np.array([log_amp]), "run": np.array([run]), "generation": np.array([0]),
               "name": np.array([i]), "guards": np.arange(i)[None]}
              for i, (anchor, direction, eps, log_amp, run, _tag) in enumerate(stems)]
    # the cells of the current depth: corners, the rows of their branches
    # and the rows whose junctions those sit below
    corner, keep, above = np.zeros((1, d)), groups[-1]["pos"], groups[-1]["guards"]
    for m, (eps, log_amp, _tag) in enumerate(generations, start=1):
        edge = 2.0 ** (order - m)
        sub = (corner[:, None, :] + offs * edge).reshape(-1, d)
        anchor = sub + edge / 2.0
        direction = np.repeat(corner + edge, fan, axis=0) - anchor
        # a cell of order o and all below it take 1 + 2^d + ... + 2^(d o) rows
        size = (fan ** (order - m + 1) - 1) // (fan - 1)
        pos = (keep[:, None] + 1 + np.arange(fan) * size).ravel()
        above = np.repeat(np.hstack([above, keep[:, None]]), fan, axis=0)
        n = len(sub)
        groups.append({"pos": pos, "anchor": anchor, "direction": direction,
                       "eps": np.full(n, eps), "log_amp": np.full(n, log_amp),
                       "run": np.sqrt(_dots(direction, direction)),
                       "generation": np.full(n, m if m < order else -1),
                       "name": np.full(n, len(stems) + m - 1), "guards": above})
        corner, keep = sub, pos
    at = np.empty(sum(len(g["pos"]) for g in groups), dtype=np.intp)
    at[np.concatenate([g["pos"] for g in groups])] = np.arange(at.size)

    def column(key):
        return np.concatenate([g[key] for g in groups])[at]

    columns = _branch_columns(d, column("anchor"), column("direction"), column("eps"),
                              column("run"))
    columns.update(eps=column("eps"), log_amp=column("log_amp"),
                   generation=column("generation"), tag=np.array(names)[column("name")])
    counts = np.concatenate([np.full(len(g["pos"]), g["guards"].shape[1]) for g in groups])[at]
    first = np.cumsum(counts) - counts
    keeps = np.empty(int(counts.sum()), dtype=np.intp)
    for g in groups:
        keeps[(first[g["pos"]][:, None] + np.arange(g["guards"].shape[1])).ravel()] = \
            g["guards"].ravel()
    rows.add(columns, counts, keeps + rows.size)


# ---------------------------------------------------------------------------
# Glue schedule
# ---------------------------------------------------------------------------


@dataclass
class GlueSchedule:
    """Logarithmic glue constants for an outer subtree of rank k+1.

    ``ratios[m-1]`` is log(p_m-1 / p_m), the dominance budget spent gluing
    the generation-m branches onto their parents (the trunk is generation 0).
    Wide generations (m <= s_k) each spend pi d / eps_k; a thin generation
    whose child cubes have dyadic order i spends pi d 2**i / eps_1, the
    budget needed to absorb an eps_1 tube climbing the length of that step.
    """

    d: int
    k: int
    s_k: int
    eps_k: float
    eps1: float
    ratios: list[float]
    log_M: float

    def amplitude(self, generation: int) -> float:
        """log amplitude of generation-m branches after the final rescale
        that normalizes the leaves to amplitude one."""
        return float(sum(self.ratios[generation:]))


def log_MM(params: GrowthParameters, k: int) -> float:
    """log of the growth threshold M_k =
    exp(4 pi d 2^(k d/(d-1)) f(2^k)^(-1/(d-1)) log^(d/(d-1))(f(2^k)/2^k))."""
    d = params.d
    fk = params(2.0**k)
    ratio = fk / 2.0**k
    if ratio <= 1.0:
        return 0.0
    return (
        4.0 * PI * d
        * 2.0 ** (k * d / (d - 1))
        / fk ** (1.0 / (d - 1))
        * math.log(ratio) ** (d / (d - 1))
    )


def glue_schedule(params: GrowthParameters, k: int) -> GlueSchedule:
    """Glue constants for the rank-(k+1) outer subtree: s_k wide ratios of
    pi d / eps_k followed by thin ratios pi d 2**i / eps_1 for child orders
    i = k - s_k down to 0 (the leaves)."""
    d = params.d
    s_k, eps_k = choose_s_k(params, k)
    ratios = [PI * d / eps_k] * s_k
    ratios += [PI * d * 2.0**i / EPS1 for i in range(k - s_k, -1, -1)]
    assert len(ratios) == k + 1
    return GlueSchedule(d, k, s_k, eps_k, EPS1, ratios, log_MM(params, k))


# ---------------------------------------------------------------------------
# Dominance certificates
# ---------------------------------------------------------------------------


def _facet_samples(node: TubeTable, n: int, rng) -> np.ndarray:
    """Quasi-dense samples on the boundary facets of the anchored G region
    of row 0, the keep row, {g <= x_1 <= cut, |x_j| <= eps/3} in its frame:
    the entry cap x_1 = g and the lateral walls |x_j| = eps/3."""
    d = node.d
    g = g_threshold(node.eps[0], d)
    w = node.eps[0] / 3.0
    pts_local = []
    m = max(n // (2 * (d - 1) + 1), 8)
    cap = rng.uniform(-w, w, size=(m, d))
    cap[:, 0] = g
    pts_local.append(cap)
    for j in range(1, d):
        for sgn in (-1.0, 1.0):
            wall = rng.uniform(-w, w, size=(m, d))
            wall[:, 0] = rng.uniform(g, node.cut[0], size=m)
            wall[:, j] = sgn * w
            pts_local.append(wall)
    return np.vstack(pts_local) @ node.rows[0] + node.origin[0]


def _face_points(table: TubeTable, n_per_face: int, rng) -> np.ndarray:
    """Global-coordinate samples on the truncation faces of the rows of
    ``table`` below none of its junctions, in row order, mapped back
    through their isometries; each face's samples are kept a hair inside
    its transverse walls, where the profile is identically zero."""
    d = table.d
    count = np.diff(table.guard_ptr)
    innermost = np.full(len(table), -1)
    innermost[count > 0] = table.guard_idx[table.guard_ptr[1:][count > 0] - 1]
    out = []
    for i in np.flatnonzero(innermost < table._first):
        r = 0.995 * table.eps[i] / 2.0
        loc = rng.uniform(-r, r, size=(n_per_face, d))
        loc[:, 0] = table.cut[i]
        # y = m x + s in the row's chain coordinates, so x = m^T (y - s)
        m, s = table.chains[table.chain[i]]
        out.append((loc @ table.rows[i] + table.origin[i]) @ m - m.T @ s)
    return np.vstack(out) if out else np.zeros((0, d))


#: profile floor separating the solidly-alive part of the keep tube (where
#: T - 1 >= 2^(-2d), attained at the anchor's wall corner) from the
#: wall-suppressed sliver
def _profile_floor(d: int) -> float:
    return -2.0 * d * LOG2


#: the largest ``DominanceReport.face_seam`` a junction passes with
LEAK_TOLERANCE = -4.0


@dataclass
class DominanceReport:
    """Sampled dominance certificate for one junction.

    ``guard_gap``: max of log(branch) - log(keep) over the guard boundary,
    where the keep profile is alive with a uniform margin; must be negative.

    ``solid_gap``: same max over truncation-face points where the keep
    profile sits above its solid floor 2^(-2d); must be negative.

    ``face_seam``: max of log(branch) minus the keep amplitude over face
    points in the keep tube's wall-suppressed sliver (profile below the
    floor, where max(T-1, 0) decays to zero while an arriving face can
    still carry value).  No amplitude makes the keep dominate pointwise
    there; the criterion is that the junction amplitude towers over the
    sliver values by the tolerance, bounding the relative seam size.
    """

    guard_gap: float
    guard_point: np.ndarray
    solid_gap: float
    solid_point: np.ndarray | None
    face_seam: float
    face_point: np.ndarray | None

    def passed(self) -> bool:
        return self.guard_gap < 0 and self.solid_gap < 0 and self.face_seam <= LEAK_TOLERANCE

    def required_amplitude(self, margin: float) -> float:
        """Smallest keep amplitude passing this certificate, assuming the
        report was computed against a unit-amplitude keep."""
        return max(self.guard_gap + margin, self.solid_gap + margin,
                   self.face_seam - LEAK_TOLERANCE + margin)


def certify_dominance(node: TubeTable, n: int = 10_000, seed: int = 99) -> DominanceReport:
    """Sample the guard boundary of the junction of ``node`` (row 0 keeps,
    the other rows are its branch; row 0 is in the table's own
    coordinates) and the truncation faces of the branch, and compare the
    keep profile against the branch."""
    rng = np.random.default_rng(seed)
    keep, branch = node.span(0, 1), node.span(1, len(node))
    G = _facet_samples(node, n, rng)
    F = _face_points(branch, max(n // 8, 64), rng)
    # one batch each for the keep and the branch: a point's value does not
    # depend on the batch it comes in
    both = np.vstack([G, F])
    kv, kf = np.split(keep.eval_log(both), [len(G)])
    bv, bf = np.split(branch.eval_log(both), [len(G)])
    gap = np.where(np.isfinite(bv), bv - np.where(np.isfinite(kv), kv, NEG_INF), NEG_INF)
    gap[np.isfinite(bv) & ~np.isfinite(kv)] = np.inf
    ig = int(np.argmax(gap)) if gap.size else 0
    guard_gap, guard_pt = float(gap[ig]), G[ig]

    solid_gap, solid_pt = NEG_INF, None
    face_seam, face_pt = NEG_INF, None
    if F.size:
        profile = kf - node.log_amp[0]
        solid = np.isfinite(bf) & (profile >= _profile_floor(node.d))
        if solid.any():
            g2 = bf[solid] - kf[solid]
            i = int(np.argmax(g2))
            solid_gap, solid_pt = float(g2[i]), F[solid][i]
        sliver = np.isfinite(bf) & ~solid
        if sliver.any():
            g3 = bf[sliver] - node.log_amp[0]
            i = int(np.argmax(g3))
            face_seam, face_pt = float(g3[i]), F[sliver][i]
    return DominanceReport(guard_gap, guard_pt, solid_gap, solid_pt,
                           face_seam, face_pt)
# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


@dataclass
class JunctionCheck:
    label: str
    guard_gap: float
    solid_gap: float
    face_seam: float
    point: tuple
    passed: bool


@dataclass
class TauBuild:
    node: TubeTable
    schedule: GlueSchedule
    k: int
    d: int
    checks: list[JunctionCheck] = field(default_factory=list)
    trunk_inflation: float = 0.0


def build_tau(params: GrowthParameters, k: int, check_guards: bool = True,
              guard_samples: int = 10_000) -> TauBuild:
    """Function for the outer subtree of rank k+1 in its own frame, the box
    [0, 2^(k+1))^d, with trunk rooted at the box center and running to the
    corner 2^(k+1) v_0 where the next level will absorb it.
    """
    d = params.d
    sched = glue_schedule(params, k)
    box_center = np.full(d, 2.0**k)
    v0 = np.ones(d) / math.sqrt(d)
    trunk_amp = sched.amplitude(0)
    generations = [(2.0 ** (k + 1 - m) * sched.eps_k, sched.amplitude(m), "wide")
                   if m <= sched.s_k else (sched.eps1, sched.amplitude(m), "thin")
                   for m in range(1, k + 1)]
    # the trunk's junction is the corner 2^(k+1) v_0
    trunk = (box_center, v0, 2.0**k * sched.eps_k, trunk_amp, math.sqrt(d) * 2.0**k, "trunk")
    rows = TableBuilder(d)
    _tree_rows(rows, [trunk], k + 1,
               generations + [(sched.eps1, sched.amplitude(k + 1), "leaf")])
    table = rows.table()

    # The prescribed trunk amplitude suffices once k is large; at the
    # smallest ranks the sampled demand can exceed it, and the trunk is then
    # inflated by the measured deficit (recorded, never silent).
    inflate = 0.0
    if check_guards:
        rep = certify_dominance(table, n=guard_samples, seed=97)
        if not rep.passed():
            inflate = max(rep.required_amplitude(LOG2), 0.0)
            table.log_amp[0] = trunk_amp + inflate
    build = TauBuild(table, sched, k, d, trunk_inflation=inflate)
    if check_guards:
        # one representative junction per generation (siblings are
        # reflections of each other with identical constants): the
        # trunk's, then each first child's, rows 0, 1, ..., k
        for gen in range(k + 1):
            label = "trunk" if gen == 0 else f"generation {gen}"
            build.checks.append(_certify_junction(
                table.junction(gen), f"tau[k={k}] gen {gen} ({label})", guard_samples, 101 + gen))
    return build


def _certify_junction(node: TubeTable, label: str, n: int, seed: int) -> JunctionCheck:
    """The sampled certificate (``certify_dominance``) of the junction of
    ``node`` as the check ``label``, at its worst sample: the guard's,
    unless the guard passed and the solid gap or the face seam failed.
    A failed junction raises ``GuardConsistencyError``."""
    rep = certify_dominance(node, n=n, seed=seed)
    worst = rep.guard_point
    if rep.guard_gap < 0 and rep.solid_gap >= 0:
        worst = rep.solid_point
    elif rep.guard_gap < 0 and rep.face_seam > LEAK_TOLERANCE:
        worst = rep.face_point
    check = JunctionCheck(label, rep.guard_gap, rep.solid_gap, rep.face_seam,
                          tuple(np.round(worst, 6)), rep.passed())
    if not check.passed:
        raise GuardConsistencyError(
            f"junction dominance violated at {label}: guard gap {rep.guard_gap:.3g}, solid gap "
            f"{rep.solid_gap:.3g}, face seam {rep.face_seam:.3g} at {worst}",
            point=worst, gap=rep.guard_gap)
    return check


@dataclass
class ULevel:
    j: int
    log_M: float
    amplitude: float
    demand: float
    inflated: bool


@dataclass
class UBuild:
    node: TubeTable
    params: GrowthParameters
    k: int
    levels: list[ULevel]
    checks: list[JunctionCheck]
    #: level_nodes[j] is the level-(j+1) function supported on [0, 2^(j+1))^d
    #: plus its handle, a row range of ``node``; level_nodes[-1] is ``node``
    level_nodes: list[TubeTable] = field(default_factory=list)

    @property
    def d(self):
        return self.params.d

    def tree(self) -> TreeSpec:
        """The tube set of the function: every row of its table but the
        outgoing handle, row 0 (the root's keep)."""
        a, b = self.node.anchored_tubes()
        d, k = self.d, self.k - 1
        s_eps = {j: choose_s_k(self.params, j) for j in range(1, k)}
        return TreeSpec(d, self.k, a[1:], b[1:], self.node.eps[1:], self.node.generation[1:],
                        self.node.tag[1:], EPS1,
                        {j: s for j, (s, _e) in s_eps.items()},
                        {j: e for j, (_s, e) in s_eps.items()},
                        {j: delta_k(self.params, j) for j in range(1, k + 1)})

    def to_dict(self):
        return {
            "kind": "u",
            "d": self.d,
            "k": self.k,
            "f": self.params.label,
            "levels": [
                {
                    "j": l.j,
                    "log_M": round(l.log_M, 6),
                    "amplitude": round(l.amplitude, 6),
                    "demand": round(l.demand, 6),
                    "inflated": l.inflated,
                }
                for l in self.levels
            ],
            "checks": [
                {
                    "label": c.label,
                    "guard_gap": round(c.guard_gap, 6),
                    "solid_gap": round(c.solid_gap, 6) if math.isfinite(c.solid_gap) else None,
                    "face_seam": round(c.face_seam, 6) if math.isfinite(c.face_seam) else None,
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }




def _cell_reflection(cell_index, edge: float):
    """(matrix, shift) of the reflection mapping the cell
    [edge*e, edge*(e+1)) onto [0, edge)^d, sending the corner that touches
    the box center to the far corner."""
    e = np.asarray(cell_index, dtype=float)
    return np.diag(np.where(e > 0, -1.0, 1.0)), np.where(e > 0, 2.0 * edge, 0.0)


def build_u(params: GrowthParameters, k: int, check_guards: bool = True,
            guard_samples: int = 10_000) -> UBuild:
    """The nested function on [0, 2^k)^d with its handle sticking out.

    Level j+1 glues the level-j function and 2^d - 1 reflected rank-j outer
    subtrees onto the handle A_j L_(j+1) anchored at the junction 2^j v_0.
    The handle amplitude is the growth threshold M_j whenever that already
    dominates the arriving branches on the sampled guard boundary; when the
    sampled demand exceeds it (small-k regime) the amplitude is inflated to
    demand + log 2 and the level is flagged.

    The table's rows are the handles of levels k, k-1, ..., 1, the leaves
    of level 1, then the reflected subtrees of levels 2, ..., k; so level j
    is the junction of row k - j.  Every handle but the first starts at
    unit amplitude and takes its amplitude when its level is certified.
    """
    if k < 1:
        raise ParameterRangeError("k must be >= 1")
    d = params.d
    v0 = np.ones(d) / math.sqrt(d)
    levels: list[ULevel] = []
    checks: list[JunctionCheck] = []

    # the handles of levels k, ..., 2 at their junctions 2^(j-1) v_0, of
    # diameter 2^j delta_j and unit amplitude until their level is
    # certified, then level 1's, with the thin glue ratio at child order 0
    handles = [(np.full(d, 2.0 ** (j - 1)), v0, 2.0**j * delta_k(params, j), 0.0,
                math.sqrt(d) * (2.0 ** (j - 1) if j < k else 2.0**k), "handle")
               for j in range(k, 1, -1)]
    handles.append((np.ones(d), v0, 2.0 * delta_k(params, 1), PI * d / EPS1, math.sqrt(d),
                    "handle"))
    # level 1: the basic subtree of [0,2)^d below its handle; the outer
    # subtrees reflected into level j + 1: tau_1 = u_1 by construction,
    # then rank-j ones
    leaves = [(EPS1, 0.0, "leaf")]
    u1 = TableBuilder(d)
    _tree_rows(u1, handles[-1:], 1, leaves)
    taus = [u1.table()] + [
        build_tau(params, j - 1, check_guards=check_guards,
                  guard_samples=max(guard_samples // 4, 512)).node
        for j in range(2, k)]

    rows = TableBuilder(d)
    _tree_rows(rows, handles, 1, leaves)
    for j in range(1, k):
        for idx in np.ndindex(*(2,) * d):
            if any(idx):
                rows.extend(taus[j - 1], *_cell_reflection(idx, 2.0**j), guards=range(k - j))
    table = rows.table()

    for j in range(1, k):
        handle = k - j - 1
        node = table.junction(handle)
        probe = certify_dominance(node, n=guard_samples, seed=500 + j)
        lm = log_MM(params, j)
        # amplitude absorbs the sampled demand on the guard boundary and the
        # solidly-covered face points, and towers over the wall-sliver seam
        # by the tolerance
        demand = max(probe.guard_gap, probe.solid_gap)
        amp = max(lm, probe.required_amplitude(LOG2))
        inflated = amp > lm
        levels.append(ULevel(j, lm, amp, demand, inflated))
        table.log_amp[handle] = amp
        if check_guards:
            checks.append(_certify_junction(node, f"u level {j + 1} handle", guard_samples,
                                            900 + j))
    level_nodes = [table.junction(k - j) for j in range(1, k)] + [table]
    return UBuild(table, params, k, levels, checks, level_nodes)
