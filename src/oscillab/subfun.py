"""Symbolic construction and log-space evaluation of the glued subharmonic
tube functions.

Base profiles:

  W(x)      = cos(2 pi x_1) prod_j cosh(2 pi x_j / sqrt(d-1)) 1{|x_1| <= 1/4}
  T_eps(x)  = cosh(pi sqrt(d-1) x_1 / eps) prod_j cos(pi x_j / eps)
              1{|x_j| < eps/2 for j >= 2}
  L_eps(x)  = max(T_eps(x) - 1, 0) for x_1 >= 0, else 0

A glued function is a tree of nodes: translated/rotated/scaled half-tube
profiles joined at junctions by guarded maxima.  The branch entering a
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

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import OrthantMap
from .treeset import (
    EPS1,
    GrowthParameters,
    ParameterRangeError,
    TreeSpec,
    TubeSpec,
    choose_s_k,
    complete_frame,
    delta_k,
    tube_bounds,
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


def eval_W(x, d: int | None = None):
    """The slab profile W; non-negative, supported on |x_1| <= 1/4."""
    pts = _as_points(x)
    d = d or pts.shape[1]
    x1 = pts[:, 0]
    out = np.zeros(pts.shape[0])
    on = np.abs(x1) <= 0.25
    out[on] = np.cos(2 * PI * x1[on]) * np.prod(
        np.cosh(2 * PI * pts[on, 1:] / math.sqrt(d - 1)), axis=1
    )
    return out if out.size > 1 else float(out[0])


def eval_T(eps: float, x, d: int | None = None):
    pts = _as_points(x)
    d = d or pts.shape[1]
    lt = log_T_profile(eps, d, pts)
    with np.errstate(over="ignore"):
        out = np.where(np.isfinite(lt), np.exp(np.minimum(lt, LINEAR_LIMIT)), 0.0)
    return out if out.size > 1 else float(out[0])


def eval_L(eps: float, x, d: int | None = None):
    pts = _as_points(x)
    d = d or pts.shape[1]
    ll = log_L_profile(eps, d, pts)
    with np.errstate(over="ignore"):
        out = np.where(np.isfinite(ll), np.exp(np.minimum(ll, LINEAR_LIMIT)), 0.0)
    return out if out.size > 1 else float(out[0])


def in_region_G(eps: float, x, d: int | None = None):
    """Membership in G_eps (base frame, two-sided in x_1)."""
    pts = _as_points(x)
    d = d or pts.shape[1]
    g = g_threshold(eps, d)
    ok = (np.abs(pts[:, 0]) >= g) & np.all(np.abs(pts[:, 1:]) <= eps / 3.0, axis=1)
    return ok if ok.size > 1 else bool(ok[0])


# ---------------------------------------------------------------------------
# Frames, regions, nodes
# ---------------------------------------------------------------------------


@dataclass
class Frame:
    """Orthonormal frame: local = rows @ (x - origin)."""

    rows: np.ndarray
    origin: np.ndarray

    @classmethod
    def along(cls, origin, direction) -> "Frame":
        return cls(complete_frame(np.asarray(direction, dtype=float)),
                   np.asarray(origin, dtype=float))

    def to_local(self, X: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(X) - self.origin) @ self.rows.T

    def from_local(self, L: np.ndarray) -> np.ndarray:
        return np.atleast_2d(L) @ self.rows + self.origin


@dataclass
class GuardRegion:
    """Anchored one-sided copy of G_eps along a tube frame: the set
    {g <= x_1 <= x1_max, |x_j| <= eps/3} in the frame's coordinates."""

    frame: Frame
    eps: float
    d: int
    x1_max: float

    @property
    def g(self) -> float:
        return g_threshold(self.eps, self.d)

    def contains(self, X: np.ndarray) -> np.ndarray:
        loc = self.frame.to_local(X)
        return (
            (loc[:, 0] >= self.g)
            & (loc[:, 0] <= self.x1_max)
            & np.all(np.abs(loc[:, 1:]) <= self.eps / 3.0, axis=1)
        )


def _bbox_union(boxes):
    boxes = [b for b in boxes if b is not None]
    if not boxes:
        return None
    lo = np.min([b[0] for b in boxes], axis=0)
    hi = np.max([b[1] for b in boxes], axis=0)
    return lo, hi


class FunctionNode:
    """Base class; subclasses implement log-space evaluation."""

    kind = "node"

    def eval_log(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def upper_local(self, X: np.ndarray, slack: float) -> np.ndarray:
        """Upper bound for the node's log-sup over axis-aligned boxes of
        half-width ``slack`` centered at the given points."""
        raise NotImplementedError

    def support_tubes(self) -> list[TubeSpec]:
        return []

    def bbox(self):
        return None

    def to_dict(self) -> dict:
        return {"kind": self.kind}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1)


class BaseW(FunctionNode):
    kind = "W"

    def __init__(self, d: int):
        self.d = d

    def eval_log(self, X):
        X = np.atleast_2d(X)
        out = np.full(X.shape[0], NEG_INF)
        on = np.abs(X[:, 0]) <= 0.25
        if on.any():
            with np.errstate(divide="ignore"):
                out[on] = np.log(np.maximum(np.cos(2 * PI * X[on, 0]), 0.0)) + np.sum(
                    log_cosh(2 * PI * X[on, 1:] / math.sqrt(self.d - 1)), axis=1
                )
        return out

    def upper_local(self, X, slack):
        X = np.atleast_2d(X)
        x1 = np.maximum(np.abs(X[:, 0]) - slack, 0.0)
        out = np.full(X.shape[0], NEG_INF)
        on = x1 <= 0.25
        if on.any():
            out[on] = np.log(np.cos(2 * PI * x1[on])) + np.sum(
                log_cosh(2 * PI * (np.abs(X[on, 1:]) + slack) / math.sqrt(self.d - 1)),
                axis=1,
            )
        return out

    def to_dict(self):
        return {"kind": "W", "d": self.d}


class TubeField(FunctionNode):
    """Isometry(Scale(BaseL(eps), exp(log_amp))) with support truncated at
    local x_1 = cut: the branch profile along one tube."""

    kind = "L"

    def __init__(self, frame: Frame, eps: float, d: int, log_amp: float,
                 cut: float, tag: str = "branch", generation: int = 0):
        self.frame = frame
        self.eps = eps
        self.d = d
        self.log_amp = float(log_amp)
        self.cut = float(cut)
        self.tag = tag
        self.generation = generation
        self.a = np.asarray(frame.origin, dtype=float)
        self.b = frame.from_local(np.array([[self.cut] + [0.0] * (d - 1)]))[0]
        self._bbox = tube_bounds(self.a, self.b, eps)

    @classmethod
    def junction_branch(cls, anchor, direction, eps, d, log_amp, run,
                        tag="branch", generation=0):
        """Branch anchored with x_1 = 2 g(eps) at ``anchor``, growing along
        ``direction`` and truncated after ``run`` further length (so the
        truncation face sits at anchor + run * direction)."""
        direction = np.asarray(direction, dtype=float)
        direction = direction / np.linalg.norm(direction)
        g2 = 2.0 * g_threshold(eps, d)
        origin = np.asarray(anchor, dtype=float) - g2 * direction
        return cls(Frame.along(origin, direction), eps, d, log_amp,
                   g2 + run, tag, generation)

    @property
    def anchor(self) -> np.ndarray:
        g2 = 2.0 * g_threshold(self.eps, self.d)
        return self.frame.from_local(np.array([[g2] + [0.0] * (self.d - 1)]))[0]

    def guard(self, reach: float | None = None) -> GuardRegion:
        return GuardRegion(self.frame, self.eps, self.d,
                           self.cut if reach is None else reach)

    def eval_log(self, X):
        loc = self.frame.to_local(X)
        out = log_L_profile(self.eps, self.d, loc)
        out[loc[:, 0] > self.cut] = NEG_INF
        finite = np.isfinite(out)
        out[finite] += self.log_amp
        return out

    def upper_local(self, X, slack):
        # frame is orthonormal, so an axis-aligned box of half-width slack
        # is contained in the local ball of radius slack*sqrt(d)
        return log_L_upper(self.eps, self.d, self.cut, self.frame.to_local(X),
                           slack * math.sqrt(self.d)) + self.log_amp

    def support_tubes(self):
        return [TubeSpec(self.a, self.b, self.eps, generation=self.generation,
                         kind=self.tag)]

    def bbox(self):
        return self._bbox

    def to_dict(self):
        return {
            "kind": "L",
            "eps": round(self.eps, 12),
            "log_amp": round(self.log_amp, 6),
            "cut": round(self.cut, 12),
            "origin": [round(float(v), 12) for v in self.frame.origin],
            "axis": [round(float(v), 12) for v in self.frame.rows[0]],
            "tag": self.tag,
            "generation": self.generation,
        }


class MaxNode(FunctionNode):
    kind = "max"

    def __init__(self, children: list[FunctionNode]):
        self.children = children
        self._bbox = _bbox_union([c.bbox() for c in children])

    def _fold(self, X, method, *args):
        X = np.atleast_2d(X)
        out = np.full(X.shape[0], NEG_INF)
        for child in self.children:
            bb = child.bbox()
            if bb is None:
                sel = slice(None)
                vals = getattr(child, method)(X, *args)
                out = np.maximum(out, vals)
                continue
            pad = args[0] if args else 0.0
            sel = np.all((X >= bb[0] - pad) & (X <= bb[1] + pad), axis=1)
            if not sel.any():
                continue
            out[sel] = np.maximum(out[sel], getattr(child, method)(X[sel], *args))
        return out

    def eval_log(self, X):
        return self._fold(X, "eval_log")

    def upper_local(self, X, slack):
        return self._fold(X, "upper_local", slack)

    def support_tubes(self):
        return [t for c in self.children for t in c.support_tubes()]

    def bbox(self):
        return self._bbox

    def to_dict(self):
        return {"kind": "max", "children": [c.to_dict() for c in self.children]}


class GuardedMax(FunctionNode):
    """max(keep, branch) outside the discard region; keep alone inside it.

    The discard region is the anchored G set of the keep profile, where the
    dominance certificate guarantees keep >= branch, so the function is a
    locally-single-branch maximum of subharmonic pieces.
    """

    kind = "guarded_max"

    def __init__(self, keep: FunctionNode, branch: FunctionNode, discard: GuardRegion):
        self.keep = keep
        self.branch = branch
        self.discard = discard
        self._bbox = _bbox_union([keep.bbox(), branch.bbox()])

    def eval_log(self, X):
        X = np.atleast_2d(X)
        out = self.keep.eval_log(X)
        active = ~self.discard.contains(X)
        bb = self.branch.bbox()
        if bb is not None:
            active &= np.all((X >= bb[0]) & (X <= bb[1]), axis=1)
        if active.any():
            out[active] = np.maximum(out[active], self.branch.eval_log(X[active]))
        return out

    def upper_local(self, X, slack):
        # ignoring the discard only raises the bound
        X = np.atleast_2d(X)
        out = self.keep.upper_local(X, slack)
        bb = self.branch.bbox()
        sel = (
            np.all((X >= bb[0] - slack) & (X <= bb[1] + slack), axis=1)
            if bb is not None
            else np.ones(X.shape[0], dtype=bool)
        )
        if sel.any():
            out[sel] = np.maximum(out[sel], self.branch.upper_local(X[sel], slack))
        return out

    def support_tubes(self):
        return self.keep.support_tubes() + self.branch.support_tubes()

    def bbox(self):
        return self._bbox

    def to_dict(self):
        return {
            "kind": "guarded_max",
            "keep": self.keep.to_dict(),
            "branch": self.branch.to_dict(),
            "guard_eps": round(self.discard.eps, 12),
        }


class IsometryNode(FunctionNode):
    """Evaluate a child at rigidly mapped points: local = M @ x + shift."""

    kind = "isometry"

    def __init__(self, child: FunctionNode, matrix: np.ndarray, shift: np.ndarray):
        self.child = child
        self.matrix = np.asarray(matrix, dtype=float)
        self.shift = np.asarray(shift, dtype=float)
        inv = self.matrix.T  # orthogonal
        self._inv = inv
        cb = child.bbox()
        if cb is None:
            self._bbox = None
        else:
            corners = np.array(
                [[cb[j][i] for i, j in enumerate(bits)] for bits in np.ndindex(*(2,) * len(cb[0]))]
            )
            glob = (corners - self.shift) @ inv.T
            self._bbox = (glob.min(axis=0), glob.max(axis=0))

    @classmethod
    def orthant(cls, child: FunctionNode, omap: OrthantMap) -> "IsometryNode":
        return cls(child, omap.matrix(), np.zeros(omap.dimension))

    @classmethod
    def cell_reflection(cls, child: FunctionNode, cell_index, edge: float) -> "IsometryNode":
        """Map the cell [edge*e, edge*(e+1)) onto the child's own frame
        [0, edge)^d by the reflection sending the corner that touches the
        box center to the child's far corner."""
        e = np.asarray(cell_index, dtype=float)
        d = e.shape[0]
        signs = np.where(e > 0, -1.0, 1.0)
        m = np.diag(signs)
        shift = np.where(e > 0, 2.0 * edge, 0.0)
        return cls(child, m, shift)

    def _map(self, X):
        return np.atleast_2d(X) @ self.matrix.T + self.shift

    def eval_log(self, X):
        return self.child.eval_log(self._map(X))

    def upper_local(self, X, slack):
        return self.child.upper_local(self._map(X), slack)

    def support_tubes(self):
        out = []
        for t in self.child.support_tubes():
            a = (t.a - self.shift) @ self.matrix
            b = (t.b - self.shift) @ self.matrix
            out.append(TubeSpec(a, b, t.diameter, t.generation, t.kind))
        return out

    def bbox(self):
        return self._bbox

    def to_dict(self):
        return {
            "kind": "isometry",
            "matrix": self.matrix.tolist(),
            "shift": self.shift.tolist(),
            "child": self.child.to_dict(),
        }


class ScaleNode(FunctionNode):
    kind = "scale"

    def __init__(self, child: FunctionNode, log_c: float):
        if not math.isfinite(log_c):
            raise ParameterRangeError("scale factor must be positive and finite")
        self.child = child
        self.log_c = float(log_c)

    def eval_log(self, X):
        return self.child.eval_log(X) + self.log_c

    def upper_local(self, X, slack):
        return self.child.upper_local(X, slack) + self.log_c

    def support_tubes(self):
        return self.child.support_tubes()

    def bbox(self):
        return self.child.bbox()

    def to_dict(self):
        return {"kind": "scale", "log_c": self.log_c, "child": self.child.to_dict()}


class SumNode(FunctionNode):
    kind = "sum"

    def __init__(self, children: list[FunctionNode]):
        self.children = children
        self._bbox = _bbox_union([c.bbox() for c in children])

    def eval_log(self, X):
        X = np.atleast_2d(X)
        out = np.full(X.shape[0], NEG_INF)
        for c in self.children:
            out = np.logaddexp(out, c.eval_log(X))
        return out

    def upper_local(self, X, slack):
        X = np.atleast_2d(X)
        out = np.full(X.shape[0], NEG_INF)
        for c in self.children:
            out = np.logaddexp(out, c.upper_local(X, slack))
        return out

    def support_tubes(self):
        return [t for c in self.children for t in c.support_tubes()]

    def bbox(self):
        return self._bbox

    def to_dict(self):
        return {"kind": "sum", "children": [c.to_dict() for c in self.children]}


# ---------------------------------------------------------------------------
# Compiled tube table
# ---------------------------------------------------------------------------

#: edge of the axis-aligned tiles a spread-out batch is split into; tubes are
#: found per tile, so a batch over a large box never meets every tube at once
TILE = 4.0

#: (field, point) pairs taken through the exact coordinates at a time,
#: which bounds the memory of one evaluation
EXACT_BLOCK = 4096


class NotATubeTree(TypeError):
    """The node holds something other than tube fields, maxima, guarded
    maxima, isometries and scales."""


def _affine(Y, matrix, shift):
    """matrix @ Y + shift for points stored as columns of Y (d, n), summed
    in a fixed order per coordinate.  For the signed permutations of the
    orthant maps and cell reflections every product is exact, so this
    equals the tree's ``X @ matrix.T + shift``."""
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
    match ``Frame.to_local`` there.  It is evaluated elementwise (Dekker's
    exact product plus Knuth's two-sum, rounded once up to a final rounding
    of the tiny error terms), so a point's coordinates do not depend on the
    batch it arrives in."""
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


def _distinct(a):
    """Sorted distinct values of an integer array and each entry's index
    among them (np.unique would import numpy.ma, a megabyte of memory)."""
    order = np.argsort(a, kind="stable")
    new = np.diff(a[order], prepend=-1) != 0
    where = np.empty(a.size, dtype=np.intp)
    where[order] = np.cumsum(new) - 1
    return a[order][new], where


def _column_bounds(X):
    """Per-coordinate min and max of the rows of X (faster than a reduction
    over axis 0 when the rows are short)."""
    cols = X.T
    return (np.array([c.min() for c in cols]), np.array([c.max() for c in cols]))


class TubeTable(FunctionNode):
    """Read-only flat compilation of a built tube tree.

    One row per TubeField: its frame, eps, cut, log amplitude (with any
    ScaleNode factors above it), local and global bounding boxes, the
    isometry chain above it, and (in CSR form) the discard guards of every
    GuardedMax it sits below on the branch side.  ``eval_log`` is the max
    over fields of the field's profile at the chain-mapped point, dropped
    where one of its guards contains the point; ``upper_local`` is the same
    max without guards, each field cut off outside its bounding box padded
    by the slack.  Both equal the tree's values up to the rounding of the
    frame coordinates, never looser, and every point's value is a function
    of that point alone, whatever batch it arrives in.

    A batch wider than TILE is split into tiles of that extent.  A tile
    meets only the fields whose global boxes it touches, found through a
    fixed grid of TILE cells, and whose tubes reach its box; their frame
    coordinates are computed in single precision for every point, and
    exactly only near their supports.  The tree stays the build-time
    representation (certificates, face samples, serialization); the table
    is for evaluation only.
    """

    kind = "tube_table"

    def __init__(self, node: FunctionNode):
        fields, chains, guards = _flatten(node)
        if not fields:
            raise NotATubeTree("a tube table needs at least one tube field")
        tf = [f for f, _c, _l, _g in fields]
        d = self.d = tf[0].d
        # chains: (parent chain, matrix, shift); chain 0 is the identity
        self._chains = chains
        self._closure = [(0,)]
        for parent, _m, _s in chains[1:]:
            self._closure.append(self._closure[parent] + (len(self._closure),))

        self.chain = np.array([c for _f, c, _l, _g in fields], dtype=np.intp)
        self.origin = np.array([f.frame.origin for f in tf])
        self.rows = np.array([f.frame.rows for f in tf])
        self.eps = np.array([f.eps for f in tf])
        self.half = self.eps / 2.0
        self.cut = np.array([f.cut for f in tf])
        self.log_amp = np.array([f.log_amp for f in tf])
        self.log_c = np.array([lc for _f, _c, lc, _g in fields])
        self.coef = PI * math.sqrt(d - 1) / self.eps
        self.box_lo = np.array([f.bbox()[0] for f in tf])
        self.box_hi = np.array([f.bbox()[1] for f in tf])
        self.generation = [f.generation for f in tf]
        self.tag = [f.tag for f in tf]
        counts = [len(g) for _f, _c, _l, g in fields]
        self.guard_ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        self.guard_idx = np.array([i for _f, _c, _l, g in fields for i in g], dtype=np.intp)
        # a guard is a core of its keep field, in the keep's frame
        self.g_keep = np.array([k for k, _r in guards], dtype=np.intp)
        self.g_lo = np.array([r.g for _k, r in guards])
        self.g_hi = np.array([r.x1_max for _k, r in guards])
        self.g_half = np.array([r.eps / 3.0 for _k, r in guards])

        # tube endpoints (a is the frame origin), frame rows and bounding
        # boxes in global coordinates
        self.tube_a = np.array([f.a for f in tf])
        self.tube_b = np.array([f.b for f in tf])
        self.global_rows = self.rows.copy()
        corners = np.stack([np.where(np.asarray(bits, dtype=bool), self.box_hi, self.box_lo)
                            for bits in np.ndindex(*(2,) * d)], axis=1)
        for c in range(1, len(chains)):
            sel = np.flatnonzero(self.chain == c)
            for link in reversed(self._closure[c][1:]):
                _parent, m, s = chains[link]
                self.tube_a[sel] = (self.tube_a[sel] - s) @ m
                self.tube_b[sel] = (self.tube_b[sel] - s) @ m
                self.global_rows[sel] = self.global_rows[sel] @ m
                corners[sel] = (corners[sel] - s) @ m
        lo, hi = corners.min(axis=1), corners.max(axis=1)
        self._bbox = (lo.min(axis=0), hi.max(axis=0))
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
        self._strides = [int(np.prod(self._cells[ax + 1:])) for ax in range(d)]
        span = chi - clo + 1
        size = np.prod(span, axis=1)
        owner = np.repeat(np.arange(len(tf)), size)
        k = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
        lin = np.zeros(owner.size, dtype=np.int64)
        for ax in range(d - 1, -1, -1):
            lin += (clo[owner, ax] + k % span[owner, ax]) * self._strides[ax]
            k = k // span[owner, ax]
        order = np.argsort(lin, kind="stable")
        self._cell_fields = owner[order]
        self._cell_ptr = np.searchsorted(lin[order], np.arange(int(np.prod(self._cells)) + 1))
        self._cell_lo, self._cell_hi = glo[self._cell_fields], ghi[self._cell_fields]

    # -- structure ---------------------------------------------------------

    def bbox(self):
        return self._bbox

    def support_tubes(self):
        return [TubeSpec(a, b, e, generation=g, kind=t)
                for a, b, e, g, t in zip(self.tube_a, self.tube_b, self.eps,
                                         self.generation, self.tag)]

    def anchored_tubes(self):
        """Each row's tube as the paper's segment from its anchor (local
        x_1 = 2 g(eps), ``TubeField.anchor``) to its junction b, with the
        field's eps as diameter and its tag and generation.  The endpoints
        are rounded to 12 digits, as ``TubeSpec.to_dict`` writes them; that
        gives back the construction's dyadic points, which the anchor,
        recovered from the frame origin, misses by a rounding error."""
        d = self.d
        anchor = self.tube_a + (2.0 * g_threshold(self.eps, d))[:, None] * self.global_rows[:, 0]
        ends = [[round(v, 12) for v in e] for e in np.hstack([anchor, self.tube_b]).tolist()]
        return [TubeSpec(e[:d], e[d:], eps, g, t) for e, eps, g, t in
                zip(ends, self.eps.tolist(), self.generation, self.tag)]

    def near(self, x, r: float) -> np.ndarray:
        """Ascending rows whose support lies within Euclidean distance r of
        the point x, measured in the row's own global frame."""
        x = np.asarray(x, dtype=float)
        # _candidates keeps the grid's ascending row order
        rows = self._candidates(x, x, r, r)
        loc = np.einsum("fji,fi->fj", self.global_rows[rows], x - self.tube_a[rows])
        dx = np.maximum(np.maximum(-loc[:, 0], loc[:, 0] - self.cut[rows]), 0.0)
        dt = np.maximum(np.abs(loc[:, 1:]) - self.half[rows, None], 0.0)
        return rows[dx**2 + np.sum(dt**2, axis=1) <= r * r]

    # -- evaluation --------------------------------------------------------

    def eval_log(self, X):
        return self._evaluate(X, None)

    def upper_local(self, X, slack):
        return self._evaluate(X, float(slack))

    def _evaluate(self, X, slack):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.full(X.shape[0], NEG_INF)
        if X.shape[0] == 0:
            return out
        lo, hi = _column_bounds(X)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            ok = np.all(np.isfinite(X), axis=1)
            out[ok] = self._evaluate(X[ok], slack)
            return out
        if np.all(hi - lo <= TILE):
            return self._tile(X, lo, hi, slack)
        key = np.floor(np.minimum((X - lo) / TILE, 2.0**20)).astype(np.int64)
        lin = np.ravel_multi_index(key.T, key.max(axis=0) + 1)
        order = np.argsort(lin, kind="stable")
        for part in np.split(order, np.flatnonzero(np.diff(lin[order])) + 1):
            P = X[part]
            out[part] = self._tile(P, *_column_bounds(P), slack)
        return out

    def _candidates(self, lo, hi, pad, r):
        """Fields that can be finite in [lo, hi]: their global box widened by
        ``pad`` meets it, and so does their support widened by ``r`` along
        each of the tube's own axes."""
        ranges = []
        for ax, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            c0 = max(math.floor((a - pad) / TILE) - int(self._cell0[ax]), 0)
            c1 = min(math.floor((b + pad) / TILE) - int(self._cell0[ax]),
                     int(self._cells[ax]) - 1)
            if c1 < c0:
                return np.zeros(0, dtype=np.intp)
            step = self._strides[ax]
            ranges.append(range(c0 * step, (c1 + 1) * step, step))
        cells = [sum(idx) for idx in itertools.product(*ranges)]
        if len(cells) == 1:
            s, e = self._cell_ptr[cells[0]], self._cell_ptr[cells[0] + 1]
            cand, clo, chi = self._cell_fields[s:e], self._cell_lo[s:e], self._cell_hi[s:e]
        else:
            cand = _distinct(np.concatenate(
                [self._cell_fields[self._cell_ptr[c]:self._cell_ptr[c + 1]] for c in cells]))[0]
            clo, chi = self.glo[cand], self.ghi[cand]
        cand = cand[np.all((clo <= hi + pad) & (chi >= lo - pad), axis=1)]
        centre, extent = (lo + hi) / 2.0, (hi - lo) / 2.0
        rows = self.global_rows[cand]
        proj = np.einsum("fji,fi->fj", rows, centre - self.tube_a[cand])
        reach = np.abs(rows) @ extent + (r + self._margin32)
        meets = (proj[:, 0] + reach[:, 0] >= 0.0) & (proj[:, 0] - reach[:, 0] <= self.cut[cand])
        for j in range(1, self.d):
            meets &= np.abs(proj[:, j]) - reach[:, j] <= self.half[cand]
        return cand[meets]

    def _tile(self, X, lo, hi, slack):
        n, d = X.shape
        out = np.full(n, NEG_INF)
        pad = 0.0 if slack is None else slack
        r = 0.0 if slack is None else slack * math.sqrt(d)
        cand = self._candidates(lo, hi, pad, r)
        if cand.size == 0:
            return out
        cand = cand[np.argsort(self.chain[cand], kind="stable")]
        fchain = self.chain[cand]
        # the points in the coordinates of every chain in use, applying its
        # isometries one at a time from the outermost
        chains = sorted(set(fchain.tolist()))
        pos = np.zeros(len(self._chains), dtype=np.intp)
        pos[chains] = np.arange(len(chains))
        Y = np.empty((len(chains), d, n))
        for k, c in enumerate(chains):
            y = X.T
            for link in self._closure[c][1:]:
                _parent, m, s = self._chains[link]
                y = _affine(y, m, s)
            Y[k] = y
        # single-precision frame coordinates rows . y - rows . origin of
        # every (candidate, point) pair, one broadcast per chain; pairs
        # within the rounding margin of the support (or of its slack-widened
        # copy) go on to the exact coordinates
        Y32 = Y.astype(np.float32)
        rows, offset = self.rows32[cand], self.offset32[cand]
        loc = [np.empty((cand.size, n), dtype=np.float32) for _ in range(d)]
        tmp = np.empty((cand.size, n), dtype=np.float32)
        groups = np.flatnonzero(np.diff(fchain)).tolist()
        for s, e in zip([0] + [g + 1 for g in groups], [g + 1 for g in groups] + [cand.size]):
            y = Y32[pos[fchain[s]]]
            for j in range(d):
                np.multiply(y[0], rows[s:e, j, 0, None], out=loc[j][s:e])
                for i in range(1, d):
                    loc[j][s:e] += np.multiply(y[i], rows[s:e, j, i, None], out=tmp[s:e])
                loc[j][s:e] -= offset[s:e, j, None]
        del tmp, y, Y32
        margin = r + self._margin32 * (1.0 + 2.0 * pad)
        near = ((loc[0] > np.float32(-margin))
                & (loc[0] < (self.cut[cand] + margin).astype(np.float32)[:, None]))
        reach = (self.half[cand] + margin).astype(np.float32)[:, None]
        for t in loc[1:]:
            near &= np.abs(t) < reach
        cp = pos[fchain]
        if slack is None:
            gone = self._guarded(cand, cp, loc, Y, self._margin32)
            if gone is not None:
                near &= ~gone
        del loc
        fi, pi = np.nonzero(near)
        for k in range(0, fi.size, EXACT_BLOCK):
            fk, pk = fi[k:k + EXACT_BLOCK], pi[k:k + EXACT_BLOCK]
            f, ck = cand[fk], cp[fk]
            loc = self._exact_coords(f, ck, pk, Y)
            if slack is None:
                vals, pk = self._profile(f, pk, loc)
            else:
                vals = self._upper_profile(f, loc, r)
                for i in range(d):
                    yi = Y[ck, i, pk]
                    vals[(yi < self.box_lo[f, i] - pad) | (yi > self.box_hi[f, i] + pad)] = NEG_INF
            np.maximum.at(out, pk, vals)
        return out

    def _exact_coords(self, f, cp, pi, Y):
        """Frame coordinates of field f at point pi, from the points in the
        field's chain coordinates Y[cp]."""
        return _frame_coords([Y[cp, i, pi] - self.origin[f, i] for i in range(self.d)],
                             self.rows[f])

    def _guarded(self, cand, cp, loc, Y, margin):
        """(candidate, point) pairs of the tile where one of the field's
        guards contains the point, or None.  A guard is the core of its
        keep field, so only guards whose keep is a candidate can contain a
        point of the tile; each is tested once, on the keep's single
        precision coordinates, and exactly where those are within the
        margin of its boundary."""
        start = self.guard_ptr[cand]
        count = self.guard_ptr[cand + 1] - start
        total = int(count.sum())
        if total == 0:
            return None
        first = np.cumsum(count) - count
        flat = self.guard_idx[np.repeat(start - first, count) + np.arange(total)]
        owner = np.repeat(np.arange(cand.size), count)
        order = np.argsort(cand)
        at = np.minimum(np.searchsorted(cand[order], self.g_keep[flat]), cand.size - 1)
        live = cand[order][at] == self.g_keep[flat]
        if not live.any():
            return None
        guards, slot = _distinct(flat[live])
        keep = np.empty(guards.size, dtype=np.intp)
        keep[slot] = order[at[live]]
        # |x1 - mid| against the half length and |t| against the half
        # width, each with the margin inwards (surely inside) and outwards
        lo, hi = self.g_lo[guards], self.g_hi[guards]
        mid = (lo + hi) / 2.0
        tests = [(loc[0], mid, hi - mid)] + [(t, None, self.g_half[guards]) for t in loc[1:]]
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
            g, k = guards[gb], keep[gb]
            ex = self._exact_coords(cand[k], cp[k], pb, Y)
            ok = (ex[0] >= self.g_lo[g]) & (ex[0] <= self.g_hi[g])
            for t in ex[1:]:
                ok &= np.abs(t) <= self.g_half[g]
            inside[gb, pb] = ok
        # OR over each candidate's guards, taking the r-th guard of every
        # candidate at once (the pairs are grouped by candidate)
        owner = owner[live]
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        rank = np.arange(owner.size) - np.repeat(starts, np.diff(starts, append=owner.size))
        gone = np.zeros((cand.size, inside.shape[1]), dtype=bool)
        for r in range(int(rank.max()) + 1):
            sel = rank == r
            gone[owner[sel]] |= inside[slot[sel]]
        return gone

    def _profile(self, f, pi, loc):
        """TubeField.eval_log (with the ScaleNode factors) at frame
        coordinates, at the pairs where it is finite."""
        local = np.column_stack(loc)
        vals = log_L_profile(self.eps[f], self.d, local)
        vals[local[:, 0] > self.cut[f]] = NEG_INF
        ok = np.isfinite(vals)
        f = f[ok]
        return vals[ok] + self.log_amp[f] + self.log_c[f], pi[ok]

    def _upper_profile(self, f, loc, r):
        """TubeField.upper_local (with the ScaleNode factors) at frame
        coordinates, for every pair."""
        return (log_L_upper(self.eps[f], self.d, self.cut[f], np.column_stack(loc), r)
                + self.log_amp[f] + self.log_c[f])


def _flatten(node):
    """Tube fields of a tube tree in support_tubes() order, each as
    (field, chain, log_c, guards), with the isometry chains as
    (parent chain, matrix, shift) and the guards as (keep field, region).
    Raises NotATubeTree on a node that is not part of a tube tree."""
    fields, chains, guards = [], [(0, None, None)], []
    chain_ids, guard_ids = {}, {}
    stack = [(node, 0, 0.0, ())]
    while stack:
        n, c, log_c, gs = stack.pop()
        if isinstance(n, TubeField):
            fields.append((n, c, log_c, gs))
        elif isinstance(n, MaxNode):
            stack.extend((ch, c, log_c, gs) for ch in reversed(n.children))
        elif isinstance(n, GuardedMax):
            g = n.discard
            if not (isinstance(n.keep, TubeField) and g.frame is n.keep.frame
                    and g.eps == n.keep.eps and g.x1_max <= n.keep.cut):
                raise NotATubeTree("a discard guard is not the core of its keep tube")
            key = (id(n), c)
            if key not in guard_ids:
                # the keep field is the next one recorded
                guard_ids[key] = len(guards)
                guards.append((len(fields), g))
            stack.append((n.branch, c, log_c, gs + (guard_ids[key],)))
            stack.append((n.keep, c, log_c, gs))
        elif isinstance(n, IsometryNode):
            key = (id(n), c)
            if key not in chain_ids:
                chain_ids[key] = len(chains)
                chains.append((c, n.matrix, n.shift))
            stack.append((n.child, chain_ids[key], log_c, gs))
        elif isinstance(n, ScaleNode):
            stack.append((n.child, c, log_c + n.log_c, gs))
        else:
            raise NotATubeTree(f"{type(n).__name__} is not part of a tube tree")
    return fields, chains, guards


def tube_table(fn):
    """The compiled TubeTable of a tube tree; anything else (sums of
    orthant copies, analytic functions, test doubles) is returned as is."""
    if isinstance(fn, TubeTable):
        return fn
    try:
        return TubeTable(fn)
    except NotATubeTree:
        return fn


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

    @property
    def log_p(self) -> list[float]:
        out = []
        acc = 0.0
        for r in self.ratios:
            acc -= r
            out.append(acc)
        return out

    def amplitude(self, generation: int) -> float:
        """log amplitude of generation-m branches after the final rescale
        that normalizes the leaves to amplitude one."""
        return float(sum(self.ratios[generation:]))

    def to_dict(self):
        return {
            "d": self.d,
            "k": self.k,
            "s_k": self.s_k,
            "eps_k": round(self.eps_k, 12),
            "eps1": self.eps1,
            "ratios": [round(r, 8) for r in self.ratios],
            "log_M": round(self.log_M, 8),
        }


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


def _facet_samples(region: GuardRegion, n: int, rng) -> np.ndarray:
    """Quasi-dense samples on the boundary facets of an anchored G region:
    the entry cap x_1 = g and the lateral walls |x_j| = eps/3."""
    d = region.d
    g = region.g
    w = region.eps / 3.0
    pts_local = []
    m = max(n // (2 * (d - 1) + 1), 8)
    cap = rng.uniform(-w, w, size=(m, d))
    cap[:, 0] = g
    pts_local.append(cap)
    for j in range(1, d):
        for sgn in (-1.0, 1.0):
            wall = rng.uniform(-w, w, size=(m, d))
            wall[:, 0] = rng.uniform(g, region.x1_max, size=m)
            wall[:, j] = sgn * w
            pts_local.append(wall)
    return region.frame.from_local(np.vstack(pts_local))


def _face_samples(fieldnode: TubeField, n: int, rng) -> np.ndarray:
    """Samples on the truncation face x_1 = cut of a tube field, kept a hair
    inside the transverse walls where the profile is identically zero."""
    d = fieldnode.d
    r = 0.995 * fieldnode.eps / 2.0
    loc = rng.uniform(-r, r, size=(n, d))
    loc[:, 0] = fieldnode.cut
    return fieldnode.frame.from_local(loc)


def collect_face_points(node: FunctionNode, n_per_face: int, rng) -> np.ndarray:
    """Global-coordinate samples on the truncation faces of the top-level
    tube fields reachable without descending past a junction, mapping
    through any isometries on the way."""
    out = []

    def rec(n_, A, c):
        # x_global = A @ y + c for y in the current node's coordinates
        if isinstance(n_, TubeField):
            loc = _face_samples(n_, n_per_face, rng)
            out.append(loc @ A.T + c)
        elif isinstance(n_, MaxNode):
            for ch in n_.children:
                rec(ch, A, c)
        elif isinstance(n_, GuardedMax):
            rec(n_.keep, A, c)
        elif isinstance(n_, ScaleNode):
            rec(n_.child, A, c)
        elif isinstance(n_, IsometryNode):
            # child coords y' = M y + b  =>  y = M.T (y' - b)
            A2 = A @ n_.matrix.T
            c2 = c - A @ n_.matrix.T @ n_.shift
            rec(n_.child, A2, c2)

    d = None
    probe = node
    while d is None:
        if isinstance(probe, TubeField):
            d = probe.d
        elif isinstance(probe, (MaxNode, SumNode)):
            probe = probe.children[0]
        elif isinstance(probe, GuardedMax):
            probe = probe.keep
        elif isinstance(probe, (ScaleNode, IsometryNode)):
            probe = probe.child
        else:
            return np.zeros((0, 2))
    rec(node, np.eye(d), np.zeros(d))
    return np.vstack(out) if out else np.zeros((0, d))


#: profile floor separating the solidly-alive part of the keep tube (where
#: T - 1 >= 2^(-2d), attained at the anchor's wall corner) from the
#: wall-suppressed sliver
def _profile_floor(d: int) -> float:
    return -2.0 * d * LOG2


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

    def passed(self, leak_tol: float = -4.0) -> bool:
        return self.guard_gap < 0 and self.solid_gap < 0 and self.face_seam <= leak_tol

    def required_amplitude(self, margin: float, leak_tol: float = -4.0) -> float:
        """Smallest keep amplitude passing this certificate, assuming the
        report was computed against a unit-amplitude keep."""
        return max(self.guard_gap + margin, self.solid_gap + margin,
                   self.face_seam - leak_tol + margin)


def certify_dominance(keep: TubeField, branch: FunctionNode,
                      region: GuardRegion, n: int = 10_000,
                      seed: int = 99) -> DominanceReport:
    """Sample the guard boundary and the branch truncation faces and compare
    the keep profile against the branch."""
    rng = np.random.default_rng(seed)
    G = _facet_samples(region, n, rng)
    kv = keep.eval_log(G)
    bv = branch.eval_log(G)
    gap = np.where(np.isfinite(bv), bv - np.where(np.isfinite(kv), kv, NEG_INF), NEG_INF)
    gap[np.isfinite(bv) & ~np.isfinite(kv)] = np.inf
    ig = int(np.argmax(gap)) if gap.size else 0
    guard_gap, guard_pt = float(gap[ig]), G[ig]

    F = collect_face_points(branch, max(n // 8, 64), rng)
    solid_gap, solid_pt = NEG_INF, None
    face_seam, face_pt = NEG_INF, None
    if F.size:
        bf = branch.eval_log(F)
        kf = keep.eval_log(F)
        profile = kf - keep.log_amp
        solid = np.isfinite(bf) & (profile >= _profile_floor(keep.d))
        if solid.any():
            g2 = bf[solid] - kf[solid]
            i = int(np.argmax(g2))
            solid_gap, solid_pt = float(g2[i]), F[solid][i]
        sliver = np.isfinite(bf) & ~solid
        if sliver.any():
            g3 = bf[sliver] - keep.log_amp
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
    node: FunctionNode
    schedule: GlueSchedule
    k: int
    d: int
    checks: list[JunctionCheck] = field(default_factory=list)
    trunk_inflation: float = 0.0

    @property
    def box(self):
        lo = np.zeros(self.d)
        return lo, lo + 2.0 ** (self.k + 1)


def _leaf_fields(cell_corner, d: int, eps1: float, amp: float) -> list[TubeField]:
    corner = np.asarray(cell_corner, dtype=float)
    center = corner + 1.0
    out = []
    for offs in np.ndindex(*(2,) * d):
        tip = corner + np.asarray(offs, dtype=float) + 0.5
        direction = center - tip
        run = float(np.linalg.norm(direction))
        out.append(TubeField.junction_branch(tip, direction, eps1, d, amp, run,
                                             tag="leaf", generation=-1))
    return out


def _subtree_cell_node(params, sched: GlueSchedule, order: int, corner: np.ndarray,
                       parent_junction: np.ndarray, generation: int) -> FunctionNode:
    """Node for the dyadic cell of the given order: its branch tube running
    to the parent junction, with all lower generations glued on."""
    d = params.d
    k = sched.k
    edge = 2.0**order
    center = corner + edge / 2.0
    if generation <= sched.s_k:
        diam = 2.0 ** (k + 1 - generation) * sched.eps_k
    else:
        diam = sched.eps1
    amp = sched.amplitude(generation)
    run = float(np.linalg.norm(parent_junction - center))
    branch = TubeField.junction_branch(center, parent_junction - center, diam, d,
                                       amp, run, tag="wide" if generation <= sched.s_k else "thin",
                                       generation=generation)
    if order == 1:
        children = _leaf_fields(corner, d, sched.eps1, sched.amplitude(k + 1))
    else:
        half = edge / 2.0
        children = []
        for offs in np.ndindex(*(2,) * d):
            sub = corner + np.asarray(offs, dtype=float) * half
            children.append(
                _subtree_cell_node(params, sched, order - 1, sub, center, generation + 1)
            )
    return GuardedMax(branch, MaxNode(children), branch.guard())


def build_tau(params: GrowthParameters, k: int, skip_rescale: bool = False,
              check_guards: bool = True, guard_samples: int = 10_000) -> TauBuild:
    """Function for the outer subtree of rank k+1 in its own frame, the box
    [0, 2^(k+1))^d, with trunk rooted at the box center and running to the
    corner 2^(k+1) v_0 where the next level will absorb it.

    ``skip_rescale`` drops the final normalization (the unbounded-oscillation
    variant): amplitudes are then relative to the trunk instead of the leaves.
    """
    d = params.d
    sched = glue_schedule(params, k)
    box_center = np.full(d, 2.0**k)
    v0 = np.ones(d) / math.sqrt(d)
    trunk_amp = sched.amplitude(0)
    # the unbounded-oscillation variant keeps the raw glue chain: shifting
    # every amplitude by -log(1/p_last) normalizes the trunk instead of
    # the leaves
    shift = -trunk_amp if skip_rescale else 0.0
    trunk_diam = 2.0**k * sched.eps_k
    run = math.sqrt(d) * 2.0**k  # to the corner 2^(k+1) v_0
    children = []
    for offs in np.ndindex(*(2,) * d):
        sub = np.asarray(offs, dtype=float) * 2.0**k
        children.append(_subtree_cell_node_shifted(params, sched, k, sub, box_center, shift))
    branch = MaxNode(children)

    def root(extra):
        trunk = TubeField.junction_branch(box_center, v0, trunk_diam, d,
                                          trunk_amp + shift + extra, run,
                                          tag="trunk", generation=0)
        return trunk, GuardedMax(trunk, branch, trunk.guard())

    # The prescribed trunk amplitude suffices once k is large; at the
    # smallest ranks the sampled demand can exceed it, and the trunk is then
    # inflated by the measured deficit (recorded, never silent).
    inflate = 0.0
    trunk, node = root(inflate)
    if check_guards:
        rep = certify_dominance(trunk, branch, node.discard,
                                n=guard_samples, seed=97)
        if not rep.passed(LEAK_TOLERANCE):
            inflate = max(rep.required_amplitude(LOG2, LEAK_TOLERANCE), 0.0)
            trunk, node = root(inflate)
    build = TauBuild(node, sched, k, d, trunk_inflation=inflate)
    if check_guards:
        _check_tau_guards(build, params, guard_samples)
    return build


def _subtree_cell_node_shifted(params, sched, order, corner, parent_junction, shift):
    node = _subtree_cell_node(params, sched, order, np.asarray(corner, dtype=float),
                              np.asarray(parent_junction, dtype=float), 1)
    return node if shift == 0.0 else ScaleNode(node, shift)


LEAK_TOLERANCE = -4.0


def _check_tau_guards(build: TauBuild, params, guard_samples: int,
                      leak_tol: float = LEAK_TOLERANCE):
    """Certify one representative junction per generation (siblings are
    reflections of each other with identical constants)."""
    node = build.node
    label = "trunk"
    gen = 0
    while isinstance(node, GuardedMax):
        keep = node.keep
        branch = node.branch
        rep = certify_dominance(keep, branch, node.discard,
                                n=guard_samples, seed=101 + gen)
        passed = rep.passed(leak_tol)
        worst = rep.guard_point if rep.guard_gap >= 0 else (
            rep.solid_point if rep.solid_gap >= 0 and rep.solid_point is not None
            else (rep.face_point if rep.face_seam > leak_tol and rep.face_point is not None
                  else rep.guard_point))
        build.checks.append(JunctionCheck(
            f"tau[k={build.k}] gen {gen} ({label})", rep.guard_gap,
            rep.solid_gap, rep.face_seam, tuple(np.round(worst, 6)), passed))
        if not passed:
            raise GuardConsistencyError(
                f"guard dominance violated at generation {gen} of tau rank "
                f"{build.k + 1}: guard gap {rep.guard_gap:.3g}, solid gap "
                f"{rep.solid_gap:.3g}, face seam {rep.face_seam:.3g} at {worst}",
                point=worst, gap=rep.guard_gap)
        # descend into the first child branch
        nxt = branch
        while isinstance(nxt, (MaxNode, ScaleNode)):
            nxt = nxt.children[0] if isinstance(nxt, MaxNode) else nxt.child
        if not isinstance(nxt, GuardedMax):
            break
        node = nxt
        gen += 1
        label = f"generation {gen}"


@dataclass
class ULevel:
    j: int
    log_M: float
    amplitude: float
    demand: float
    inflated: bool


@dataclass
class UBuild:
    node: FunctionNode
    params: GrowthParameters
    k: int
    levels: list[ULevel]
    checks: list[JunctionCheck]
    #: level_nodes[j] is the level-(j+1) function supported on [0, 2^(j+1))^d
    #: plus its handle; level_nodes[-1] is ``node``
    level_nodes: list[FunctionNode] = field(default_factory=list)

    @property
    def d(self):
        return self.params.d

    @property
    def box(self):
        lo = np.zeros(self.d)
        return lo, lo + 2.0**self.k

    def tree(self) -> TreeSpec:
        """The tube set of the function: every tube field but the outgoing
        handle, read off the compiled table."""
        # row 0 is the root's keep: the outgoing handle
        tubes = TubeTable(self.node).anchored_tubes()[1:]
        d, k = self.d, self.k - 1
        s_eps = {j: choose_s_k(self.params, j) for j in range(1, k)}
        return TreeSpec(d, self.k, tubes, EPS1,
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


def build_u(params: GrowthParameters, k: int, check_guards: bool = True,
            guard_samples: int = 10_000, margin: float = LOG2) -> UBuild:
    """The nested function on [0, 2^k)^d with its handle sticking out.

    Level j+1 glues the level-j function and 2^d - 1 reflected rank-j outer
    subtrees onto the handle A_j L_(j+1) anchored at the junction 2^j v_0.
    The handle amplitude is the growth threshold M_j whenever that already
    dominates the arriving branches on the sampled guard boundary; when the
    sampled demand exceeds it (small-k regime) the amplitude is inflated to
    demand + margin and the level is flagged.
    """
    if k < 1:
        raise ParameterRangeError("k must be >= 1")
    d = params.d
    levels: list[ULevel] = []
    checks: list[JunctionCheck] = []

    # level 1: basic subtree of [0,2)^d plus its handle of diameter 2 delta_1
    leaf_amp0 = 0.0
    trunk_amp1 = PI * d / EPS1  # thin glue ratio at child order 0
    handle1 = TubeField.junction_branch(np.ones(d), np.ones(d) / math.sqrt(d),
                                        2.0 * delta_k(params, 1), d, trunk_amp1,
                                        math.sqrt(d), tag="handle", generation=0)
    leaves = MaxNode(_leaf_fields(np.zeros(d), d, EPS1, leaf_amp0))
    u_node: FunctionNode = GuardedMax(handle1, leaves, handle1.guard())
    level_nodes: list[FunctionNode] = [u_node]
    tau_cache: dict[int, TauBuild] = {}

    for j in range(1, k):
        if j == 1:
            tau_node: FunctionNode = u_node  # tau_1 = u_1 by construction
        else:
            if j - 1 not in tau_cache:
                tau_cache[j - 1] = build_tau(params, j - 1, check_guards=check_guards,
                                             guard_samples=max(guard_samples // 4, 512))
            tau_node = tau_cache[j - 1].node
        edge = 2.0**j
        branches: list[FunctionNode] = [u_node]
        for idx in np.ndindex(*(2,) * d):
            if all(i == 0 for i in idx):
                continue
            branches.append(IsometryNode.cell_reflection(tau_node, idx, edge))
        branch_node = MaxNode(branches)

        eps_handle = 2.0 ** (j + 1) * delta_k(params, j + 1)
        b_j = np.full(d, edge)
        run = math.sqrt(d) * (2.0**j if j + 1 < k else 2.0**k)
        unit_handle = TubeField.junction_branch(b_j, np.ones(d) / math.sqrt(d),
                                                eps_handle, d, 0.0, run,
                                                tag="handle", generation=0)
        probe = certify_dominance(unit_handle, branch_node, unit_handle.guard(),
                                  n=guard_samples, seed=500 + j)
        lm = log_MM(params, j)
        # amplitude absorbs the sampled demand on the guard boundary and the
        # solidly-covered face points, and towers over the wall-sliver seam
        # by the tolerance
        demand = max(probe.guard_gap, probe.solid_gap)
        amp = max(lm, probe.required_amplitude(margin, LEAK_TOLERANCE))
        inflated = amp > lm
        levels.append(ULevel(j, lm, amp, demand, inflated))
        handle = TubeField.junction_branch(b_j, np.ones(d) / math.sqrt(d),
                                           eps_handle, d, amp, run,
                                           tag="handle", generation=0)
        u_node = GuardedMax(handle, branch_node, handle.guard())
        level_nodes.append(u_node)
        if check_guards:
            rep = certify_dominance(handle, branch_node, handle.guard(),
                                    n=guard_samples, seed=900 + j)
            passed = rep.passed(LEAK_TOLERANCE)
            worst = rep.guard_point
            checks.append(JunctionCheck(f"u level {j + 1} handle",
                                        rep.guard_gap, rep.solid_gap,
                                        rep.face_seam,
                                        tuple(np.round(worst, 6)), passed))
            if not passed:
                raise GuardConsistencyError(
                    f"handle dominance violated at level {j + 1}: guard gap "
                    f"{rep.guard_gap:.3g}, solid gap {rep.solid_gap:.3g}, "
                    f"face seam {rep.face_seam:.3g}",
                    point=worst, gap=rep.guard_gap)
    return UBuild(u_node, params, k, levels, checks, level_nodes)


def assemble_full(params: GrowthParameters, k: int, u: UBuild | None = None,
                  **kwargs) -> tuple[SumNode, UBuild]:
    """Sum of the 2^d orthant reflections of the level-k function; supports
    evaluation on [-2^k, 2^k]^d."""
    if u is None:
        u = build_u(params, k, **kwargs)
    d = params.d
    copies = [IsometryNode.orthant(u.node, OrthantMap.from_index(j, d))
              for j in range(2**d)]
    return SumNode(copies), u


# ---------------------------------------------------------------------------
# The everywhere-oscillating slab function (exponential-growth prologue)
# ---------------------------------------------------------------------------


class SlabOscillating(FunctionNode):
    """Maximum of integer translates of W along each axis: oscillates in
    every basic cube, with exponential growth."""

    kind = "W_periodic"

    def __init__(self, d: int):
        self.d = d

    def eval_log(self, X):
        X = np.atleast_2d(X)
        d = self.d
        out = np.full(X.shape[0], NEG_INF)
        for axis in range(d):
            frac = X[:, axis] - np.round(X[:, axis])
            on = np.abs(frac) <= 0.25
            if not on.any():
                continue
            with np.errstate(divide="ignore"):
                vals = np.log(np.maximum(np.cos(2 * PI * frac[on]), 0.0))
            for j in range(d):
                if j != axis:
                    vals = vals + log_cosh(2 * PI * X[on, j] / math.sqrt(d - 1))
            out[on] = np.maximum(out[on], vals)
        return out

    def upper_local(self, X, slack):
        X = np.atleast_2d(X)
        d = self.d
        out = np.full(X.shape[0], NEG_INF)
        for axis in range(d):
            frac = np.abs(X[:, axis] - np.round(X[:, axis]))
            frac = np.maximum(frac - slack, 0.0)
            on = frac <= 0.25
            if not on.any():
                continue
            vals = np.log(np.cos(2 * PI * frac[on]))
            for j in range(d):
                if j != axis:
                    vals = vals + log_cosh(2 * PI * (np.abs(X[on, j]) + slack) / math.sqrt(d - 1))
            out[on] = np.maximum(out[on], vals)
        return out
