"""Tube-union tree sets: basic subtrees, outer subtrees, and the nested tree.

The tree of rank k+1 lives in the box [0, 2**(k+1))^d.  It is assembled
recursively: the inner tree of rank k keeps its cell [0, 2**k)^d, the other
2**d - 1 cells receive reflected copies of the rank-k outer subtree, and the
cell centers are joined to the box center by handle tubes.  An outer subtree
of rank k+1 descends the dyadic hierarchy of its box: the first s_k
generations use tubes of relative diameter eps_k (absolute diameter
2**(k+1-m) * eps_k at generation m), the remaining generations and the leaf
subtrees use tubes of absolute diameter eps_1.

A tube of diameter delta around a segment is the set of points whose
coordinate along the segment lies within the segment's span and whose
transverse coordinates, in an orthonormal frame completed from the segment
direction, are all below delta/2 in absolute value (square cross-section).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import InvalidRegionError

LOG2 = math.log(2.0)

#: Leaf tube diameter; satisfies sqrt(d) * (2 eps_1)^(d-1) < 1/2 for d in {2, 3}.
EPS1 = 0.125


class ParameterRangeError(ValueError):
    """No admissible parameter in the required range."""


class GrowthValidationError(ValueError):
    """The comparison function violates a required growth property."""


# ---------------------------------------------------------------------------
# Comparison functions
# ---------------------------------------------------------------------------

_GROWTH_RE = re.compile(
    r"^\s*(?:(?P<coeff>[0-9.]+)\s*\*\s*)?t\s*\^\s*(?P<power>[0-9.]+(?:/[0-9.]+)?)"
    r"(?:\s*\*\s*log\(\s*(?:2\s*\+\s*)?t\s*\)\s*(?:\^\s*(?P<logexp>-?[0-9]+))?)?\s*$"
)


@dataclass
class GrowthParameters:
    """Monotone comparison function f(t) = coeff * t**a * log(2+t)**q.

    ``index`` is the regular-variation index a; ``t_onset`` is the smallest
    sampled t from which the doubling ratio f(t)/f(2t) stays inside
    (2**-(d+1), 2/3), measured rather than assumed.
    """

    d: int
    index: float
    coeff: float = 1.0
    log_exponent: int = 0
    label: str = ""
    t_onset: float = field(default=float("nan"))

    def __post_init__(self):
        if not self.label:
            self.label = f"{self.coeff}*t^{self.index}" + (
                f"*log(2+t)^{self.log_exponent}" if self.log_exponent else ""
            )

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = self.coeff * t**self.index
        if self.log_exponent:
            out = out * np.log(2.0 + t) ** self.log_exponent
        return out if out.ndim else float(out)

    def validate(self, t_max: float = 1e6, samples: int = 1000) -> "GrowthParameters":
        """Check monotonicity, f <= t**d, and measure the doubling window.

        The volume bound is asymptotic, so it is enforced from t = 4 (the
        first dyadic scale the tree construction uses) upward.
        """
        t = np.geomspace(1.0, t_max, samples)
        v = self(t)
        if np.any(np.diff(v) < -1e-12 * np.abs(v[:-1])):
            raise GrowthValidationError(f"{self.label} is not monotone non-decreasing")
        big = t >= 4.0
        if np.any(v[big] > t[big] ** self.d * (1 + 1e-9)):
            worst = t[big][np.argmax(v[big] - t[big] ** self.d)]
            raise GrowthValidationError(f"{self.label} exceeds t^{self.d} at t={worst:.3g}")
        if not 0 <= self.index <= self.d:
            raise GrowthValidationError(f"index {self.index} outside [0, {self.d}]")
        ratio = self(t) / self(2.0 * t)
        ok = (ratio > 2.0 ** -(self.d + 1)) & (ratio < 2.0 / 3.0)
        onset = float("inf")
        for i in range(len(t)):
            if ok[i:].all():
                onset = float(t[i])
                break
        self.t_onset = onset
        return self


def parse_growth(text: str, d: int) -> GrowthParameters:
    """Parse 'a*t^p*log(2+t)^q' style comparison-function specs."""
    m = _GROWTH_RE.match(text)
    if m is None:
        raise GrowthValidationError(f"cannot parse growth spec {text!r}")
    power = m.group("power")
    try:
        if "/" in power:
            num, den = power.split("/")
            a = float(num) / float(den)
        else:
            a = float(power)
        coeff = float(m.group("coeff") or 1.0)
    except (ValueError, ZeroDivisionError) as exc:
        raise GrowthValidationError(f"bad number in growth spec {text!r}: {exc}") from exc
    if not (math.isfinite(a) and math.isfinite(coeff) and coeff > 0):
        raise GrowthValidationError(
            f"growth spec {text!r} needs a finite power and a finite positive coefficient")
    q = int(m.group("logexp")) if m.group("logexp") is not None else (
        1 if "log" in text else 0
    )
    return GrowthParameters(d=d, index=a, coeff=coeff, log_exponent=q).validate()


# ---------------------------------------------------------------------------
# Tube geometry
# ---------------------------------------------------------------------------


def complete_frame(axis: np.ndarray) -> np.ndarray:
    """Orthonormal frame (rows) with rows[0] = axis.

    Deterministic completion: Gram-Schmidt against the standard basis in
    fixed order, skipping near-parallel candidates.
    """
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0:
        raise InvalidRegionError("zero direction vector")
    rows = [axis / n]
    d = axis.shape[0]
    for i in range(d):
        if len(rows) == d:
            break
        cand = np.zeros(d)
        cand[i] = 1.0
        for r in rows:
            cand = cand - np.dot(cand, r) * r
        nc = np.linalg.norm(cand)
        if nc > 1e-9:
            rows.append(cand / nc)
    return np.asarray(rows)


def tube_bounds(a: np.ndarray, b: np.ndarray, diameter: float):
    """Axis-aligned bounding box of the tube around [a, b]."""
    r = diameter / 2.0 * math.sqrt(len(a) - 1)
    return np.minimum(a, b) - r, np.maximum(a, b) + r


@dataclass
class TubeSpec:
    """Tube around the segment [a, b] with square cross-section."""

    a: np.ndarray
    b: np.ndarray
    diameter: float
    rank: int = 0          # construction step that created the tube
    generation: int = 0    # generation within an outer subtree; 0 for handles
    kind: str = "leaf"     # leaf | wide | thin | handle

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.diameter <= 0:
            raise ParameterRangeError(f"tube diameter must be positive, got {self.diameter}")
        if np.allclose(self.a, self.b):
            raise ParameterRangeError("tube endpoints must be distinct")

    # computed on first use: most tubes of a built tree never need them
    @cached_property
    def length(self) -> float:
        return float(np.linalg.norm(self.b - self.a))

    @cached_property
    def frame(self) -> np.ndarray:
        return complete_frame(self.b - self.a)

    def local(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (pts - self.a) @ self.frame.T

    def contains(self, points: np.ndarray) -> np.ndarray:
        loc = self.local(points)
        axial = (loc[:, 0] >= 0.0) & (loc[:, 0] <= self.length)
        trans = np.all(np.abs(loc[:, 1:]) < self.diameter / 2.0, axis=1)
        return axial & trans

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Euclidean distance to the tube (exact: box in frame coordinates)."""
        loc = self.local(points)
        dx = np.maximum(np.maximum(-loc[:, 0], loc[:, 0] - self.length), 0.0)
        dt = np.maximum(np.abs(loc[:, 1:]) - self.diameter / 2.0, 0.0)
        return np.sqrt(dx**2 + np.sum(dt**2, axis=1))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return tube_bounds(self.a, self.b, self.diameter)

    def to_dict(self) -> dict:
        return {
            "a": [round(float(v), 12) for v in self.a],
            "b": [round(float(v), 12) for v in self.b],
            "diameter": round(float(self.diameter), 12),
            "rank": self.rank,
            "generation": self.generation,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TubeSpec":
        return cls(
            np.asarray(d["a"]), np.asarray(d["b"]), d["diameter"],
            d.get("rank", 0), d.get("generation", 0), d.get("kind", "leaf"),
        )


@dataclass
class TreeSpec:
    """A finite tube-union tree with its construction parameters."""

    dimension: int
    rank: int
    tubes: list[TubeSpec]
    eps1: float = EPS1
    s_values: dict = field(default_factory=dict)
    eps_values: dict = field(default_factory=dict)
    delta_values: dict = field(default_factory=dict)

    def branches(self) -> list[TubeSpec]:
        """Tubes of diameter above 2*eps1 (everything wider than leaf scale)."""
        return [t for t in self.tubes if t.diameter > 2.0 * self.eps1]

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.zeros(self.dimension)
        return lo, lo + 2.0**self.rank

    def to_json(self) -> str:
        return json.dumps(
            {
                "dimension": self.dimension,
                "rank": self.rank,
                "eps1": self.eps1,
                "s_values": {str(k): v for k, v in self.s_values.items()},
                "eps_values": {str(k): round(v, 12) for k, v in self.eps_values.items()},
                "delta_values": {str(k): round(v, 12) for k, v in self.delta_values.items()},
                "tubes": [t.to_dict() for t in self.tubes],
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "TreeSpec":
        d = json.loads(text)
        return cls(
            dimension=d["dimension"],
            rank=d["rank"],
            tubes=[TubeSpec.from_dict(t) for t in d["tubes"]],
            eps1=d["eps1"],
            s_values={int(k): v for k, v in d["s_values"].items()},
            eps_values={int(k): v for k, v in d["eps_values"].items()},
            delta_values={int(k): v for k, v in d["delta_values"].items()},
        )


# ---------------------------------------------------------------------------
# Construction parameters
# ---------------------------------------------------------------------------


def choose_s_k(params: GrowthParameters, k: int) -> tuple[int, float]:
    """Smallest integer s >= 1 with ratio^(1/(d-1)) <= s^(1/(d-1)) 2^s
    <= 4 ratio^(1/(d-1)) for ratio = f(2^k)/2^k; returns (s_k, eps_k) with
    eps_k = 2**(s_k - k)."""
    if k < 1:
        raise ParameterRangeError(f"k must be >= 1, got {k}")
    d = params.d
    fk = params(2.0**k)
    if fk < 2.0**k * (1 - 1e-12):
        raise ParameterRangeError(f"need f(2^k) >= 2^k, got f={fk:.4g} at k={k}")
    lo = (fk / 2.0**k) ** (1.0 / (d - 1))
    hi = 4.0 * lo
    for s in range(1, max(k, 64) + 1):
        val = s ** (1.0 / (d - 1)) * 2.0**s
        if lo <= val <= hi:
            return s, 2.0 ** (s - k)
        if val > hi:
            break
    raise ParameterRangeError(
        f"no integer s with s^(1/(d-1)) 2^s in [{lo:.6g}, {hi:.6g}] (k={k})"
    )


def delta_k(params: GrowthParameters, k: int) -> float:
    """Relative diameter of the handle joining subtrees at scale 2^k."""
    return float((params(2.0**k) / 2.0 ** (k * params.d)) ** (1.0 / (params.d - 1)))


def sparseness_threshold(d: int, eps1: float = EPS1) -> float:
    """A cube is sparse when the tube measure inside it stays below this."""
    thr = math.sqrt(d) * (2.0 * eps1) ** (d - 1)
    if thr >= 0.5:
        raise ParameterRangeError(f"eps1={eps1} too large: threshold {thr:.3f} >= 1/2")
    return thr


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def build_basic_subtree(cell_corner, leaf_diameter: float, d: int | None = None,
                        rank: int = 1, generation: int = 1) -> list[TubeSpec]:
    """2^d leaf tubes joining the basic-cube centers of an order-1 dyadic
    cell to the cell's center vertex."""
    corner = np.asarray(cell_corner, dtype=float)
    d = d or corner.shape[0]
    if np.any(corner % 2 != 0):
        raise InvalidRegionError(f"{cell_corner} is not an order-1 dyadic corner")
    if leaf_diameter <= 0:
        raise ParameterRangeError("leaf diameter must be positive")
    if leaf_diameter >= 1:
        raise ParameterRangeError(f"leaf diameter {leaf_diameter} >= basic cube edge")
    center = corner + 1.0
    tubes = []
    for offs in np.ndindex(*(2,) * d):
        tip = corner + np.asarray(offs, dtype=float) + 0.5
        tubes.append(TubeSpec(tip, center, leaf_diameter, rank, generation, "leaf"))
    return tubes


def build_outer_subtree(params: GrowthParameters, k: int) -> TreeSpec:
    """Outer subtree of rank k+1 in its own frame, the box [0, 2^(k+1))^d.

    Generation m (1-based) joins the centers of the 2^(d m) dyadic cubes of
    order k+1-m to their parents' centers; generations up to s_k carry
    diameter 2^(k+1-m) eps_k, later ones carry eps_1; the leaf subtrees sit
    at the order-1 cells.
    """
    d = params.d
    s_k, eps_k = choose_s_k(params, k)
    tubes: list[TubeSpec] = []
    for m in range(1, k + 1):
        child_order = k + 1 - m
        edge = 2.0**child_order
        diam = 2.0 ** (k + 1 - m) * eps_k if m <= s_k else EPS1
        kind = "wide" if m <= s_k else "thin"
        n_cells = 2 ** (k + 1 - child_order)
        for idx in np.ndindex(*(n_cells,) * d):
            child_center = (np.asarray(idx, dtype=float) + 0.5) * edge
            parent_center = (np.floor(np.asarray(idx, dtype=float) / 2) + 0.5) * edge * 2
            tubes.append(TubeSpec(child_center, parent_center, diam, k + 1, m, kind))
    n_cells = 2**k
    for idx in np.ndindex(*(n_cells,) * d):
        cell_corner = 2 * np.asarray(idx)
        tubes.extend(
            build_basic_subtree(cell_corner, EPS1, d, k + 1, k + 1)
        )
    return TreeSpec(
        dimension=d,
        rank=k + 1,
        tubes=tubes,
        eps1=EPS1,
        s_values={k: s_k},
        eps_values={k: eps_k},
        delta_values={},
    )


def _reflect_into_cell(tube: TubeSpec, cell_index, edge: float, rank: int) -> TubeSpec:
    """Place a tube from the subtree's own frame into the dyadic cell at
    ``cell_index`` by the reflection that sends the frame's center corner to
    the cell corner touching the box center."""
    e = np.asarray(cell_index, dtype=float)

    def mv(x):
        return edge * e + np.where(e > 0, edge - x, x)

    return TubeSpec(mv(tube.a), mv(tube.b), tube.diameter, rank, tube.generation, tube.kind)


def build_tree(params: GrowthParameters, k: int) -> TreeSpec:
    """The nested tree T_{k+1} in [0, 2^(k+1))^d.

    Recursion: T_1 is the basic subtree of [0,2)^d; T_{j+1} keeps T_j in the
    corner cell, places reflected copies of the rank-j outer subtree in the
    other cells, and joins all cell centers to the box center with handles
    of absolute diameter 2^j * delta_j.
    """
    if k < 0:
        raise ParameterRangeError("k must be >= 0")
    d = params.d
    sparseness_threshold(d, EPS1)
    tubes = build_basic_subtree((0,) * d, EPS1, d, rank=1, generation=1)
    s_values: dict[int, int] = {}
    eps_values: dict[int, float] = {}
    delta_values: dict[int, float] = {}
    for j in range(1, k + 1):
        edge = 2.0**j
        if j == 1:
            outer = TreeSpec(d, 1, build_basic_subtree((0,) * d, EPS1, d, 2, 1), EPS1)
        else:
            outer = build_outer_subtree(params, j - 1)
            s_values.update(outer.s_values)
            eps_values.update(outer.eps_values)
        for idx in np.ndindex(*(2,) * d):
            if all(i == 0 for i in idx):
                continue
            for t in outer.tubes:
                tubes.append(_reflect_into_cell(t, idx, edge, j + 1))
        dj = delta_k(params, j)
        delta_values[j] = dj
        box_center = np.full(d, edge)
        for idx in np.ndindex(*(2,) * d):
            cell_center = (np.asarray(idx, dtype=float) + 0.5) * edge
            tubes.append(TubeSpec(cell_center, box_center, edge * dj, j + 1, 0, "handle"))
    return TreeSpec(d, k + 1, tubes, EPS1, s_values, eps_values, delta_values)


# ---------------------------------------------------------------------------
# Sparseness census
# ---------------------------------------------------------------------------


@dataclass
class SparsenessReport:
    corner: tuple
    measure_low: float
    measure_high: float
    estimate: float
    status: str  # sparse | nonsparse | uncertain

    @property
    def sparse(self) -> bool:
        return self.status == "sparse"


class _TubeIndex:
    """Uniform-bin spatial index over tube bounding boxes."""

    def __init__(self, tubes: list[TubeSpec], cell: float = 1.0):
        self.tubes = tubes
        self.cell = cell
        self.bins: dict[tuple, list[int]] = {}
        for i, t in enumerate(tubes):
            lo, hi = t.bounds()
            lo_i = np.floor(lo / cell).astype(int)
            hi_i = np.floor(hi / cell).astype(int)
            for idx in np.ndindex(*(hi_i - lo_i + 1)):
                key = tuple(lo_i + np.asarray(idx))
                self.bins.setdefault(key, []).append(i)

    def candidates(self, lo: np.ndarray, hi: np.ndarray) -> list[TubeSpec]:
        lo_i = np.floor(np.asarray(lo) / self.cell).astype(int)
        hi_i = np.floor(np.asarray(hi) / self.cell).astype(int)
        seen: set[int] = set()
        for idx in np.ndindex(*(hi_i - lo_i + 1)):
            seen.update(self.bins.get(tuple(lo_i + np.asarray(idx)), ()))
        return [self.tubes[i] for i in sorted(seen)]


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


def tube_measure_in_cube(cube_lo, cube_hi, tubes, depth_cap: int = 8,
                         mc_samples: int = 100_000, seed: int = 2024):
    """Bounds and an estimate for the Lebesgue measure of cube ∩ (union of
    tubes), by adaptive dyadic subdivision with a fixed-seed Monte-Carlo
    sweep over the cells still cut by tube boundaries at the depth cap."""
    cube_lo = np.asarray(cube_lo, dtype=float)
    cube_hi = np.asarray(cube_hi, dtype=float)
    inside_vol = 0.0
    unresolved: list[tuple[np.ndarray, np.ndarray, tuple]] = []
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
        d = len(lo)
        for idx in np.ndindex(*(2,) * d):
            sub_lo = np.where(np.asarray(idx) == 0, lo, mid)
            sub_hi = np.where(np.asarray(idx) == 0, mid, hi)
            state, surv = _cell_vs_tubes(sub_lo, sub_hi, cand)
            if state == 1:
                inside_vol += float(np.prod(sub_hi - sub_lo))
            elif state == 0:
                stack.append((sub_lo, sub_hi, surv, depth + 1))
    unresolved_vol = float(sum(np.prod(hi - lo) for lo, hi, _ in unresolved))
    low = inside_vol
    high = inside_vol + unresolved_vol
    if not unresolved:
        return low, high, low, 0.0
    rng = np.random.default_rng(
        np.random.SeedSequence([seed] + [int(v * 16) & 0xFFFF for v in cube_lo])
    )
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
    return low, high, est, se


def is_sparse(cube_corner, tree: TreeSpec, index: _TubeIndex | None = None,
              depth_cap: int = 8, mc_samples: int = 100_000, seed: int = 2024
              ) -> SparsenessReport:
    """Classify a basic cube against the tree's sparseness threshold.

    Near-threshold cubes whose quadrature cannot separate the measure from
    the threshold are flagged uncertain, never silently classified.
    """
    corner = tuple(int(c) for c in cube_corner)
    lo = np.asarray(corner, dtype=float)
    hi = lo + 1.0
    tubes = index.candidates(lo, hi) if index is not None else tree.tubes
    tubes = [t for t in tubes if float(t.distance(((lo + hi) / 2)[None, :])[0])
             <= math.sqrt(tree.dimension) / 2]
    thr = sparseness_threshold(tree.dimension, tree.eps1)
    low, high, est, se = tube_measure_in_cube(lo, hi, tubes, depth_cap, mc_samples, seed)
    if high < thr:
        status = "sparse"
    elif low >= thr:
        status = "nonsparse"
    elif se > 0 and est + 3 * se < thr:
        status = "sparse"
    elif se > 0 and est - 3 * se >= thr:
        status = "nonsparse"
    else:
        status = "uncertain"
    return SparsenessReport(corner, low, high, est, status)


def count_nonsparse(params: GrowthParameters, k: int, tree: TreeSpec | None = None,
                    depth_cap: int = 6, mc_samples: int = 4096, seed: int = 2024):
    """Exact census of the basic cubes of [0, 2^k)^d in which the rank-(k+1)
    tree is not sparse.  Uncertain cubes count as non-sparse (conservative).

    Returns (count, ratio to f(2^k), uncertain count, reports).
    """
    tree = tree if tree is not None else build_tree(params, k)
    if tree.rank < k + 1:
        raise ParameterRangeError(f"tree rank {tree.rank} below required {k + 1}")
    d = params.d
    index = _TubeIndex(tree.tubes, cell=2.0)
    count = 0
    uncertain = 0
    reports = []
    every_cube_touched = True
    for corner in np.ndindex(*(2**k,) * d):
        rep = is_sparse(corner, tree, index, depth_cap, mc_samples, seed)
        reports.append(rep)
        if rep.status != "sparse":
            count += 1
        if rep.status == "uncertain":
            uncertain += 1
        if rep.measure_high <= 0.0:
            every_cube_touched = False
    ratio = count / float(params(2.0**k))
    return count, ratio, uncertain, reports, every_cube_touched
