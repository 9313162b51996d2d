"""Tube-union tree sets: tube geometry, the construction parameters, and
the sparseness census.

The tree of rank k+1 lives in the box [0, 2**(k+1))^d.  It is the tube set
of the function ``subfun.build_u`` builds there, read off that function
(``subfun.UBuild.tree``) rather than constructed a second time: one tube
per tube field, the segment from the field's anchor to its junction, with
the field's diameter, kind and generation.  The kinds are

  leaf    the basic subtrees: diameter eps_1, generation -1;
  wide    generation m <= s_r of an outer subtree of rank r+1: diameter
          2**(r+1-m) * eps_r;
  thin    the later generations of an outer subtree: diameter eps_1;
  trunk   the trunk of an outer subtree of rank r+1, placed in a non-corner
          cell at level j = r+1, where it is the handle joining the cell
          centre to the box centre: diameter 2**r * eps_r, generation 0;
  handle  the handle of the corner cell at each level j, and all 2**d
          handles at level 1: diameter 2**j * delta_j, generation 0.

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
        # a value past double range is inf, nan (inf * 0) or 0, which
        # validate() refuses; it is not a warning
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.coeff * t**self.index
            if self.log_exponent:
                out = out * np.log(2.0 + t) ** self.log_exponent
        return out if out.ndim else float(out)

    def validate(self, t_max: float = 1e6, samples: int = 1000) -> "GrowthParameters":
        """Check that f is positive, finite, monotone and at most t**d on
        the sampled range [1, t_max], and measure the doubling window.

        The volume bound is asymptotic, so it is enforced from t = 4 (the
        first dyadic scale the tree construction uses) upward.
        """
        t = np.geomspace(1.0, t_max, samples)
        v = self(t)
        # past double range f is inf or nan, or 0 (log(2+t)^-q underflows)
        number = np.isfinite(v) & (v > 0)
        if not number.all():
            worst = t[np.argmin(number)]
            raise GrowthValidationError(
                f"{self.label} is not a positive finite number at t={worst:.3g}")
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


def allclose(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.allclose(a, b)`` for two points, by numpy's own rule applied to
    each coordinate pair as Python floats (an order of magnitude faster on
    the short vectors of tube endpoints)."""
    return all((abs(x - y) <= 1e-8 + 1e-5 * abs(y) and math.isfinite(y)) or x == y
               for x, y in zip(a.tolist(), b.tolist(), strict=True))


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
    generation: int = 0    # within an outer subtree; -1 for leaves, 0 for trunks and handles
    kind: str = "leaf"     # leaf | wide | thin | trunk | handle

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.diameter <= 0:
            raise ParameterRangeError(f"tube diameter must be positive, got {self.diameter}")
        if allclose(self.a, self.b):
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
            "generation": self.generation,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TubeSpec":
        return cls(
            np.asarray(d["a"]), np.asarray(d["b"]), d["diameter"],
            d.get("generation", 0), d.get("kind", "leaf"),
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

    def dump(self, fp) -> None:
        """Write the tree as JSON to the text file ``fp``, streamed rather
        than formatted in memory first."""
        json.dump(
            {
                "dimension": self.dimension,
                "rank": self.rank,
                "eps1": self.eps1,
                "s_values": {str(k): v for k, v in self.s_values.items()},
                "eps_values": {str(k): round(v, 12) for k, v in self.eps_values.items()},
                "delta_values": {str(k): round(v, 12) for k, v in self.delta_values.items()},
                "tubes": [t.to_dict() for t in self.tubes],
            },
            fp,
            indent=1,
        )
        fp.write("\n")

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


def count_nonsparse(params: GrowthParameters, k: int, tree: TreeSpec,
                    depth_cap: int = 6, mc_samples: int = 4096, seed: int = 2024):
    """Exact census of the basic cubes of [0, 2^k)^d in which the tree (of
    rank at least k+1) is not sparse.  Uncertain cubes count as non-sparse
    (conservative).

    Returns (count, ratio to f(2^k), uncertain count, reports, whether every
    cube meets a tube).
    """
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
