"""Tube-union tree sets: comparison functions, the construction
parameters, the tree-set record, and the sparseness census.

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

``TreeSpec`` holds that tube set as columns and writes ``tree.json`` from
them; ``TubeSpec`` is only the record of one tube, made when a reader asks
for the tubes one by one.  The tube geometry lives in the rows of the
function's ``subfun.TubeTable``: the tube of a row of diameter eps is the
set of points whose coordinates in the row's global frame
(``global_rows``, measured from ``tube_a``) satisfy 2 g(eps) <= x_1 <= cut
and |x_j| < eps/2 (square cross-section).  The sparseness census reads
those arrays.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

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
# Tree sets
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


@dataclass
class TubeSpec:
    """One tube of a tree set as ``tree.json`` records it: the segment [a, b]
    with its diameter, generation and kind.  Its geometry, the square
    cross-section tube, is read off the rows of the function's
    ``subfun.TubeTable``."""

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


def map_values(values, fn) -> np.ndarray:
    """fn(v) for every float v of ``values``, as an object array of their
    shape.  fn is called once per distinct bit pattern, so that 0.0 and
    -0.0 stay apart."""
    values = np.asarray(values, dtype=float)
    bits = values.ravel().view(np.int64)
    order = np.argsort(bits, kind="stable")
    ordered = bits[order]
    new = np.ones(bits.size, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    where = np.empty(bits.size, dtype=np.intp)
    where[order] = np.cumsum(new) - 1
    out = np.array([fn(v) for v in ordered[new].view(float).tolist()], dtype=object)
    return out[where].reshape(values.shape)


def round12(values) -> np.ndarray:
    """Python's ``round(v, 12)`` of every float of ``values``."""
    return map_values(values, lambda v: round(v, 12)).astype(float)


#: tubes ``TreeSpec.dump`` formats at a time, which bounds the memory of
#: the text it holds
DUMP_CHUNK = 2048


@dataclass
class TreeSpec:
    """A finite tube-union tree with its construction parameters.  The
    tubes are columns: the a and b ends (n, d), and the diameter,
    generation and kind of each; ``tubes`` makes them ``TubeSpec``
    records."""

    dimension: int
    rank: int
    a: np.ndarray
    b: np.ndarray
    diameter: np.ndarray
    generation: np.ndarray
    kind: np.ndarray
    eps1: float = EPS1
    s_values: dict = field(default_factory=dict)
    eps_values: dict = field(default_factory=dict)
    delta_values: dict = field(default_factory=dict)

    @property
    def tubes(self) -> list[TubeSpec]:
        return [TubeSpec(a, b, e, g, t) for a, b, e, g, t in
                zip(self.a, self.b, self.diameter.tolist(), self.generation.tolist(),
                    self.kind.tolist())]

    def branches(self) -> list[TubeSpec]:
        """Tubes of diameter above 2*eps1 (everything wider than leaf scale)."""
        return [t for t in self.tubes if t.diameter > 2.0 * self.eps1]

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.zeros(self.dimension)
        return lo, lo + 2.0**self.rank

    def check(self) -> None:
        """Refuse a tree with a tube that ``TubeSpec`` refuses, a diameter
        not above 0 or ends that ``np.allclose`` takes as one point, or
        with a value that is not finite (JSON has no such number)."""
        a, b, diameter = self.a, self.b, self.diameter
        with np.errstate(invalid="ignore", over="ignore"):
            finite = np.isfinite(a).all(axis=1) & np.isfinite(b).all(axis=1) & np.isfinite(diameter)
            close = np.all(np.abs(a - b) <= 1e-8 + 1e-5 * np.abs(b), axis=1)
        bad = np.flatnonzero(~finite | ~(diameter > 0) | close)
        if bad.size:
            i = int(bad[0])
            if not finite[i]:
                raise ParameterRangeError(f"tube {i} has a value that is not finite")
            if not diameter[i] > 0:
                raise ParameterRangeError(
                    f"tube diameter must be positive, got {diameter[i]} (tube {i})")
            raise ParameterRangeError(f"tube endpoints must be distinct (tube {i})")

    def dump(self, fp) -> None:
        """Write the tree to the text file ``fp`` as ``json.dump(..., indent=1)``
        writes it, with each tube's values rounded to 12 digits.  The
        header goes through json; the tubes go through one fixed template,
        DUMP_CHUNK at a time, each float written as its repr, as json
        does."""
        self.check()
        head = json.dumps({
            "dimension": self.dimension,
            "rank": self.rank,
            "eps1": self.eps1,
            "s_values": {str(k): v for k, v in self.s_values.items()},
            "eps_values": {str(k): round(v, 12) for k, v in self.eps_values.items()},
            "delta_values": {str(k): round(v, 12) for k, v in self.delta_values.items()},
            "tubes": [],
        }, indent=1)
        n, d = self.a.shape
        if n == 0:
            fp.write(head + "\n")
            return
        # head ends with the empty list and the closing brace
        fp.write(head[:-len("[]\n}")] + "[\n")
        text = lambda v: repr(round(v, 12))
        coords = ",\n    ".join(["%s"] * d)
        template = ('  {\n   "a": [\n    ' + coords + '\n   ],\n   "b": [\n    ' + coords
                    + '\n   ],\n   "diameter": %s,\n   "generation": %s,\n   "kind": %s\n  }')
        generations, kinds = self.generation.tolist(), self.kind.tolist()
        names = {t: json.dumps(t) for t in set(kinds)}
        fields = np.hstack([map_values(self.a, text), map_values(self.b, text),
                            map_values(self.diameter, text)[:, None],
                            np.array([str(g) for g in generations], dtype=object)[:, None],
                            np.array([names[t] for t in kinds], dtype=object)[:, None]])
        for start in range(0, n, DUMP_CHUNK):
            part = fields[start:start + DUMP_CHUNK]
            fp.write((",\n" if start else "")
                     + ",\n".join([template] * len(part)) % tuple(part.ravel().tolist()))
        fp.write("\n ]\n}\n")

    @classmethod
    def from_json(cls, text: str) -> "TreeSpec":
        d = json.loads(text)
        tubes = d["tubes"]
        # a tube whose ends have another number of coordinates cannot take
        # this shape: a ValueError, as for malformed JSON
        shape = (len(tubes), d["dimension"])
        tree = cls(
            dimension=d["dimension"],
            rank=d["rank"],
            a=np.array([t["a"] for t in tubes], dtype=float).reshape(shape),
            b=np.array([t["b"] for t in tubes], dtype=float).reshape(shape),
            diameter=np.array([t["diameter"] for t in tubes], dtype=float),
            generation=np.array([t.get("generation", 0) for t in tubes], dtype=np.int64),
            kind=np.array([t.get("kind", "leaf") for t in tubes], dtype=str),
            eps1=d["eps1"],
            s_values={int(k): v for k, v in d["s_values"].items()},
            eps_values={int(k): v for k, v in d["eps_values"].items()},
            delta_values={int(k): v for k, v in d["delta_values"].items()},
        )
        tree.check()
        return tree


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


def _anchored(table, rows):
    """The anchored tubes of the given rows of a tube table, each in its
    row's global frame: the frame rows, the anchor (local x_1 = 2 g(eps)),
    the length cut - 2 g(eps) and the half width eps/2."""
    from .subfun import g_threshold

    g2 = 2.0 * g_threshold(table.eps[rows], table.d)
    frames = table.global_rows[rows]
    anchor = table.tube_a[rows] + g2[:, None] * frames[:, 0]
    return frames, anchor, table.cut[rows] - g2, table.half[rows]


def _local(tubes, pts):
    """Coordinates (pairs, m, d) of the points (pairs, m, d) in the frame
    of their pair's tube, x_1 measured from its anchor.  One matrix
    product per pair, so that a point's coordinates are those of the same
    product on its pair's points alone."""
    frames, anchor, _length, _half = tubes
    return (pts - anchor[:, None]) @ frames.transpose(0, 2, 1)


def _inside(tubes, pts):
    """(pairs, m): the point lies in its pair's tube (square cross-section)."""
    _frames, _anchor, length, half = tubes
    loc = _local(tubes, pts)
    return ((loc[..., 0] >= 0.0) & (loc[..., 0] <= length[:, None])
            & np.all(np.abs(loc[..., 1:]) < half[:, None, None], axis=-1))


def _distance(tubes, pts):
    """(pairs, m): Euclidean distance from the point to its pair's tube
    (exact: a box in frame coordinates)."""
    _frames, _anchor, length, half = tubes
    loc = _local(tubes, pts)
    dx = np.maximum(np.maximum(-loc[..., 0], loc[..., 0] - length[:, None]), 0.0)
    dt = np.maximum(np.abs(loc[..., 1:]) - half[:, None, None], 0.0)
    return np.sqrt(dx**2 + np.sum(dt**2, axis=-1))


def _cells_vs_tubes(lo, hi, tubes, cand):
    """Cells [lo[c], hi[c]] of one size against their candidate tubes
    (cells, tubes): +1 when all of a cell's corners lie in one of them,
    else 0 when some lie at distance at most its circumradius from its
    centre, the survivors (cells, tubes), or -1 when none does."""
    n, d = lo.shape
    cell, tube = np.nonzero(cand)
    pair = tuple(col[tube] for col in tubes)
    # corner j takes hi along the axes of the set bits of j
    bits = (np.arange(2**d)[:, None] >> np.arange(d)) & 1 == 1
    corners = np.where(bits, hi[cell, None], lo[cell, None])
    inside = np.bincount(cell, _inside(pair, corners).all(axis=1), minlength=n) > 0
    circum = float(np.linalg.norm(hi[0] - lo[0]) / 2.0)
    survivors = np.zeros_like(cand)
    survivors[cell, tube] = _distance(pair, ((lo + hi) / 2.0)[cell, None])[:, 0] <= circum
    return np.where(inside, 1, np.where(survivors.any(axis=1), 0, -1)), survivors


def tube_measure_in_cube(cube_lo, cube_hi, table, depth_cap: int = 8,
                         mc_samples: int = 100_000, seed: int = 2024):
    """Bounds and an estimate for the Lebesgue measure of the box's
    intersection with the union of the anchored tubes of a tube table's
    rows, by adaptive dyadic subdivision with a fixed-seed Monte-Carlo
    sweep over the cells still cut by tube boundaries at the depth cap.

    The subdivision runs one level at a time, each cell tested against
    the tubes that survived in its parent.  The children of a cell are
    laid out last to first, so that every level lists its cells in the
    order of a depth-first walk that stacks the children first to last;
    the draws are made in that order.
    """
    cube_lo = np.asarray(cube_lo, dtype=float)
    cube_hi = np.asarray(cube_hi, dtype=float)
    d = len(cube_lo)
    rows = table.box_rows(cube_lo, cube_hi).near
    tubes = _anchored(table, rows)
    bits = np.array(list(np.ndindex(*(2,) * d))[::-1], dtype=bool)
    lo, hi = cube_lo[None], cube_hi[None]
    state, cand = _cells_vs_tubes(lo, hi, tubes, np.ones((1, rows.size), dtype=bool))
    inside_vol = float(np.prod(cube_hi - cube_lo)) if state[0] == 1 else 0.0
    for _level in range(depth_cap):
        live = state == 0
        if not live.any():
            break
        lo, hi, cand = lo[live], hi[live], cand[live]
        mid = (lo + hi) / 2.0
        lo = np.where(bits, mid[:, None], lo[:, None]).reshape(-1, d)
        hi = np.where(bits, hi[:, None], mid[:, None]).reshape(-1, d)
        state, cand = _cells_vs_tubes(lo, hi, tubes, np.repeat(cand, 2**d, axis=0))
        inside_vol += float(np.prod(hi[0] - lo[0])) * int(np.count_nonzero(state == 1))
    live = state == 0
    lo, hi, cand = lo[live], hi[live], cand[live]
    if not len(lo):
        return inside_vol, inside_vol, inside_vol, 0.0
    unresolved_vol = float(np.prod(hi[0] - lo[0])) * len(lo)
    rng = np.random.default_rng(
        np.random.SeedSequence([seed] + [int(v * 16) & 0xFFFF for v in cube_lo])
    )
    per_cell = max(16, mc_samples // len(lo))
    pts = rng.uniform(lo[:, None], hi[:, None], size=(len(lo), per_cell, d))
    # every unresolved cell has a candidate, so each starts a run of pairs
    cell, tube = np.nonzero(cand)
    inside = _inside(tuple(col[tube] for col in tubes), pts[cell])
    first = np.searchsorted(cell, np.arange(len(lo)))
    hits = int(np.count_nonzero(np.logical_or.reduceat(inside, first)))
    total = per_cell * len(lo)
    frac = hits / total
    est = inside_vol + frac * unresolved_vol
    se = unresolved_vol * math.sqrt(max(frac * (1 - frac), 1e-12) / total)
    return inside_vol, inside_vol + unresolved_vol, est, se


def is_sparse(cube_corner, table, depth_cap: int = 8, mc_samples: int = 100_000,
              seed: int = 2024) -> SparsenessReport:
    """Classify a basic cube against the sparseness threshold of the
    anchored tubes of a tube table's rows.

    Near-threshold cubes whose quadrature cannot separate the measure from
    the threshold are flagged uncertain, never silently classified.
    """
    corner = tuple(int(c) for c in cube_corner)
    lo = np.asarray(corner, dtype=float)
    thr = sparseness_threshold(table.d)
    low, high, est, se = tube_measure_in_cube(lo, lo + 1.0, table, depth_cap, mc_samples, seed)
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


def count_nonsparse(params: GrowthParameters, k: int, build,
                    depth_cap: int = 6, mc_samples: int = 4096, seed: int = 2024):
    """Exact census of the basic cubes of [0, 2^k)^d in which the tree of
    the function ``build`` (a ``subfun.UBuild`` of rank at least k+1) is not
    sparse.  Uncertain cubes count as non-sparse (conservative).

    Returns (count, ratio to f(2^k), uncertain count, reports, whether every
    cube meets a tube).
    """
    if build.k < k + 1:
        raise ParameterRangeError(f"tree rank {build.k} below required {k + 1}")
    d = params.d
    # the tree set: every row but row 0, the outgoing handle (UBuild.tree)
    table = build.node.span(1, len(build.node))
    count = 0
    uncertain = 0
    reports = []
    every_cube_touched = True
    for corner in np.ndindex(*(2**k,) * d):
        rep = is_sparse(corner, table, depth_cap, mc_samples, seed)
        reports.append(rep)
        if rep.status != "sparse":
            count += 1
        if rep.status == "uncertain":
            uncertain += 1
        if rep.measure_high <= 0.0:
            every_cube_touched = False
    ratio = count / float(params(2.0**k))
    return count, ratio, uncertain, reports, every_cube_touched
