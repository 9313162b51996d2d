"""Tube-union tree sets: comparison functions, the construction
parameters and the tree-set record.

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
them; the columns are the record, and ``TreeSpec.check`` validates them
whole.  The tube geometry lives in the rows of the function's
``subfun.TubeTable``: the tube of a row of diameter eps is the set of
points whose coordinates in the row's global frame (``global_rows``,
measured from ``tube_a``) satisfy 2 g(eps) <= x_1 <= cut and |x_j| <
eps/2 (square cross-section).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

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


def _distinct(a):
    """Sorted distinct values of an integer array and each entry's index
    among them (np.unique would import numpy.ma, a megabyte of memory)."""
    order = np.argsort(a, kind="stable")
    new = _run_heads(a[order])
    where = np.empty(a.size, dtype=np.intp)
    where[order] = np.cumsum(new) - 1
    return a[order][new], where


def _run_heads(a):
    """Which entries of a differ from the one before them (the first
    always does): the heads of its runs of equal values."""
    head = np.empty(a.size, dtype=bool)
    head[:1] = True
    np.not_equal(a[1:], a[:-1], out=head[1:])
    return head


def map_values(values, fn) -> np.ndarray:
    """fn(v) for every float v of ``values``, as an object array of their
    shape.  fn is called once per distinct bit pattern, so that 0.0 and
    -0.0 stay apart."""
    values = np.asarray(values, dtype=float)
    bits, where = _distinct(values.ravel().view(np.int64))
    out = np.array([fn(v) for v in bits.view(float).tolist()], dtype=object)
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
    generation (-1 for leaves, 0 for trunks and handles) and kind (leaf,
    wide, thin, trunk or handle) of each."""

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

    def box(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.zeros(self.dimension)
        return lo, lo + 2.0**self.rank

    def check(self) -> None:
        """Refuse a tree with a tube of diameter not above 0 or with ends
        that ``np.allclose`` takes as one point, or with a value that is
        not finite (JSON has no such number)."""
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
        """The tree a ``tree.json`` text records, validated by ``check``.
        No command reads a tree back; CI's ``cli-docs`` job reads every
        ``tree.json`` the README's CLI block writes through it."""
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
