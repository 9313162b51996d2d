"""Command-line front end: build tube trees and glued functions, run the
verification passes, the lemma engine, and the potential-theory checks.

All structured outputs are JSON (verdicts) and CSV (tabular series); plots
are static SVG.  Exit codes: 0 all checks passed, 2 at least one check
failed, 3 invalid configuration.  Identical configuration and seed produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import mainlemma, potential, subfun, treeset, verify
from .geometry import InvalidRegionError
from .treeset import GrowthParameters, GrowthValidationError, parse_growth

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_BAD_CONFIG = 3

#: Guard samples per junction certificate.  ``build`` and every reload of
#: its function must use the same value, so that ``verify``, ``growth`` and
#: the lemma check the function ``build`` wrote.
GUARD_SAMPLES = 4096

#: Errors ``main`` reports as an invalid configuration (exit 3).
CONFIG_ERRORS = (GrowthValidationError, mainlemma.ConfigurationError,
                 treeset.ParameterRangeError, verify.DomainError,
                 verify.EmptyDomainError, potential.KernelDomainError,
                 InvalidRegionError, FileNotFoundError)
#: Errors ``main`` reports as a failed check (exit 2).
CHECK_ERRORS = (subfun.GuardConsistencyError, potential.ConvergenceError,
                mainlemma.CoverInvariantError)


@dataclass
class RunConfig:
    d: int = 2
    f_spec: str = "t^1.5"
    k: int = 4
    N: int = 64
    seed: int = 7
    eps_d: float = verify.EPS_D_DEFAULT
    delta0: float | None = None
    alpha: float = 1.0 / 12.0
    c0: float = 0.1
    out: Path = Path("oscillab_out")

    def growth(self) -> GrowthParameters:
        return parse_growth(self.f_spec, self.d)


def _num(v):
    if isinstance(v, float):
        if math.isnan(v):
            return None
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return float(f"{v:.10g}")
    return v


def _clean(obj):
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _num(obj.item())
    return _num(obj)


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_clean(obj), indent=1, sort_keys=True) + "\n")


def write_csv(path: Path, header, rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{v:.10g}" if isinstance(v, (float, np.floating)) else str(v)
            for v in row
        ))
    path.write_text("\n".join(lines) + "\n")


def _svg_open(width, height, box):
    x0, y0, x1, y1 = box
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="{x0} {y0} {x1 - x0} {y1 - y0}">',
        f'<rect x="{x0}" y="{y0}" width="{x1 - x0}" height="{y1 - y0}" fill="white"/>',
    ]


def svg_tree(tree: treeset.TreeSpec, path: Path) -> None:
    """Tube diagram: lines with stroke width equal to the tube diameter,
    widest first."""
    if tree.dimension != 2:
        return
    lo, hi = tree.box()
    pad = 1.0
    parts = _svg_open(640, 640, (lo[0] - pad, lo[1] - pad,
                                 hi[0] + pad, hi[1] + pad))
    colors = {"handle": "#c44", "trunk": "#c44", "wide": "#48c", "thin": "#6a6", "leaf": "#999"}
    line = ('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s" '
            'stroke-linecap="round" opacity="0.8"/>')
    order = np.argsort(-tree.diameter, kind="stable")
    fixed = lambda v: f"{v:.4f}"
    cells = np.hstack([treeset.map_values(tree.a[order], fixed),
                       treeset.map_values(tree.b[order], fixed),
                       np.array([colors.get(t, "#777") for t in tree.kind[order].tolist()],
                                dtype=object)[:, None],
                       treeset.map_values(tree.diameter[order], fixed)[:, None]])
    if order.size:
        parts.append("\n".join([line] * order.size) % tuple(cells.ravel().tolist()))
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")


def svg_rogue_heatmap(reports, path: Path) -> None:
    """Unit squares colored by classification (d = 2 only)."""
    if not reports or len(reports[0].cube) != 2:
        return
    xs = [r.cube[0] for r in reports]
    ys = [r.cube[1] for r in reports]
    box = (min(xs), min(ys), max(xs) + 1, max(ys) + 1)
    parts = _svg_open(640, 640, box)
    for r in reports:
        color = "#d66" if r.rogue else "#ded"
        parts.append(
            f'<rect x="{r.cube[0]}" y="{r.cube[1]}" width="1" height="1" '
            f'fill="{color}" stroke="#bbb" stroke-width="0.02"/>'
        )
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")


def _verdict(name: str, passed: bool | None, **measured):
    status = "pass" if passed else ("flagged" if passed is None else "fail")
    return {"check": name, "status": status, **_clean(measured)}


def _emit(out: Path, name: str, checks: list[dict]) -> int:
    ok = all(c["status"] != "fail" for c in checks)
    write_json(out / f"{name}.json", {"tool": name, "checks": checks, "passed": ok})
    for c in checks:
        print(f"[{c['status']:>7}] {c['check']}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _function_doc(ub: subfun.UBuild) -> dict:
    """What ``build`` writes to ``function.json``."""
    doc = ub.to_dict()
    doc["orthant_components"] = 2**ub.d
    return _clean(doc)


def _build_u(g: GrowthParameters, k: int, named: str):
    """``build_u`` with the CLI's guard samples.  A function too large for
    this host's memory is a configuration error naming ``named``, its k:
    nothing caps k, since a larger host may build it."""
    try:
        return subfun.build_u(g, k, guard_samples=GUARD_SAMPLES)
    except MemoryError as exc:
        raise mainlemma.ConfigurationError(
            f"{named} does not fit in this host's memory ({exc})") from exc


def cmd_build(cfg: RunConfig) -> int:
    # one level above the census scale, so [0, 2^k)^d sits inside the
    # enclosing rank as the nesting requires
    ub = _build_u(cfg.growth(), cfg.k + 1, f"the function of --k {cfg.k}")
    tree = ub.tree()
    cfg.out.mkdir(parents=True, exist_ok=True)
    with open(cfg.out / "tree.json", "w") as fp:
        tree.dump(fp)
    write_json(cfg.out / "function.json", _function_doc(ub))
    if cfg.d == 2:
        svg_tree(tree, cfg.out / "tree.svg")
    print(f"wrote {cfg.out / 'tree.json'}, {cfg.out / 'function.json'}"
          + (f", {cfg.out / 'tree.svg'}" if cfg.d == 2 else ""))
    return EXIT_OK


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise mainlemma.ConfigurationError(f"cannot read {path}: {exc}") from exc


def _read_function(path: Path, run_d: int | None = None):
    """The document ``build`` wrote to ``path``, with its f, d and k; a d
    that ``build --d`` does not take is refused, and with ``run_d`` given,
    a function of another dimension."""
    doc = _read_json(path)
    try:
        f, d, k = doc["f"], doc["d"], doc["k"]
    except (KeyError, TypeError) as exc:
        raise mainlemma.ConfigurationError(
            f"{path} is not a function document ({exc!r})") from exc
    if not (isinstance(f, str) and type(d) is int and type(k) is int):
        raise mainlemma.ConfigurationError(
            f"{path}: f must be a string, d and k integers")
    choices = _CONFIG_OPTIONS["--d"]["choices"]
    if d not in choices:
        raise mainlemma.ConfigurationError(
            f"{path} holds a d = {d} function; build makes d = "
            f"{' or '.join(map(str, choices))} only")
    if run_d is not None and d != run_d:
        raise mainlemma.ConfigurationError(
            f"{path} holds a d = {d} function, the run has d = {run_d}")
    return doc, f, d, k


def _load_function(path: Path, run_d: int | None = None, read=None):
    """Rebuild the function ``build`` wrote to ``path`` from its f, d and k,
    and refuse the file when the rest of what it records differs from the
    rebuilt function; ``read`` is what ``_read_function`` gave for it, if
    it was read already."""
    doc, f, d, k = read or _read_function(path, run_d)
    g = parse_growth(f, d)
    ub = _build_u(g, k, f"{path}: the function of k = {k}")
    rebuilt = _function_doc(ub)
    changed = [key for key in ("kind", "levels", "checks", "orthant_components")
               if doc.get(key) != rebuilt[key]]
    if changed:
        raise mainlemma.ConfigurationError(
            f"{path}: {', '.join(changed)} differ from the function rebuilt from "
            f"f = {f}, d = {d}, k = {k}")
    return g, ub, doc


#: eps of the tube profile T_eps whose discrete Laplacian ``verify`` refines,
#: over the unit box [-1/2, 1/2] x [-eps/2, eps/2]^(d-1)
REFINE_EPS = 0.5


def _refinement_steps(grid_h: float) -> list[float]:
    return [grid_h * 4, grid_h * 2, grid_h]


def cmd_verify(cfg: RunConfig, function_path: Path, grid_h: float) -> int:
    read = _read_function(function_path)
    d = read[2]
    # the finest refinement grid is refused before it, or the function, is built
    side = verify.grid_size(1.0, grid_h)
    if side**d > verify.REFINEMENT_POINTS_MAX:
        raise mainlemma.ConfigurationError(
            f"--grid-h {grid_h:g} needs a refinement grid of {side}^{d} points, above the "
            f"{verify.REFINEMENT_POINTS_MAX} that verify samples at most")
    g, ub, _doc = _load_function(function_path, read=read)
    checks = []
    # harmonic-base refinement on the tube profile; the mask pins the
    # stencil minimum to the centerline, which every refinement level
    # samples at the same physical points, so the h^2 scaling is clean
    fn = lambda pts: subfun.eval_T(REFINE_EPS, pts, d)
    rows = verify.laplacian_refinement_study(
        fn, np.array([-0.5] + [-REFINE_EPS / 2] * (d - 1)), 1.0, _refinement_steps(grid_h),
        verify.centreline_mask(grid_h))
    factors = [abs(rows[i][1]) / max(abs(rows[i + 1][1]), 1e-300)
               for i in range(len(rows) - 1)]
    checks.append(_verdict("laplacian_refinement",
                           all(3.5 <= f <= 4.5 for f in factors),
                           factors=factors, minima=[r[1] for r in rows]))
    # rogue census at the built scale; every rogue cube must lie within
    # sqrt(d)/2 of a branch tube (one wider than the leaves)
    k = ub.k - 1
    table = ub.level_nodes[k]
    census = verify.rogue_census(table, (0,) * d, (2**k,) * d, g, cfg.eps_d)
    nonbranch_ok = all(r.widest > 2 * treeset.EPS1 for r in census.reports if r.rogue)
    checks.append(_verdict("rogue_census", census.gamma <= 10.0,
                           count=census.count, gamma=census.gamma,
                           f_value=census.f_value))
    checks.append(_verdict("nonbranch_cubes_oscillate", nonbranch_ok))
    write_csv(cfg.out / "census.csv",
              ["corner", "p1", "p2", "class"],
              [("|".join(str(c) for c in r.cube), int(r.p1_satisfied),
                int(r.p2_satisfied), r.classification) for r in census.reports])
    svg_rogue_heatmap(census.reports, cfg.out / "census.svg")
    return _emit(cfg.out, "verify", checks)


def cmd_growth(cfg: RunConfig, function_path: Path) -> int:
    g, ub, _doc = _load_function(function_path)
    prof = verify.growth_profile(ub.level_nodes, g)
    checks = []
    sup_ok = True
    rows = []
    for k in range(3, ub.k + 1):
        lm = subfun.log_MM(g, k)
        low, high = prof.log_m[k - 1], prof.log_m_upper[k - 1]
        rows.append((2**k, low, lm, prof.denominators[k - 1],
                     prof.ratios[k - 1], high))
        # the certified upper bound, not the sampled maximum, must stay
        # below the threshold
        if high > lm + 1e-9:
            sup_ok = False
    # the levels start at k = 3: below that the check ran on nothing
    checks.append(_verdict("level_sup_below_threshold", sup_ok if rows else None,
                           levels=[{"R": r[0], "log_M": r[1], "log_M_upper": r[5],
                                    "log_threshold": r[2]} for r in rows]))
    checks.append(_verdict("growth_ratio_bounded",
                           prof.max_ratio() < 100.0,
                           max_ratio=prof.max_ratio(),
                           min_ratio=prof.min_ratio()))
    write_csv(cfg.out / "growth.csv",
              ["R", "log_M", "log_threshold", "denominator", "ratio", "log_M_upper"],
              rows)
    return _emit(cfg.out, "growth", checks)


def _parse_e_spec(spec: str, cfg: RunConfig, load) -> mainlemma.RogueConfiguration:
    kwargs = dict(c0=cfg.c0, alpha=cfg.alpha)
    if cfg.delta0 is not None:
        kwargs["delta0"] = cfg.delta0
    if spec in ("none", "empty", "0"):
        return mainlemma.RogueConfiguration(cfg.N, cfg.d, set(), **kwargs)
    if spec.startswith("random:"):
        arg = spec.split(":", 1)[1]
        try:
            if arg.startswith("density="):
                val = arg.split("=", 1)[1]
                power = {"sqrt": 0.5, "half": 0.5, "volume": float(cfg.d)}.get(val)
                count = int(round(cfg.N ** (float(val) if power is None else power)))
            elif arg.startswith("count="):
                count = int(arg.split("=", 1)[1])
            else:
                raise GrowthValidationError(f"bad E spec {spec!r}")
        except (ValueError, OverflowError) as exc:
            raise GrowthValidationError(f"bad E spec {spec!r}: {exc}") from exc
        if count < 0:
            raise GrowthValidationError(f"bad E spec {spec!r}: negative count")
        return mainlemma.RogueConfiguration.random(cfg.N, cfg.d, count, cfg.seed, **kwargs)
    if spec.startswith("file:"):
        cubes = _read_json(Path(spec.split(":", 1)[1]))
        try:
            E = {tuple(int(v) for v in c) for c in cubes}
        except (TypeError, ValueError, OverflowError) as exc:
            raise GrowthValidationError(f"bad cube list in {spec!r}: {exc}") from exc
        return mainlemma.RogueConfiguration(cfg.N, cfg.d, E, **kwargs)
    if spec.startswith("function:"):
        ub = load(Path(spec.split(":", 1)[1]))
        return mainlemma.RogueConfiguration.from_function(
            ub.node, cfg.N, cfg.d, cfg.eps_d, **kwargs)
    raise GrowthValidationError(f"bad E spec {spec!r}")


def cmd_lemma(cfg: RunConfig, e_spec: str, function_path: Path | None = None) -> int:
    # --E function:F and --function F may name one file: it is built once
    load = functools.cache(lambda path: _load_function(path, cfg.d)[1])
    config = _parse_e_spec(e_spec, cfg, load)
    if function_path is not None:
        ub = load(function_path)
    rho = mainlemma.RhoField.compute(config)
    cover = mainlemma.build_cover(config, rho)
    result = mainlemma.kappa_chains(config, rho, cover)
    ch = result.checks
    # with k_max = 0 there are no layers: the layer checks and the phi
    # search ran on nothing, so they are flagged rather than passed
    ran = None if config.k_max == 0 else True
    checks = [
        _verdict("property_M", ran and ch.property_m,
                 min_fraction=min(ch.property_m_detail.values(), default=1.0)),
        _verdict("x_fraction", ran and ch.x_ok, fraction=ch.x_fraction),
        _verdict("kappa_count", ran and ch.kappa_ok, bound=result.sum_inv_m / 24.0,
                 detail=ch.kappa_detail),
        _verdict("claim1", True, fitted_c1=ch.claim1_c1,
                 fitted_c2=mainlemma.fitted_c2(config, cover),
                 e_count=len(config.E)),
    ]
    bv = mainlemma.bound_value(cfg.N, len(config.E), cfg.d)
    checks.append(_verdict("bound_value", ran, psi=bv.psi_value,
                           log_bound=bv.log_bound, phi_argmin=bv.phi_min_x))
    write_csv(cfg.out / "chains.csv",
              ["corner", "n_layers", "n_kappa", "b_value"],
              zip(("|".join(str(v) for v in c) for c in result.corners.tolist()),
                  result.layers.sum(axis=0).tolist(), result.kappas.sum(axis=0).tolist(),
                  result.b_value.tolist()))
    if function_path is not None:
        rows = mainlemma.chain_contraction(ub.node, config, result)
        write_csv(cfg.out / "contraction.csv",
                  ["corner", "n_kappa", "log_ratio"],
                  [("|".join(str(v) for v in r.corner), r.kappa_count,
                    r.log_ratio) for r in rows])
    return _emit(cfg.out, "lemma", checks)


def cmd_potential(cfg: RunConfig, oracle: str | None, walks: int,
                  run_claims: bool) -> int:
    # every oracle takes --walks, even one that runs no walk
    if walks < 1:
        raise potential.KernelDomainError(f"walks must be positive, got {walks}")
    checks = []
    if oracle == "annulus" or oracle is None:
        target = potential.annulus_exact(cfg.d, 0.25, 0.5)
        x = np.zeros(cfg.d)
        x[0] = 0.5
        est = potential.wos_harmonic_measure(
            x, potential.SphereShape(0.25, d=cfg.d), walks=walks, seed=cfg.seed)
        checks.append(_verdict(f"wos_annulus_d{cfg.d}",
                               None if est.flagged else est.within(target),
                               estimate=est.hit_probability,
                               standard_error=est.standard_error, target=target))
    if oracle in (None, "equilibrium"):
        eq = potential.equilibrium(potential.SphereShape(0.25, d=2).sample(512), 2)
        checks.append(_verdict("equilibrium_circle",
                               abs(eq.energy - math.log(0.25)) < 0.05 * abs(math.log(0.25)),
                               energy=eq.energy, target=math.log(0.25)))
        eq2 = potential.equilibrium(
            potential.SegmentShape([-1.0, 0.0], [1.0, 0.0]).sample(512), 2)
        checks.append(_verdict("equilibrium_segment",
                               abs(eq2.energy - math.log(0.5)) < 0.05 * abs(math.log(0.5)),
                               energy=eq2.energy, target=math.log(0.5)))
    if run_claims:
        # the claim family is planar whatever --d selects for the annulus
        rows = potential.check_claim1(walks=max(walks // 4, 10_000), seed=cfg.seed,
                                      d=2)
        ratios = [r.ratio for r in rows]
        caps = [r.capacity_proxy / max(r.content_lower, 1e-12) for r in rows]
        checks.append(_verdict("claim_chain_positive",
                               min(ratios) > 0 and max(ratios) / min(ratios) < 50,
                               min_ratio=min(ratios), max_ratio=max(ratios)))
        checks.append(_verdict("claim4_direction", max(caps) < float("inf"),
                               family_constant=max(r.content_lower * -r.energy
                                                   for r in rows)))
        write_csv(cfg.out / "claims.csv",
                  ["label", "content_lower", "content_upper", "omega",
                   "omega_se", "energy", "ratio"],
                  [(r.label, r.content_lower, r.content_upper, r.omega,
                    r.omega_se, r.energy, r.ratio) for r in rows])
    return _emit(cfg.out, "potential", checks)


def cmd_report(cfg: RunConfig) -> int:
    merged = {}
    ok = True
    for name in ("verify", "growth", "lemma", "potential"):
        p = cfg.out / f"{name}.json"
        if p.exists():
            doc = _read_json(p)
            if not isinstance(doc, dict):
                raise mainlemma.ConfigurationError(f"{p} is not a JSON object")
            if type(doc.get("passed")) is not bool:
                raise mainlemma.ConfigurationError(f'{p}: "passed" must be true or false')
            merged[name] = doc
            ok = ok and doc["passed"]
    write_json(cfg.out / "report.json", {"tools": merged, "passed": ok})
    print(f"aggregated {len(merged)} tool reports -> {cfg.out / 'report.json'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an invalid configuration (exit 3,
    one line, no usage dump) instead of argparse's exit 2, which is the code
    for a failed check.  Options are not abbreviated, so that ``lemma --f``
    is refused rather than read as ``--function``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise mainlemma.ConfigurationError(f"{self.prog}: {message}")


def eps_d(text: str) -> float:
    """A zero-set content threshold: a number in (0, 1], as no projection
    of a unit cube's zero set exceeds 1."""
    value = float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be a number in (0, 1], got {text}")
    return value


def grid_step(text: str) -> float:
    """A grid step of ``verify``'s refinement: a finite number above 0 at
    which each refinement grid has an interior point on the centreline
    mask (``verify.refinement_mask_empty``, on ``cmd_verify``'s grids)."""
    value = float(text)
    if not (0.0 < value < math.inf and 1.0 / value < math.inf):
        raise argparse.ArgumentTypeError(
            f"must be a finite number above 0 with a finite reciprocal, got {text}")
    for h in _refinement_steps(value):
        if verify.refinement_mask_empty(-REFINE_EPS / 2, 1.0, h, value):
            raise argparse.ArgumentTypeError(
                f"puts no point of the step {h:g} refinement grid on the centreline, "
                f"got {text}")
    return value


#: The options that set a ``RunConfig`` field; each takes its default there.
_CONFIG_OPTIONS = {
    "--d": dict(type=int, choices=(2, 3)),
    "--f": dict(dest="f_spec", help="comparison function, e.g. t^1.5"),
    "--k": dict(type=int),
    "--N": dict(type=int),
    "--seed": dict(type=int),
    "--eps-d": dict(type=eps_d),
    "--alpha": dict(type=float),
    "--c0": dict(type=float),
    "--delta0": dict(type=float),
    "--out": dict(type=Path),
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="oscillab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    defaults = RunConfig()

    def command(name, help, *options):
        sp = sub.add_parser(name, help=help)
        for opt in options:
            kw = _CONFIG_OPTIONS[opt]
            dest = kw.get("dest", opt[2:].replace("-", "_"))
            sp.add_argument(opt, default=getattr(defaults, dest), **kw)
        return sp

    command("build", "construct the tree set and glued function",
            "--d", "--f", "--k", "--out")

    v = command("verify", "laplacian and census verification", "--eps-d", "--out")
    v.add_argument("--function", type=Path, required=True)
    v.add_argument("--grid-h", type=grid_step, default=0.03125)

    gr = command("growth", "growth profile against the bounds", "--out")
    gr.add_argument("--function", type=Path, required=True)

    le = command("lemma", "combinatorial lemma engine", "--d", "--seed", "--eps-d",
                 "--N", "--alpha", "--c0", "--delta0", "--out")
    le.add_argument("--E", default="none",
                    help="none | random:density=P | random:count=C | file:PATH | function:PATH")
    le.add_argument("--function", type=Path, default=None,
                    help="also measure the chain contraction of this function")

    po = command("potential", "potential-theory oracles and claims",
                 "--d", "--seed", "--out")
    po.add_argument("--oracle", default=None, choices=("annulus", "equilibrium"),
                    help="run only this oracle (default: both)")
    po.add_argument("--walks", type=int, default=100_000)
    po.add_argument("--claims", action="store_true")

    command("report", "aggregate tool reports", "--out")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config_fields = {f.name for f in fields(RunConfig)}
        cfg = RunConfig(**{k: v for k, v in vars(args).items() if k in config_fields})
        if args.command == "build":
            return cmd_build(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.function, args.grid_h)
        if args.command == "growth":
            return cmd_growth(cfg, args.function)
        if args.command == "lemma":
            return cmd_lemma(cfg, args.E, args.function)
        if args.command == "potential":
            return cmd_potential(cfg, args.oracle, args.walks, args.claims)
        if args.command == "report":
            return cmd_report(cfg)
    except CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except CHECK_ERRORS as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
