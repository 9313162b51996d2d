"""Outside-in layer tracing for the oscillab benchmark.

The tracer replaces public functions of the oscillab modules with timing
wrappers, from the benchmark's own code, and puts the originals back on
``restore``.  This works because every caller looks these functions up
through its module's globals (or through the class, for methods):

    rogue_census -> classify_cube -> sup_on / content_lower_projection
    RhoField.compute -> rho_cube -> compute_r -> measure_K_in_ball
    build_u -> certify_dominance
    check_claim1 -> wos_harmonic_measure / equilibrium

Spans are aggregated in memory per name (calls, seconds, self seconds);
spans opened with nothing else open are kept whole, so that a CLI call's
wall time can be split into its top-level layers and the CLI's own rest.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self._patches = []
        self.reset()

    def reset(self):
        self._stack = []                    # open spans: [name, start, child s]
        self._open = defaultdict(int)       # open spans per name
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.durations = defaultdict(list)  # per call, for percentiles
        self.parent_calls = defaultdict(int)  # (name, direct parent) -> calls
        self.counts = defaultdict(float)
        self.top = []                       # (name, start, end)

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def _enter(self, name):
        parent = self._stack[-1][0] if self._stack else None
        self.calls[name] += 1
        self.parent_calls[(name, parent)] += 1
        self._open[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        name, start, child = self._stack.pop()
        self._open[name] -= 1
        dur = end - start
        self.seconds[name] += dur
        self.self_seconds[name] += dur - child
        self.durations[name].append(dur)
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.top.append((name, start, end))

    def wrap(self, owner, attr: str, name: str, observe=None,
             outermost: bool = False, span: bool = True):
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name`` and then calls ``observe(tracer, args, kwargs, result)``.
        With ``outermost`` a call made while a span of the same name is open
        runs unrecorded (recursion through the node tree)."""
        original = owner.__dict__[attr]
        is_cm = isinstance(original, classmethod)
        func = original.__func__ if is_cm else original
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not span:
                result = func(*args, **kwargs)
            elif outermost and tracer._open[name]:
                return func(*args, **kwargs)
            else:
                tracer._enter(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    tracer._exit()
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "durations": {k: list(v) for k, v in self.durations.items()},
            "parent_calls": dict(self.parent_calls),
            "counts": dict(self.counts),
            "top": list(self.top),
        }


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _count(key, value_of):
    def observe(tracer, args, kwargs, result):
        tracer.counts[key] += value_of(args, kwargs, result)
    return observe


def _points(args, kwargs, result):
    return len(np.atleast_2d(args[1]))


def _classified(tracer, args, kwargs, result):
    tubes = kwargs.get("tubes")
    if tubes is not None:
        tracer.counts["classify_cube.tubes"] += len(tubes)
        tracer.counts["classify_cube.with_tubes"] += 1


def _rho_cube(tracer, args, kwargs, result):
    config = args[1] if len(args) > 1 else kwargs["config"]
    tracer.counts["rho_cube.above_floor"] += result > config.rho_floor


def _walk_steps(tracer, args, kwargs, result):
    if tracer.is_open("potential.wos"):
        tracer.counts["wos.walk_steps"] += len(np.atleast_2d(args[1]))


def _equilibrium(tracer, args, kwargs, result):
    tracer.counts["equilibrium.iterations"] += result.iterations
    tracer.counts["equilibrium.kkt_residual"] = max(
        tracer.counts["equilibrium.kkt_residual"], result.kkt_residual)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the oscillab modules."""
    from oscillab import cli, mainlemma, potential, subfun, verify

    for cls in _subclasses(subfun.FunctionNode):
        for attr in ("eval_log", "upper_local"):
            if attr in cls.__dict__:
                tracer.wrap(cls, attr, f"subfun.{attr}", outermost=True,
                            observe=_count(f"{attr}.points", _points))
    tracer.wrap(subfun, "build_u", "subfun.build_u")
    tracer.wrap(subfun, "certify_dominance", "subfun.certify_dominance")

    tracer.wrap(verify, "rogue_census", "verify.rogue_census",
                observe=_count("rogue_count", lambda a, k, r: r.count))
    tracer.wrap(verify, "classify_cube", "verify.classify_cube",
                observe=_classified)
    tracer.wrap(verify, "sup_on", "verify.sup_on")
    tracer.wrap(verify, "content_lower_projection",
                "verify.content_lower_projection")
    tracer.wrap(verify, "content_upper", "verify.content_upper")
    tracer.wrap(verify, "growth_profile", "verify.growth_profile")
    tracer.wrap(verify, "laplacian_refinement_study",
                "verify.laplacian_refinement")

    tracer.wrap(mainlemma.RhoField, "compute", "mainlemma.rho")
    tracer.wrap(mainlemma, "rho_cube", "mainlemma.rho_cube",
                observe=_rho_cube)
    tracer.wrap(mainlemma, "compute_r", "mainlemma.compute_r")
    tracer.wrap(mainlemma, "measure_K_in_ball", "mainlemma.measure_K")
    tracer.wrap(mainlemma, "build_cover", "mainlemma.build_cover",
                observe=_count("cover.size", lambda a, k, r: len(r.cubes)))
    tracer.wrap(mainlemma, "kappa_chains", "mainlemma.kappa_chains")

    tracer.wrap(potential, "wos_harmonic_measure", "potential.wos")
    tracer.wrap(potential, "equilibrium", "potential.equilibrium",
                observe=_equilibrium)
    tracer.wrap(potential, "check_claim1", "potential.check_claim1")
    for cls in _subclasses(potential.Shape):
        if "distance" in cls.__dict__:
            tracer.wrap(cls, "distance", "potential.distance", span=False,
                        observe=_walk_steps)

    for attr in ("write_json", "write_csv", "svg_tree", "svg_rogue_heatmap"):
        tracer.wrap(cli, attr, "cli.io")


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _rate(points, seconds):
    return points / seconds / 1e6 if seconds > 0 else 0.0


def layer_metrics(legs) -> dict:
    """Per-layer metrics from the traced CLI calls of one iteration.

    ``legs`` is a list of (leg name, tracer snapshot, wall seconds)."""
    def total(field, name):
        return sum(snap[field].get(name, 0) for _, snap, _ in legs)

    def s(name):
        return total("seconds", name)

    def calls(name):
        return total("calls", name)

    def count(key):
        return total("counts", key)

    def durations(name):
        return [v for _, snap, _ in legs for v in snap["durations"].get(name, [])]

    m = {}
    for attr in ("eval_log", "upper_local"):
        m[f"subfun.{attr}.s"] = s(f"subfun.{attr}")
        m[f"subfun.{attr}.points"] = count(f"{attr}.points")
        m[f"subfun.{attr}.mpts_per_s"] = _rate(m[f"subfun.{attr}.points"],
                                               m[f"subfun.{attr}.s"])
    m["subfun.build_u.s"] = s("subfun.build_u")
    m["subfun.certify_dominance.calls"] = calls("subfun.certify_dominance")
    m["subfun.certify_dominance.s"] = s("subfun.certify_dominance")

    cubes = calls("verify.classify_cube")
    ms = [v * 1e3 for v in durations("verify.classify_cube")]
    under_cube = sum(snap["parent_calls"].get(
        ("verify.content_lower_projection", "verify.classify_cube"), 0)
        for _, snap, _ in legs)
    m["verify.rogue_census.s"] = s("verify.rogue_census")
    m["verify.classify_cube.calls"] = cubes
    m["verify.classify_cube.p50_ms"] = _pct(ms, 50)
    m["verify.classify_cube.p90_ms"] = _pct(ms, 90)
    m["verify.classify_cube.self_s"] = total("self_seconds", "verify.classify_cube")
    m["verify.rogue_count"] = count("rogue_count")
    m["verify.content_lower_projection.calls"] = calls("verify.content_lower_projection")
    m["verify.content_lower_projection.s"] = s("verify.content_lower_projection")
    m["verify.projection_calls_per_cube"] = under_cube / cubes if cubes else 0.0
    m["verify.sup_on.calls"] = calls("verify.sup_on")
    m["verify.sup_on.s"] = s("verify.sup_on")
    m["verify.growth_profile.s"] = s("verify.growth_profile")
    m["verify.content_upper.s"] = s("verify.content_upper")
    m["verify.laplacian_refinement.s"] = s("verify.laplacian_refinement")
    with_tubes = count("classify_cube.with_tubes")
    m["treeset.tubes_per_cube"] = (count("classify_cube.tubes") / with_tubes
                                   if with_tubes else 0.0)

    for leg in ("d2", "d3"):
        snaps = [snap for name, snap, _ in legs if name == leg]
        snap = snaps[0] if snaps else {"calls": {}, "seconds": {},
                                       "self_seconds": {}, "counts": {}}
        p = f"mainlemma.{leg}"
        solves = snap["calls"].get("mainlemma.rho_cube", 0)
        m[f"{p}.rho.s"] = snap["seconds"].get("mainlemma.rho", 0.0)
        m[f"{p}.rho_cube.calls"] = solves
        m[f"{p}.compute_r.calls"] = snap["calls"].get("mainlemma.compute_r", 0)
        m[f"{p}.compute_r.self_s"] = snap["self_seconds"].get("mainlemma.compute_r", 0.0)
        m[f"{p}.measure_K.calls"] = snap["calls"].get("mainlemma.measure_K", 0)
        m[f"{p}.measure_K.s"] = snap["seconds"].get("mainlemma.measure_K", 0.0)
        m[f"{p}.rho.above_floor_ratio"] = (
            snap["counts"].get("rho_cube.above_floor", 0) / solves if solves else 0.0)
        m[f"{p}.build_cover.s"] = snap["seconds"].get("mainlemma.build_cover", 0.0)
        m[f"{p}.cover.size"] = snap["counts"].get("cover.size", 0)
        m[f"{p}.kappa_chains.s"] = snap["seconds"].get("mainlemma.kappa_chains", 0.0)

    m["potential.wos.s"] = s("potential.wos")
    m["potential.wos.walk_steps"] = count("wos.walk_steps")
    m["potential.wos.msteps_per_s"] = _rate(m["potential.wos.walk_steps"],
                                            m["potential.wos.s"])
    m["potential.equilibrium.s"] = s("potential.equilibrium")
    m["potential.equilibrium.iterations"] = count("equilibrium.iterations")
    m["potential.equilibrium.kkt_residual"] = max(
        (snap["counts"].get("equilibrium.kkt_residual", 0.0) for _, snap, _ in legs),
        default=0.0)
    m["potential.check_claim1.s"] = s("potential.check_claim1")

    m["cli.io.s"] = s("cli.io")
    m["cli.self_s"] = sum(wall - sum(e - b for _, b, e in snap["top"])
                          for _, snap, wall in legs)
    return m


def accounting(legs) -> dict:
    """Per leg: wall time, the top-level layer spans, and the rest."""
    out = {}
    for name, snap, wall in legs:
        spans = defaultdict(float)
        for span, b, e in snap["top"]:
            spans[span] += e - b
        out[name] = {"wall_s": wall, "top_spans_s": dict(spans),
                     "cli_self_s": wall - sum(spans.values())}
    return out
