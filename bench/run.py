#!/usr/bin/env python3
"""oscillab benchmark: drives ``oscillab.cli.main(argv)`` in-process.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0

Load model: a closed loop with one client, one process, ``--threads 1``
(the CLI default), and one BLAS thread: each CLI call starts when the
previous one has returned, as a user waiting for a verdict would.

With ``--trace 0`` the run sets up, then repeats the workload's CLI calls
for ``--seconds`` (at least twice) and reports the end-to-end metrics.
With ``--trace 1`` it runs one untraced and one traced iteration and
reports the per-layer metrics (see bench/layers.py).  Every CLI call is
checked against bench/reference.json and against the first iteration's
bytes; a call that fails a check counts in ``failed``.  The last stdout
line is the JSON result; the line before it is a record with provenance,
samples and the trace accounting, also written to .bench_out/.

``--record-reference`` rewrites bench/reference.json from the current
source; do that only at a commit whose verdicts are known to be right.
"""

from __future__ import annotations

import os

# one BLAS thread, before numpy loads: the single-threaded baseline, and
# no contention between BLAS threads and other load on small machines
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ.pop("OSCILLAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("census", "growth", "lemma", "potential")
# census and growth are fixed by (d, f, k); the build is their set-up
BUILD_K = {"census": 4, "growth": 6}
# lemma and potential pass the workload seed to the CLI through this pool,
# whose verdicts the reference records
SEED_POOL = 16
LEMMA_LEGS = {"d2": (2, 64, "random:density=1.4"),
              "d3": (3, 32, "random:count=64")}
# set-up is repeated and its median reported: builds at least 3 times and
# until 3 s went into them (at most 9), imports 7 times
SETUP_REPEATS = (3, 9, 3.0)
IMPORT_REPEATS = 7
REL_TOL = 1e-9   # float columns: the CSVs print 10 significant digits
WOS_SE = 3.0
WOS_TARGET_D3 = (0.5**-1 - 1.0) / (0.25**-1 - 1.0)  # annulus 1/4 < |x| < 1, |x| = 1/2


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a vacuous config)."""


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def cli_seed(seed: int) -> int:
    return seed % SEED_POOL


def build_argv(workload: str) -> list[str] | None:
    k = BUILD_K.get(workload)
    return None if k is None else ["build", "--d", "2", "--f", "t^1.5", "--k", str(k)]


def legs(workload: str, seed: int, function: Path | None) -> list[tuple[str, list[str]]]:
    """The CLI calls of one iteration, as (leg name, argv without --out)."""
    s = str(cli_seed(seed))
    if workload == "census":
        return [("verify", ["verify", "--function", str(function)])]
    if workload == "growth":
        return [("growth", ["growth", "--function", str(function)])]
    if workload == "lemma":
        return [(leg, ["lemma", "--d", str(d), "--N", str(n), "--E", e, "--seed", s])
                for leg, (d, n, e) in LEMMA_LEGS.items()]
    return [("potential", ["potential", "--d", "3", "--walks", "100000",
                           "--claims", "--seed", s])]


def reference_key(workload: str, leg: str, seed: int) -> str:
    return leg if workload in ("census", "growth") else f"{leg}/{cli_seed(seed)}"


# ---------------------------------------------------------------------------
# Outputs: parsed key columns, compared against the reference
# ---------------------------------------------------------------------------


def _rows(path: Path, columns: list[str]) -> list[list[str]]:
    with path.open(newline="") as fh:
        return [[row[c] for c in columns] for row in csv.DictReader(fh)]


def _statuses(doc: dict) -> dict:
    return {c["check"]: c["status"] for c in doc["checks"]}


def observe(leg: str, out: Path) -> dict:
    """The outputs of one CLI call that the reference fixes."""
    tool = {"verify": "verify", "growth": "growth", "potential": "potential"}.get(leg, "lemma")
    doc = json.loads((out / f"{tool}.json").read_text())
    obs = {"statuses": _statuses(doc)}
    if leg == "verify":
        census = next(c for c in doc["checks"] if c["check"] == "rogue_census")
        obs["count"] = census["count"]
        obs["gamma"] = census["gamma"]
        obs["rows"] = _rows(out / "census.csv", ["corner", "p1", "p2", "class"])
        obs["total"] = len(obs["rows"])
    elif leg == "growth":
        obs["rows"] = [[float(v) for v in r] for r in _rows(
            out / "growth.csv", ["R", "log_M", "log_threshold", "denominator", "ratio"])]
    elif leg == "potential":
        wos = next(c for c in doc["checks"] if c["check"] == "wos_annulus_d3")
        obs["wos_within_3se"] = bool(
            abs(wos["estimate"] - WOS_TARGET_D3) <= WOS_SE * wos["standard_error"])
        obs["claims"] = [[r[0]] + [float(v) for v in r[1:]] for r in _rows(
            out / "claims.csv", ["label", "content_lower", "content_upper", "energy"])]
    else:
        rows = sorted(_rows(out / "chains.csv", ["corner", "n_layers", "n_kappa", "b_value"]))
        text = "\n".join(f"{c},{nl},{nk},{float(b):.8g}" for c, nl, nk, b in rows)
        obs["chains_rows"] = len(rows)
        obs["chains_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return obs


def _same(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def problems(leg: str, out: Path, code: int, ref: dict) -> list[str]:
    """Reasons the CLI call failed; empty when it passed every check."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        obs = observe(leg, out)
    except (OSError, KeyError, ValueError, StopIteration) as exc:
        return [f"unreadable output: {exc!r}"]
    found = []
    for check, status in ref["statuses"].items():
        if obs["statuses"].get(check) != status:
            found.append(f"{check}: status {obs['statuses'].get(check)} != {status}")
    for key, want in ref.items():
        if key != "statuses" and not _same(obs.get(key), want):
            found.append(f"{key} differs from the reference")
    return found


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def byte_diff(a: Path, b: Path) -> list[str]:
    fa, fb = _files(a), _files(b)
    return sorted(k for k in fa.keys() | fb.keys() if fa.get(k) != fb.get(k))


# ---------------------------------------------------------------------------
# Running CLI calls
# ---------------------------------------------------------------------------


class Runner:
    """Calls the CLI, times it, and counts attempted and failed calls."""

    def __init__(self, cli, out: Path):
        self.cli = cli
        self.out = out
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def call(self, argv: list[str], out: Path) -> tuple[int, float]:
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = self.cli.main(argv + ["--out", str(out)])
        except Exception:  # noqa: BLE001 - a crash is a failed call, not the end
            code = -1
            print(traceback.format_exc(), file=sys.stderr)
        return code, time.perf_counter() - start

    def verdict(self, what: str, found: list[str]) -> None:
        self.attempted += 1
        if found:
            self.failed += 1
            self.failures.append(f"{what}: " + "; ".join(found[:5]))

    def iteration(self, tag: str, plan, reference: dict, first: dict | None):
        """One pass over the workload's CLI calls.  Returns per-leg
        (out dir, wall seconds); ``first`` maps legs to the out dirs whose
        bytes this pass must reproduce."""
        result = {}
        for leg, argv, ref in plan:
            out = self.out / tag / leg
            code, wall = self.call(argv, out)
            found = problems(leg, out, code, ref)
            if first is not None and not found:
                diff = byte_diff(first[leg], out)
                if diff:
                    found.append(f"bytes differ from the first iteration: {diff}")
            self.verdict(f"{tag}/{leg}", found)
            result[leg] = (out, wall)
        return result


def import_seconds() -> float:
    """Median import time of the package in fresh interpreters."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import oscillab.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def load_cli():
    if not (SRC / "oscillab" / "cli.py").is_file():
        raise BenchError(f"no oscillab source under {SRC}")
    sys.path.insert(0, str(SRC))
    import oscillab.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "oscillab":
        raise BenchError(f"imported oscillab from {cli.__file__}, not {SRC}")
    return cli


def setup(runner: Runner, workload: str) -> tuple[Path | None, list[float]]:
    """Build the workload's function as SETUP_REPEATS says; returns the
    function path and the build seconds."""
    argv = build_argv(workload)
    if argv is None:
        return None, []
    least, most, budget = SETUP_REPEATS
    times, dirs = [], []
    while len(times) < least or (len(times) < most and sum(times) < budget):
        i = len(times)
        out = runner.out / f"setup{i}"
        code, wall = runner.call(argv, out)
        found = [f"exit code {code}"] if code != 0 else []
        if dirs and not found:
            diff = byte_diff(dirs[0], out)
            if diff:
                found.append(f"build bytes differ: {diff}")
        runner.verdict(f"setup{i}", found)
        times.append(wall)
        dirs.append(out)
    return dirs[0] / "function.json", times


def guard_non_vacuous(workload: str, reference: dict, mainlemma) -> dict:
    """Refuse to time a configuration whose checks would run on nothing."""
    facts = {}
    if workload == "lemma":
        for leg, (d, n, _e) in LEMMA_LEGS.items():
            facts[f"{leg}.k_max"] = mainlemma.RogueConfiguration(n, d, set()).k_max
            if facts[f"{leg}.k_max"] < 1:
                raise BenchError(f"lemma leg {leg} has k_max = 0: its checks are vacuous")
    if workload == "census":
        facts["census.total"] = reference["verify"]["total"]
        facts["census.rogue_count"] = reference["verify"]["count"]
        if facts["census.total"] < 1:
            raise BenchError("census covers no cubes")
    return facts


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas_threads():
    """Threads the bundled OpenBLAS will use, asked of the library itself."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "oscillab").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _commit(),
        "source_sha256_16": _source_digest(),
    }


# ---------------------------------------------------------------------------
# Measuring
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def bytes_written(dirs) -> int:
    return sum(p.stat().st_size for d in dirs for p in d.rglob("*") if p.is_file())


def timed(runner: Runner, plan, reference, seconds: float) -> list[float]:
    """Iterate at least twice and while the next iteration fits in
    ``seconds``; returns wall seconds per iteration."""
    walls = []
    first = None
    start = time.perf_counter()
    while True:
        tag = f"iter{len(walls)}"
        res = runner.iteration(tag, plan, reference, first)
        walls.append(sum(w for _, w in res.values()))
        if first is None:
            first = {leg: out for leg, (out, _) in res.items()}
        else:
            shutil.rmtree(runner.out / tag)
        elapsed = time.perf_counter() - start
        if len(walls) >= 2 and elapsed + statistics.median(walls) > seconds:
            return walls


def traced(runner: Runner, plan, reference):
    """One untraced and one traced iteration; the traced outputs must equal
    the untraced bytes.  Returns (per-layer metrics, record)."""
    import layers

    plain = runner.iteration("plain", plan, reference, None)
    tracer = layers.Tracer()
    legs_traced = []
    layers.install(tracer)
    try:
        for leg, argv, ref in plan:
            tracer.reset()
            out = runner.out / "traced" / leg
            code, wall = runner.call(argv, out)
            legs_traced.append((leg, tracer.snapshot(), wall))
            found = problems(leg, out, code, ref)
            if not found:
                diff = byte_diff(plain[leg][0], out)
                if diff:
                    found.append(f"traced bytes differ from untraced: {diff}")
            runner.verdict(f"traced/{leg}", found)
    finally:
        tracer.restore()
    metrics = layers.layer_metrics(legs_traced)
    metrics["cli.bytes_written"] = bytes_written([runner.out / "traced"])
    traced_wall = sum(w for _, _, w in legs_traced)
    plain_wall = sum(w for _, w in plain.values())
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    record = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
              "accounting": layers.accounting(legs_traced)}
    (runner.out / "spans.json").write_text(json.dumps(
        {leg: {k: v for k, v in snap.items() if k != "parent_calls"}
         for leg, snap, _ in legs_traced}) + "\n")
    return metrics, record


def metric_block(names_units: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in names_units if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in names_units}


def run(args) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = load_cli()
    from oscillab import mainlemma

    reference = json.loads(REFERENCE.read_text())[args.workload]
    facts = guard_non_vacuous(args.workload, reference, mainlemma)
    load_before = os.getloadavg()
    prov = provenance()
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    runner = Runner(cli, out)

    import_s = import_seconds()
    function, builds = setup(runner, args.workload)
    build_s = statistics.median(builds) if builds else 0.0
    plan = [(leg, argv, reference[reference_key(args.workload, leg, args.seed)])
            for leg, argv in legs(args.workload, args.seed, function)]

    record = {"workload": args.workload, "seed": args.seed,
              "cli_seed": cli_seed(args.seed), "trace": args.trace,
              "facts": facts, "provenance": prov,
              "setup": {"import_s": import_s, "build_s": build_s,
                        "build_s_samples": builds}}
    if args.trace:
        values, extra = traced(runner, plan, reference)
        record.update(extra)
        block = spec["per_layer"]
    else:
        walls = timed(runner, plan, reference, args.seconds)
        record["wall_s_samples"] = walls
        values = {"wall_s": statistics.median(walls),
                  "setup_s": import_s + build_s,
                  "peak_rss_mb": peak_rss_mb()}
        block = spec["end_to_end"]
    values["error_rate"] = runner.failed / runner.attempted
    load_after = os.getloadavg()
    record.update({"attempted": runner.attempted, "failed": runner.failed,
                   "error_rate": values["error_rate"],
                   "failures": runner.failures,
                   "loadavg_before": load_before, "loadavg_after": load_after})
    if max(load_before[0], load_after[0]) > prov["nproc"]:
        print(f"warning: load average {max(load_before[0], load_after[0]):.2f} "
              f"exceeds nproc {prov['nproc']}", file=sys.stderr)
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    metrics = metric_block(block, values)
    record["metrics"] = {k: v["value"] for k, v in metrics.items()}
    (out / "record.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(record, default=str))
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# Recording the reference
# ---------------------------------------------------------------------------


def record_reference() -> None:
    cli = load_cli()
    out = OUT / "reference"
    shutil.rmtree(out, ignore_errors=True)
    runner = Runner(cli, out)
    ref = {}
    for workload in WORKLOADS:
        function = None
        argv = build_argv(workload)
        if argv is not None:
            code, _ = runner.call(argv, out / workload / "build")
            if code != 0:
                raise BenchError(f"{workload} build exited {code}")
            function = out / workload / "build" / "function.json"
        seeds = range(SEED_POOL) if workload in ("lemma", "potential") else [0]
        entry: dict = {}
        for seed in seeds:
            for leg, leg_argv in legs(workload, seed, function):
                leg_out = out / workload / str(seed) / leg
                code, wall = runner.call(leg_argv, leg_out)
                if code != 0:
                    raise BenchError(f"{workload}/{leg} seed {seed} exited {code}")
                entry[reference_key(workload, leg, seed)] = observe(leg, leg_out)
                print(f"{workload}/{leg} seed {seed}: {wall:.2f} s", file=sys.stderr)
        ref[workload] = entry
    ref["_provenance"] = provenance()
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            p.error("--workload is required")
        result = run(args)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
