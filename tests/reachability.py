"""Which functions of the oscillab package no CLI call enters.

Runs a fixed set of CLI calls in this process under ``sys.setprofile``:
the README's CLI block, the d = 3 potential claims, the equilibrium
oracle, the benchmark's d = 3 lemma leg and a d = 3 lemma on a built
function.  Every function and method defined in the package's source must
then be entered by one of them or be named in ALLOWED, with the reason it
stays.  The script exits 1, naming each function that is neither, and
each ALLOWED name the source no longer defines.

    PYTHONPATH=src python tests/reachability.py

pytest does not collect it: its name does not start with ``test_``.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import shlex
import sys
import tempfile
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

#: calls run after the README's CLI block, in the directory it wrote to
EXTRA_CALLS = [
    "potential --d 3 --walks 100000 --claims --out potential-d3/",
    "potential --oracle equilibrium --out potential-equilibrium/",
    # the benchmark's d = 3 lemma leg
    "lemma --d 3 --N 32 --E random:count=64 --seed 0 --out lemma-d3/",
    "lemma --d 3 --N 16 --E function:out3/function.json --function out3/function.json"
    " --out lemma-d3-function/",
]

BENCH = "wrapped by bench/layers.py, which looks it up by name"
REFERENCE = "a reference the tests compare against"
ERROR = "input validation or an error path"
CI = "read by CI"

#: functions no call above enters, as "module.qualname", with the reason
#: each stays
ALLOWED = {
    "cli._Parser.error": ERROR,
    "cli.eps_d": ERROR,
    "mainlemma.compute_r": BENCH,
    "mainlemma.measure_K_in_ball": BENCH,
    "mainlemma.rho_cube": BENCH,
    "potential.ConvergenceError.__init__": ERROR,
    "potential.SphereShape.bounds": REFERENCE,
    "subfun.GuardConsistencyError.__init__": ERROR,
    "subfun.TubeTable.upper_local": BENCH,
    "treeset.TreeSpec.from_json": CI,
    "verify.ZeroSetInCube.bounds": REFERENCE,
    "verify.ZeroSetInCube.line_hits": REFERENCE,
    "verify.classify_cube": BENCH,
}


def cli_block(readme: Path) -> list[str]:
    """The lines of the first ```sh block after the README's "## CLI"
    heading, as CI's cli-docs job reads them."""
    lines, cli, on = [], False, False
    for line in readme.read_text().splitlines():
        if line.startswith("## CLI"):
            cli = True
        elif cli and not on and line.startswith("```sh"):
            on = True
        elif on and line.startswith("```"):
            break
        elif on:
            lines.append(line)
    return lines


def defined(package: Path) -> dict[tuple[str, str], str]:
    """Every function and method the package's modules define, keyed by
    (file, qualified name) as code objects name them, mapped to
    "module.qualname"."""
    out = {}
    for path in sorted(package.glob("*.py")):
        module = path.stem

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    out[(os.path.realpath(path), qual)] = f"{module}.{qual}"
                    walk(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")

        walk(ast.parse(path.read_text()), "")
    return out


def run(calls: list[str]) -> set:
    """The code objects entered while ``oscillab.cli.main`` runs each call
    (exit 0 required), the package imported under the profile too."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from oscillab.cli import main

        for line in calls:
            argv = shlex.split(line, comments=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"oscillab {line}: exit {code}")
    finally:
        sys.setprofile(None)
    return entered


def main() -> int:
    block = []
    for line in cli_block(README):
        words = shlex.split(line, comments=True)
        if words[:1] != ["oscillab"]:
            raise SystemExit(f"README CLI line is not an oscillab call: {line}")
        block.append(shlex.join(words[1:]))
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            entered = run(block + EXTRA_CALLS)
        finally:
            os.chdir(cwd)
    import oscillab

    names = defined(Path(oscillab.__file__).parent)
    keys = ((os.path.realpath(c.co_filename), c.co_qualname) for c in entered)
    reached = {names[key] for key in keys if key in names}
    missing = sorted(set(names.values()) - reached - set(ALLOWED))
    stale = sorted(set(ALLOWED) - set(names.values()))
    for name in missing:
        print(f"never entered: {name}")
    for name in stale:
        print(f"allowed but not defined: {name}")
    print(f"{len(reached)} of {len(names)} functions entered, {len(ALLOWED)} allowed, "
          f"{len(missing)} neither")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
