"""The functions of ``src/spectral_torsion`` that no program path runs.

Run from the repository root:

    python3 tools/uncalled.py

The script imports the package from ``src/`` and records, with
``sys.setprofile``, every code object that runs while it drives the command
line in process:

- ``compute`` for every case at every even n from 4 to 16, with and without
  the boundary, on dense random inputs, one job per n with ``numeric_eval``;
- ``verify`` at every even n from 4 to 16, as text and as ``--json``;
- ``trace`` of an empty word and of a word with every token kind;
- ``moments`` of an even and an odd monomial.

It then prints, one a line as ``module.qualname``, each function defined in
the package's sources whose code never ran, and exits 0.  The value-type
protocol (equality, hashing, printing, ``is_zero``, truth, copy, pickle and
the immutability guard) is left out: it serves users and tests whether or
not a program path reaches it.  The run takes about 30 s on a 2-CPU VM.
Standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spectral_torsion"

# the value-type protocol, by method name
PROTOCOL = frozenset({
    "__eq__", "__hash__", "__repr__", "__str__", "__bool__", "is_zero",
    "__copy__", "__deepcopy__", "__reduce__", "_rebuild",
    "__setattr__", "__delattr__", "_key",
})

CASES = ("torsion_vector", "grading", "vector_grading", "torsion_grading")


def defined_functions(source: str) -> dict[int, str]:
    """{first line: qualname} of every function that a module's source
    defines, methods and nested functions included; a decorated function's
    first line is its first decorator's, as in its code object."""
    found: dict[int, str] = {}

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[first] = qualname
                visit(node.body, qualname + ".<locals>.")
            elif isinstance(node, ast.ClassDef):
                visit(node.body, prefix + node.name + ".")
            else:  # functions under if, try, with or loops keep the prefix
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, []), prefix)

    visit(ast.parse(source).body, "")
    return found


def uncalled(defined: dict[str, dict[int, str]], ran: set[tuple[str, int]]) -> list[str]:
    """Sorted "module.qualname" of the functions that did not run, the
    value-type protocol left out.  `defined` maps a module name to its
    {first line: qualname}; `ran` holds (module name, first line) pairs."""
    return sorted(f"{module}.{qualname}"
                  for module, functions in defined.items()
                  for first, qualname in functions.items()
                  if (module, first) not in ran
                  and qualname.rsplit(".", 1)[-1] not in PROTOCOL)


def record(drive, files: dict[str, str]) -> set[tuple[str, int]]:
    """(module name, first line) of every code object from `files` (a map
    of source path to module name) that runs while drive() does."""
    ran: set[tuple[str, int]] = set()
    seen: set = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code not in seen:
                seen.add(code)
                module = files.get(code.co_filename)
                if module is not None:
                    ran.add((module, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        drive()
    finally:
        sys.setprofile(None)
    return ran


def _rational(rng: random.Random) -> str:
    return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"


def _config(rng: random.Random, n: int, case: str, with_boundary: bool) -> dict:
    """A compute job with dense random inputs."""
    def oneform():
        return [_rational(rng) for _ in range(n)]

    config = {"dimension": n, "case": case, "with_boundary": with_boundary,
              "u": oneform(), "v": oneform(), "w": oneform()}
    if case in ("torsion_vector", "torsion_grading"):
        config["T"] = [[a, b, c, _rational(rng)]
                       for a in range(1, n + 1) for b in range(a + 1, n + 1)
                       for c in range(b + 1, n + 1) if rng.random() < 0.5]
    if case == "torsion_vector":
        config["Y"] = oneform()
    if case == "vector_grading":
        config["X"] = oneform()
    return config


def drive_cli() -> None:
    """Every subcommand of the command line, in process, output discarded."""
    from spectral_torsion.cli import main

    rng = random.Random(1)
    dims = [str(n) for n in range(4, 17, 2)]
    commands = [["verify", *dims], ["verify", "--json", *dims],
                ["trace", "--dim", "4"], ["trace", "--dim", "6", "e1", "e3", "gamma", "e6"],
                ["moments", "--dim", "4", "--alpha", "2,0,2,0"],
                ["moments", "--dim", "3", "--alpha", "1,0,2"]]
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(4, 17, 2):
            for case in CASES:
                for with_boundary in (False, True):
                    config = _config(rng, n, case, with_boundary)
                    config["numeric_eval"] = case == "torsion_vector" and with_boundary
                    path = os.path.join(tmp, f"{n}-{case}-{with_boundary}.json")
                    with open(path, "w", encoding="utf-8") as handle:
                        json.dump(config, handle)
                    commands.append(["compute", path])
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in commands:
                code = main(argv)
                if code not in (0, 1):  # verify exits 1 on a final-row mismatch
                    raise RuntimeError(f"{' '.join(argv)} exited {code}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sources = sorted(PACKAGE.glob("*.py"))
    files = {str(path): path.stem for path in sources}
    defined = {path.stem: defined_functions(path.read_text(encoding="utf-8"))
               for path in sources}
    for name in uncalled(defined, record(drive_cli, files)):
        print(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
