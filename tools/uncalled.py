"""The functions and statements of ``src/spectral_torsion`` that no program
path runs.

Run from the repository root:

    python3 tools/uncalled.py

The script imports the package from ``src/`` and drives the command line in
process under one ``sys.settrace`` hook, which records every code object
that is called and every line that runs in the package's sources:

- ``compute`` for every case at every even n from 4 to 16, with and without
  the boundary, on dense random inputs, one job per n with ``numeric_eval``;
- ``compute`` of an n=4 ``torsion_vector`` job without ``Y``, and of an n=16
  ``torsion_vector`` job with the boundary over 25-digit pairwise-coprime
  denominators, whose inputs split into several integer parts;
- ``verify`` at every even n from 4 to 16, as text and as ``--json``;
- ``trace`` of an empty word and of a word with every token kind;
- ``moments`` of an even, an odd and the constant monomial.

It prints, one a line as ``module.qualname``, each function defined in the
package's sources whose code never ran.  Then it prints, one a line as
``file:line in qualname: text``, each statement of a function that ran which
never ran itself, where text is the statement's first source line, and
exits 0.  Both lists leave out the value-type protocol
(equality, hashing, printing, ``is_zero``, truth, copy, pickle and the
immutability guard): it serves users and tests whether or not a program path
reaches it.  The statements leave out docstrings, ``raise`` statements, the
bodies of ``except`` handlers and the bodies of the functions listed as
uncalled.  The run takes about a minute on a 2-CPU VM, twice the time of a
run that records calls alone, since every line of the package is traced.
Standard library only.

The statements that the report still lists, and what reaches each, by
file, function and text, since their line numbers move with every edit:

- ``cli.py`` in ``_ascii_int``: ``grammar = "[+-]?[0-9]+" if signed else "[0-9]+"``:
  the grammar named in a bad integer's message
  (``test_cli::test_error_messages``, ``trace --dim x``);
- ``cli.py`` in ``_unlimited_int_str``: ``yield`` and ``return``:
  interpreters 3.10.0-3.10.6, which have no int-to-str limit to lift and
  which ``requires-python`` admits
  (``test_cli::test_compute_runs_on_an_interpreter_without_the_int_limit``);
- ``cli.py`` in ``main``: ``tokens[-1] += "=" + token``: ``--alpha``
  followed by a negative exponent (``test_cli::test_error_messages``,
  ``moments-negative-first``);
- ``clifford.py`` in ``_same_dim``: ``x = b if type(a_dim) is int else a``:
  the operand named when one has no int ``dim``
  (``test_torsion::test_a_list_argument_is_a_type_error``);
- ``halfline.py`` in ``Poly.__add__``: ``return NotImplemented``,
  ``halfline.py`` in ``Poly.__mul__``: ``return NotImplemented`` and
  ``halfline.py`` in ``XiRational.__mul__``: ``return NotImplemented``: an
  operand of another type, which is a TypeError
  (``test_halfline::test_poly_and_xirational_arithmetic_refuse_a_foreign_operand``);
- ``halfline.py`` in ``Poly.divide_linear``: ``return Poly(), GR_ZERO``:
  the zero polynomial, and ``halfline.py`` in ``_cancel``:
  ``numer, mult = quotient, mult - 1``: a numerator root at +-i, both
  public semantics of ``Poly`` and ``XiRational``
  (``test_halfline::test_xirational_equality_matches_cross_multiplication``);
- ``halfline.py`` in ``_series``: ``return []``: no pole at i, so
  ``pi_plus`` and ``line_integral`` are 0
  (``test_halfline::test_line_integral_without_a_pole_at_i_is_zero``);
- ``halfline.py`` in ``line_integral``: ``return GR_ZERO``: the zero symbol
  (``test_exactness::test_exact_return_types``);
- ``scalars.py`` in ``GaussianRational.__add__``:
  ``return NotImplemented  # SymScalar.__radd__ answers``: a ``SymScalar``
  operand, whose ``__radd__`` gives the sum
  (``test_scalars::test_gaussian_plus_symscalar_is_symscalar_plus_gaussian``);
- ``scalars.py`` in ``_as_gaussian``: ``if isinstance(x, int):`` and
  ``return GaussianRational(x)``: a bool, which the validating constructor
  refuses, or another int subclass
  (``test_scalars::test_int_and_rational_operands_keep_their_values``);
- ``scalars.py`` in ``SymScalar.__add__``: ``del out[mono]``: two terms
  that cancel (``test_torsion::test_torsion_vector_density_antisymmetric``).
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
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


def _functions(tree: ast.Module):
    """(first line, qualname, node) of every function that a module defines,
    methods and nested functions included; a decorated function's first line
    is its first decorator's, as in its code object."""
    def visit(body, prefix: str):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name
                yield _first_line(node), qualname, node
                yield from visit(node.body, qualname + ".<locals>.")
            elif isinstance(node, ast.ClassDef):
                yield from visit(node.body, prefix + node.name + ".")
            else:  # functions under if, try, with or loops keep the prefix
                for field in ("body", "orelse", "finalbody", "handlers"):
                    yield from visit(getattr(node, field, []), prefix)

    return visit(tree.body, "")


def defined_functions(source: str) -> dict[int, str]:
    """{first line: qualname} of every function that a module's source defines."""
    return {first: qualname for first, qualname, _ in _functions(ast.parse(source))}


def uncalled(defined: dict[str, dict[int, str]], ran: set[tuple[str, int]]) -> list[str]:
    """Sorted "module.qualname" of the functions that did not run, the
    value-type protocol left out.  `defined` maps a module name to its
    {first line: qualname}; `ran` holds (module name, first line) pairs."""
    return sorted(f"{module}.{qualname}"
                  for module, functions in defined.items()
                  for first, qualname in functions.items()
                  if (module, first) not in ran
                  and qualname.rsplit(".", 1)[-1] not in PROTOCOL)


def _statements(body):
    """The statements of a block and of the blocks nested in it, but not of
    nested functions and classes; raise statements and the bodies of except
    handlers are left out."""
    for node in body:
        if isinstance(node, ast.Raise):
            continue
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody"):
                yield from _statements(getattr(node, field, []))


def _first_line(node: ast.stmt) -> int:
    """A statement's first line, its first decorator's if it has one: the
    statement ran when a line event fell there."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])


def statements(source: str):
    """(function's first line, statement's first line, qualname, text) of each
    statement of each function in a module's source, where text is the
    statement's first source line, stripped.  Docstrings, raise statements,
    the bodies of except handlers and the value-type protocol are left out."""
    text = source.splitlines()
    for first, qualname, node in _functions(ast.parse(source)):
        if qualname.rsplit(".", 1)[-1] in PROTOCOL:
            continue
        body = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
        for line in map(_first_line, _statements(body)):
            yield first, line, qualname, text[line - 1].strip()


def unreached(source: str, called: set[int], lines: set[int]) -> list[tuple[int, str, str]]:
    """(first line, qualname, text) of each statement (see `statements`) that
    never ran in the functions of a module's source that did, sorted.
    `called` holds the first lines of the functions that ran, `lines` the
    lines that ran."""
    return sorted((line, qualname, text) for first, line, qualname, text in statements(source)
                  if first in called and line not in lines)


def record(drive, files: dict[str, str]) -> tuple[set[tuple[str, int]], set[tuple[str, int]]]:
    """(called, lines) while drive() runs, from one sys.settrace hook:
    (module name, first line) of every code object from `files` (a map of
    source path to module name) that is called, and (module name, line) of
    every line that runs there."""
    called: set[tuple[str, int]] = set()
    lines: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add((files[frame.f_code.co_filename], frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        code = frame.f_code
        module = files.get(code.co_filename)
        if module is None:
            return None
        called.add((module, code.co_firstlineno))
        return trace_lines

    sys.settrace(trace_calls)
    try:
        drive()
    finally:
        sys.settrace(None)
    return called, lines


def _rational(rng: random.Random) -> str:
    return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"


def _coprime_draw(rng: random.Random, digits: int):
    """A function drawing rational strings whose denominators have the given
    number of digits and are pairwise coprime across all its draws."""
    used = 1

    def draw():
        nonlocal used
        while True:
            den = rng.randrange(10 ** (digits - 1), 10 ** digits)
            if math.gcd(den, used) == 1:
                used *= den
                return f"{rng.randrange(-10 ** digits, 10 ** digits)}/{den}"
    return draw


def _config(rng: random.Random, n: int, case: str, with_boundary: bool, draw=None) -> dict:
    """A compute job with dense random inputs, drawn by draw() when given;
    the case's fields are those of the package's case table."""
    from spectral_torsion.forms import OneForm
    from spectral_torsion.symbols import CASE_NAMES, _CASE_FIELDS

    draw = draw or (lambda: _rational(rng))

    def oneform():
        return [draw() for _ in range(n)]

    def threeform():
        return [[a, b, c, draw()]
                for a in range(1, n + 1) for b in range(a + 1, n + 1)
                for c in range(b + 1, n + 1) if rng.random() < 0.5]

    config = {"dimension": n, "case": case, "with_boundary": with_boundary,
              "u": oneform(), "v": oneform(), "w": oneform()}
    for field, form in _CASE_FIELDS[CASE_NAMES[case]]:
        config[field] = oneform() if form is OneForm else threeform()
    return config


def drive_cli() -> None:
    """Every subcommand of the command line, in process, output discarded
    into a byte buffer behind a text layer, as a process's stdout is."""
    from spectral_torsion.cli import main
    from spectral_torsion.symbols import CASE_NAMES

    rng = random.Random(1)
    dims = [str(n) for n in range(4, 17, 2)]
    commands = [["verify", *dims], ["verify", "--json", *dims],
                ["trace", "--dim", "4"], ["trace", "--dim", "6", "e1", "e3", "gamma", "e6"],
                ["moments", "--dim", "4", "--alpha", "2,0,2,0"],
                ["moments", "--dim", "3", "--alpha", "1,0,2"],
                ["moments", "--dim", "4", "--alpha", "0,0,0,0"]]
    configs = []
    for n in range(4, 17, 2):
        for case in CASE_NAMES:
            for with_boundary in (False, True):
                config = _config(rng, n, case, with_boundary)
                config["numeric_eval"] = case == "torsion_vector" and with_boundary
                configs.append(config)
    no_y = _config(rng, 4, "torsion_vector", False)
    del no_y["Y"]
    configs += [no_y, _config(rng, 16, "torsion_vector", True, _coprime_draw(rng, 25))]
    with tempfile.TemporaryDirectory() as tmp:
        for i, config in enumerate(configs):
            path = os.path.join(tmp, f"{i}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(config, handle)
            commands.append(["compute", path])
        with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
            for argv in commands:
                code = main(argv)
                if code not in (0, 1):  # verify exits 1 on a final-row mismatch
                    raise RuntimeError(f"{' '.join(argv)} exited {code}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sources = sorted(PACKAGE.glob("*.py"))
    files = {str(path): path.stem for path in sources}
    texts = {path.stem: path.read_text(encoding="utf-8") for path in sources}
    called, lines = record(drive_cli, files)
    defined = {module: defined_functions(text) for module, text in texts.items()}
    for name in uncalled(defined, called):
        print(name)
    for module, text in texts.items():
        for line, qualname, statement in unreached(
                text, {first for m, first in called if m == module},
                {line for m, line in lines if m == module}):
            print(f"{module}.py:{line} in {qualname}: {statement}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
