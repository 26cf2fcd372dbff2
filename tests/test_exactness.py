"""Exactness guards: no float enters a pipeline module, and the values below
the report layer are exact numbers, not symbolic scalars.

`moments.vol_numeric`, `GaussianRational.__complex__` and `SymScalar.evaluate`
are the numeric views behind `numeric_eval`; they live in `moments` and
`scalars`, outside the modules checked here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from spectral_torsion import Multivector, XiRational, line_integral, moment, supertrace, trace
from spectral_torsion.halfline import POLY_ONE, POLY_ZERO
from spectral_torsion.scalars import GaussianRational, Rational

from matrix_rep import MatrixRep

PIPELINE_MODULES = ("clifford", "forms", "halfline", "symbols", "torsion")


def float_sites(source: str) -> list[str]:
    """Every float or complex literal and every float(...) or complex(...)
    call in the source, as "line: text"."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            sites.append(f"{node.lineno}: literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            sites.append(f"{node.lineno}: call {node.func.id}(...)")
    return sites


def test_float_sites_finds_literals_and_calls():
    source = "x = 0j\ny = 1.5\nz = complex(c)\nw = float(q)\nv = 2\ns = 'e1.0'\n"
    assert float_sites(source) == ["1: literal 0j", "2: literal 1.5",
                                   "3: call complex(...)", "4: call float(...)"]


@pytest.mark.parametrize("name", PIPELINE_MODULES)
def test_no_float_in_pipeline(name):
    module = importlib.import_module(f"spectral_torsion.{name}")
    assert float_sites(Path(module.__file__).read_text(encoding="utf-8")) == []


def test_exact_return_types():
    a = Multivector(4, {0: 3, 0b1111: GaussianRational(1, -2)})
    assert type(trace(a)) is GaussianRational
    assert type(supertrace(a)) is GaussianRational
    assert type(MatrixRep(4).trace(a)) is GaussianRational
    assert trace(a) == MatrixRep(4).trace(a) == 12
    assert isinstance(moment(4, (2, 0, 0, 0)), Rational)  # in units of vol(S^3)
    assert isinstance(moment(4, (1, 0, 0, 0)), Rational)
    lorentzian = XiRational(POLY_ONE, 1, 1)
    assert type(line_integral(lorentzian)) is GaussianRational  # in units of pi
    assert type(line_integral(XiRational(POLY_ZERO))) is GaussianRational
