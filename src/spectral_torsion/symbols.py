"""Interior symbol assembly for the perturbed operators at a flat point.

At a normal-coordinate point with trivialized twist connection every
connection, curvature and metric-derivative contribution vanishes, so the
order -2m symbol of c(u)c(v)c(w) D^(1-2m) collapses to perturbation-only
terms:

    sigma = c(u)c(v)c(w) [ B + m * sum_i (c(e_i)B + B c(e_i)) xi_i c(xi) ]

restricted to |xi| = 1, where B is the zero-order perturbation multivector.
The twist factor Phi rides along every B-linear term, so traces over the
tensor product factor through the tr_F(Phi) atom.

The interior density is the sphere integral of the trace of C times this
symbol, C = c(u)c(v)c(w).  The integral scales each blade of B by a factor
that depends only on the blade's grade, and the trace against C sees grades
1 and 3 only.  interior_density reads those two factors off the integrated
symbol of e_1 + e_1 e_2 e_3, computed once per dimension per process
(_grade_factors is cached), applies them to B and traces C against the
result; the symbol of B itself is never built.

The dataclasses declare the cases and their fields once; CASE_NAMES names
them and _CASE_FIELDS, read off them, gives each field's form type (the
command line parses a configuration from it); interior_density alone builds B.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from .clifford import (
    Multivector,
    _check_even_dim,
    _from_int_parts,
    _grading,
    _rational_runs,
    _same_dim,
    _scale_grades,
    mv_mul,
    trace,
)
from .forms import OneForm, ThreeForm, _clifford_items, _frame_dim, frame_product
from .moments import XiPolynomialMV, _grade_factors, xi_monomial
from .scalars import SymScalar, TR_F_PHI, vol_sphere


@dataclass(frozen=True)
class TorsionVector:
    """Perturbation c(T) + sqrt(-1) c(Y): 3-form torsion plus a vector field."""

    T: ThreeForm
    Y: OneForm


@dataclass(frozen=True)
class Grading:
    """Perturbation by the grading operator alone."""


@dataclass(frozen=True)
class VectorGrading:
    """Perturbation c(X) * grading: the twisted-fluctuation vector case."""

    X: OneForm


@dataclass(frozen=True)
class TorsionGrading:
    """Perturbation sqrt(-1) c(T) * grading: the twisted 3-form case."""

    T: ThreeForm


PerturbationCase = TorsionVector | Grading | VectorGrading | TorsionGrading

CASE_NAMES = {
    "torsion_vector": TorsionVector,
    "grading": Grading,
    "vector_grading": VectorGrading,
    "torsion_grading": TorsionGrading,
}


# (field, form type) of each perturbation case, in declaration order
_CASE_FIELDS = {case: tuple(typing.get_type_hints(case).items()) for case in CASE_NAMES.values()}


def _check_case(case: PerturbationCase, n: int) -> None:
    """The one case rule: a known case whose fields are forms of dimension n."""
    fields = _CASE_FIELDS.get(type(case))
    if fields is None:
        raise TypeError(f"unknown perturbation case {case!r}")
    for field, form in fields:
        tensor = getattr(case, field)
        if not isinstance(tensor, form):
            raise TypeError(f"{type(case).__name__}.{field} must be a {form.__name__}, "
                            f"got {type(tensor).__name__}")
        _same_dim(tensor, n, form)


def _form_factor(case: PerturbationCase, n: int) -> tuple[list, Multivector | None]:
    """The zero-order perturbation B as a form factor times at most one
    constant blade: the factor's (mask, re, im) items, unconverted, and the
    blade that multiplies it on the right (None for c(T) + sqrt(-1) c(Y)).
    The caller checks n and the case first."""
    if isinstance(case, TorsionVector):  # T real and Y imaginary, as one set of items
        return ([(mask, c, 0) for mask, c in _clifford_items(case.T)]
                + [(mask, 0, c) for mask, c in _clifford_items(case.Y)]), None
    if isinstance(case, Grading):
        return [(0, 1, 0)], _grading(n)
    if isinstance(case, VectorGrading):
        return [(mask, c, 0) for mask, c in _clifford_items(case.X)], _grading(n)
    # TorsionGrading: c(T) (i gamma), with i gamma = i^(m+1) on the top blade
    return [(mask, c, 0) for mask, c in _clifford_items(case.T)], _grading(n, 1)


def sigma_minus2m(b: Multivector) -> XiPolynomialMV:
    """Order -2m symbol of c(u)c(v)c(w) D^(1-2m) on the unit cosphere, up to
    the frame factor: the xi-polynomial of the perturbation B alone
    (n = b.dim) that C = c(u)c(v)c(w) multiplies on the left, without its
    xi_a xi_c terms (a != c), which have odd moments and integrate to 0."""
    _same_dim(b, b, Multivector)
    n = b.dim
    _check_even_dim(n, 4)
    terms: dict[tuple, Multivector] = {xi_monomial(n): b}

    # m {c(e_a), B} = n B_a c(e_a), B_a the nonzero blades of B that commute
    # with c(e_a): odd ones that hold e_a, even ones that do not.  So the xi_a^2
    # term is -n B_a.  A part with no such blade, or a term with no such part,
    # is not built.
    for a in range(n):
        square = [(den, acc) for den, blades in b._parts
                  if (acc := {mask: (-n * re, -n * im) for mask, (re, im) in blades.items()
                              if (re or im) and mask.bit_count() & 1 == mask >> a & 1})]
        if square:
            terms[xi_monomial(n, a + 1, a + 1)] = _from_int_parts(n, square)
    return XiPolynomialMV(n, terms)


def interior_density(u: OneForm, v: OneForm, w: OneForm,
                     case: PerturbationCase) -> SymScalar:
    """Unit-cosphere integral of the symbol trace: the interior density.

    Carries one factor tr_F(Phi) (every surviving term is perturbation
    linear) and the atom vol(S^(n-1)) from the sphere moments, attached here
    to the exact trace.  The sphere integral of the symbol scales each blade
    of B by its grade's factor, read (_grade_factors) off the integrated
    symbol of e_1 + e_1 e_2 e_3 once per dimension per process; the factor is
    0 off grades 1 and 3, the grades of C = c(u)c(v)c(w).  B is its form
    factor times at most one blade, so an item on mask M lands on M ^ (the
    blade's mask); items with factor 0 there are dropped before any is
    converted or multiplied.  With none left the density is 0, and no
    product, C or trace is built; otherwise B, built from the rest, is
    scaled by grade and traced against C.  The symbol of B is never built.
    """
    n = _frame_dim(u, v, w)
    _check_even_dim(n, 4)
    _check_case(case, n)
    items, blade = _form_factor(case, n)
    top = 0 if blade is None else (1 << n) - 1  # the blade is _grading(n, turns)
    factors, den = _grade_factors(n, (1, 3), sigma_minus2m)
    kept = [item for item in items if factors[(item[0] ^ top).bit_count()]]
    if not kept:
        return SymScalar()
    b = _from_int_parts(n, _rational_runs(kept))
    weighted = _scale_grades(b if blade is None else mv_mul(b, blade), factors, den)
    return SymScalar.from_monomial((vol_sphere(n - 1), TR_F_PHI),
                                   trace(frame_product(u, v, w), weighted))
