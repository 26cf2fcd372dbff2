"""Interior symbol assembly for the perturbed operators at a flat point.

At a normal-coordinate point with trivialized twist connection every
connection, curvature and metric-derivative contribution vanishes, so the
order -2m symbol of c(u)c(v)c(w) D^(1-2m) collapses to perturbation-only
terms:

    sigma = c(u)c(v)c(w) [ B + m * sum_i (c(e_i)B + B c(e_i)) xi_i c(xi) ]

restricted to |xi| = 1, where B is the zero-order perturbation multivector.
The twist factor Phi rides along every B-linear term, so traces over the
tensor product factor through the tr_F(Phi) atom.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clifford import (
    DimensionMismatch,
    Multivector,
    OddDimension,
    grading,
    mv_mul,
    times_generator,
    trace,
)
from .forms import OneForm, ThreeForm, to_clifford
from .moments import XiPolynomialMV, integrate_sphere, xi_monomial
from .scalars import GR_I, SymScalar, TR_F_PHI, rational, vol_sphere


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


def case_name(case: PerturbationCase) -> str:
    for name, cls in CASE_NAMES.items():
        if isinstance(case, cls):
            return name
    raise TypeError(f"unknown perturbation case {case!r}")


def _check_case_dims(case: PerturbationCase, n: int) -> None:
    for field in ("T", "Y", "X"):
        tensor = getattr(case, field, None)
        if tensor is not None and tensor.dim != n:
            raise DimensionMismatch(
                f"{field} has dim {tensor.dim}, ambient dim is {n}")


def perturbation_multivector(case: PerturbationCase, n: int) -> Multivector:
    """The zero-order perturbation as an element of Cl(n)."""
    if n % 2 != 0:
        raise OddDimension(f"dimension must be even, got {n}")
    _check_case_dims(case, n)
    if isinstance(case, TorsionVector):
        return to_clifford(case.T) + to_clifford(case.Y).scale(GR_I)
    if isinstance(case, Grading):
        return grading(n)
    if isinstance(case, VectorGrading):
        return mv_mul(to_clifford(case.X), grading(n))
    if isinstance(case, TorsionGrading):
        return mv_mul(to_clifford(case.T), grading(n)).scale(GR_I)
    raise TypeError(f"unknown perturbation case {case!r}")


def sigma_minus2m(u: OneForm, v: OneForm, w: OneForm,
                  case: PerturbationCase, n: int) -> XiPolynomialMV:
    """Order -2m symbol of c(u)c(v)c(w) D^(1-2m) on the unit cosphere."""
    if n % 2 != 0:
        raise OddDimension(f"dimension must be even, got {n}")
    if n < 4:
        raise DimensionMismatch(f"symbol assembly needs n >= 4, got {n}")
    for x in (u, v, w):
        if x.dim != n:
            raise DimensionMismatch(f"one-form dim {x.dim} != {n}")
    _check_case_dims(case, n)
    m = n // 2
    cuvw = mv_mul(mv_mul(to_clifford(u), to_clifford(v)), to_clifford(w))
    b = perturbation_multivector(case, n)

    terms: dict[tuple, Multivector] = {}
    constant = mv_mul(cuvw, b)
    if not constant.is_zero():
        terms[xi_monomial(n)] = constant

    # m {c(e_i), B} = 2m B_i c(e_i), B_i the blades of B that commute with
    # c(e_i): those with an even number of generators other than e_i
    b_2m = b.scale(rational(2 * m))
    for i in range(1, n + 1):
        others = ~(1 << (i - 1))
        commuting = Multivector(n, {mask: c for mask, c in b_2m.coeffs.items()
                                    if not (mask & others).bit_count() & 1})
        if commuting.is_zero():
            continue
        left = mv_mul(cuvw, times_generator(commuting, i))
        for l in range(1, n + 1):
            term = times_generator(left, l)
            expo = xi_monomial(n, i, l)
            cur = terms.get(expo)
            s = term if cur is None else cur + term
            if s.is_zero():
                terms.pop(expo, None)
            else:
                terms[expo] = s
    return XiPolynomialMV(n, n, terms)


def interior_density(u: OneForm, v: OneForm, w: OneForm,
                     case: PerturbationCase, n: int) -> SymScalar:
    """Unit-cosphere integral of the symbol trace: the interior density.

    Carries one factor tr_F(Phi) (every surviving term is perturbation
    linear) and the atom vol(S^(n-1)) from the sphere moments, attached here
    to the exact trace of the integrated symbol.
    """
    integrated = integrate_sphere(n, sigma_minus2m(u, v, w, case, n))
    atoms = SymScalar.from_monomial((vol_sphere(n - 1), TR_F_PHI))
    return trace(integrated) * atoms
