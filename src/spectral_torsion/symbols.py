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
    Multivector,
    _check_even_dim,
    _from_int_parts,
    _from_rationals,
    _integer_runs,
    _relabel,
    _same_dim,
    grading,
    mv_mul,
    trace,
)
from .forms import OneForm, ThreeForm, _clifford_items, frame_product, to_clifford
from .moments import XiPolynomialMV, integrate_sphere, xi_monomial
from .scalars import GR_I, SymScalar, TR_F_PHI, vol_sphere


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


def _check_case_dims(case: PerturbationCase, n: int) -> None:
    for field in ("T", "Y", "X"):
        tensor = getattr(case, field, None)
        if tensor is not None:
            _same_dim(tensor, n)


def perturbation_multivector(case: PerturbationCase, n: int) -> Multivector:
    """The zero-order perturbation as an element of Cl(n)."""
    _check_even_dim(n)
    _check_case_dims(case, n)
    if isinstance(case, TorsionVector):  # T real and Y imaginary, as one set of parts
        return _from_rationals(n, [(mask, c, 0) for mask, c in _clifford_items(case.T)]
                               + [(mask, 0, c) for mask, c in _clifford_items(case.Y)])
    if isinstance(case, Grading):
        return grading(n)
    if isinstance(case, VectorGrading):
        return mv_mul(to_clifford(case.X), grading(n))
    if isinstance(case, TorsionGrading):  # c(T) (i gamma): i rides on the one-blade factor
        return mv_mul(to_clifford(case.T), grading(n).scale(GR_I))
    raise TypeError(f"unknown perturbation case {case!r}")


def sigma_minus2m(b: Multivector) -> XiPolynomialMV:
    """Order -2m symbol of c(u)c(v)c(w) D^(1-2m) on the unit cosphere, up to
    the frame factor: the xi-polynomial of the perturbation B alone
    (n = b.dim) that C = c(u)c(v)c(w) multiplies on the left."""
    n = b.dim
    _check_even_dim(n, 4)
    m = n // 2
    terms: dict[tuple, Multivector] = {xi_monomial(n): b}

    # m {c(e_i), B} = 2m B_i c(e_i), B_i the blades of B that commute with
    # c(e_i): those with an even number of generators other than e_i.
    # right[i] = 2m B_i c(e_i) as integer parts over B's part denominators,
    # or None where it vanishes.
    b_parts = _integer_runs(b)
    right: list = [None] * (n + 1)
    for i in range(1, n + 1):
        others = ~(1 << (i - 1))
        parts = [(den, _relabel({mask: (2 * m * re, 2 * m * im)
                                 for mask, (re, im) in acc.items()
                                 if not (mask & others).bit_count() & 1}, i))
                 for den, acc in b_parts]
        if any(re or im for _, acc in parts for re, im in acc.values()):
            right[i] = parts

    # the xi_i xi_l term is right[i] c(e_l) + right[l] c(e_i) (one term when
    # i = l), entered where the running sum over i, then l, first became
    # nonzero: at (i, l) when right[i] is nonzero, else at (l, i)
    for i in range(1, n + 1):
        if right[i] is None:
            continue
        for l in range(1, n + 1):
            if l < i and right[l] is not None:
                continue
            parts = [(den, _relabel(acc, l)) for den, acc in right[i]]
            if l != i and right[l] is not None:
                for (_, acc), (_, other) in zip(parts, right[l]):
                    for mask, (re, im) in _relabel(other, i).items():
                        cur = acc.get(mask)
                        acc[mask] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
            terms[xi_monomial(n, i, l)] = _from_int_parts(n, parts)
    return XiPolynomialMV(n, n, terms)


def interior_density(u: OneForm, v: OneForm, w: OneForm,
                     case: PerturbationCase, n: int) -> SymScalar:
    """Unit-cosphere integral of the symbol trace: the interior density.

    Carries one factor tr_F(Phi) (every surviving term is perturbation
    linear) and the atom vol(S^(n-1)) from the sphere moments, attached here
    to the exact trace of the integrated symbol.  The symbol sees only B's
    grade-1 and grade-3 blades, the grades of c(u)c(v)c(w): the surviving
    xi_i^2 terms keep each blade's grade and the trace pairs only equal
    blades, so every other grade adds 0.  The symbol is built from B alone
    and integrated, and C = c(u)c(v)c(w) is traced against the integral, so
    the product of C with the integral is never built.
    """
    b = _from_int_parts(n, [(den, {mask: c for mask, c in acc.items()
                                   if mask.bit_count() in (1, 3)})
                            for den, acc in _integer_runs(perturbation_multivector(case, n))])
    integrated = integrate_sphere(n, sigma_minus2m(b))
    return SymScalar.from_monomial((vol_sphere(n - 1), TR_F_PHI),
                                   trace(frame_product(u, v, w, n), integrated))
