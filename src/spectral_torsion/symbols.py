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
    _grading,
    _rational_runs,
    _same_dim,
    _sign_mask,
    mv_mul,
    trace,
)
from .forms import OneForm, ThreeForm, _clifford_items, frame_product
from .moments import XiPolynomialMV, integrate_sphere, xi_monomial
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


# (field, form type) of each perturbation case
_CASE_FIELDS = {
    TorsionVector: (("T", ThreeForm), ("Y", OneForm)),
    Grading: (),
    VectorGrading: (("X", OneForm),),
    TorsionGrading: (("T", ThreeForm),),
}


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
    """B as a form factor times at most one constant blade: the factor's
    (mask, re, im) items, unconverted, and the blade that multiplies it on
    the right (None for c(T) + sqrt(-1) c(Y)).  Callers check n and the
    case first."""
    if isinstance(case, TorsionVector):  # T real and Y imaginary, as one set of items
        return ([(mask, c, 0) for mask, c in _clifford_items(case.T)]
                + [(mask, 0, c) for mask, c in _clifford_items(case.Y)]), None
    if isinstance(case, Grading):
        return [(0, 1, 0)], _grading(n)
    if isinstance(case, VectorGrading):
        return [(mask, c, 0) for mask, c in _clifford_items(case.X)], _grading(n)
    # TorsionGrading: c(T) (i gamma), with i gamma = i^(m+1) on the top blade
    return [(mask, c, 0) for mask, c in _clifford_items(case.T)], _grading(n, 1)


def _times_blade(n: int, items: list, blade: Multivector | None) -> Multivector:
    """The items as integer parts, times the blade when there is one."""
    factor = _from_int_parts(n, _rational_runs(items))
    return factor if blade is None else mv_mul(factor, blade)


def perturbation_multivector(case: PerturbationCase, n: int) -> Multivector:
    """The zero-order perturbation as an element of Cl(n)."""
    _check_even_dim(n)
    _check_case(case, n)
    return _times_blade(n, *_form_factor(case, n))


def sigma_minus2m(b: Multivector) -> XiPolynomialMV:
    """Order -2m symbol of c(u)c(v)c(w) D^(1-2m) on the unit cosphere, up to
    the frame factor: the xi-polynomial of the perturbation B alone
    (n = b.dim) that C = c(u)c(v)c(w) multiplies on the left."""
    _same_dim(b, b, Multivector)
    n = b.dim
    _check_even_dim(n, 4)
    terms: dict[tuple, Multivector] = {xi_monomial(n): b}

    # m {c(e_a), B} = n B_a c(e_a), B_a the blades of B that commute with
    # c(e_a): odd ones that hold e_a, even ones that do not.  So the xi_a^2
    # term is -n B_a, and for a < c the xi_a xi_c term n (B_a - B_c) c(e_a)c(e_c)
    # holds the blades with one of e_a, e_c, not both.  Per part, `blades` lists
    # each nonzero blade A as (A, grade parity, -n (re, im)); holding[a] (a from 0)
    # lists each A with e_a as (A, s, v, -v), v = n (re, im) negated on even grades,
    # s = _sign_mask(A), complemented if its bit a is set: bit c of s signs A e_a e_c.
    parts = []
    for den, acc in b._parts:
        holding, blades = [[] for _ in range(n)], []
        for mask, (re, im) in acc.items():
            if re or im:
                odd, flips = mask.bit_count() & 1, _sign_mask(mask)
                v = (n * re, n * im), (-n * re, -n * im)
                blades.append((mask, odd, v[1]))
                pos, neg = v if odd else v[::-1]
                rest = mask
                while rest:
                    low = rest & -rest
                    holding[low.bit_length() - 1].append(
                        (mask, ~flips if flips & low else flips, pos, neg))
                    rest ^= low
        parts.append((den, holding, blades))
    squares = [[(den, {mask: sq for mask, odd, sq in blades if odd == mask >> a & 1})
                for den, _, blades in parts] for a in range(n)]
    live = [any(acc for _, acc in sq) for sq in squares]

    def cross(a: int, c: int) -> list:  # a < c; the two sides' keys are disjoint
        bit_a, bit_c, flip = 1 << a, 1 << c, 1 << a | 1 << c
        return [(den, {mask ^ flip: neg if sign & bit_c else pos
                       for mask, sign, pos, neg in holding[a] if not mask & bit_c}
                 | {mask ^ flip: pos if sign & bit_a else neg
                    for mask, sign, pos, neg in holding[c] if not mask & bit_a})
                for den, holding, _ in parts]

    # the xi_a xi_c term is entered where the running sum over a, then c,
    # first became nonzero: at (a, c) when B_a is nonzero, else at (c, a)
    for a in range(n):
        for c in range(n):
            if live[a] and (c >= a or not live[c]):
                terms[xi_monomial(n, a + 1, c + 1)] = _from_int_parts(
                    n, squares[a] if c == a else cross(min(a, c), max(a, c)))
    return XiPolynomialMV(n, n, terms)


def interior_density(u: OneForm, v: OneForm, w: OneForm,
                     case: PerturbationCase, n: int) -> SymScalar:
    """Unit-cosphere integral of the symbol trace: the interior density.

    Carries one factor tr_F(Phi) (every surviving term is perturbation
    linear) and the atom vol(S^(n-1)) from the sphere moments, attached here
    to the exact trace of the integrated symbol.  The symbol sees only B's
    grade-1 and grade-3 blades, the grades of c(u)c(v)c(w): the surviving
    xi_i^2 terms keep each blade's grade and the trace pairs only equal
    blades, so every other grade adds 0.  B is its form factor times at most
    one blade, so a factor item on mask M lands on M ^ (the blade's mask);
    only the items that land on grade 1 or 3 are converted and multiplied.
    With none (the grading at every n, c(X) grading from n = 6, sqrt(-1) c(T)
    grading from n = 8) the density is 0, returned once the arguments are
    checked, with no rational converted and no product, symbol or
    C = c(u)c(v)c(w) built.  Otherwise the symbol of that part of B alone is
    integrated and C is traced against it; their product is never built.
    """
    _check_even_dim(n)
    _check_case(case, n)
    items, blade = _form_factor(case, n)
    _check_even_dim(n, 4)
    for x in (u, v, w):
        _same_dim(x, n, OneForm)
    top = 0 if blade is None else next(mask for _, acc in blade._parts for mask in acc)
    kept = [item for item in items if (item[0] ^ top).bit_count() in (1, 3)]
    if not kept:
        return SymScalar()
    integrated = integrate_sphere(n, sigma_minus2m(_times_blade(n, kept, blade)))
    return SymScalar.from_monomial((vol_sphere(n - 1), TR_F_PHI),
                                   trace(frame_product(u, v, w, n), integrated))
