"""Top-level spectral-torsion evaluation and closed-form reference values.

`interior_density` (symbol pipeline) and `boundary_density` (half-line
pipeline) are compared against the catalogued closed forms; exact SymScalar
equality decides the match flag.  Catalogue-vs-computed mismatches are data,
never silently repaired.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .clifford import DimensionMismatch, MAX_DIM, OddDimension, _check_even_dim, _same_dim
from .forms import OneForm, _complement, _frame_dim, _integer_row, eval_threeform, metric_pair
from .halfline import boundary_density
from .scalars import (
    DIM_F,
    GR_I,
    GaussianRational,
    PI,
    Rational,
    SymScalar,
    TR_F_PHI,
    rational,
    vol_sphere,
)
from .symbols import (
    Grading,
    PerturbationCase,
    TorsionVector,
    VectorGrading,
    _check_case,
    interior_density,
)


class UnsupportedDimension(ValueError):
    pass


@dataclass(frozen=True)
class ManifoldSpec:
    """Even ambient dimension n = 2m with an optional boundary."""

    dim: int
    with_boundary: bool = False

    def __post_init__(self):
        try:
            _check_even_dim(self.dim, 4)
        except (OddDimension, DimensionMismatch):
            raise UnsupportedDimension(
                f"dimension must be even with 4 <= n <= {MAX_DIM}, got {self.dim}") from None
        if type(self.with_boundary) is not bool:
            raise TypeError(f"with_boundary must be a bool, got {self.with_boundary!r}")


def _check_spec(spec: ManifoldSpec, caller: str) -> None:
    """The one spec rule: `caller` takes a ManifoldSpec, not a bare dimension."""
    if not isinstance(spec, ManifoldSpec):
        raise TypeError(f"{caller} needs a ManifoldSpec, got {type(spec).__name__}")


@dataclass(frozen=True)
class TorsionReport:
    interior_density: SymScalar
    boundary_density: SymScalar
    theorem_value: SymScalar
    matches_theorem: bool
    identity_comparisons: tuple = ()

    @property
    def total(self) -> SymScalar:
        return self.interior_density + self.boundary_density


def normal_trace_combination(u: OneForm, v: OneForm, w: OneForm) -> Rational:
    """u_n g(v,w) - v_n g(u,w) + w_n g(u,v) in the boundary-adapted frame.

    Summed on integer numerators over the rows' common denominators, with
    one Rational at the end.
    """
    _frame_dim(u, v, w)
    (du, u), (dv, v), (dw, w) = (_integer_row(x) for x in (u, v, w))
    numerator = (u[-1] * sum(map(operator.mul, v, w))
                 - v[-1] * sum(map(operator.mul, u, w))
                 + w[-1] * sum(map(operator.mul, u, v)))
    return Rational(numerator, du * dv * dw)


@functools.cache
def _boundary_coefficient(m: int) -> GaussianRational:
    """(2m-2)! (1-m) i 2^(1-2m) 2^m / (m!(m-1)!), the catalogued boundary
    addend's coefficient of pi * combination * dim_F * vol(S^(n-2))."""
    return GaussianRational(0, Rational(math.factorial(2 * m - 2) * (1 - m) * 2 ** m,
                                        math.factorial(m) * math.factorial(m - 1)
                                        * 2 ** (2 * m - 1)))


def theorem_boundary_value(u: OneForm, v: OneForm, w: OneForm) -> SymScalar:
    """Catalogued boundary addend:

    (2m-2)! (1-m) i 2^(1-2m) pi / (m!(m-1)!) * combination * 2^m dim_F vol(S^(n-2)).
    """
    n = _frame_dim(u, v, w)
    _check_even_dim(n, 4)  # before the cache: 5 // 2 would hit m = 2
    return SymScalar.from_monomial(
        (PI, DIM_F, vol_sphere(n - 2)),
        _boundary_coefficient(n // 2) * normal_trace_combination(u, v, w))


def _frame_pairing(u: OneForm, v: OneForm, w: OneForm, y: OneForm) -> Rational:
    """<c(u)c(v)c(w)c(y)>_0 = g(v,w)g(u,y) - g(u,w)g(v,y) + g(u,v)g(w,y)."""
    return (metric_pair(v, w) * metric_pair(u, y)
            - metric_pair(u, w) * metric_pair(v, y)
            + metric_pair(u, v) * metric_pair(w, y))


def theorem_value(case: PerturbationCase, u: OneForm, v: OneForm, w: OneForm,
                  spec: ManifoldSpec) -> SymScalar:
    """The catalogued closed form for the torsion density, verbatim."""
    _check_spec(spec, "theorem_value")
    n = spec.dim
    m = n // 2
    _check_case(case, n)
    for x in (u, v, w):
        _same_dim(x, n, OneForm)
    if isinstance(case, TorsionVector):
        coeff = rational(-(2 ** (m + 1))) * eval_threeform(case.T, u, v, w)
    elif isinstance(case, Grading):
        coeff = 0
    elif isinstance(case, VectorGrading):
        coeff = (rational(8) * eval_threeform(_complement(case.X), u, v, w)
                 if n == 4 else 0)
    elif n == 4:  # TorsionGrading, the one case left
        coeff = rational(-16) * GR_I * _frame_pairing(u, v, w, _complement(case.T))
    elif n == 6:
        coeff = rational(16) * eval_threeform(_complement(case.T), u, v, w)
    else:
        coeff = 0
    value = SymScalar.from_monomial((TR_F_PHI, vol_sphere(n - 1)), coeff)
    if spec.with_boundary:
        value = value + theorem_boundary_value(u, v, w)
    return value


def spectral_torsion(case: PerturbationCase, u: OneForm, v: OneForm, w: OneForm,
                     spec: ManifoldSpec,
                     with_identities: bool = False,
                     seed: int | None = None) -> TorsionReport:
    """Full pipeline evaluation plus closed-form comparison."""
    _check_spec(spec, "spectral_torsion")
    if seed is not None and type(seed) is not int:
        raise TypeError(f"seed must be None or an int, got {seed!r}")
    if type(with_identities) is not bool:
        raise TypeError(f"with_identities must be a bool, got {with_identities!r}")
    _same_dim(u, spec.dim, OneForm)  # the densities read n off the forms
    interior = interior_density(u, v, w, case)
    boundary = boundary_density(u, v, w) if spec.with_boundary else SymScalar()
    reference = theorem_value(case, u, v, w, spec)
    comparisons: tuple = ()
    if with_identities:
        from .verify import verify_suite
        comparisons = tuple(verify_suite(spec, seed=seed))
    return TorsionReport(
        interior_density=interior,
        boundary_density=boundary,
        theorem_value=reference,
        matches_theorem=(interior + boundary) == reference,
        identity_comparisons=comparisons,
    )
