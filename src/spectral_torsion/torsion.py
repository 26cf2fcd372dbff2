"""Top-level spectral-torsion evaluation and closed-form reference values.

`interior_density` (symbol pipeline) and `boundary_density` (half-line
pipeline) are compared against the catalogued closed forms; exact SymScalar
equality decides the match flag.  Catalogue-vs-computed mismatches are data,
never silently repaired.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .clifford import MAX_DIM
from .forms import OneForm, _complement, eval_threeform, metric_pair
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
    TorsionGrading,
    TorsionVector,
    VectorGrading,
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
        if self.dim % 2 != 0 or not 4 <= self.dim <= MAX_DIM:
            raise UnsupportedDimension(
                f"dimension must be even with 4 <= n <= {MAX_DIM}, got {self.dim}")


@dataclass(frozen=True)
class IdentityComparison:
    """One row of the verification ledger: computed vs catalogued value."""

    id: str
    description: str
    computed: SymScalar
    reference: SymScalar
    matches: bool


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
    """u_n g(v,w) - v_n g(u,w) + w_n g(u,v) in the boundary-adapted frame."""
    n = u.dim
    return (u[n] * metric_pair(v, w)
            - v[n] * metric_pair(u, w)
            + w[n] * metric_pair(u, v))


def theorem_boundary_value(u: OneForm, v: OneForm, w: OneForm, n: int) -> SymScalar:
    """Catalogued boundary addend:

    (2m-2)! (1-m) i 2^(1-2m) pi / (m!(m-1)!) * combination * 2^m dim_F vol(S^(n-2)).
    """
    m = n // 2
    coeff = (GaussianRational(0, 1 - m)
             * rational(math.factorial(2 * m - 2))
             / rational(math.factorial(m) * math.factorial(m - 1))
             / rational(2 ** (2 * m - 1)))
    comb = normal_trace_combination(u, v, w)
    return SymScalar.from_monomial(
        (PI, DIM_F, vol_sphere(n - 2)),
        coeff * rational(2 ** m) * comb)


def _frame_pairing(u: OneForm, v: OneForm, w: OneForm, y: OneForm) -> Rational:
    """<c(u)c(v)c(w)c(y)>_0 = g(v,w)g(u,y) - g(u,w)g(v,y) + g(u,v)g(w,y)."""
    return (metric_pair(v, w) * metric_pair(u, y)
            - metric_pair(u, w) * metric_pair(v, y)
            + metric_pair(u, v) * metric_pair(w, y))


def theorem_value(case: PerturbationCase, u: OneForm, v: OneForm, w: OneForm,
                  spec: ManifoldSpec) -> SymScalar:
    """The catalogued closed form for the torsion density, verbatim."""
    n = spec.dim
    m = n // 2
    if isinstance(case, TorsionVector):
        coeff = rational(-(2 ** (m + 1))) * eval_threeform(case.T, u, v, w)
    elif isinstance(case, Grading):
        coeff = 0
    elif isinstance(case, VectorGrading):
        coeff = (rational(8) * eval_threeform(_complement(case.X, n), u, v, w)
                 if n == 4 else 0)
    elif isinstance(case, TorsionGrading):
        if n == 4:
            coeff = rational(-16) * GR_I * _frame_pairing(u, v, w, _complement(case.T, n))
        elif n == 6:
            coeff = rational(16) * eval_threeform(_complement(case.T, n), u, v, w)
        else:
            coeff = 0
    else:
        raise TypeError(f"unknown perturbation case {case!r}")
    value = SymScalar.from_monomial((TR_F_PHI, vol_sphere(n - 1)), coeff)
    if spec.with_boundary:
        value = value + theorem_boundary_value(u, v, w, n)
    return value


def spectral_torsion(case: PerturbationCase, u: OneForm, v: OneForm, w: OneForm,
                     spec: ManifoldSpec,
                     with_identities: bool = False,
                     seed: int | None = None) -> TorsionReport:
    """Full pipeline evaluation plus closed-form comparison."""
    interior = interior_density(u, v, w, case, spec.dim)
    boundary = boundary_density(u, v, w, spec.dim) if spec.with_boundary \
        else SymScalar.zero()
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
