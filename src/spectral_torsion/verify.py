"""Identity-verification catalog.

Every closed-form identity used on the way to the final torsion densities is
recomputed from first principles (blade algebra, exact sphere moments,
residue calculus) and compared against its catalogued reference value.
Mismatches are reported as data; only the final-theorem rows gate the
verify exit code.

Row ids are stable catalog keys.  The match flag is decided over several
randomized exact trials; the displayed computed/reference values come from a
fixed canonical input so tables are deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from .clifford import Multivector, conjugate_sum, grading, mv_mul, scalar_product, \
    supertrace, trace
from .forms import OneForm, ThreeForm, _complement, eval_threeform, frame_product, \
    to_clifford
from .halfline import (
    POLY_ONE,
    Poly,
    XiRational,
    boundary_density,
    dxn_symbol,
    half_inverse_symbol_components,
    pi_plus,
    residue_derivative,
)
from .moments import moment, xi_monomial
from .scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Rational,
    SymScalar,
    i_power,
    rational,
    sym,
    vol_sphere,
)
from .symbols import Grading, TorsionGrading, TorsionVector, VectorGrading, \
    interior_density, sigma_minus2m
from .torsion import (
    ManifoldSpec,
    _check_spec,
    _frame_pairing,
    normal_trace_combination,
    theorem_boundary_value,
    theorem_value,
)

DEFAULT_SEED = 20240810

FINAL_IDS = ("T4.5", "R4.7", "T4.8γ", "T4.10", "T4.11n4", "T4.11n6")

# IDENTITY_IDS (every catalog key, in order) is defined below the catalog.


# ---------------------------------------------------------------------------
# randomized exact inputs
# ---------------------------------------------------------------------------


def rand_rational(rng: random.Random):
    return Rational(rng.randint(-6, 6), rng.randint(1, 4))


def rand_oneform(rng: random.Random, n: int) -> OneForm:
    return OneForm(tuple(rand_rational(rng) for _ in range(n)))


def _oneforms(n: int, rng: random.Random | None, *canonical: int) -> tuple[OneForm, ...]:
    """The basis one-forms e_i for the listed i when rng is None; otherwise as
    many random one-forms, drawn in order."""
    if rng is None:
        return tuple(OneForm.basis(n, i) for i in canonical)
    return tuple(rand_oneform(rng, n) for _ in canonical)


def rand_threeform(rng: random.Random, n: int, sparsity: float = 0.5) -> ThreeForm:
    comps = {}
    for a in range(1, n - 1):
        for b in range(a + 1, n):
            for c in range(b + 1, n + 1):
                if rng.random() < sparsity:
                    comps[(a, b, c)] = rand_rational(rng)
    return ThreeForm(n, comps)


def _sphere_trace_integral(n: int, left: Multivector, middle: Multivector,
                           generator_first: bool) -> GaussianRational:
    """Integral over |xi|=1 of Tr(left * c(e_i) * middle * xi_i c(xi)) summed
    over i (generator_first) or Tr(left * middle * c(e_i) * xi_i c(xi)), in
    units of vol(S^(n-1)).

    Only the xi_i^2 moments, 1/n each, survive, so the integral is
    (2^m/n) <left * sum_i c(e_i) middle c(e_i)>_0 with the generator first,
    and -2^m <left * middle>_0 otherwise."""
    if generator_first:
        return trace(left, conjugate_sum(middle)) / rational(n)
    return -trace(left, middle)


def _tr_id(n: int):
    return rational(2 ** (n // 2))


def _probe(f: XiRational) -> SymScalar:
    """Display probe for a rational symbol: exact value at xi_n = 2."""
    return sym(f.eval_exact(GaussianRational(2)))


# ---------------------------------------------------------------------------
# catalog rows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    id: str
    description: str
    applies: Callable[[int], bool]
    run: Callable[[int, random.Random | None], tuple[SymScalar, SymScalar, bool]]


@dataclass(frozen=True)
class IdentityComparison:
    """One row of the verification ledger: computed vs catalogued value."""

    id: str
    description: str
    computed: SymScalar
    reference: SymScalar
    matches: bool


def _simple(computed: SymScalar, reference: SymScalar):
    return computed, reference, computed == reference


def _exact(computed, reference, atoms: tuple = ()):
    """A row of exact values in units of the monomial `atoms`, attached here."""
    return _simple(SymScalar.from_monomial(atoms, computed),
                   SymScalar.from_monomial(atoms, reference))


def _trace_row(inputs, middle, reference):
    """A row comparing tr(c(u)c(v)c(w) M) = 2^m <c(u)c(v)c(w) M>_0, with
    M = middle(x) for the inputs (u, v, w, x), against reference(n, u, v, w, x)."""
    def run(n, rng):
        u, v, w, x = inputs(n, rng)
        computed = trace(frame_product(u, v, w, n), middle(x))
        return _exact(computed, reference(n, u, v, w, x))
    return run


def _sphere_row(inputs, middle, generator_first, weight, base):
    """A row comparing `_sphere_trace_integral` of C = c(u)c(v)c(w) and M = middle(x)
    with weight(n) * base(u, v, w, x, C, M) * 2^m, in units of vol(S^(n-1))."""
    def run(n, rng):
        u, v, w, x = inputs(n, rng)
        cuvw, right = frame_product(u, v, w, n), middle(x)
        computed = _sphere_trace_integral(n, cuvw, right, generator_first)
        reference = base(u, v, w, x, cuvw, right) * _tr_id(n) * weight(n)
        return _exact(computed, reference, (vol_sphere(n - 1),))
    return run


def _density_row(inputs, case):
    """A row comparing interior_density on the perturbation case(x, rng) with
    the catalogued theorem value; the case draws after the inputs."""
    def run(n, rng):
        u, v, w, x = inputs(n, rng)
        perturbation = case(x, rng)
        return _simple(interior_density(u, v, w, perturbation, n),
                       theorem_value(perturbation, u, v, w, ManifoldSpec(n)))
    return run


def _graded(x) -> Multivector:
    """c(x) times the grading, for a one-form or 3-form x."""
    return mv_mul(to_clifford(x), grading(x.dim))


def _threeform_at(u, v, w, t, cuvw, middle):  # T(u, v, w): <c(u)c(v)c(w) c(T)>_0 by L4.3b
    return eval_threeform(t, u, v, w)


def _witness(u, v, w, x, cuvw, middle):  # <c(u)c(v)c(w) M>_0 of the integrand's own factors
    return scalar_product(cuvw, middle)


def _pairing_inputs(n, rng):
    return _oneforms(n, rng, 1, 1, 2, 2)


def _torsion_inputs(n, rng):
    u, v, w = _oneforms(n, rng, 1, 2, 3)
    return u, v, w, ThreeForm(n, {(1, 2, 3): 1}) if rng is None else rand_threeform(rng, n)


def _vector_inputs(n, rng):
    return _oneforms(n, rng, 1, 2, 3, n)


def _grading_torsion_inputs(n, rng):
    if rng is not None:
        return _torsion_inputs(n, rng)
    if n == 4:
        return (*_oneforms(n, rng, 1, 1, 4), ThreeForm(n, {(1, 2, 3): 1}))
    return (*_oneforms(n, rng, 1, 2, 3),
            ThreeForm(n, {(4, 5, 6): 1}) if n >= 6 else ThreeForm(n))


def _boundary_inputs(n, rng):
    """(u, v, w) and the normal covector e_n."""
    return (*_oneforms(n, rng, n, 1, 1), OneForm.basis(n, n))


def _torsion_vector(t, rng):
    """(T, Y) with Y drawn after T, or Y = 0 on the canonical input."""
    return TorsionVector(t, OneForm.zero(t.dim) if rng is None else rand_oneform(rng, t.dim))


def _run_e417(n, rng):
    if rng is None:
        i = j = 1
    else:
        i, j = rng.randint(1, n), rng.randint(1, n)
    computed = moment(n, xi_monomial(n, i, j))
    reference = rational(1) / rational(n) if i == j else rational(0)
    return _exact(computed, reference, (vol_sphere(n - 1),))


def _run_e418(n, rng):
    u, v, w, y = _pairing_inputs(n, rng)
    cuvw, cy = frame_product(u, v, w, n), to_clifford(y)
    computed = (_sphere_trace_integral(n, cuvw, cy, generator_first=False)
                + _sphere_trace_integral(n, cuvw, cy, generator_first=True))
    reference = -_frame_pairing(u, v, w, y) * _tr_id(n) / rational(n // 2)
    return _exact(computed, reference, (vol_sphere(n - 1),))


def _run_l49(n, rng):
    top_mask = (1 << n) - 1
    if rng is None:
        sub_mask = 1
    else:
        sub_mask = rng.randint(0, top_mask - 1)  # any grade < n blade
    computed = (supertrace(Multivector(n, {top_mask: 1}))
                + supertrace(Multivector(n, {sub_mask: 1})))
    m = n // 2
    reference = rational(2 ** m) * (GR_ONE / i_power(m))
    return _exact(computed, reference)


def _run_e431(n, rng):
    cuvw = frame_product(*_oneforms(n, rng, 1, 2, 3), n)
    constant = sigma_minus2m(grading(n)).terms.get(xi_monomial(n), Multivector(n))
    computed_mv, reference_mv = mv_mul(cuvw, constant), -mv_mul(cuvw, grading(n))
    # probe one blade coefficient for display; match over full multivectors
    probe_mask = next(iter(sorted(reference_mv.coeffs)), 0)
    return (sym(computed_mv.coeffs.get(probe_mask, GR_ZERO)),
            sym(reference_mv.coeffs.get(probe_mask, GR_ZERO)),
            computed_mv == reference_mv)


def _run_e455(n, rng):
    tangential, normal = half_inverse_symbol_components()
    ref_tan = XiRational(Poly((rational(1) / rational(2),)), up=1)
    ref_nor = XiRational(Poly((GR_I * (rational(1) / rational(2)),)), up=1)
    exact = (tangential == ref_tan and normal == ref_nor
             and pi_plus(tangential) == tangential)
    return (_probe(tangential) + _probe(normal),
            _probe(ref_tan) + _probe(ref_nor), exact)


def _run_e456(n, rng):
    m = n // 2
    inverse_power = XiRational(POLY_ONE, m - 1, m - 1)
    computed = inverse_power.derivative()
    reference = dxn_symbol(m)
    return _probe(computed), _probe(reference), computed == reference


def _run_e460(n, rng):
    m = n // 2
    computed = XiRational(POLY_ONE, down=m - 1).derivatives_at(GR_I, m)[m]
    sign = 1 if m % 2 == 0 else -1
    factor = sign * (math.factorial(2 * m - 2) // math.factorial(m - 2))
    reference = GaussianRational(0, 2) ** (1 - 2 * m) * factor
    return _exact(computed, reference)


def _run_e461(n, rng):
    m = n // 2
    computed = XiRational(Poly((GR_I,)), down=m).derivatives_at(GR_I, m)[m]
    sign = 1 if m % 2 == 0 else -1
    factor = sign * (math.factorial(2 * m - 1) // math.factorial(m - 1))
    reference = GaussianRational(0, 2) ** (-2 * m) * factor
    return _exact(computed, reference)


def _run_e462(n, rng):
    m = n // 2
    computed = residue_derivative(m)
    reference = (GaussianRational(0, -1)
                 * rational(math.factorial(2 * m - 2))
                 / rational(math.factorial(m - 1) * 2 ** (2 * m)))
    return _exact(computed, reference)


def _run_e463(n, rng):
    u, v, w, _ = _boundary_inputs(n, rng)
    return _simple(boundary_density(u, v, w, n), theorem_boundary_value(u, v, w, n))


def _run_r47(n, rng):
    u, v, w, y = _oneforms(n, rng, 1, 2, 3, 1)
    case = TorsionVector(ThreeForm(n), y)
    return _simple(interior_density(u, v, w, case, n), SymScalar())


def _run_t48g(n, rng):
    u, v, w = _oneforms(n, rng, 1, 2, 3)
    return _simple(interior_density(u, v, w, Grading(), n), SymScalar())


def _run_t413(n, rng):
    if rng is None:
        u, v, w = OneForm.basis(n, n), OneForm.basis(n, 1), OneForm.basis(n, 1)
        t = ThreeForm(n, {(1, 2, 3): 1})
        y = OneForm.zero(n)
    else:
        u, v, w, y = (rand_oneform(rng, n) for _ in range(4))
        t = rand_threeform(rng, n)
    case = TorsionVector(t, y)
    spec = ManifoldSpec(n, with_boundary=True)
    computed = (interior_density(u, v, w, case, n)
                + boundary_density(u, v, w, n))
    reference = theorem_value(case, u, v, w, spec)
    return _simple(computed, reference)


def _any(n: int) -> bool:
    return True


CATALOG: tuple[Identity, ...] = (
    Identity("L4.3a", "four-factor trace against metric pairings", _any,
             _trace_row(_pairing_inputs, to_clifford, lambda n, u, v, w, y:
                        _frame_pairing(u, v, w, y) * _tr_id(n))),
    Identity("L4.3b", "trace of three one-forms against a 3-form", _any,
             _trace_row(_torsion_inputs, to_clifford, lambda n, u, v, w, t:
                        eval_threeform(t, u, v, w) * _tr_id(n))),
    Identity("E4.17", "second sphere moment of the covariables", _any, _run_e417),
    Identity("E4.18", "sphere integral of the vector anticommutator trace", _any, _run_e418),
    Identity("E4.19", "sphere integral, 3-form right of the frame factor", _any,
             _sphere_row(_torsion_inputs, to_clifford, False, lambda n: -1, _threeform_at)),
    Identity("E4.20", "sphere integral, 3-form left of the frame factor", _any,
             _sphere_row(_torsion_inputs, to_clifford, True, lambda n: -5, _threeform_at)),
    Identity("L4.9", "supertrace: sub-top blades vanish, top blade value", _any, _run_l49),
    Identity("E4.31", "constant symbol term for the grading perturbation", _any, _run_e431),
    Identity("E4.34", "grading trace as a top wedge pairing (n=4)", lambda n: n == 4,
             _trace_row(_vector_inputs, _graded, lambda n, u, v, w, x:
                        rational(-4) * eval_threeform(_complement(x, n), u, v, w))),
    Identity("E4.36", "sphere integral, vector-grading right of the frame factor", _any,
             _sphere_row(_vector_inputs, _graded, False, lambda n: -1, _witness)),
    Identity("E4.37", "sphere integral, vector-grading left of the frame factor", _any,
             _sphere_row(_vector_inputs, _graded, True, lambda n: Rational(2 - n, n), _witness)),
    Identity("E4.39", "grading-torsion trace as a top wedge pairing (n=6)", lambda n: n == 6,
             _trace_row(_grading_torsion_inputs, _graded, lambda n, u, v, w, t:
                        rational(8) * (GR_ONE / i_power(3))
                        * eval_threeform(_complement(t, n), u, v, w))),
    Identity("E4.41", "sphere integral, grading-torsion left of the frame factor", _any,
             _sphere_row(_grading_torsion_inputs, _graded, True, lambda n: Rational(n - 6, n),
                         _witness)),
    Identity("E4.42", "sphere integral, grading-torsion right of the frame factor", _any,
             _sphere_row(_grading_torsion_inputs, _graded, False, lambda n: -1, _witness)),
    Identity("E4.49", "grading-torsion trace via metric pairings (n=4)", lambda n: n == 4,
             _trace_row(_grading_torsion_inputs, _graded, lambda n, u, v, w, t:
                        rational(4) * _frame_pairing(u, v, w, _complement(t, n)))),
    Identity("E4.55", "half-line projection of the inverse symbol", _any, _run_e455),
    Identity("E4.56", "normal derivative of the inverse-power symbol", _any, _run_e456),
    Identity("E4.57", "boundary trace combination of the normal factor", _any,
             _trace_row(_boundary_inputs, to_clifford, lambda n, u, v, w, e:
                        normal_trace_combination(u, v, w) * _tr_id(n))),
    Identity("E4.60", "m-th derivative of the (1-m) inverse power at the pole mirror", _any, _run_e460),
    Identity("E4.61", "m-th derivative of the m-th inverse power at the pole mirror", _any, _run_e461),
    Identity("E4.62", "residue derivative closed form", _any, _run_e462),
    Identity("E4.63", "boundary density against the catalogued coefficient", _any, _run_e463),
    Identity("T4.5", "interior density, torsion-vector case", _any,
             _density_row(_torsion_inputs, _torsion_vector)),
    Identity("R4.7", "interior density vanishes for pure vector perturbation", _any, _run_r47),
    Identity("T4.8γ", "interior density vanishes for the grading perturbation", _any, _run_t48g),
    Identity("T4.10", "interior density, vector-grading case", _any,
             _density_row(_vector_inputs, lambda x, rng: VectorGrading(x))),
    Identity("T4.11n4", "interior density, grading-torsion case at n=4", lambda n: n == 4,
             _density_row(_grading_torsion_inputs, lambda t, rng: TorsionGrading(t))),
    Identity("T4.11n6", "interior density, grading-torsion case at n=6", lambda n: n == 6,
             _density_row(_grading_torsion_inputs, lambda t, rng: TorsionGrading(t))),
    Identity("T4.13", "interior plus boundary against the catalogued total", _any, _run_t413),
)


IDENTITY_IDS = tuple(ident.id for ident in CATALOG)


def verify_suite(spec: ManifoldSpec, seed: int | None = None,
                 trials: int = 5) -> list[IdentityComparison]:
    """Run every applicable catalog row at the given dimension.

    Never aborts on mismatch; each row carries its own flag, which its first
    mismatch decides.  That ends the row's trials, as does a trial that leaves
    the rng state unchanged: it drew no input, so every later one repeats it.
    """
    _check_spec(spec, "verify_suite")
    if seed is not None and type(seed) is not int:
        raise TypeError(f"seed must be None or an int, got {seed!r}")
    n = spec.dim
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    rows = []
    for ident in CATALOG:
        if not ident.applies(n):
            continue
        computed, reference, ok = ident.run(n, None)
        for _ in range(trials if ok else 0):
            state = rng.getstate()
            ok = ident.run(n, rng)[2]
            if not ok or rng.getstate() == state:
                break
        rows.append(IdentityComparison(ident.id, ident.description,
                                       computed, reference, ok))
    return rows
