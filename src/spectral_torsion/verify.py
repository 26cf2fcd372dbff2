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
    supertrace
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
    IdentityComparison,
    ManifoldSpec,
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
        weight = scalar_product(left, conjugate_sum(middle)) / rational(n)
    else:
        weight = -scalar_product(left, middle)
    return weight * _tr_id(n)


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


def _simple(computed: SymScalar, reference: SymScalar):
    return computed, reference, computed == reference


def _exact(computed, reference, atoms: tuple = ()):
    """A row of exact values in units of the monomial `atoms`, attached here."""
    return _simple(SymScalar.from_monomial(atoms, computed),
                   SymScalar.from_monomial(atoms, reference))


def _run_l43a(n, rng):
    u, v, w, y = _oneforms(n, rng, 1, 1, 2, 2)
    computed = scalar_product(frame_product(u, v, w, n), to_clifford(y)) * _tr_id(n)
    return _exact(computed, _frame_pairing(u, v, w, y) * _tr_id(n))


def _torsion_inputs(n, rng):
    u, v, w = _oneforms(n, rng, 1, 2, 3)
    return u, v, w, ThreeForm(n, {(1, 2, 3): 1}) if rng is None else rand_threeform(rng, n)


def _run_l43b(n, rng):
    u, v, w, t = _torsion_inputs(n, rng)
    computed = scalar_product(frame_product(u, v, w, n), to_clifford(t)) * _tr_id(n)
    return _exact(computed, eval_threeform(t, u, v, w) * _tr_id(n))


def _run_e417(n, rng):
    if rng is None:
        i = j = 1
    else:
        i, j = rng.randint(1, n), rng.randint(1, n)
    computed = moment(n, xi_monomial(n, i, j))
    reference = rational(1) / rational(n) if i == j else rational(0)
    return _exact(computed, reference, (vol_sphere(n - 1),))


def _run_e418(n, rng):
    u, v, w, y = _oneforms(n, rng, 1, 1, 2, 2)
    cuvw, cy = frame_product(u, v, w, n), to_clifford(y)
    computed = (_sphere_trace_integral(n, cuvw, cy, generator_first=False)
                + _sphere_trace_integral(n, cuvw, cy, generator_first=True))
    reference = -_frame_pairing(u, v, w, y) * _tr_id(n) / rational(n // 2)
    return _exact(computed, reference, (vol_sphere(n - 1),))


def _run_e419(n, rng):
    u, v, w, t = _torsion_inputs(n, rng)
    computed = _sphere_trace_integral(n, frame_product(u, v, w, n), to_clifford(t),
                                      generator_first=False)
    reference = -eval_threeform(t, u, v, w) * _tr_id(n)
    return _exact(computed, reference, (vol_sphere(n - 1),))


def _run_e420(n, rng):
    u, v, w, t = _torsion_inputs(n, rng)
    computed = _sphere_trace_integral(n, frame_product(u, v, w, n), to_clifford(t),
                                      generator_first=True)
    reference = rational(-5) * eval_threeform(t, u, v, w) * _tr_id(n)
    return _exact(computed, reference, (vol_sphere(n - 1),))


def _run_l49(n, rng):
    top_mask = (1 << n) - 1
    if rng is None:
        sub_mask = 1
    else:
        sub_mask = rng.randint(0, top_mask - 1)  # any grade < n blade
    computed = (supertrace(Multivector.blade(n, top_mask))
                + supertrace(Multivector.blade(n, sub_mask)))
    m = n // 2
    reference = rational(2 ** m) * (GR_ONE / i_power(m))
    return _exact(computed, reference)


def _run_e431(n, rng):
    u, v, w = _oneforms(n, rng, 1, 2, 3)
    sigma = sigma_minus2m(u, v, w, Grading(), n)
    computed_mv = mv_mul(sigma.left, sigma.terms.get(xi_monomial(n), Multivector.zero(n)))
    reference_mv = -mv_mul(frame_product(u, v, w, n), grading(n))
    # probe one blade coefficient for display; match over full multivectors
    probe_mask = next(iter(sorted(reference_mv.coeffs)), 0)
    return (sym(computed_mv.coeffs.get(probe_mask, GR_ZERO)),
            sym(reference_mv.coeffs.get(probe_mask, GR_ZERO)),
            computed_mv == reference_mv)


def _vector_inputs(n, rng):
    return _oneforms(n, rng, 1, 2, 3, n)


def _run_e434(n, rng):
    u, v, w, x = _vector_inputs(n, rng)
    computed = scalar_product(frame_product(u, v, w, n),
                              mv_mul(to_clifford(x), grading(n))) * _tr_id(n)
    pairing = eval_threeform(_complement(x, n), u, v, w)
    return _exact(computed, rational(-4) * pairing)


def _run_e436(n, rng):
    u, v, w, x = _vector_inputs(n, rng)
    cuvw = frame_product(u, v, w, n)
    cxg = mv_mul(to_clifford(x), grading(n))
    computed = _sphere_trace_integral(n, cuvw, cxg, generator_first=False)
    reference = -scalar_product(cuvw, cxg) * _tr_id(n)
    return _exact(computed, reference, (vol_sphere(n - 1),))


def _run_e437(n, rng):
    u, v, w, x = _vector_inputs(n, rng)
    cuvw = frame_product(u, v, w, n)
    cxg = mv_mul(to_clifford(x), grading(n))
    computed = _sphere_trace_integral(n, cuvw, cxg, generator_first=True)
    reference = scalar_product(cuvw, cxg) * _tr_id(n) * (rational(2 - n) / rational(n))
    return _exact(computed, reference, (vol_sphere(n - 1),))


def _grading_torsion_inputs(n, rng):
    if rng is not None:
        return _torsion_inputs(n, rng)
    if n == 4:
        return (*_oneforms(n, rng, 1, 1, 4), ThreeForm(n, {(1, 2, 3): 1}))
    return (*_oneforms(n, rng, 1, 2, 3),
            ThreeForm(n, {(4, 5, 6): 1}) if n >= 6 else ThreeForm.zero(n))


def _run_e439(n, rng):
    u, v, w, t = _grading_torsion_inputs(n, rng)
    computed = scalar_product(frame_product(u, v, w, n),
                              mv_mul(to_clifford(t), grading(n))) * _tr_id(n)
    pairing = eval_threeform(_complement(t, n), u, v, w)
    reference = rational(8) * (GR_ONE / i_power(3)) * pairing
    return _exact(computed, reference)


def _run_e441(n, rng):
    u, v, w, t = _grading_torsion_inputs(n, rng)
    cuvw = frame_product(u, v, w, n)
    ctg = mv_mul(to_clifford(t), grading(n))
    computed = _sphere_trace_integral(n, cuvw, ctg, generator_first=True)
    reference = scalar_product(cuvw, ctg) * _tr_id(n) * (rational(n - 6) / rational(n))
    return _exact(computed, reference, (vol_sphere(n - 1),))


def _run_e442(n, rng):
    u, v, w, t = _grading_torsion_inputs(n, rng)
    cuvw = frame_product(u, v, w, n)
    ctg = mv_mul(to_clifford(t), grading(n))
    computed = _sphere_trace_integral(n, cuvw, ctg, generator_first=False)
    reference = -scalar_product(cuvw, ctg) * _tr_id(n)
    return _exact(computed, reference, (vol_sphere(n - 1),))


def _run_e449(n, rng):
    u, v, w, t = _grading_torsion_inputs(n, rng)
    computed = scalar_product(frame_product(u, v, w, n),
                              mv_mul(to_clifford(t), grading(n))) * _tr_id(n)
    return _exact(computed, rational(4) * _frame_pairing(u, v, w, _complement(t, n)))


def _run_e455(n, rng):
    tangential, normal = half_inverse_symbol_components()
    ref_tan = XiRational(Poly((rational(1) / rational(2),)), {GR_I: 1})
    ref_nor = XiRational(Poly((GR_I * (rational(1) / rational(2)),)), {GR_I: 1})
    exact = (tangential == ref_tan and normal == ref_nor
             and pi_plus(tangential) == tangential)
    return (_probe(tangential) + _probe(normal),
            _probe(ref_tan) + _probe(ref_nor), exact)


def _run_e456(n, rng):
    m = n // 2
    inverse_power = XiRational(POLY_ONE, {GR_I: m - 1, -GR_I: m - 1})
    computed = inverse_power.derivative()
    reference = dxn_symbol(m)
    return _probe(computed), _probe(reference), computed == reference


def _boundary_inputs(n, rng):
    return _oneforms(n, rng, n, 1, 1)


def _run_e457(n, rng):
    u, v, w = _boundary_inputs(n, rng)
    computed = scalar_product(frame_product(u, v, w, n),
                              Multivector.generator(n, n)) * _tr_id(n)
    reference = normal_trace_combination(u, v, w) * _tr_id(n)
    return _exact(computed, reference)


def _run_e460(n, rng):
    m = n // 2
    computed = XiRational(POLY_ONE, {-GR_I: m - 1}).derivatives_at(GR_I, m)[m]
    sign = 1 if m % 2 == 0 else -1
    factor = sign * (math.factorial(2 * m - 2) // math.factorial(m - 2))
    reference = GaussianRational(0, 2) ** (1 - 2 * m) * factor
    return _exact(computed, reference)


def _run_e461(n, rng):
    m = n // 2
    computed = XiRational(Poly((GR_I,)), {-GR_I: m}).derivatives_at(GR_I, m)[m]
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
    u, v, w = _boundary_inputs(n, rng)
    computed = boundary_density(u, v, w, n)
    reference = theorem_boundary_value(u, v, w, n)
    return _simple(computed, reference)


def _run_t45(n, rng):
    u, v, w, t = _torsion_inputs(n, rng)
    y = OneForm.zero(n) if rng is None else rand_oneform(rng, n)
    case = TorsionVector(t, y)
    computed = interior_density(u, v, w, case, n)
    reference = theorem_value(case, u, v, w, ManifoldSpec(n))
    return _simple(computed, reference)


def _run_r47(n, rng):
    u, v, w, y = _oneforms(n, rng, 1, 2, 3, 1)
    case = TorsionVector(ThreeForm.zero(n), y)
    computed = interior_density(u, v, w, case, n)
    return _simple(computed, SymScalar.zero())


def _run_t48g(n, rng):
    u, v, w = _oneforms(n, rng, 1, 2, 3)
    computed = interior_density(u, v, w, Grading(), n)
    return _simple(computed, SymScalar.zero())


def _run_t410(n, rng):
    u, v, w, x = _vector_inputs(n, rng)
    case = VectorGrading(x)
    computed = interior_density(u, v, w, case, n)
    reference = theorem_value(case, u, v, w, ManifoldSpec(n))
    return _simple(computed, reference)


def _run_t411(n, rng):
    u, v, w, t = _grading_torsion_inputs(n, rng)
    case = TorsionGrading(t)
    computed = interior_density(u, v, w, case, n)
    reference = theorem_value(case, u, v, w, ManifoldSpec(n))
    return _simple(computed, reference)


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
    Identity("L4.3a", "four-factor trace against metric pairings", _any, _run_l43a),
    Identity("L4.3b", "trace of three one-forms against a 3-form", _any, _run_l43b),
    Identity("E4.17", "second sphere moment of the covariables", _any, _run_e417),
    Identity("E4.18", "sphere integral of the vector anticommutator trace", _any, _run_e418),
    Identity("E4.19", "sphere integral, 3-form right of the frame factor", _any, _run_e419),
    Identity("E4.20", "sphere integral, 3-form left of the frame factor", _any, _run_e420),
    Identity("L4.9", "supertrace: sub-top blades vanish, top blade value", _any, _run_l49),
    Identity("E4.31", "constant symbol term for the grading perturbation", _any, _run_e431),
    Identity("E4.34", "grading trace as a top wedge pairing (n=4)", lambda n: n == 4, _run_e434),
    Identity("E4.36", "sphere integral, vector-grading right of the frame factor", _any, _run_e436),
    Identity("E4.37", "sphere integral, vector-grading left of the frame factor", _any, _run_e437),
    Identity("E4.39", "grading-torsion trace as a top wedge pairing (n=6)", lambda n: n == 6, _run_e439),
    Identity("E4.41", "sphere integral, grading-torsion left of the frame factor", _any, _run_e441),
    Identity("E4.42", "sphere integral, grading-torsion right of the frame factor", _any, _run_e442),
    Identity("E4.49", "grading-torsion trace via metric pairings (n=4)", lambda n: n == 4, _run_e449),
    Identity("E4.55", "half-line projection of the inverse symbol", _any, _run_e455),
    Identity("E4.56", "normal derivative of the inverse-power symbol", _any, _run_e456),
    Identity("E4.57", "boundary trace combination of the normal factor", _any, _run_e457),
    Identity("E4.60", "m-th derivative of the (1-m) inverse power at the pole mirror", _any, _run_e460),
    Identity("E4.61", "m-th derivative of the m-th inverse power at the pole mirror", _any, _run_e461),
    Identity("E4.62", "residue derivative closed form", _any, _run_e462),
    Identity("E4.63", "boundary density against the catalogued coefficient", _any, _run_e463),
    Identity("T4.5", "interior density, torsion-vector case", _any, _run_t45),
    Identity("R4.7", "interior density vanishes for pure vector perturbation", _any, _run_r47),
    Identity("T4.8γ", "interior density vanishes for the grading perturbation", _any, _run_t48g),
    Identity("T4.10", "interior density, vector-grading case", _any, _run_t410),
    Identity("T4.11n4", "interior density, grading-torsion case at n=4", lambda n: n == 4, _run_t411),
    Identity("T4.11n6", "interior density, grading-torsion case at n=6", lambda n: n == 6, _run_t411),
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
