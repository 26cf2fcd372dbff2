"""Identity-verification catalog.

Every closed-form identity used on the way to the final torsion densities is
recomputed from first principles (blade algebra, exact sphere moments,
residue calculus) and compared against its catalogued reference value.
Mismatches are reported as data; only the final-theorem rows gate the
verify exit code.

Row ids are stable catalog keys.  The match flag is decided over TRIALS
randomized exact trials; the displayed computed/reference values come from a
fixed canonical input so tables are deterministic.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable

from .clifford import MAX_DIM, Multivector, _grading, _same_dim, _scale_grades, grading, \
    mv_mul, scalar_product, supertrace, trace
from .forms import OneForm, ThreeForm, _complement, eval_threeform, frame_product, \
    to_clifford
from .halfline import (
    POLY_ONE,
    POLY_X,
    Poly,
    XiRational,
    boundary_density,
    dxn_symbol,
    half_inverse_symbol_components,
    pi_plus,
)
from .moments import XiPolynomialMV, _grade_factors, moment, xi_monomial
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
from .symbols import Grading, TorsionGrading, TorsionVector, VectorGrading, sigma_minus2m
from .torsion import ManifoldSpec, _frame_pairing, spectral_torsion, theorem_boundary_value

DEFAULT_SEED = 20240810
TRIALS = 5  # randomized trials per row

# IDENTITY_IDS (every catalog key, in order) and FINAL_IDS are read off the catalog below.


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


def rand_threeform(rng: random.Random, n: int) -> ThreeForm:
    """A 3-form that keeps each component with probability 1/2."""
    comps = {}
    for a in range(1, n - 1):
        for b in range(a + 1, n):
            for c in range(b + 1, n + 1):
                if rng.random() < 0.5:
                    comps[(a, b, c)] = rand_rational(rng)
    return ThreeForm(n, comps)


def _sphere_trace_integral(left: Multivector, middle: Multivector,
                           positions: tuple[bool, ...]) -> GaussianRational:
    """Integral over |xi|=1 of Tr(left * c(e_i) * middle * xi_i c(xi)) summed over i
    (generator first, True) or Tr(left * middle * c(e_i) * xi_i c(xi)), summed over the
    positions, in units of vol(S^(n-1)): middle scaled by the grade factors of the
    module-level sphere symbols (_grade_factors' cache), traced against left."""
    _same_dim(left, left, Multivector)
    return sum(trace(left, _scale_grades(middle, *_grade_factors(
        left.dim, range(left.dim + 1), _SPHERE_SYMBOLS[position]))) for position in positions)


def _sphere_symbol(generator_first: bool, a: Multivector) -> XiPolynomialMV:
    """The symbol whose xi_i^2 terms are c(e_i) A c(e_i), or A c(e_i) c(e_i);
    its xi_i xi_j terms (i != j) integrate to 0 (E4.17)."""
    n = a.dim
    generators = {xi_monomial(n, i, i): Multivector.generator(n, i) for i in range(1, n + 1)}
    return XiPolynomialMV(n, {expo: mv_mul(g, mv_mul(a, g)) if generator_first
                              else mv_mul(a, mv_mul(g, g)) for expo, g in generators.items()})


_SPHERE_SYMBOLS = functools.partial(_sphere_symbol, False), functools.partial(_sphere_symbol, True)


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
    dims: range | tuple[int, ...]  # the even dimensions the row runs at
    run: Callable[[int, random.Random | None], tuple[SymScalar, SymScalar, bool]]
    final: bool = False  # a final-theorem row, which gates the verify exit code


@dataclass(frozen=True)
class IdentityComparison:
    """One row of the verification ledger: computed vs catalogued value."""

    id: str
    description: str
    computed: SymScalar
    reference: SymScalar
    matches: bool


def _in_units(computed, reference, atoms: tuple = ()):
    """A row of exact values in units of the monomial `atoms`, attached here."""
    computed, reference = (SymScalar.from_monomial(atoms, x) for x in (computed, reference))
    return computed, reference, computed == reference


def _trace_row(inputs, middle, base):
    """A row comparing tr(C M), C = c(u)c(v)c(w) and M = middle(x) for the inputs
    (u, v, w, x), with tr(1) = 2^m times base(u, v, w, x, C, M), a closed form of
    <C M>_0.  The base is never _witness: that would compare the trace with itself."""
    def run(n, rng):
        u, v, w, x = inputs(n, rng)
        cuvw, right = frame_product(u, v, w), middle(x)
        return _in_units(trace(cuvw, right), base(u, v, w, x, cuvw, right) * 2 ** (n // 2))
    return run


def _sphere_row(inputs, middle, positions, weight, base):
    """A row comparing `_sphere_trace_integral` of C = c(u)c(v)c(w) and M = middle(x) at
    the positions with weight(n) * base(u, v, w, x, C, M) * 2^m, in units of vol(S^(n-1))."""
    def run(n, rng):
        u, v, w, x = inputs(n, rng)
        cuvw, right = frame_product(u, v, w), middle(x)
        computed = _sphere_trace_integral(cuvw, right, positions)
        reference = base(u, v, w, x, cuvw, right) * 2 ** (n // 2) * weight(n)
        return _in_units(computed, reference, (vol_sphere(n - 1),))
    return run


def _density_row(inputs, case, with_boundary=False):
    """A row comparing spectral_torsion's total on the perturbation case(x, rng)
    with its catalogued theorem value; the case draws after the inputs."""
    def run(n, rng):
        u, v, w, x = inputs(n, rng)
        report = spectral_torsion(case(x, rng), u, v, w, ManifoldSpec(n, with_boundary))
        return report.total, report.theorem_value, report.matches_theorem
    return run


def _pole_row(numer, k):
    """A row comparing the m-th derivative of numer/(x+i)^(m-k) at x = i with
    (-1)^m (2m-1-k)!/(m-1-k)! (2i)^(k-2m)."""
    def run(n, rng):
        m = n // 2
        computed = XiRational(numer, down=m - k).derivatives_at(GR_I, m)[m]
        sign = 1 if m % 2 == 0 else -1
        factor = sign * (math.factorial(2 * m - 1 - k) // math.factorial(m - 1 - k))
        return _in_units(computed, GaussianRational(0, 2) ** (k - 2 * m) * factor)
    return run


def _graded(x) -> Multivector:
    """c(x) times the grading, for a one-form or 3-form x."""
    return mv_mul(to_clifford(x), grading(x.dim))


def _threeform_at(u, v, w, t, cuvw, middle):  # T(u, v, w): <c(u)c(v)c(w) c(T)>_0 by L4.3b
    return eval_threeform(t, u, v, w)


def _witness(u, v, w, x, cuvw, middle):  # <c(u)c(v)c(w) M>_0 of the integrand's own factors
    return scalar_product(cuvw, middle)


def _pairing(u, v, w, y, cuvw, middle):  # <c(u)c(v)c(w)c(y)>_0 by L4.3a
    return _frame_pairing(u, v, w, y)


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
    return *_oneforms(n, rng, 1, 2, 3), ThreeForm(n, {(4, 5, 6): 1})


def _boundary_inputs(n, rng):
    """(u, v, w) and the normal covector e_n."""
    return (*_oneforms(n, rng, n, 1, 1), OneForm.basis(n, n))


def _torsion_vector(t, rng):
    """(T, Y) with Y drawn after T, or Y = 0 on the canonical input."""
    return TorsionVector(t, OneForm((0,) * t.dim) if rng is None else rand_oneform(rng, t.dim))


def _boundary_torsion_vector(normal, rng):
    """(T, Y) with Y drawn before T, or (e_123, 0) on the canonical input."""
    n = normal.dim
    if rng is None:
        return TorsionVector(ThreeForm(n, {(1, 2, 3): 1}), OneForm((0,) * n))
    y = rand_oneform(rng, n)
    return TorsionVector(rand_threeform(rng, n), y)


def _run_e417(n, rng):
    if rng is None:
        i = j = 1
    else:
        i, j = rng.randint(1, n), rng.randint(1, n)
    computed = moment(n, xi_monomial(n, i, j))
    reference = rational(1) / rational(n) if i == j else rational(0)
    return _in_units(computed, reference, (vol_sphere(n - 1),))


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
    return _in_units(computed, reference)


def _run_e431(n, rng):
    cuvw = frame_product(*_oneforms(n, rng, 1, 2, 3))
    constant = sigma_minus2m(grading(n)).terms.get(xi_monomial(n), Multivector(n))
    # the reference is C times i^2 grading(n) = -grading(n)
    computed_mv, reference_mv = mv_mul(cuvw, constant), mv_mul(cuvw, _grading(n, 2))
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


def _run_e462(n, rng):
    m = n // 2
    computed = XiRational(POLY_X, down=m).derivatives_at(GR_I, m)[m]  # of x/(x+i)^m
    reference = (GaussianRational(0, -1)
                 * rational(math.factorial(2 * m - 2))
                 / rational(math.factorial(m - 1) * 2 ** (2 * m)))
    return _in_units(computed, reference)


def _run_e463(n, rng):
    u, v, w, _ = _boundary_inputs(n, rng)
    computed, reference = boundary_density(u, v, w), theorem_boundary_value(u, v, w)
    return computed, reference, computed == reference


_ALL_N = range(4, MAX_DIM + 1, 2)

CATALOG: tuple[Identity, ...] = (
    Identity("L4.3a", "four-factor trace against metric pairings", _ALL_N,
             _trace_row(_pairing_inputs, to_clifford, _pairing)),
    Identity("L4.3b", "trace of three one-forms against a 3-form", _ALL_N,
             _trace_row(_torsion_inputs, to_clifford, _threeform_at)),
    Identity("E4.17", "second sphere moment of the covariables", _ALL_N, _run_e417),
    Identity("E4.18", "sphere integral of the vector anticommutator trace", _ALL_N,
             _sphere_row(_pairing_inputs, to_clifford, (False, True), lambda n: Rational(-2, n),
                         _pairing)),
    Identity("E4.19", "sphere integral, 3-form right of the frame factor", _ALL_N,
             _sphere_row(_torsion_inputs, to_clifford, (False,), lambda n: -1, _threeform_at)),
    Identity("E4.20", "sphere integral, 3-form left of the frame factor", _ALL_N,
             _sphere_row(_torsion_inputs, to_clifford, (True,), lambda n: -5, _threeform_at)),
    Identity("L4.9", "supertrace: sub-top blades vanish, top blade value", _ALL_N, _run_l49),
    Identity("E4.31", "constant symbol term for the grading perturbation", _ALL_N, _run_e431),
    Identity("E4.34", "grading trace as a top wedge pairing (n=4)", (4,),
             _trace_row(_vector_inputs, _graded, lambda u, v, w, x, *_:  # -4 = -tr(1)
                        -eval_threeform(_complement(x), u, v, w))),
    Identity("E4.36", "sphere integral, vector-grading right of the frame factor", _ALL_N,
             _sphere_row(_vector_inputs, _graded, (False,), lambda n: -1, _witness)),
    Identity("E4.37", "sphere integral, vector-grading left of the frame factor", _ALL_N,
             _sphere_row(_vector_inputs, _graded, (True,), lambda n: Rational(2 - n, n),
                         _witness)),
    Identity("E4.39", "grading-torsion trace as a top wedge pairing (n=6)", (6,),
             _trace_row(_grading_torsion_inputs, _graded, lambda u, v, w, t, *_:  # 8/i^3 = i tr(1)
                        GR_I * eval_threeform(_complement(t), u, v, w))),
    Identity("E4.41", "sphere integral, grading-torsion left of the frame factor", _ALL_N,
             _sphere_row(_grading_torsion_inputs, _graded, (True,), lambda n: Rational(n - 6, n),
                         _witness)),
    Identity("E4.42", "sphere integral, grading-torsion right of the frame factor", _ALL_N,
             _sphere_row(_grading_torsion_inputs, _graded, (False,), lambda n: -1, _witness)),
    Identity("E4.49", "grading-torsion trace via metric pairings (n=4)", (4,),
             _trace_row(_grading_torsion_inputs, _graded, lambda u, v, w, t, *_:  # 4 = tr(1)
                        _frame_pairing(u, v, w, _complement(t)))),
    Identity("E4.55", "half-line projection of the inverse symbol", _ALL_N, _run_e455),
    Identity("E4.56", "normal derivative of the inverse-power symbol", _ALL_N, _run_e456),
    Identity("E4.57", "boundary trace combination of the normal factor", _ALL_N,
             _trace_row(_boundary_inputs, to_clifford, _pairing)),
    Identity("E4.60", "m-th derivative of the (1-m) inverse power at the pole mirror", _ALL_N,
             _pole_row(POLY_ONE, 1)),
    Identity("E4.61", "m-th derivative of the m-th inverse power at the pole mirror", _ALL_N,
             _pole_row(Poly((GR_I,)), 0)),
    Identity("E4.62", "residue derivative closed form", _ALL_N, _run_e462),
    Identity("E4.63", "boundary density against the catalogued coefficient", _ALL_N, _run_e463),
    Identity("T4.5", "interior density, torsion-vector case", _ALL_N,
             _density_row(_torsion_inputs, _torsion_vector), final=True),
    Identity("R4.7", "interior density vanishes for pure vector perturbation", _ALL_N,
             _density_row(lambda n, rng: _oneforms(n, rng, 1, 2, 3, 1),
                          lambda y, rng: TorsionVector(ThreeForm(y.dim), y)), final=True),
    Identity("T4.8γ", "interior density vanishes for the grading perturbation", _ALL_N,
             _density_row(lambda n, rng: (*_oneforms(n, rng, 1, 2, 3), None),
                          lambda x, rng: Grading()), final=True),
    Identity("T4.10", "interior density, vector-grading case", _ALL_N,
             _density_row(_vector_inputs, lambda x, rng: VectorGrading(x)), final=True),
    Identity("T4.11n4", "interior density, grading-torsion case at n=4", (4,),
             _density_row(_grading_torsion_inputs, lambda t, rng: TorsionGrading(t)), final=True),
    Identity("T4.11n6", "interior density, grading-torsion case at n=6", (6,),
             _density_row(_grading_torsion_inputs, lambda t, rng: TorsionGrading(t)), final=True),
    Identity("T4.13", "interior plus boundary against the catalogued total", _ALL_N,
             _density_row(_boundary_inputs, _boundary_torsion_vector, with_boundary=True)),
)


IDENTITY_IDS = tuple(ident.id for ident in CATALOG)
FINAL_IDS = tuple(ident.id for ident in CATALOG if ident.final)


def verify_suite(n: int, seed: int | None = None) -> list[IdentityComparison]:
    """Run every catalog row that runs at the even dimension n.

    Never aborts on mismatch; each row carries its own flag, which its first
    mismatch decides.  That ends the row's trials, as does a first trial that
    leaves the rng state unchanged: it drew no input, so every later one
    repeats it.
    """
    ManifoldSpec(n)  # the one dimension rule, and its message
    if seed is not None and type(seed) is not int:
        raise TypeError(f"seed must be None or an int, got {seed!r}")
    # a negative seed as its signed bytes: random.Random(-s) would repeat random.Random(s)
    rng = random.Random(DEFAULT_SEED if seed is None else seed if seed >= 0
                        else seed.to_bytes(seed.bit_length() // 8 + 1, "little", signed=True))
    rows = []
    for ident in CATALOG:
        if n not in ident.dims:
            continue
        computed, reference, ok = ident.run(n, None)
        state = rng.getstate()
        for trial in range(TRIALS if ok else 0):
            ok = ident.run(n, rng)[2]
            if not ok or trial == 0 and rng.getstate() == state:
                break
        rows.append(IdentityComparison(ident.id, ident.description,
                                       computed, reference, ok))
    return rows
