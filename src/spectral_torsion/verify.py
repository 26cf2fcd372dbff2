"""Identity-verification catalog.

Every closed-form identity used on the way to the final torsion densities is
recomputed from first principles (blade algebra, exact sphere moments,
residue calculus) and compared against its catalogued reference value.
Mismatches are reported as data; only the final-theorem rows gate the
verify exit code.

Each row is a `_Row(draw, computed, reference, show)`: its random draws, its two
exact values by independent routes from the drawn inputs, and its displayed
values and flag.  The tests pin the package functions that the two sides share.

Row ids are stable catalog keys.  The match flag is decided over TRIALS
randomized exact trials; the displayed computed/reference values come from a
fixed canonical input so tables are deterministic.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

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
from .symbols import Grading, TorsionGrading, TorsionVector, VectorGrading, interior_density, \
    sigma_minus2m
from .torsion import ManifoldSpec, _frame_pairing, theorem_boundary_value, theorem_value

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

# Per sphere row, at n: generator positions (True: first), middle grade, catalogued weight
_SPHERE_WEIGHTS = {
    "E4.18": ((False, True), lambda n: 1, lambda n: Rational(-2, n)),
    "E4.19": ((False,), lambda n: 3, lambda n: -1),
    "E4.20": ((True,), lambda n: 3, lambda n: -5),
    "E4.36": ((False,), lambda n: n - 1, lambda n: -1),
    "E4.37": ((True,), lambda n: n - 1, lambda n: Rational(2 - n, n)),
    "E4.41": ((True,), lambda n: n - 3, lambda n: Rational(n - 6, n)),
    "E4.42": ((False,), lambda n: n - 3, lambda n: -1),
}


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


def _in_units(n, computed, reference, atoms=()):
    """Exact values in units of the monomial `atoms`, attached here."""
    computed, reference = (SymScalar.from_monomial(atoms, x) for x in (computed, reference))
    return computed, reference, computed == reference


def _on_sphere(n, computed, reference):  # in units of vol(S^(n-1))
    return _in_units(n, computed, reference, (vol_sphere(n - 1),))


def _as_is(n, computed, reference):
    return computed, reference, computed == reference


class _Row(NamedTuple):
    """A row's run in parts: draw(n, rng) gives the inputs, the canonical ones when
    rng is None, computed(*inputs) and reference(*inputs) the two exact values,
    and show(n, computed, reference) the displayed values and the flag."""

    draw: Callable
    computed: Callable
    reference: Callable
    show: Callable = _in_units

    def __call__(self, n, rng):
        inputs = self.draw(n, rng)
        return self.show(n, self.computed(*inputs), self.reference(*inputs))


def _frame_draw(inputs, middle):
    """The inputs (u, v, w, x), then C = c(u)c(v)c(w) and M = middle(x), built once."""
    def draw(n, rng):
        u, v, w, x = inputs(n, rng)
        return u, v, w, x, frame_product(u, v, w), middle(x)
    return draw


def _trace_row(inputs, middle, base):
    """A row comparing tr(C M) with 2^m times the closed form base(u, v, w, x) of <C M>_0."""
    return _Row(_frame_draw(inputs, middle), lambda u, v, w, x, cuvw, right: trace(cuvw, right),
                lambda u, v, w, x, *_: base(u, v, w, x) * 2 ** (u.dim // 2))


def _sphere_row(row_id, inputs, middle, base=None):
    """A row comparing `_sphere_trace_integral` of C and M of _frame_draw at the row's
    positions with its weight(n) * 2^m times base(u, v, w, x), a closed form of <C M>_0,
    or without a base the witness scalar_product(C, M) of the integrand's own factors."""
    positions, _, weight = _SPHERE_WEIGHTS[row_id]
    return _Row(_frame_draw(inputs, middle),
                lambda u, v, w, x, cuvw, right: _sphere_trace_integral(cuvw, right, positions),
                lambda u, v, w, x, cuvw, right: (scalar_product(cuvw, right) if base is None
                                                 else base(u, v, w, x))
                * 2 ** (u.dim // 2) * weight(u.dim),
                _on_sphere)


def _density_row(inputs, case, with_boundary=False):
    """A row comparing the interior density (plus the boundary's with_boundary) on the
    perturbation case(x, rng), drawn after the inputs, with its theorem value."""
    def draw(n, rng):
        u, v, w, x = inputs(n, rng)
        return u, v, w, case(x, rng), ManifoldSpec(n, with_boundary)
    return _Row(draw, lambda u, v, w, case, spec: interior_density(u, v, w, case)
                + (boundary_density(u, v, w) if with_boundary else SymScalar()),
                lambda u, v, w, case, spec: theorem_value(case, u, v, w, spec), _as_is)


def _half_dim(n, rng):
    return n // 2,


def _pole_row(numer, k):
    """A row comparing the m-th derivative of numer/(x+i)^(m-k) at x = i with
    (-1)^m (2m-1-k)!/(m-1-k)! (2i)^(k-2m)."""
    return _Row(_half_dim, lambda m: XiRational(numer, down=m - k).derivatives_at(GR_I, m)[m],
                lambda m: GaussianRational(0, 2) ** (k - 2 * m)
                * ((-1) ** m * (math.factorial(2 * m - 1 - k) // math.factorial(m - 1 - k))))


def _threeform_at(u, v, w, t):  # T(u, v, w): <c(u)c(v)c(w) c(T)>_0 by L4.3b
    return eval_threeform(t, u, v, w)


def _graded(x) -> Multivector:
    """c(x) times the grading, for a one-form or 3-form x."""
    return mv_mul(to_clifford(x), grading(x.dim))


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


def _blade_probe(n, computed, reference):
    """One blade coefficient for display; the flag compares the full multivectors."""
    mask = min(reference.coeffs, default=0)
    return (sym(computed.coeffs.get(mask, GR_ZERO)), sym(reference.coeffs.get(mask, GR_ZERO)),
            computed == reference)


def _projected_components():
    """The half inverse symbol's (tangential, normal) and pi_plus of the tangential."""
    tangential, normal = half_inverse_symbol_components()
    return tangential, normal, pi_plus(tangential)


_ALL_N = range(4, MAX_DIM + 1, 2)

CATALOG: tuple[Identity, ...] = (
    Identity("L4.3a", "four-factor trace against metric pairings", _ALL_N,
             _trace_row(_pairing_inputs, to_clifford, _frame_pairing)),
    Identity("L4.3b", "trace of three one-forms against a 3-form", _ALL_N,
             _trace_row(_torsion_inputs, to_clifford, _threeform_at)),
    Identity("E4.17", "second sphere moment of the covariables", _ALL_N, _Row(
        lambda n, rng: (n, 1, 1) if rng is None else (n, rng.randint(1, n), rng.randint(1, n)),
        lambda n, i, j: moment(n, xi_monomial(n, i, j)),
        lambda n, i, j: rational(1) / rational(n) if i == j else rational(0), _on_sphere)),
    Identity("E4.18", "sphere integral of the vector anticommutator trace", _ALL_N,
             _sphere_row("E4.18", _pairing_inputs, to_clifford, _frame_pairing)),
    Identity("E4.19", "sphere integral, 3-form right of the frame factor", _ALL_N,
             _sphere_row("E4.19", _torsion_inputs, to_clifford, _threeform_at)),
    Identity("E4.20", "sphere integral, 3-form left of the frame factor", _ALL_N,
             _sphere_row("E4.20", _torsion_inputs, to_clifford, _threeform_at)),
    Identity("L4.9", "supertrace: sub-top blades vanish, top blade value", _ALL_N, _Row(
        lambda n, rng: (n, 1 if rng is None else rng.randint(0, (1 << n) - 2)),  # grade < n
        lambda n, sub_mask: (supertrace(Multivector(n, {(1 << n) - 1: 1}))
                             + supertrace(Multivector(n, {sub_mask: 1}))),
        lambda n, _: rational(2 ** (n // 2)) * (GR_ONE / i_power(n // 2)))),
    Identity("E4.31", "constant symbol term for the grading perturbation", _ALL_N, _Row(
        lambda n, rng: (n, frame_product(*_oneforms(n, rng, 1, 2, 3))),
        lambda n, cuvw: mv_mul(cuvw, sigma_minus2m(grading(n)).terms.get(xi_monomial(n),
                                                                           Multivector(n))),
        lambda n, cuvw: mv_mul(cuvw, _grading(n, 2)), _blade_probe)),  # C times i^2 grading(n)
    Identity("E4.34", "grading trace as a top wedge pairing (n=4)", (4,),
             _trace_row(_vector_inputs, _graded, lambda u, v, w, x:  # -4 = -tr(1)
                        -eval_threeform(_complement(x), u, v, w))),
    Identity("E4.36", "sphere integral, vector-grading right of the frame factor", _ALL_N,
             _sphere_row("E4.36", _vector_inputs, _graded)),
    Identity("E4.37", "sphere integral, vector-grading left of the frame factor", _ALL_N,
             _sphere_row("E4.37", _vector_inputs, _graded)),
    Identity("E4.39", "grading-torsion trace as a top wedge pairing (n=6)", (6,),
             _trace_row(_grading_torsion_inputs, _graded, lambda u, v, w, t:  # 8/i^3 = i tr(1)
                        GR_I * eval_threeform(_complement(t), u, v, w))),
    Identity("E4.41", "sphere integral, grading-torsion left of the frame factor", _ALL_N,
             _sphere_row("E4.41", _grading_torsion_inputs, _graded)),
    Identity("E4.42", "sphere integral, grading-torsion right of the frame factor", _ALL_N,
             _sphere_row("E4.42", _grading_torsion_inputs, _graded)),
    Identity("E4.49", "grading-torsion trace via metric pairings (n=4)", (4,),
             _trace_row(_grading_torsion_inputs, _graded, lambda u, v, w, t:  # 4 = tr(1)
                        _frame_pairing(u, v, w, _complement(t)))),
    Identity("E4.55", "half-line projection of the inverse symbol", _ALL_N, _Row(
        lambda n, rng: (), _projected_components,  # (1/2)/(x+i), (i/2)/(x+i), the first again
        lambda: tuple(XiRational(Poly((c / 2,)), up=1) for c in (GR_ONE, GR_I, GR_ONE)),
        lambda n, c, r: (_probe(c[0]) + _probe(c[1]), _probe(r[0]) + _probe(r[1]), c == r))),
    Identity("E4.56", "normal derivative of the inverse-power symbol", _ALL_N, _Row(
        _half_dim, lambda m: XiRational(POLY_ONE, m - 1, m - 1).derivative(), dxn_symbol,
        lambda n, c, r: (_probe(c), _probe(r), c == r))),
    Identity("E4.57", "boundary trace combination of the normal factor", _ALL_N,
             _trace_row(_boundary_inputs, to_clifford, _frame_pairing)),
    Identity("E4.60", "m-th derivative of the (1-m) inverse power at the pole mirror", _ALL_N,
             _pole_row(POLY_ONE, 1)),
    Identity("E4.61", "m-th derivative of the m-th inverse power at the pole mirror", _ALL_N,
             _pole_row(Poly((GR_I,)), 0)),
    Identity("E4.62", "residue derivative closed form", _ALL_N, _Row(
        _half_dim, lambda m: XiRational(POLY_X, down=m).derivatives_at(GR_I, m)[m],  # x/(x+i)^m
        lambda m: (GaussianRational(0, -1) * rational(math.factorial(2 * m - 2))
                   / rational(math.factorial(m - 1) * 2 ** (2 * m))))),
    Identity("E4.63", "boundary density against the catalogued coefficient", _ALL_N, _Row(
        _boundary_inputs, lambda u, v, w, _: boundary_density(u, v, w),
        lambda u, v, w, _: theorem_boundary_value(u, v, w), _as_is)),
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
