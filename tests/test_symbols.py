"""Interior symbol engine: perturbation symbols and densities.

The matrix-representation density oracle in conftest recomputes every
density on literal matrices, which is what settles the catalogued n=4
grading-torsion value (the pipeline's 0 is confirmed, the catalogued
nonzero closed form is not).
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
import sys
import time
from pathlib import Path

import pytest

from spectral_torsion import (
    DimensionMismatch,
    Grading,
    Multivector,
    OddDimension,
    OneForm,
    ThreeForm,
    TorsionGrading,
    TorsionVector,
    VectorGrading,
    boundary_density,
    frame_product,
    grading,
    interior_density,
    mv_mul,
    rational,
    scalar_product,
    sigma_minus2m,
    spectral_torsion,
    sym,
    theorem_value,
    to_clifford,
    trace,
    vol_sphere,
    ManifoldSpec,
)
from spectral_torsion import forms, halfline, moments, symbols, verify
from spectral_torsion.clifford import _from_int_parts
from spectral_torsion.moments import XiPolynomialMV, integrate_sphere, xi_monomial
from spectral_torsion.scalars import GR_I, GaussianRational, Rational, SymScalar, TR_F_PHI

from conftest import coprime_draw, density_via_matrix_rep, integrate_sphere_reference, \
    long_input, perturbation_multivector_reference, rand_multivector, rand_oneform, \
    rand_rational, rand_threeform, sigma_minus2m_reference, symbol_trace_reference


def basis(n, i):
    return OneForm.basis(n, i)


def uvw(n):
    return basis(n, 1), basis(n, 2), basis(n, 3)


# -- the perturbation B --------------------------------------------------------


def test_perturbation_grading_n4():
    assert perturbation_multivector_reference(Grading(), 4) == \
        Multivector(4, {0b1111: -1})


def test_perturbation_pure_vector():
    case = TorsionVector(ThreeForm(4), basis(4, 1))
    assert perturbation_multivector_reference(case, 4) == Multivector(4, {0b1: GR_I})


def test_perturbation_vector_grading():
    case = VectorGrading(basis(4, 1))
    expected = mv_mul(Multivector.generator(4, 1), grading(4))
    assert perturbation_multivector_reference(case, 4) == expected


def test_case_fields_are_read_off_the_case_dataclasses():
    """Each case's (field, form type) pairs, in declaration order, as classes."""
    assert symbols._CASE_FIELDS == {
        TorsionVector: (("T", ThreeForm), ("Y", OneForm)),
        Grading: (),
        VectorGrading: (("X", OneForm),),
        TorsionGrading: (("T", ThreeForm),),
    }
    assert list(symbols._CASE_FIELDS) == list(symbols.CASE_NAMES.values())


def test_perturbation_dim_checked():
    """X, T and Y are checked against n = u.dim with the forms' one
    same-dimension message."""
    u = basis(6, 1)
    for case in (VectorGrading(basis(4, 1)), TorsionGrading(ThreeForm(4)),
                 TorsionVector(ThreeForm(6), basis(4, 1))):
        with pytest.raises(DimensionMismatch, match=r"^dim 4 vs 6$"):
            interior_density(u, u, u, case)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", ["small", "coprime"])
def test_perturbation_multivector_matches_the_fraction_oracle(kind, n, monkeypatch):
    """The B that interior_density builds as integer parts, before it weights
    it, is the grade-3 part of B built coefficient by coefficient
    (conftest.perturbation_multivector_reference), by value and printed
    form, on all four cases; grade 1 has weight 0 and is not built, and
    where B has no grade-3 blade nothing is.  From n = 6 the coprime
    denominators split c(T) into several runs."""
    rng = random.Random(f"perturbation-{kind}-{n}")
    draw = coprime_draw(rng, digits=100) if kind == "coprime" else lambda: rand_rational(rng)
    x, y = (OneForm(tuple(draw() for _ in range(n))) for _ in range(2))
    t = ThreeForm(n, {abc: draw() for abc in itertools.combinations(range(1, n + 1), 3)})
    built, scale = [], symbols._scale_grades
    monkeypatch.setattr(symbols, "_scale_grades",
                        lambda b, *args: built.append(b) or scale(b, *args))
    for case in (TorsionVector(t, y), Grading(), VectorGrading(x), TorsionGrading(t)):
        built.clear()
        interior_density(*uvw(n), case)
        expected = Multivector(n, {mask: c for mask, c in
                                   perturbation_multivector_reference(case, n).coeffs.items()
                                   if mask.bit_count() == 3})
        assert len(built) == (not expected.is_zero()), type(case).__name__
        for got in built:
            if kind == "coprime" and n > 4 and isinstance(case, TorsionVector):
                assert "parts" in long_input(got)
            assert got == expected and str(got) == str(expected)


# -- symbol assembly -------------------------------------------------------------


def test_sigma_grading_reduces_to_constant_term():
    n = 4
    sigma = sigma_minus2m(perturbation_multivector_reference(Grading(), n))
    cuvw = mv_mul(mv_mul(Multivector.generator(n, 1), Multivector.generator(n, 2)),
                  Multivector.generator(n, 3))
    assert {expo: mv_mul(cuvw, mv) for expo, mv in sigma.terms.items()} == \
        {xi_monomial(n): mv_mul(cuvw, grading(n))}


def test_sigma_torsion_vector_constant_term(rng):
    n = 4
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    t, y = rand_threeform(rng, n), rand_oneform(rng, n)
    case = TorsionVector(t, y)
    sigma = sigma_minus2m(perturbation_multivector_reference(case, n))
    cuvw = mv_mul(mv_mul(to_clifford(u), to_clifford(v)), to_clifford(w))
    expected = mv_mul(cuvw, perturbation_multivector_reference(case, n))
    got = mv_mul(cuvw, sigma.terms.get(xi_monomial(n), Multivector(n)))
    assert got == expected


def test_sigma_zero_inputs(monkeypatch):
    """A zero perturbation gives a symbol with no terms, and catalog row
    E4.31, which multiplies the constant term by C, still runs when a zero
    one-form makes C zero (both sides are 0)."""
    n = 4
    z = OneForm((0,) * n)
    rng = random.Random(3)
    sigma = sigma_minus2m(perturbation_multivector_reference(TorsionVector(ThreeForm(n), z), n))
    assert sigma.is_zero() and sigma.terms == {}
    monkeypatch.setattr(verify, "_oneforms", lambda n, rng, *canonical: (z,) * len(canonical))
    e431, = (ident for ident in verify.CATALOG if ident.id == "E4.31")
    assert e431.run(n, rng) == (sym(0), sym(0), True)


def test_sigma_degree_structure(rng):
    # only xi-degree 0 and 2 monomials occur; odd-degree terms never survive
    n = 6
    case = TorsionVector(rand_threeform(rng, n), rand_oneform(rng, n))
    sigma = sigma_minus2m(perturbation_multivector_reference(case, n))
    assert {sum(e) for e in sigma.terms} <= {0, 2}


def _sigma_cases(kind, n, rng):
    """Perturbation cases of one kind, over all four cases."""
    if kind == "sparse":
        # basis and zero one-forms: B_i vanishes for some i (for c(e_1) Gamma
        # at i = 1, for a single 3-form blade outside it), or B is zero
        e, z = (lambda i: OneForm.basis(n, i)), OneForm((0,) * n)
        t = ThreeForm(n, {(1, 2, 4): rational(2)})
        return [TorsionVector(t, e(n)), TorsionVector(t, z), VectorGrading(e(1)),
                TorsionGrading(t), TorsionVector(ThreeForm(n), z), VectorGrading(z),
                Grading()]
    if kind == "coprime":
        # pairwise-coprime denominators long enough to split B into runs
        draw = coprime_draw(rng, digits=100 if n == 4 else 50)
        x, y = (OneForm(tuple(draw() for _ in range(n))) for _ in range(2))
        t = ThreeForm(n, {abc: draw() for abc in itertools.combinations(range(1, n + 1), 3)})
    else:
        x, y = (rand_oneform(rng, n) for _ in range(2))
        t = rand_threeform(rng, n)
    return [TorsionVector(t, y), Grading(), VectorGrading(x), TorsionGrading(t)]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sigma_matches_generator_products(n, rng):
    """The one-pass build over B's blades gives the even terms of the symbol
    multiplied out by generator products, term for term and in the same
    monomial order, on dense, sparse and multi-run perturbations and, at
    n = 4 and 6, on every single blade of every grade; the terms it leaves
    off integrate to exactly 0 on each of these inputs.  The even grades
    matter too: row E4.31 takes the symbol of grading(n), and the xi_a^2
    term of an even blade keeps it when the blade lacks e_a."""
    coprime = _sigma_cases("coprime", n, rng)
    assert "parts" in long_input(perturbation_multivector_reference(coprime[0], n))
    bs = [perturbation_multivector_reference(case, n) for case in
          _sigma_cases("dense", n, rng) + _sigma_cases("sparse", n, rng) + coprime]
    if n <= 6:
        coeff = GaussianRational(rational("2/3"), rational("-5"))
        bs += [Multivector(n, {mask: coeff}) for mask in range(1 << n)]
    for b in bs:
        got = sigma_minus2m(b)
        full = sigma_minus2m_reference(b).terms
        even = {expo: mv for expo, mv in full.items() if not any(e % 2 for e in expo)}
        assert got.terms == even
        assert list(got.terms) == list(even)
        dropped = XiPolynomialMV(n, {expo: full[expo] for expo in full.keys() - even.keys()})
        assert integrate_sphere_reference(n, dropped).is_zero()


def test_sigma_skips_stored_zero_numerators():
    """B's stored parts hold an explicit zero on e_1, the only blade that
    commutes with c(e_1), so B_1 is zero and the symbol has no xi_1^2 term:
    its terms are the constant B, xi_2^2 and xi_3^2.  With e_2 e_3 added,
    which commutes with c(e_1) too, the xi_1^2 term holds it alone: no term
    stores the zero."""
    n = 4
    b = _from_int_parts(n, [(1, {0b0001: (0, 0), 0b0010: (1, 0)}), (3, {0b0100: (2, 1)})])
    got = sigma_minus2m(b)
    assert list(got.terms) == [xi_monomial(n), xi_monomial(n, 2, 2), xi_monomial(n, 3, 3)]
    assert got.terms[xi_monomial(n, 2, 2)] == Multivector(n, {0b0010: -n})
    assert got.terms[xi_monomial(n, 3, 3)] == Multivector(
        n, {0b0100: GaussianRational(rational("-8/3"), rational("-4/3"))})
    b = _from_int_parts(n, [(1, {0b0001: (0, 0), 0b0110: (1, 0)})])
    square = sigma_minus2m(b).terms[xi_monomial(n, 1, 1)]
    assert square._parts == [(1, {0b0110: (-n, 0)})]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sigma_stores_no_cancelled_entries(n, rng):
    """On a B with no zero numerator, no term of the symbol stores a zero
    numerator: each xi_a^2 term holds exactly the blades of B that commute
    with c(e_a), each scaled by -n."""
    bs = [perturbation_multivector_reference(case, n) for case in _sigma_cases("dense", n, rng)]
    bs += [rand_multivector(rng, n, max_blades=40) for _ in range(3)]
    for b in bs:
        assert all(re or im for _, acc in b._parts for re, im in acc.values())
        for expo, mv in sigma_minus2m(b).terms.items():
            assert all(re or im for _, acc in mv._parts for re, im in acc.values()), expo


def test_interior_density_n10_time_bound():
    """All four cases on dense n=10 inputs, in process.

    On the fractions backend (2-vCPU VM) this takes 0.04-0.06 s, with the
    symbol built from B's grade-1 and grade-3 blades only (0.10-0.14 s from
    all of B); the bound, 2.5x the slowest run of an older kernel, stays.
    """
    n = 10
    rng = random.Random("density-n10")
    u, v, w, x, y = (rand_oneform(rng, n) for _ in range(5))
    t = rand_threeform(rng, n)
    start = time.monotonic()
    for case in (TorsionVector(t, y), Grading(), VectorGrading(x), TorsionGrading(t)):
        interior_density(u, v, w, case)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, \
        f"four n=10 densities took {elapsed:.2f}s on {Rational.__module__}.{Rational.__name__}"


def _grade_weight(k, n):
    """w_k, the factor the symbol trace puts on a grade-k blade of B."""
    return 1 - k if k % 2 else k + 1 - n


@pytest.mark.parametrize("n", [4, 6])
def test_symbol_trace_weights_each_blade_by_its_grade(n):
    """On every single blade B of every grade and every basis triple, the
    full route is 2^m w_k <c(u)c(v)c(w) B>_0 with w_1 = 0 and w_3 = -2.
    The value is linear in B and multilinear in u, v, w, so at this n the
    projection in interior_density onto grades 1 and 3 drops exactly 0."""
    e = [basis(n, i) for i in range(1, n + 1)]
    nonzero = 0
    for mask in range(1 << n):
        b = Multivector(n, {mask: 1})
        weight = 2 ** (n // 2) * _grade_weight(mask.bit_count(), n)
        # the symbol of B does not depend on u, v, w: integrate it once per blade
        integrated = integrate_sphere_reference(n, sigma_minus2m_reference(b))
        for u, v, w in itertools.product(e, repeat=3):
            expected = scalar_product(frame_product(u, v, w), b) * weight
            cuvw = mv_mul(mv_mul(to_clifford(u), to_clifford(v)), to_clifford(w))
            assert trace(mv_mul(cuvw, integrated)) == expected, (mask, u, v, w)
            nonzero += not expected.is_zero()
    # only grade 3 survives, on the 3! orderings of each grade-3 blade's indices
    assert nonzero == 6 * math.comb(n, 3)


@pytest.mark.parametrize("n", [8, 10, 12, pytest.param(14, marks=pytest.mark.slow),
                               pytest.param(16, marks=pytest.mark.slow)])
def test_sphere_integral_of_the_symbol_weights_grades_1_and_3(n):
    """On every grade-1 and grade-3 blade B, the sphere integral of the symbol
    of B is w_k B: w_1 = 0 and w_3 = -2 at every even n, by the kernels and
    by the conftest routes that build the symbol with mv_mul and integrate
    it coefficient by coefficient.  The integral is linear in B, so this is
    the proof that interior_density, which reads w_1 and w_3 off the blades
    e_1 and e_1 e_2 e_3 and applies them to every grade-1 and grade-3 blade
    of B in place of integrating the symbol of B, is exact."""
    masks = [mask for mask in range(1 << n) if mask.bit_count() in (1, 3)]
    assert len(masks) == n + math.comb(n, 3)
    for mask in masks:
        b = Multivector(n, {mask: 1})
        expected = Multivector(n, {mask: _grade_weight(mask.bit_count(), n)})
        assert integrate_sphere(n, sigma_minus2m(b)) == expected, mask
        assert integrate_sphere_reference(n, sigma_minus2m_reference(b)) == expected, mask


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_interior_density_matches_the_unprojected_route(n):
    """Dense random inputs, all four cases, then one input over
    pairwise-coprime 25-digit denominators: the density, which traces C
    against B's grade-1 and grade-3 blades weighted by grade, equals the
    trace of the product of C with the integral of the symbol of all of B.
    From n = 6 on, the long torsion_vector B splits into several integer
    parts, so the trace sums a scalar product over pairs of parts."""
    rng = random.Random(f"unprojected-{n}")
    inputs = [(*(rand_oneform(rng, n) for _ in range(5)), rand_threeform(rng, n))
              for _ in range(2)]
    draw = coprime_draw(rng, digits=25)
    u, v, w, long_case = _dense_torsion_vector(n, draw)
    assert n < 6 or "parts" in long_input(perturbation_multivector_reference(long_case, n))
    inputs.append((u, v, w, OneForm(tuple(draw() for _ in range(n))), long_case.Y, long_case.T))
    for u, v, w, x, y, t in inputs:
        for case in (TorsionVector(t, y), Grading(), VectorGrading(x), TorsionGrading(t)):
            full = symbol_trace_reference(u, v, w, perturbation_multivector_reference(case, n), n)
            assert interior_density(u, v, w, case) == SymScalar.from_monomial(
                (vol_sphere(n - 1), TR_F_PHI), full)


def test_graded_densities_n16_time_bound():
    """The grading, vector-grading and torsion-grading densities on dense
    n=16 inputs, each timed on its own.

    B has no grade-1 or grade-3 blade in any of them at n=16, so each
    density is 0, returned with no symbol and no C = c(u)c(v)c(w) built:
    what is left is reading the masks of X's and T's components.  On the
    fractions backend (2-vCPU VM) the first run took 9, 9 and 15 ms when the
    symbol was still built from a zero perturbation; the bound is 6x the
    slowest.  With B built and then projected, the best of five runs took
    0.005, 0.04 and 0.6 ms; with the projection read off the masks first,
    0.004, 0.008 and 0.10 ms.  Built from all of B, the last two took 0.42
    and 3.5 s.
    """
    n = 16
    rng = random.Random("density-n16")
    u, v, w, x = (rand_oneform(rng, n) for _ in range(4))
    t = rand_threeform(rng, n)
    for case in (Grading(), VectorGrading(x), TorsionGrading(t)):
        start = time.monotonic()
        value = interior_density(u, v, w, case)
        elapsed = time.monotonic() - start
        assert value == theorem_value(case, u, v, w, ManifoldSpec(n))
        assert elapsed < 0.1, f"{type(case).__name__} at n=16 took {elapsed:.3f}s on " \
            f"{Rational.__module__}.{Rational.__name__}"


def _dense_torsion_vector(n, draw):
    """u, v, w and a torsion_vector case with all C(n, 3) triples of T set."""
    u, v, w, y = (OneForm(tuple(draw() for _ in range(n))) for _ in range(4))
    t = ThreeForm(n, {abc: draw() or 1 for abc in itertools.combinations(range(1, n + 1), 3)})
    return u, v, w, TorsionVector(t, y)


def _timed_density(u, v, w, case, n):
    """The torsion_vector density, checked against theorem_value, and its
    wall time."""
    start = time.monotonic()
    value = interior_density(u, v, w, case)
    elapsed = time.monotonic() - start
    assert value == theorem_value(case, u, v, w, ManifoldSpec(n))
    return elapsed


def test_torsion_vector_density_n16_time_bound():
    """The torsion_vector density on a dense n=16 input.

    On the fractions backend (2-vCPU VM) the first in-suite runs took
    0.16-0.25 s, with C = c(u)c(v)c(w) multiplied into the sphere-integrated
    symbol once; the bound is 4x the slowest.  With C multiplied into each
    of the n + 1 symbol terms first, it took 1.6-1.9 s.
    """
    n = 16
    rng = random.Random("torsion-vector-n16")
    elapsed = _timed_density(*_dense_torsion_vector(n, lambda: rand_rational(rng)), n)
    assert elapsed < 1.0, f"torsion_vector at n=16 took {elapsed:.2f}s on " \
        f"{Rational.__module__}.{Rational.__name__}"


def test_torsion_vector_density_long_inputs_time_bound():
    """The torsion_vector density at n=8 on inputs whose 88 components have
    pairwise-coprime 50-digit denominators, so B splits into runs and C
    holds a stored part past _RUN_DEN_BITS.

    On the fractions backend (2-vCPU VM) the first in-suite runs took
    0.06-0.07 s; the bound is about 7x the slowest.  With C multiplied into
    each symbol term before the sphere integral, it took 8-12 s.
    """
    n = 8
    draw = coprime_draw(random.Random("torsion-vector-long-n8"), digits=50)
    u, v, w, case = _dense_torsion_vector(n, draw)
    assert "parts" in long_input(perturbation_multivector_reference(case, n))
    elapsed = _timed_density(u, v, w, case, n)
    assert elapsed < 0.5, f"torsion_vector at n=8 on 50-digit inputs took {elapsed:.2f}s " \
        f"on {Rational.__module__}.{Rational.__name__}"


def test_torsion_vector_density_n16_tight_time_bound():
    """Five torsion_vector densities on dense n=16 inputs, timed together,
    under a tighter bound than test_torsion_vector_density_n16_time_bound.

    Summing five draws keeps one slow call on a loaded host from deciding
    the test.  On the fractions backend (2-vCPU VM), with C = c(u)c(v)c(w)
    traced against the sphere-integrated symbol, the five took 0.20-0.21 s
    in three full-suite runs (the first draw 0.09-0.11 s, the others
    0.02-0.03 s); the bound is about 3.3x the slowest.  With C multiplied
    into the integral first, the same five took 1.06-1.15 s.
    """
    n = 16
    rng = random.Random("torsion-vector-n16-tight")
    elapsed = sum(_timed_density(*_dense_torsion_vector(n, lambda: rand_rational(rng)), n)
                  for _ in range(5))
    assert elapsed < 0.7, f"five torsion_vector densities at n=16 took {elapsed:.3f}s on " \
        f"{Rational.__module__}.{Rational.__name__}"


def test_sigma_dense_n16_time_bound():
    """sigma_minus2m of five dense n=16 torsion_vector perturbations, timed
    together, beside the density bounds above.

    On the fractions backend (2-vCPU VM) the first runs of this test took
    0.047-0.052 s while the symbol also built each xi_a xi_c term (a != c),
    as 2m (B_a - B_c) c(e_a)c(e_c); the bound is 2.5x the slowest.  Built
    with its constant and xi_a^2 terms only, the five take 0.004-0.006 s in
    a fresh process, about 20x inside the bound.
    """
    n = 16
    rng = random.Random("sigma-n16")
    bs = [perturbation_multivector_reference(
        _dense_torsion_vector(n, lambda: rand_rational(rng))[3], n) for _ in range(5)]
    start = time.monotonic()
    for b in bs:
        sigma_minus2m(b)
    elapsed = time.monotonic() - start
    assert elapsed < 0.13, f"five n=16 symbols took {elapsed:.3f}s on " \
        f"{Rational.__module__}.{Rational.__name__}"


def _long_n16_torsion_vector():
    """u, v, w and a torsion_vector case at n=16 whose 624 components have
    pairwise-coprime 25-digit denominators."""
    return _dense_torsion_vector(
        16, coprime_draw(random.Random("torsion-vector-long-n16"), digits=25))


def test_torsion_vector_density_n16_long_inputs_time_bound():
    """The torsion_vector density at n=16 on inputs whose 624 components
    have pairwise-coprime 25-digit denominators, so C holds a stored part
    past _RUN_DEN_BITS and B splits into many integer parts.

    On the fractions backend (2-vCPU VM) the density took 0.47-0.55 s in
    six full-suite runs; the bound is about 2.7x the slowest.  With C
    multiplied into the integral first, it took 3.2-3.8 s.
    """
    n = 16
    u, v, w, case = _long_n16_torsion_vector()
    assert "bits" in long_input(frame_product(u, v, w))
    assert "parts" in long_input(perturbation_multivector_reference(case, n))
    elapsed = _timed_density(u, v, w, case, n)
    assert elapsed < 1.5, f"torsion_vector at n=16 on 25-digit inputs took {elapsed:.2f}s " \
        f"on {Rational.__module__}.{Rational.__name__}"


def test_torsion_vector_density_n16_long_inputs_tight_time_bound():
    """The input of test_torsion_vector_density_n16_long_inputs_time_bound,
    under a tighter bound: five densities timed together.

    B splits into 24 integer parts that hold disjoint blades.  The density
    builds no symbol of B: it scales those parts by grade, and the trace
    against C sums one share per pair of parts (scalar_product), so no
    coefficient of B or C is built; the time goes to that trace's exact sum
    and to building C.  On the fractions backend (2-vCPU VM) the five took
    0.35 s in the first full-suite run and 0.40-0.44 s in two runs of this
    file; the bound is about 2.3x the slowest.  When the density still built
    the symbol of B and is_zero built every term's coefficients, the five
    took 1.36 s.
    """
    n = 16
    u, v, w, case = _long_n16_torsion_vector()
    elapsed = sum(_timed_density(u, v, w, case, n) for _ in range(5))
    assert elapsed < 1.0, f"five torsion_vector densities at n=16 on 25-digit inputs " \
        f"took {elapsed:.3f}s on {Rational.__module__}.{Rational.__name__}"


def test_sigma_leaves_the_terms_of_a_long_input_unbuilt():
    """Every xi_a^2 term of the symbol of a B split into integer parts over
    disjoint blades is kept with its coefficients unbuilt: is_zero reads the
    parts.  The constant term is B itself."""
    n = 16
    b = perturbation_multivector_reference(_long_n16_torsion_vector()[3], n)
    assert "parts" in long_input(b)
    terms = dict(sigma_minus2m(b).terms)
    assert len(terms) == n + 1
    assert terms.pop(xi_monomial(n)) is b
    assert all(term._coeffs is None for term in terms.values())


def _unit_blades(n):
    """e_1 + e_1 e_2 e_3, the argument of interior_density's one symbol."""
    return _from_int_parts(n, [(1, {0b1: (1, 0), 0b111: (1, 0)})])


def test_sigma_builds_no_empty_part_or_term():
    """Every part of every symbol term holds a blade: on the long n=16 input,
    whose B splits into 24 parts over disjoint blades, and on e_1 + e_1 e_2
    e_3 at n = 4 and 16, whose xi_a^2 terms for a > 3 hold nothing and are
    not built."""
    long_b = perturbation_multivector_reference(_long_n16_torsion_vector()[3], 16)
    assert len(long_b._parts) == 24
    for b in (long_b, _unit_blades(4), _unit_blades(16)):
        terms = sigma_minus2m(b).terms
        assert all(acc for term in terms.values() for _, acc in term._parts)
    for n in (4, 16):
        assert list(sigma_minus2m(_unit_blades(n)).terms) == \
            [xi_monomial(n)] + [xi_monomial(n, a, a) for a in (1, 2, 3)]


def test_sigma_rejects_small_or_odd_dimension():
    """B's dimension goes through the one even-dimension rule, bounded below
    by 4."""
    with pytest.raises(DimensionMismatch, match=r"dimension must be in \[4, 16\], got 2"):
        sigma_minus2m(grading(2))
    for n in (3, 5):
        with pytest.raises(OddDimension, match=f"dimension must be even, got {n}"):
            sigma_minus2m(Multivector.generator(n, 1))


# -- densities: closed forms and the literal-matrix oracle ----------------------


@pytest.mark.parametrize("n", [4, 6])
def test_density_matches_matrix_oracle_torsion_vector(n, rng):
    for _ in range(5):
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        case = TorsionVector(rand_threeform(rng, n), rand_oneform(rng, n))
        assert interior_density(u, v, w, case) == \
            density_via_matrix_rep(u, v, w, case, n)


@pytest.mark.parametrize("n", [4, 6])
def test_density_matches_matrix_oracle_all_cases(n, rng):
    cases = [
        Grading(),
        VectorGrading(rand_oneform(rng, n)),
        TorsionGrading(rand_threeform(rng, n)),
    ]
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    for case in cases:
        assert interior_density(u, v, w, case) == \
            density_via_matrix_rep(u, v, w, case, n)


def test_density_y_independence(rng):
    for n in (4, 6):
        t = rand_threeform(rng, n)
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        with_y = interior_density(u, v, w, TorsionVector(t, rand_oneform(rng, n)))
        without = interior_density(u, v, w, TorsionVector(t, OneForm((0,) * n)))
        assert with_y == without


def test_density_trilinear(rng):
    n = 4
    case = TorsionVector(rand_threeform(rng, n), rand_oneform(rng, n))
    u1, u2, v, w = (rand_oneform(rng, n) for _ in range(4))
    a, b = rational("2/3"), rational("-5")
    u = OneForm([a * p + b * q for p, q in zip(u1.components, u2.components)])
    lhs = interior_density(u, v, w, case)
    rhs = (interior_density(u1, v, w, case) * sym(a)
           + interior_density(u2, v, w, case) * sym(b))
    assert lhs == rhs


def test_vector_grading_density_examples():
    n = 4
    u, v, w = uvw(n)
    d = interior_density(u, v, w, VectorGrading(basis(n, 4)))
    assert d == theorem_value(VectorGrading(basis(n, 4)), u, v, w, ManifoldSpec(n))
    n = 6
    u, v, w = uvw(n)
    assert interior_density(u, v, w, VectorGrading(basis(n, 4))).is_zero()


def test_grading_torsion_n4_exact_zero_confirmed_by_matrix_oracle(rng):
    """The grading-torsion interior density is identically zero at n=4.

    The blade pipeline and the literal-matrix oracle agree exactly; the
    catalogued closed form (row T4.11n4) is nonzero and is reported as a
    mismatch by the verify suite.
    """
    n = 4
    for _ in range(8):
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        case = TorsionGrading(rand_threeform(rng, n))
        pipeline = interior_density(u, v, w, case)
        oracle = density_via_matrix_rep(u, v, w, case, n)
        assert pipeline.is_zero()
        assert oracle.is_zero()


def test_grading_torsion_n6_value():
    n = 6
    u, v, w = uvw(n)
    t = ThreeForm(n, {(4, 5, 6): 1})
    d = interior_density(u, v, w, TorsionGrading(t))
    assert d == theorem_value(TorsionGrading(t), u, v, w, ManifoldSpec(n))
    assert not d.is_zero()


def test_grading_torsion_n8_zero(rng):
    n = 8
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    assert interior_density(u, v, w, TorsionGrading(rand_threeform(rng, n))).is_zero()


@pytest.mark.parametrize("case_name", ["torsion_vector", "torsion_grading"])
def test_sphere_integral_leaves_off_diagonal_coefficients_unbuilt(case_name):
    """The off-diagonal xi_i xi_l terms, whose moment is 0, are not built at
    all: no term of the symbol has an odd exponent, and its sphere integral
    equals the reference integral of the full symbol, off-diagonal terms
    and all."""
    n = 8
    rng = random.Random(f"unbuilt-{case_name}")
    y, t = rand_oneform(rng, n), rand_threeform(rng, n)
    case = TorsionVector(t, y) if case_name == "torsion_vector" else TorsionGrading(t)
    b = perturbation_multivector_reference(case, n)
    sigma = sigma_minus2m(b)
    assert not any(e % 2 for expo in sigma.terms for e in expo)
    full = sigma_minus2m_reference(b)
    assert sum(sorted(expo)[-2:] == [1, 1] for expo in full.terms) > n
    assert integrate_sphere(n, sigma) == integrate_sphere_reference(n, full)


def test_densities_leave_the_frame_product_and_perturbation_unbuilt(monkeypatch):
    """boundary_density and interior_density read their Clifford factors
    through their integer parts on dense inputs: neither the boundary's one
    product c(w)c(e_n), nor the symbol's argument, nor the projected B's
    product with its blade, nor C = c(u)c(v)c(w) builds its coefficients.
    The symbol's argument is e_1 + e_1 e_2 e_3, the blades whose weights
    the density reads, never B.  At n=8 only the torsion_vector B has a
    grade-1 or grade-3 part, so the graded cases build nothing; the n=6
    torsion_grading B, c(T) times the blade i gamma, keeps its grade-3 part
    through one product."""
    rng = random.Random("unbuilt-c-and-b")
    u, v, w, x, y = (rand_oneform(rng, 8) for _ in range(5))
    t = ThreeForm(8, {abc: rand_rational(rng) or 1
                      for abc in itertools.combinations(range(1, 9), 3)})
    u6, v6, w6 = (rand_oneform(rng, 6) for _ in range(3))
    t6 = rand_threeform(rng, 6)
    seen = []

    def capture(name, fn):
        def wrapped(*args):
            seen.append((name, fn(*args)))
            return seen[-1][1]
        return wrapped

    def capture_argument(fn):
        def wrapped(b):
            seen.append(("sigma", b))
            return fn(b)
        return wrapped

    monkeypatch.setattr(halfline, "mv_mul", capture("boundary", halfline.mv_mul))
    monkeypatch.setattr(symbols, "mv_mul", capture("B", symbols.mv_mul))
    monkeypatch.setattr(symbols, "frame_product", capture("C", symbols.frame_product))
    monkeypatch.setattr(symbols, "sigma_minus2m", capture_argument(symbols.sigma_minus2m))
    boundary_density(u, v, w)
    # Grading() is left out: its projection is empty at every n
    for case in (TorsionVector(t, y), VectorGrading(x), TorsionGrading(t)):
        interior_density(u, v, w, case)
    interior_density(u6, v6, w6, TorsionGrading(t6))
    # the boundary's one product; the weights' symbol and C for
    # torsion_vector; nothing for the n=8 graded cases; the weights' symbol,
    # the projected B's product and C at n=6
    assert [name for name, _ in seen] == ["boundary", "sigma", "C", "sigma", "B", "C"]
    assert [mv._coeffs is None for _, mv in seen] == [True] * len(seen)
    assert [mv for name, mv in seen if name == "sigma"] == \
        [Multivector(n, {0b1: 1, 0b111: 1}) for n in (8, 6)]


# B has a grade-1 or grade-3 blade: always for torsion_vector, never for the
# grading, for c(X) grading only at n=4 and for sqrt(-1) c(T) grading at n=4, 6
_HAS_GRADE_1_OR_3 = {TorsionVector: lambda n: True, Grading: lambda n: False,
                     VectorGrading: lambda n: n == 4, TorsionGrading: lambda n: n <= 6}

# B has a grade-3 blade, the one grade whose weight is not 0: the same, but
# for sqrt(-1) c(T) grading only at n=6 (at n=4 it is grade 1)
_HAS_GRADE_3 = {**_HAS_GRADE_1_OR_3, TorsionGrading: lambda n: n == 6}


def test_interior_density_forms_no_product_with_the_frame_factor(monkeypatch):
    """The only Clifford products of interior_density are C's own
    construction in frame_product (two) and, for the graded cases, the
    projected B's product with its blade (one), all made only when B has a
    grade-3 blade; C is traced against the weighted B.  Checked at n = 4, 6
    and 8, where each graded case loses its blades; the n=4 torsion_grading
    B is grade 1, so it forms none."""
    calls = []

    def counted(module):
        def wrapped(a, b):
            calls.append(module)
            return mv_mul(a, b)
        return wrapped

    assert not hasattr(moments, "mv_mul")  # the sphere integral has no product to form
    for module in (forms, symbols):
        monkeypatch.setattr(module, "mv_mul", counted(module.__name__.rsplit(".", 1)[1]))
    for n in (4, 6, 8):
        rng = random.Random(f"no-product-with-c-{n}")
        u, v, w, x, y = (rand_oneform(rng, n) for _ in range(5))
        t = rand_threeform(rng, n)
        for case in (TorsionVector(t, y), Grading(), VectorGrading(x), TorsionGrading(t)):
            calls.clear()
            interior_density(u, v, w, case)
            names = []
            if _HAS_GRADE_3[type(case)](n):
                names = ([] if isinstance(case, TorsionVector) else ["symbols"]) + ["forms"] * 2
            assert calls == names, (n, type(case).__name__)


def _count_symbols(monkeypatch) -> list:
    """The arguments of every XiPolynomialMV built from here on."""
    built = []
    init = moments.XiPolynomialMV.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(moments.XiPolynomialMV, "__init__", counted)
    return built


def test_interior_density_builds_one_symbol(monkeypatch):
    """One interior_density on a cold grade-factor cache constructs one
    XiPolynomialMV, for every case at n=6, B with a grade-1 or grade-3 blade
    or not.  The symbol is that of the unit blades e_1 and e_1 e_2 e_3 whose
    weights the density reads: its terms hold no other blade, so B's own
    symbol is never built."""
    n = 6
    rng = random.Random("one-symbol")
    u, v, w, x, y = (rand_oneform(rng, n) for _ in range(5))
    t = rand_threeform(rng, n)
    built = _count_symbols(monkeypatch)
    for case in (TorsionVector(t, y), Grading(), VectorGrading(x), TorsionGrading(t)):
        moments._grade_factors.cache_clear()
        built.clear()
        interior_density(u, v, w, case)
        assert len(built) == 1, type(case).__name__
        for _, terms in built:
            masks = {mask for term in terms.values() for _, acc in term._parts for mask in acc}
            assert masks <= {0b1, 0b111}, type(case).__name__


def test_interior_density_builds_its_symbol_once_per_dimension(monkeypatch):
    """The grade factors are cached per dimension: a second density at the
    same n, on other inputs and another case, builds no XiPolynomialMV, and
    the first one at a new n builds one."""
    rng = random.Random("symbol-once-per-n")
    u6, v6, w6, y6 = (rand_oneform(rng, 6) for _ in range(4))
    u8, v8, w8, y8 = (rand_oneform(rng, 8) for _ in range(4))
    t6, t8 = rand_threeform(rng, 6), rand_threeform(rng, 8)
    moments._grade_factors.cache_clear()
    built = _count_symbols(monkeypatch)
    interior_density(u6, v6, w6, TorsionVector(t6, y6))
    assert len(built) == 1
    built.clear()
    interior_density(w6, u6, v6, TorsionGrading(t6))
    interior_density(v6, w6, u6, TorsionVector(t6, u6))
    assert built == []
    interior_density(u8, v8, w8, TorsionVector(t8, y8))
    assert len(built) == 1


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_cached_grade_factors_equal_a_cold_integration(n):
    """The factors that interior_density leaves in the cache are those that
    the uncached rule computes afresh from the same symbol."""
    rng = random.Random(f"cached-factors-{n}")
    u, v, w, y = (rand_oneform(rng, n) for _ in range(4))
    interior_density(u, v, w, TorsionVector(rand_threeform(rng, n), y))
    hits = moments._grade_factors.cache_info().hits
    cached = moments._grade_factors(n, (1, 3), symbols.sigma_minus2m)
    assert moments._grade_factors.cache_info().hits == hits + 1
    assert cached == moments._grade_factors.__wrapped__(n, (1, 3), symbols.sigma_minus2m)


def _tracing(monkeypatch):
    """perfbench/tracing.py, loaded by path; its dataclass needs the module
    in sys.modules while it runs."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_a_traced_density_after_a_warm_one_still_integrates(monkeypatch):
    """The benchmark's traced pass follows an untraced one.  Its tracer
    rebinds symbols.sigma_minus2m to a wrapper, a new key of the factor
    cache, so a traced density at a warm n still builds and integrates the
    symbol: the symbol, sphere-integral and moment layers record calls."""
    n = 6
    rng = random.Random("traced-after-warm")
    u, v, w, y = (rand_oneform(rng, n) for _ in range(4))
    case = TorsionVector(rand_threeform(rng, n), y)
    untraced = interior_density(u, v, w, case)
    with _tracing(monkeypatch).Tracer() as tracer:
        traced = symbols.interior_density(u, v, w, case)
    assert traced == untraced
    for layer in ("symbols.sigma_minus2m", "moments.integrate_sphere", "moments.moment"):
        assert tracer.get(layer).calls > 0, layer
    assert symbols.sigma_minus2m is sigma_minus2m  # the tracer is gone


def _refuse(name):
    def refused(*args):
        raise AssertionError(f"{name} called for a B with no grade-1 or grade-3 blade")
    return refused


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_empty_projection_density_is_zero_with_nothing_built(n, monkeypatch):
    """Where B has no grade-1 or grade-3 blade, the density is SymScalar()
    and so is the trace of the integrated symbol built from all of B
    (conftest.symbol_trace_reference), and interior_density converts no
    rational and builds no product, no C and no trace: it reads only its
    grade factors."""
    rng = random.Random(f"empty-projection-{n}")
    u, v, w, x = (rand_oneform(rng, n) for _ in range(4))
    t = rand_threeform(rng, n)
    cases = [case for case in (Grading(), VectorGrading(x), TorsionGrading(t))
             if not _HAS_GRADE_1_OR_3[type(case)](n)]
    assert len(cases) == 1 + (n >= 6) + (n >= 8)
    references = [symbol_trace_reference(u, v, w, perturbation_multivector_reference(case, n), n)
                  for case in cases]
    for name in ("_rational_runs", "mv_mul", "frame_product", "trace"):
        monkeypatch.setattr(symbols, name, _refuse(name))
    for case, reference in zip(cases, references):
        assert interior_density(u, v, w, case) == SymScalar() == \
            SymScalar.from_monomial((vol_sphere(n - 1), TR_F_PHI), reference)


def test_empty_projection_reads_a_long_b_as_stored(monkeypatch):
    """The zero path reads only the masks of T's items and of the blade i
    gamma: on a torsion_grading case at n=16 over pairwise-coprime 25-digit
    denominators, whose B has several integer parts and no grade-1 or
    grade-3 blade, no component of T is converted and no product is formed."""
    n = 16
    u, v, w, long_case = _dense_torsion_vector(n, coprime_draw(random.Random("long-b"), 25))
    case = TorsionGrading(long_case.T)
    assert "parts" in long_input(perturbation_multivector_reference(case, n))
    for name in ("_rational_runs", "_from_int_parts", "mv_mul"):
        monkeypatch.setattr(symbols, name, _refuse(name))
    assert interior_density(u, v, w, case) == SymScalar()


def test_empty_projection_checks_the_arguments_first():
    """The zero density is returned only after v and w are checked against
    n = u.dim and n against the symbol's lower bound 4; spectral_torsion
    checks the frame against its spec before any density."""
    u6, u4, u2 = basis(6, 1), basis(4, 1), basis(2, 1)
    with pytest.raises(DimensionMismatch, match=r"^dim 6 vs 4$"):
        interior_density(u4, u4, u6, Grading())
    with pytest.raises(DimensionMismatch, match=r"^dim 6 vs 4$"):
        spectral_torsion(Grading(), u6, u6, u6, ManifoldSpec(4))
    with pytest.raises(DimensionMismatch, match=r"dimension must be in \[4, 16\], got 2"):
        interior_density(u2, u2, u2, Grading())


class _Traced(Exception):
    """Stops interior_density at its trace, carrying the trace's operands."""


def _grade_1_and_3_part(b):
    return Multivector(b.dim, {mask: c for mask, c in b.coeffs.items()
                               if mask.bit_count() in (1, 3)})


@pytest.mark.parametrize("n", range(4, 17, 2))
@pytest.mark.parametrize("kind", ["dense", "coprime"])
def test_projected_perturbation_is_the_grade_1_and_3_part_of_b(kind, n, monkeypatch):
    """The multivector that interior_density traces C = c(u)c(v)c(w) against
    is the sphere integral of the symbol of B_13, the grade-1 and grade-3
    part of perturbation_multivector_reference(case, n), coefficient for coefficient
    with its zero blades dropped, on all four cases; where B has no grade-3
    blade, that integral is 0 and the trace is not reached.  Every
    component of X, Y and T is set; the coprime inputs, n components of
    pairwise-coprime 800/n-digit denominators to a one-form, split every
    form factor into several runs."""
    rng = random.Random(f"projected-{kind}-{n}")
    draw = coprime_draw(rng, 800 // n) if kind == "coprime" else lambda: rand_rational(rng)
    x, y = (OneForm(tuple(draw() or 1 for _ in range(n))) for _ in range(2))
    t = ThreeForm(n, {abc: draw() or 1 for abc in itertools.combinations(range(1, n + 1), 3)})
    u, v, w = uvw(n)

    def stop(c, weighted):
        raise _Traced(c, weighted)

    monkeypatch.setattr(symbols, "trace", stop)
    for case in (TorsionVector(t, y), Grading(), VectorGrading(x), TorsionGrading(t)):
        b = perturbation_multivector_reference(case, n)
        assert kind == "dense" or isinstance(case, Grading) or "parts" in long_input(b)
        expected = dict(integrate_sphere(n, sigma_minus2m(_grade_1_and_3_part(b))).coeffs)
        assert bool(expected) == _HAS_GRADE_3[type(case)](n), type(case).__name__
        try:
            assert interior_density(u, v, w, case) == SymScalar()
        except _Traced as stopped:
            c, weighted = stopped.args
            assert expected, f"{type(case).__name__} traced with no grade-3 blade"
            assert c == frame_product(u, v, w)
            assert dict(weighted.coeffs) == expected, type(case).__name__
        else:
            assert not expected, type(case).__name__


def _shared_factor_draw(rng, digits):
    """Rationals whose denominators have about the given number of digits
    and all share one factor of half of them."""
    common = rng.randrange(10 ** (digits // 2 - 1), 10 ** (digits // 2))

    def draw():
        den = common * rng.randrange(10 ** (digits - digits // 2 - 1), 10 ** (digits - digits // 2))
        return Rational(rng.randrange(-10 ** digits, 10 ** digits), den)
    return draw


def _symbol_route(u, v, w, case, n):
    """The density by the symbol of B_13 itself: C traced against the sphere
    integral of the symbol of B's grade-1 and grade-3 part."""
    b13 = _grade_1_and_3_part(perturbation_multivector_reference(case, n))
    return SymScalar.from_monomial(
        (vol_sphere(n - 1), TR_F_PHI),
        trace(frame_product(u, v, w), integrate_sphere(n, sigma_minus2m(b13))))


@pytest.mark.parametrize("n,kind", [(n, "dense") for n in range(4, 17, 2)]
                         + [(n, kind) for n in (10, 16) for kind in ("coprime", "shared")])
def test_weighted_density_equals_the_symbol_route(n, kind):
    """interior_density, which weights B's grade-1 and grade-3 blades by the
    factors read off the symbol of e_1 + e_1 e_2 e_3, equals the route that
    integrates the symbol of that part of B itself, on all four cases: dense
    draws at every even n, and at n = 10 and 16 long inputs over 25-digit
    denominators, pairwise coprime (B in several integer parts) or all
    sharing one factor."""
    rng = random.Random(f"weighted-{kind}-{n}")
    draw = {"dense": lambda: rand_rational(rng), "coprime": coprime_draw(rng, 25),
            "shared": _shared_factor_draw(rng, 25)}[kind]
    u, v, w, x = (OneForm(tuple(draw() for _ in range(n))) for _ in range(4))
    _, _, _, long_case = _dense_torsion_vector(n, draw)
    t = long_case.T
    assert kind != "coprime" or \
        "parts" in long_input(perturbation_multivector_reference(long_case, n))
    for case in (long_case, Grading(), VectorGrading(x), TorsionGrading(t)):
        assert interior_density(u, v, w, case) == _symbol_route(u, v, w, case, n), \
            type(case).__name__


# -- proofs on basis inputs at n=4 -----------------------------------------------


def _basis_threeforms(n):
    return [ThreeForm(n, {abc: 1}) for abc in itertools.combinations(range(1, n + 1), 3)]


def test_n4_densities_proved_on_every_basis_input():
    """Each interior density is multilinear in u, v, w and linear in the
    perturbation, so agreement on basis inputs is a proof.  At n=4:
    torsion_vector on 4^3 (C(4,3) + 4) = 512 inputs and vector_grading on
    4^4 = 256 against theorem_value, torsion_grading on 4^3 C(4,3) = 256
    against 0.  Every 16th input is cross-checked on literal matrices."""
    n = 4
    spec = ManifoldSpec(n)
    e = [basis(n, i) for i in range(1, n + 1)]
    z, threes = OneForm((0,) * n), _basis_threeforms(n)
    cases = {
        "torsion_vector": [TorsionVector(t, z) for t in threes]
                          + [TorsionVector(ThreeForm(n), y) for y in e],
        "vector_grading": [VectorGrading(x) for x in e],
        "torsion_grading": [TorsionGrading(t) for t in threes],
    }
    counts = dict.fromkeys(cases, 0)
    for name, perturbations in cases.items():
        for u, v, w in itertools.product(e, repeat=3):
            for case in perturbations:
                got = interior_density(u, v, w, case)
                expected = SymScalar() if name == "torsion_grading" \
                    else theorem_value(case, u, v, w, spec)
                assert got == expected, (name, u, v, w, case)
                if counts[name] % 16 == 0:
                    assert got == density_via_matrix_rep(u, v, w, case, n)
                counts[name] += 1
    assert counts == {"torsion_vector": 512, "vector_grading": 256, "torsion_grading": 256}


def test_torsion_vector_n6_proved_on_every_basis_input():
    """The torsion_vector density at n=6 on all 6^3 (C(6,3) + 6) = 5,616
    basis inputs (e_a, e_b, e_c; e_ijk or e_y) against theorem_value: a proof
    by multilinearity."""
    n = 6
    spec = ManifoldSpec(n)
    e = [basis(n, i) for i in range(1, n + 1)]
    z = OneForm((0,) * n)
    perturbations = ([TorsionVector(t, z) for t in _basis_threeforms(n)]
                     + [TorsionVector(ThreeForm(n), y) for y in e])
    count = 0
    for u, v, w in itertools.product(e, repeat=3):
        for case in perturbations:
            assert interior_density(u, v, w, case) == theorem_value(case, u, v, w, spec), \
                (u, v, w, case)
            count += 1
    assert count == 5616


def test_grading_torsion_n4_catalogued_form_is_nonzero_only_where_the_density_is_zero():
    """The basis inputs (e_a, e_b, e_c, e_ijk) on which the catalogued n=4
    form 16i (-<w^T> g(u,v) + <v^T> g(u,w) - <u^T> g(v,w)) is nonzero: two
    of u, v, w are equal and the third is e_d, d the index the triple ijk
    misses.  The density is 0 on every one of them (row T4.11n4)."""
    n = 4
    spec = ManifoldSpec(n)
    found = []
    for (a, b, c), ijk in itertools.product(
            itertools.product(range(1, n + 1), repeat=3),
            itertools.combinations(range(1, n + 1), 3)):
        u, v, w = basis(n, a), basis(n, b), basis(n, c)
        case = TorsionGrading(ThreeForm(n, {ijk: 1}))
        if not theorem_value(case, u, v, w, spec).is_zero():
            found.append((a, b, c, ijk))
            assert interior_density(u, v, w, case).is_zero()
    listed = []
    for ijk in itertools.combinations(range(1, n + 1), 3):
        d = ({1, 2, 3, 4} - set(ijk)).pop()
        for a, b, c in itertools.product(range(1, n + 1), repeat=3):
            pairs = ((a, b, c), (a, c, b), (b, c, a))  # (equal, equal, third)
            if any(p == q and r == d for p, q, r in pairs):
                listed.append((a, b, c, ijk))
    assert sorted(found) == sorted(listed)
    assert len(found) == 4 * 10  # per triple: 3 positions x 4 values, all-equal once
