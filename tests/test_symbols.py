"""Interior symbol engine: perturbation symbols and densities.

The matrix-representation density oracle in conftest recomputes every
density on literal matrices, which is what settles the catalogued n=4
grading-torsion value (the pipeline's 0 is confirmed, the catalogued
nonzero closed form is not).
"""

from __future__ import annotations

import itertools
import math
import random
import time

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
    perturbation_multivector,
    rational,
    scalar_product,
    sigma_minus2m,
    sym,
    theorem_value,
    to_clifford,
    trace,
    vol_sphere,
    ManifoldSpec,
)
from spectral_torsion import halfline, symbols, verify
from spectral_torsion.clifford import _integer_runs
from spectral_torsion.moments import integrate_sphere, xi_monomial
from spectral_torsion.scalars import GR_I, Rational, SymScalar, TR_F_PHI

from conftest import coprime_draw, density_via_matrix_rep, expand_left, \
    perturbation_multivector_reference, rand_oneform, rand_rational, rand_threeform, \
    sigma_minus2m_reference


def basis(n, i):
    return OneForm.basis(n, i)


def uvw(n):
    return basis(n, 1), basis(n, 2), basis(n, 3)


# -- perturbation multivectors -------------------------------------------------


def test_perturbation_grading_n4():
    assert perturbation_multivector(Grading(), 4) == \
        Multivector.blade(4, 0b1111, -1)


def test_perturbation_pure_vector():
    case = TorsionVector(ThreeForm.zero(4), basis(4, 1))
    assert perturbation_multivector(case, 4) == Multivector.blade(4, 0b1, GR_I)


def test_perturbation_vector_grading():
    case = VectorGrading(basis(4, 1))
    expected = mv_mul(Multivector.generator(4, 1), grading(4))
    assert perturbation_multivector(case, 4) == expected


def test_perturbation_accepts_a_built_multivector():
    """An already-built perturbation passes through, under the one
    same-dimension rule."""
    b = perturbation_multivector(VectorGrading(basis(6, 2)), 6)
    assert perturbation_multivector(b, 6) is b
    with pytest.raises(DimensionMismatch, match=r"^dim 6 vs 4$"):
        perturbation_multivector(b, 4)
    with pytest.raises(OddDimension, match="dimension must be even, got 5"):
        perturbation_multivector(b, 5)


def test_perturbation_dim_checked():
    """X, T and Y are checked with the forms' one same-dimension message."""
    for case in (VectorGrading(basis(4, 1)), TorsionGrading(ThreeForm.zero(4)),
                 TorsionVector(ThreeForm.zero(6), basis(4, 1))):
        with pytest.raises(DimensionMismatch, match=r"^dim 4 vs 6$"):
            perturbation_multivector(case, 6)


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", ["small", "coprime"])
def test_perturbation_multivector_matches_the_fraction_oracle(kind, n):
    """B built as integer parts equals B built coefficient by coefficient, by
    value and printed form, on all four cases.  The coprime denominators
    split c(T) + i c(Y) into several runs."""
    rng = random.Random(f"perturbation-{kind}-{n}")
    draw = coprime_draw(rng, digits=100) if kind == "coprime" else lambda: rand_rational(rng)
    x, y = (OneForm(tuple(draw() for _ in range(n))) for _ in range(2))
    t = ThreeForm(n, {abc: draw() for abc in itertools.combinations(range(1, n + 1), 3)})
    for case in (TorsionVector(t, y), Grading(), VectorGrading(x), TorsionGrading(t)):
        got = perturbation_multivector(case, n)
        if kind == "coprime" and isinstance(case, TorsionVector):
            assert len(_integer_runs(got)) > 1
        expected = perturbation_multivector_reference(case, n)
        assert got == expected and str(got) == str(expected)


# -- symbol assembly -------------------------------------------------------------


def test_sigma_grading_reduces_to_constant_term():
    n = 4
    u, v, w = uvw(n)
    sigma = sigma_minus2m(u, v, w, Grading(), n)
    cuvw_gamma = mv_mul(mv_mul(mv_mul(
        Multivector.generator(n, 1), Multivector.generator(n, 2)),
        Multivector.generator(n, 3)), grading(n))
    assert expand_left(sigma) == {xi_monomial(n): cuvw_gamma}


def test_sigma_torsion_vector_constant_term(rng):
    n = 4
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    t, y = rand_threeform(rng, n), rand_oneform(rng, n)
    case = TorsionVector(t, y)
    sigma = sigma_minus2m(u, v, w, case, n)
    cuvw = mv_mul(mv_mul(to_clifford(u), to_clifford(v)), to_clifford(w))
    expected = mv_mul(cuvw, perturbation_multivector(case, n))
    got = expand_left(sigma).get(xi_monomial(n), Multivector.zero(n))
    assert got == expected


def test_sigma_zero_inputs(monkeypatch):
    """A zero one-form makes C zero: the symbol keeps C as its left factor
    and no terms, and catalog row E4.31, which reads the constant term
    through that factor, still runs (both sides are 0)."""
    n = 4
    z = OneForm.zero(n)
    rng = random.Random(3)
    case = TorsionVector(rand_threeform(rng, n), z)
    for u, v, w in ((z, z, z), (rand_oneform(rng, n), z, rand_oneform(rng, n))):
        sigma = sigma_minus2m(u, v, w, case, n)
        assert sigma.is_zero()
        assert sigma.left == Multivector.zero(n) and sigma.terms == {}
    monkeypatch.setattr(verify, "_oneforms", lambda n, rng, *canonical: (z,) * len(canonical))
    assert verify._run_e431(n, rng) == (sym(0), sym(0), True)


def test_sigma_degree_structure(rng):
    # only xi-degree 0 and 2 monomials occur; odd-degree terms never survive
    n = 6
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    case = TorsionVector(rand_threeform(rng, n), rand_oneform(rng, n))
    sigma = sigma_minus2m(u, v, w, case, n)
    assert {sum(e) for e in expand_left(sigma)} <= {0, 2}


def _sigma_jobs(kind, n, rng):
    """(u, v, w, case) inputs of one kind, over all four cases."""
    if kind == "sparse":
        # basis and zero one-forms: C B_i vanishes for some i (for c(e_1) Gamma
        # at i = 1, for a single 3-form blade outside it), or C or B is zero
        e, z = (lambda i: OneForm.basis(n, i)), OneForm.zero(n)
        t = ThreeForm(n, {(1, 2, 4): rational(2)})
        dense = [rand_oneform(rng, n) for _ in range(3)]
        cases = (TorsionVector(t, e(n)), TorsionVector(t, z), VectorGrading(e(1)),
                 TorsionGrading(t), TorsionVector(ThreeForm.zero(n), z), VectorGrading(z))
        return [(*uvw, case) for uvw in ((e(1), e(2), e(3)), dense, (z, e(2), e(3)))
                for case in cases + (Grading(),)]
    if kind == "coprime":
        # pairwise-coprime denominators long enough to split C and B into runs
        draw = coprime_draw(rng, digits=100 if n == 4 else 50)
        u, v, w, x, y = (OneForm(tuple(draw() for _ in range(n))) for _ in range(5))
        t = ThreeForm(n, {abc: draw() for abc in itertools.combinations(range(1, n + 1), 3)})
    else:
        u, v, w, x, y = (rand_oneform(rng, n) for _ in range(5))
        t = rand_threeform(rng, n)
    return [(u, v, w, case)
            for case in (TorsionVector(t, y), Grading(), VectorGrading(x), TorsionGrading(t))]


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sigma_matches_generator_products(n, rng):
    """The left factor C times the integer relabels gives the multiplied-out
    symbol, term for term and in the same monomial order, on dense, sparse and
    (n <= 6; slow at n=8) multi-run inputs."""
    jobs = _sigma_jobs("dense", n, rng) + _sigma_jobs("sparse", n, rng)
    if n <= 6:
        coprime = _sigma_jobs("coprime", n, rng)
        u, v, w, case = coprime[0]
        cuvw = mv_mul(mv_mul(to_clifford(u), to_clifford(v)), to_clifford(w))
        assert len(_integer_runs(cuvw)) > 1
        assert len(_integer_runs(perturbation_multivector(case, n))) > 1
        jobs += coprime
    for u, v, w, case in jobs:
        got = sigma_minus2m(u, v, w, case, n)
        expected = sigma_minus2m_reference(u, v, w, case, n)
        assert expand_left(got) == expected.terms
        assert list(got.terms) == list(expected.terms)


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
        interior_density(u, v, w, case, n)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, \
        f"four n=10 densities took {elapsed:.2f}s on {Rational.__module__}.{Rational.__name__}"


def _full_route(u, v, w, b, n):
    """The trace of the sphere-integrated symbol built from all of B."""
    return trace(integrate_sphere(n, sigma_minus2m(u, v, w, b, n)))


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
        b = Multivector.blade(n, mask)
        weight = 2 ** (n // 2) * _grade_weight(mask.bit_count(), n)
        for u, v, w in itertools.product(e, repeat=3):
            expected = scalar_product(frame_product(u, v, w, n), b) * weight
            assert _full_route(u, v, w, b, n) == expected, (mask, u, v, w)
            nonzero += not expected.is_zero()
    # only grade 3 survives, on the 3! orderings of each grade-3 blade's indices
    assert nonzero == 6 * math.comb(n, 3)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_interior_density_matches_the_unprojected_route(n):
    """Dense random inputs, all four cases: the density from B's grade-1 and
    grade-3 blades equals the one from all of B."""
    rng = random.Random(f"unprojected-{n}")
    for _ in range(2):
        u, v, w, x, y = (rand_oneform(rng, n) for _ in range(5))
        t = rand_threeform(rng, n)
        for case in (TorsionVector(t, y), Grading(), VectorGrading(x), TorsionGrading(t)):
            full = _full_route(u, v, w, perturbation_multivector(case, n), n)
            assert interior_density(u, v, w, case, n) == SymScalar.from_monomial(
                (vol_sphere(n - 1), TR_F_PHI), full)


def test_graded_densities_n16_time_bound():
    """The grading, vector-grading and torsion-grading densities on dense
    n=16 inputs, each timed on its own.

    B has no grade-1 or grade-3 blade in any of them at n=16, so the symbol
    is built from a zero perturbation.  On the fractions backend (2-vCPU VM)
    the first run took 9, 9 and 15 ms; the bound is 6x the slowest.  Built
    from all of B, the last two took 0.42 and 3.5 s.
    """
    n = 16
    rng = random.Random("density-n16")
    u, v, w, x = (rand_oneform(rng, n) for _ in range(4))
    t = rand_threeform(rng, n)
    for case in (Grading(), VectorGrading(x), TorsionGrading(t)):
        start = time.monotonic()
        value = interior_density(u, v, w, case, n)
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
    value = interior_density(u, v, w, case, n)
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
    pairwise-coprime 50-digit denominators, so C and B split into runs.

    On the fractions backend (2-vCPU VM) the first in-suite runs took
    0.06-0.07 s; the bound is about 7x the slowest.  With C multiplied into
    each symbol term before the sphere integral, it took 8-12 s.
    """
    n = 8
    draw = coprime_draw(random.Random("torsion-vector-long-n8"), digits=50)
    u, v, w, case = _dense_torsion_vector(n, draw)
    assert len(_integer_runs(perturbation_multivector(case, n))) > 1
    elapsed = _timed_density(u, v, w, case, n)
    assert elapsed < 0.5, f"torsion_vector at n=8 on 50-digit inputs took {elapsed:.2f}s " \
        f"on {Rational.__module__}.{Rational.__name__}"


def test_sigma_rejects_small_or_odd_dimension():
    z = OneForm.zero(4)
    with pytest.raises(DimensionMismatch, match=r"dimension must be in \[4, 16\], got 2"):
        sigma_minus2m(z, z, z, Grading(), 2)
    # the one even-dimension rule answers odd n, before the one-form checks
    for n in (3, 5):
        with pytest.raises(OddDimension, match=f"dimension must be even, got {n}"):
            sigma_minus2m(z, z, z, TorsionVector(ThreeForm(4), z), n)


# -- densities: closed forms and the literal-matrix oracle ----------------------


@pytest.mark.parametrize("n", [4, 6])
def test_density_matches_matrix_oracle_torsion_vector(n, rng):
    for _ in range(5):
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        case = TorsionVector(rand_threeform(rng, n), rand_oneform(rng, n))
        assert interior_density(u, v, w, case, n) == \
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
        assert interior_density(u, v, w, case, n) == \
            density_via_matrix_rep(u, v, w, case, n)


def test_density_y_independence(rng):
    for n in (4, 6):
        t = rand_threeform(rng, n)
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        with_y = interior_density(u, v, w, TorsionVector(t, rand_oneform(rng, n)), n)
        without = interior_density(u, v, w, TorsionVector(t, OneForm.zero(n)), n)
        assert with_y == without


def test_density_trilinear(rng):
    n = 4
    case = TorsionVector(rand_threeform(rng, n), rand_oneform(rng, n))
    u1, u2, v, w = (rand_oneform(rng, n) for _ in range(4))
    a, b = rational("2/3"), rational("-5")
    lhs = interior_density(u1.scale(a) + u2.scale(b), v, w, case, n)
    rhs = (interior_density(u1, v, w, case, n) * sym(a)
           + interior_density(u2, v, w, case, n) * sym(b))
    assert lhs == rhs


def test_vector_grading_density_examples():
    n = 4
    u, v, w = uvw(n)
    d = interior_density(u, v, w, VectorGrading(basis(n, 4)), n)
    assert d == theorem_value(VectorGrading(basis(n, 4)), u, v, w, ManifoldSpec(n))
    n = 6
    u, v, w = uvw(n)
    assert interior_density(u, v, w, VectorGrading(basis(n, 4)), n).is_zero()


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
        pipeline = interior_density(u, v, w, case, n)
        oracle = density_via_matrix_rep(u, v, w, case, n)
        assert pipeline.is_zero()
        assert oracle.is_zero()


def test_grading_torsion_n6_value():
    n = 6
    u, v, w = uvw(n)
    t = ThreeForm(n, {(4, 5, 6): 1})
    d = interior_density(u, v, w, TorsionGrading(t), n)
    assert d == theorem_value(TorsionGrading(t), u, v, w, ManifoldSpec(n))
    assert not d.is_zero()


def test_grading_torsion_n8_zero(rng):
    n = 8
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    assert interior_density(u, v, w, TorsionGrading(rand_threeform(rng, n)), n).is_zero()


@pytest.mark.parametrize("case_name", ["torsion_vector", "torsion_grading"])
def test_sphere_integral_leaves_off_diagonal_coefficients_unbuilt(case_name):
    """The sphere integral reads the symbol's integer parts; the n(n-1)
    off-diagonal xi_i xi_l coefficients, whose moment is 0, are never built."""
    n = 8
    rng = random.Random(f"unbuilt-{case_name}")
    u, v, w, y = (rand_oneform(rng, n) for _ in range(4))
    t = rand_threeform(rng, n)
    case = TorsionVector(t, y) if case_name == "torsion_vector" else TorsionGrading(t)
    sigma = sigma_minus2m(u, v, w, case, n)
    integrate_sphere(n, sigma)
    off_diagonal = [mv for expo, mv in sigma.terms.items() if sorted(expo)[-2:] == [1, 1]]
    assert len(off_diagonal) > n
    assert all(mv._coeffs is None for mv in off_diagonal)


def test_densities_leave_the_frame_product_and_perturbation_unbuilt(monkeypatch):
    """boundary_density and interior_density read C = c(u)c(v)c(w) and B
    through their integer parts on dense n=8 inputs: neither C, nor B, nor
    B's grade-1 and grade-3 part builds its coefficients."""
    n = 8
    rng = random.Random("unbuilt-c-and-b")
    u, v, w, x, y = (rand_oneform(rng, n) for _ in range(5))
    t = ThreeForm(n, {abc: rand_rational(rng) or 1
                      for abc in itertools.combinations(range(1, n + 1), 3)})
    seen = []

    def capture(fn):
        def wrapped(*args):
            seen.append(fn(*args))
            return seen[-1]
        return wrapped

    for module in (symbols, halfline):
        monkeypatch.setattr(module, "frame_product", capture(module.frame_product))
    monkeypatch.setattr(symbols, "perturbation_multivector",
                        capture(symbols.perturbation_multivector))
    boundary_density(u, v, w, n)
    # Grading() is left out: its B is the chirality blade, given by its coefficient
    for case in (TorsionVector(t, y), VectorGrading(x), TorsionGrading(t)):
        interior_density(u, v, w, case, n)
    # the boundary's C, then per case B, its grade-1/3 part (through
    # sigma_minus2m) and C
    assert len(seen) == 1 + 3 * 3
    assert [mv._coeffs is None for mv in seen] == [True] * len(seen)


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
    z, threes = OneForm.zero(n), _basis_threeforms(n)
    cases = {
        "torsion_vector": [TorsionVector(t, z) for t in threes]
                          + [TorsionVector(ThreeForm.zero(n), y) for y in e],
        "vector_grading": [VectorGrading(x) for x in e],
        "torsion_grading": [TorsionGrading(t) for t in threes],
    }
    counts = dict.fromkeys(cases, 0)
    for name, perturbations in cases.items():
        for u, v, w in itertools.product(e, repeat=3):
            for case in perturbations:
                got = interior_density(u, v, w, case, n)
                expected = SymScalar.zero() if name == "torsion_grading" \
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
    z = OneForm.zero(n)
    perturbations = ([TorsionVector(t, z) for t in _basis_threeforms(n)]
                     + [TorsionVector(ThreeForm.zero(n), y) for y in e])
    count = 0
    for u, v, w in itertools.product(e, repeat=3):
        for case in perturbations:
            assert interior_density(u, v, w, case, n) == theorem_value(case, u, v, w, spec), \
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
            assert interior_density(u, v, w, case, n).is_zero()
    listed = []
    for ijk in itertools.combinations(range(1, n + 1), 3):
        d = ({1, 2, 3, 4} - set(ijk)).pop()
        for a, b, c in itertools.product(range(1, n + 1), repeat=3):
            pairs = ((a, b, c), (a, c, b), (b, c, a))  # (equal, equal, third)
            if any(p == q and r == d for p, q, r in pairs):
                listed.append((a, b, c, ijk))
    assert sorted(found) == sorted(listed)
    assert len(found) == 4 * 10  # per triple: 3 positions x 4 values, all-equal once
