"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 4's n=4 clause asserts the catalogued closed form verbatim.  The
exact pipeline and the independent matrix oracle both evaluate that density
to zero, so the clause fails; the analysis lives in the project notes and in
row T4.11n4 of the verify output.  The failure is intentional and is not
masked here.
"""

from __future__ import annotations

import math
import random
import time

from spectral_torsion import (
    Grading,
    Multivector,
    OneForm,
    PI,
    SymScalar,
    ThreeForm,
    TorsionGrading,
    TorsionVector,
    TR_F_PHI,
    VectorGrading,
    XiRational,
    boundary_density,
    dxn_symbol,
    eval_threeform,
    interior_density,
    line_integral,
    moment,
    mv_mul,
    rational,
    supertrace,
    to_clifford,
    trace,
    verify_suite,
    vol_sphere,
)
from spectral_torsion.cli import run_verify
from spectral_torsion.halfline import POLY_X, half_inverse_symbol_components
from spectral_torsion.moments import xi_monomial
from spectral_torsion.scalars import DIM_F, GR_I, GaussianRational, i_power

from conftest import (
    boundary_pieces_reference,
    det_exact,
    metric_pair,
    normal_trace_combination_reference,
    quad_oracle,
    rand_multivector,
    rand_oneform,
    rand_threeform,
    top_pairing_oracle,
)
from matrix_rep import MatrixRep

SEED = 20260810


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert ok, f"acceptance {criterion} failed: {detail}"


def _vol_trf(n: int, coeff) -> SymScalar:
    return SymScalar.from_monomial((vol_sphere(n - 1), TR_F_PHI), coeff)


def test_criterion_1_torsion_vector_closed_form():
    """Interior density of the torsion-vector case, 100 random inputs per n."""
    rng = random.Random(SEED)
    for n in (4, 6, 8):
        m = n // 2
        start = time.monotonic()
        for k in range(100):
            u, v, w = (rand_oneform(rng, n) for _ in range(3))
            t, y = rand_threeform(rng, n), rand_oneform(rng, n)
            got = interior_density(u, v, w, TorsionVector(t, y))
            expected = _vol_trf(n, rational(-(2 ** (m + 1))) * eval_threeform(t, u, v, w))
            assert got == expected, (n, k)
            if k % 10 == 0:  # Y-independence, exactly
                assert got == interior_density(
                    u, v, w, TorsionVector(t, OneForm((0,) * n)))
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"n={n} took {elapsed:.1f}s"
    _report("1 (torsion-vector closed form, Y-independence, <10s/dim)", True)


def test_criterion_2_vanishing_cases():
    """Zero torsion and pure grading give exactly zero density."""
    rng = random.Random(SEED + 1)
    for n in (4, 6, 8):
        for _ in range(20):
            u, v, w = (rand_oneform(rng, n) for _ in range(3))
            y = rand_oneform(rng, n)
            assert interior_density(
                u, v, w, TorsionVector(ThreeForm(n), y)).is_zero()
            assert interior_density(u, v, w, Grading()).is_zero()
    _report("2 (zero-torsion and grading cases vanish)", True)


def test_criterion_3_vector_grading():
    """Vector-grading closed form at n=4 (sign via determinants), zero above."""
    rng = random.Random(SEED + 2)
    n = 4
    for _ in range(40):
        u, v, w, x = (rand_oneform(rng, n) for _ in range(4))
        got = interior_density(u, v, w, VectorGrading(x))
        # sign check: the pairing is the literal 4x4 determinant
        pairing = det_exact([f.components for f in (u, v, w, x)])
        assert got == _vol_trf(n, pairing * rational(8))
    for n in (6, 8):
        for _ in range(10):
            u, v, w, x = (rand_oneform(rng, n) for _ in range(4))
            assert interior_density(u, v, w, VectorGrading(x)).is_zero()
    _report("3 (vector-grading: +2^3 pairing at n=4, zero for n>4)", True)


def test_criterion_4_grading_torsion():
    """Grading-torsion closed forms: n=6 and n=8 hold; the catalogued n=4
    line does not (the exact value is zero; see the decisions ledger)."""
    rng = random.Random(SEED + 3)
    n = 6
    for _ in range(25):
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        t = rand_threeform(rng, n)
        got = interior_density(u, v, w, TorsionGrading(t))
        expected = _vol_trf(n, top_pairing_oracle(u, v, w, t) * rational(16))
        assert got == expected
    print("ACCEPTANCE 4 [n=6 clause]: PASS")
    n = 8
    for _ in range(10):
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        assert interior_density(u, v, w, TorsionGrading(rand_threeform(rng, n))).is_zero()
    print("ACCEPTANCE 4 [n=8 clause]: PASS")
    n = 4
    failures = []
    for _ in range(25):
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        t = rand_threeform(rng, n)
        got = interior_density(u, v, w, TorsionGrading(t))
        combo = (-top_pairing_oracle(w, t) * metric_pair(u, v)
                 + top_pairing_oracle(v, t) * metric_pair(u, w)
                 - top_pairing_oracle(u, t) * metric_pair(v, w))
        stated = _vol_trf(n, combo * rational(16) * GaussianRational(0, 1))
        if got != stated:
            failures.append((str(got), str(stated)))
    _report(
        "4 (grading-torsion closed forms incl. the catalogued n=4 line)",
        not failures,
        f"n=4 clause: computed {failures[0][0]} != catalogued {failures[0][1]}; "
        "at n=4, i·c(T)γ is grade 1, whose trace weight w₁ = 0, so the density is "
        "identically 0 (matrix oracle concurs; see decisions ledger)" if failures else "",
    )


def test_criterion_5_property_suites():
    """Supertrace/trace identities, delta formula, moments, boundary trace."""
    rng = random.Random(SEED + 4)
    for n in (2, 4, 6, 8):
        m = n // 2
        # supertrace: vanishing below top grade, top value 2^m / i^m
        for mask in range(1 << n) if n <= 6 else [rng.randint(0, (1 << n) - 2) for _ in range(200)]:
            value = supertrace(Multivector(n, {mask: 1}))
            if mask == (1 << n) - 1:
                assert value == rational(2 ** m) * (GaussianRational(1) / i_power(m))
            else:
                assert value.is_zero()
        assert supertrace(Multivector(n, {(1 << n) - 1: 1})) == \
            rational(2 ** m) * (GaussianRational(1) / i_power(m))
        # the two trace identities
        for _ in range(20):
            u, v, w, y = (rand_oneform(rng, n) for _ in range(4))
            t = rand_threeform(rng, n) if n >= 4 else ThreeForm(n)
            cuvw = mv_mul(mv_mul(to_clifford(u), to_clifford(v)), to_clifford(w))
            lhs = trace(mv_mul(cuvw, to_clifford(y)))
            rhs = (metric_pair(v, w) * metric_pair(u, y)
                   - metric_pair(u, w) * metric_pair(v, y)
                   + metric_pair(u, v) * metric_pair(w, y)) * 2 ** m
            assert lhs == rhs
            assert trace(mv_mul(cuvw, to_clifford(t))) == \
                eval_threeform(t, u, v, w) * 2 ** m
            # boundary trace combination
            assert trace(mv_mul(cuvw, Multivector.generator(n, n))) == \
                normal_trace_combination_reference(u, v, w) * 2 ** m
        # four-generator delta formula
        for _ in range(30):
            i, j, k, l = (rng.randint(1, n) for _ in range(4))
            value = trace(mv_mul(
                mv_mul(Multivector.generator(n, i), Multivector.generator(n, j)),
                mv_mul(Multivector.generator(n, k), Multivector.generator(n, l))))
            delta = (-(i == k) * (j == l) + (i == l) * (j == k)
                     + (i == j) * (k == l)) * 2 ** m
            assert value == delta
        # second sphere moments, in units of vol(S^(n-1))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                expected = rational(1) / rational(n) if i == j else rational(0)
                assert moment(n, xi_monomial(n, i, j)) == expected
    _report("5 (supertrace/trace/delta/moment/boundary-trace suites, n=2..8)", True)


def test_criterion_6_oracle_equivalence():
    """Blade trace equals the literal matrix trace on 500 random elements."""
    rng = random.Random(SEED + 5)
    for n in (2, 4, 6):
        rep = MatrixRep(n)
        for _ in range(500):
            a = rand_multivector(rng, n)
            assert trace(a) == rep.trace(a)
    _report("6 (blade trace = matrix-representation trace, 500 x n in {2,4,6})", True)


def test_criterion_7_residue_machinery():
    """Residue closed form for m=2..6; pipeline integrals vs quadrature."""
    for m in range(2, 7):
        expected = (GaussianRational(0, -1)
                    * rational(math.factorial(2 * m - 2))
                    / rational(math.factorial(m - 1) * 2 ** (2 * m)))
        assert XiRational(POLY_X, down=m).derivatives_at(GR_I, m)[m] == expected
    for m in (2, 3, 4):
        for half in half_inverse_symbol_components():
            f = half * dxn_symbol(m)
            exact = complex(line_integral(f)) * math.pi  # units of pi
            numeric = quad_oracle(f)
            assert abs(exact.real - numeric.real) < 1e-9
            assert abs(exact.imag - numeric.imag) < 1e-9
    _report("7 (residue closed form m=2..6; quadrature to 1e-9 for m=2,3,4)", True)


def test_criterion_8_boundary_structure():
    """Boundary density: exact structure, catalogued coefficient, quadrature."""
    rng = random.Random(SEED + 6)
    for n in (4, 6, 8):
        m = n // 2
        # the exact multiple of pi * comb * 2^m * dim_F * vol(S^(n-2))
        stated_mu = (GaussianRational(0, 1 - m)
                     * rational(math.factorial(2 * m - 2))
                     / rational(math.factorial(m) * math.factorial(m - 1))
                     / rational(2 ** (2 * m - 1)))
        for _ in range(15):
            u, v, w = (rand_oneform(rng, n) for _ in range(3))
            tangential, normal = boundary_pieces_reference(u, v, w, n)
            assert tangential.is_zero()
            assert boundary_density(u, v, w) == normal
            comb = normal_trace_combination_reference(u, v, w)
            assert normal == SymScalar.from_monomial(
                (PI, DIM_F, vol_sphere(n - 2)),
                stated_mu * rational(2 ** m) * comb)
        # pipeline value vs quadrature
        _, normal_half = half_inverse_symbol_components()
        f = normal_half * dxn_symbol(m)
        exact = complex(line_integral(f)) * math.pi  # units of pi
        numeric = quad_oracle(f)
        assert abs(exact.real - numeric.real) < 1e-9
        assert abs(exact.imag - numeric.imag) < 1e-9
    # comparison emitted in the E4.63 row (a match here)
    rows = {r.id: r for r in verify_suite(4, trials=2)}
    assert rows["E4.63"].matches
    _report("8 (boundary structure, catalogued coefficient, quadrature)", True)


def test_criterion_9_discrepancy_ledger_and_exit_policy():
    """E4.20 reported with both values; exit code keyed to final rows only."""
    # canonical inputs: T(u,v,w) = 1, so computed carries (n-6)/n * 2^m
    # against the catalogued -5 * 2^m, per sphere volume
    expected_computed = {4: SymScalar.from_atom(vol_sphere(3), -2),
                         6: SymScalar()}
    expected_reference = {4: SymScalar.from_atom(vol_sphere(3), -20),
                          6: SymScalar.from_atom(vol_sphere(5), -40)}
    for n in (4, 6):
        rows = {r.id: r for r in verify_suite(n, trials=2)}
        row = rows["E4.20"]
        assert not row.matches
        assert row.computed == expected_computed[n]
        assert row.reference == expected_reference[n]
    # exit-code policy: 0 iff every final-theorem row matches
    for dims, expect_all in (([6], True), ([4], False), ([4, 6], False)):
        payload = run_verify(dims, seed=SEED)
        finals = [row for result in payload["results"] for row in result["rows"]
                  if row["final"]]
        assert payload["all_final_match"] == all(r["matches"] for r in finals)
        assert payload["all_final_match"] is expect_all
        if not expect_all:
            failing = {r["id"] for r in finals if not r["matches"]}
            assert failing == {"T4.11n4"}  # the documented genuine failure
    _report("9 (E4.20 reported both-sided; final-row exit policy)", True)
