"""Top-level evaluation, closed forms, reports and the verify catalog."""

from __future__ import annotations

import itertools
import random
import re
import time

import pytest

from spectral_torsion import (
    DimensionMismatch,
    FINAL_IDS,
    Grading,
    ManifoldSpec,
    Multivector,
    OneForm,
    SymScalar,
    ThreeForm,
    TorsionGrading,
    TorsionVector,
    TR_F_PHI,
    UnsupportedDimension,
    VectorGrading,
    boundary_density,
    interior_density,
    metric_pair,
    mv_mul,
    rational,
    spectral_torsion,
    supertrace,
    theorem_value,
    trace,
    verify_suite,
    vol_sphere,
)
from spectral_torsion import torsion, verify
from spectral_torsion.clifford import scalar_product
from spectral_torsion.forms import _complement, eval_threeform
from spectral_torsion.moments import integrate_sphere
from spectral_torsion.symbols import sigma_minus2m
from spectral_torsion.torsion import normal_trace_combination
from spectral_torsion.scalars import GaussianRational, Rational

from conftest import (
    cayley_rotation,
    rand_oneform,
    rand_rational,
    rand_threeform,
    rotate_oneform,
    rotate_threeform,
    top_pairing_oracle,
)


def basis(n, i):
    return OneForm.basis(n, i)


def test_manifold_spec_validation():
    with pytest.raises(UnsupportedDimension):
        ManifoldSpec(2)
    with pytest.raises(UnsupportedDimension):
        ManifoldSpec(5)
    with pytest.raises(UnsupportedDimension):
        ManifoldSpec(18)
    # 4.0 % 2 == 0 and True is an int, yet neither is a dimension
    for dim in (4.0, True, "4"):
        with pytest.raises(UnsupportedDimension, match=rf"^dimension must be even with .*, got {dim}$"):
            ManifoldSpec(dim)
    for flag in ("yes", 1, None):
        with pytest.raises(TypeError, match=rf"^with_boundary must be a bool, got {flag!r}$"):
            ManifoldSpec(4, with_boundary=flag)


def test_verify_suite_needs_a_manifold_spec():
    with pytest.raises(TypeError, match=r"^verify_suite needs a ManifoldSpec, got int$"):
        verify_suite(4)


_U4, _T4 = OneForm.basis(4, 1), ThreeForm(4, {(1, 2, 3): 1})


@pytest.mark.parametrize("call", [spectral_torsion, theorem_value])
def test_spectral_torsion_and_theorem_value_need_a_manifold_spec(call, monkeypatch):
    """A bare dimension is verify_suite's TypeError, raised before any
    density, not an AttributeError on its missing dim."""
    monkeypatch.setattr(torsion, "interior_density", _no_density)
    with pytest.raises(TypeError, match=rf"^{call.__name__} needs a ManifoldSpec, got int$"):
        call(Grading(), _U4, _U4, _U4, 4)


@pytest.mark.parametrize("call, message", [
    (lambda: interior_density(_U4, _U4, _U4, VectorGrading(_T4)),
     "VectorGrading.X must be a OneForm, got ThreeForm"),
    (lambda: spectral_torsion(TorsionVector(_U4, _U4), _U4, _U4, _U4, ManifoldSpec(4)),
     "TorsionVector.T must be a ThreeForm, got OneForm"),
    (lambda: interior_density(_U4, _U4, _U4, TorsionVector(_T4, None)),
     "TorsionVector.Y must be a OneForm, got NoneType"),
    (lambda: theorem_value(TorsionGrading(_U4), _U4, _U4, _U4, ManifoldSpec(4)),
     "TorsionGrading.T must be a ThreeForm, got OneForm"),
    (lambda: theorem_value(_T4, _U4, _U4, _U4, ManifoldSpec(4)),
     "unknown perturbation case ThreeForm"),
], ids=["interior-X", "spectral-T", "interior-Y", "theorem-T", "theorem-case"])
def test_case_fields_are_type_checked(call, message):
    """A case field of the wrong form type is one TypeError naming the case
    and the field, not an AttributeError or a wrapped answer."""
    with pytest.raises(TypeError, match="^" + message):
        call()


def _no_density(*args):
    raise AssertionError("a density was computed before the arguments were checked")


@pytest.mark.parametrize("with_boundary", [False, True])
def test_spectral_torsion_checks_the_frame_against_its_spec_first(with_boundary, monkeypatch):
    """The densities read n off the forms, so spectral_torsion refuses a
    frame of another dimension than its spec's before either runs."""
    for name in ("interior_density", "boundary_density"):
        monkeypatch.setattr(torsion, name, _no_density)
    u6 = OneForm.basis(6, 1)
    with pytest.raises(DimensionMismatch, match=r"^dim 6 vs 4$"):
        spectral_torsion(Grading(), u6, u6, u6, ManifoldSpec(4, with_boundary))


@pytest.mark.parametrize("seed", ["x", 1.5, True])
def test_verify_suite_seed_is_none_or_an_int(seed, monkeypatch):
    """One seed rule, for verify_suite and for spectral_torsion: None or an
    int, not a bool.  spectral_torsion checks it before any density, with
    the catalog on or off."""
    message = rf"^seed must be None or an int, got {seed!r}$"
    with pytest.raises(TypeError, match=message):
        verify_suite(ManifoldSpec(4), seed=seed)
    monkeypatch.setattr(torsion, "interior_density", _no_density)
    for with_identities in (True, False):
        with pytest.raises(TypeError, match=message):
            spectral_torsion(TorsionVector(_T4, _U4), _U4, _U4, _U4, ManifoldSpec(4),
                             with_identities=with_identities, seed=seed)


class _NoRow:
    @property
    def dims(self):
        raise AssertionError("a catalog row ran before the arguments were checked")


@pytest.mark.parametrize("trials", [-3, True, 2.5, "5", None])
def test_verify_suite_trials_is_an_int_at_least_0(trials, monkeypatch):
    """One trials rule: an int >= 0, not a bool, checked before any row runs.
    0 runs each row on its canonical input only."""
    monkeypatch.setattr(verify, "CATALOG", (_NoRow(),))
    message = rf"^trials must be an int >= 0, got {re.escape(repr(trials))}$"
    with pytest.raises(ValueError, match=message):
        verify_suite(ManifoldSpec(4), trials=trials)
    monkeypatch.undo()
    rows = verify_suite(ManifoldSpec(4), trials=0)
    assert [row.id for row in rows] == [row.id for row in verify_suite(ManifoldSpec(4))]


@pytest.mark.parametrize("flag", [1, 0, None, "yes"])
def test_spectral_torsion_with_identities_is_a_bool(flag, monkeypatch):
    """with_identities is True or False, checked before any density."""
    monkeypatch.setattr(torsion, "interior_density", _no_density)
    with pytest.raises(TypeError, match=rf"^with_identities must be a bool, got {flag!r}$"):
        spectral_torsion(Grading(), _U4, _U4, _U4, ManifoldSpec(4), with_identities=flag)


_LIST4 = [1, 0, 0, 0]
_E1 = Multivector.generator(4, 1)
_FORM = "a form or a multivector, got list"
_INT = "a form or a multivector, got int"
_MAPPING = "a mapping, got list"
_MV_FORM = "a Multivector, got OneForm"
_ONE_THREE = "a OneForm, got ThreeForm"


@pytest.mark.parametrize("call, expected", [
    (lambda: interior_density(_LIST4, _U4, _U4, TorsionVector(_T4, _U4)), _FORM),
    (lambda: interior_density(_U4, _U4, _LIST4, Grading()), _FORM),
    (lambda: boundary_density(_U4, _LIST4, _U4), _FORM),
    (lambda: metric_pair(_U4, _LIST4), _FORM),
    (lambda: metric_pair(_LIST4, _U4), _FORM),
    (lambda: eval_threeform(_T4, _U4, _U4, _LIST4), _FORM),
    (lambda: eval_threeform(_LIST4, _U4, _U4, _U4), _FORM),
    (lambda: mv_mul(_E1, _LIST4), _FORM),
    (lambda: mv_mul(_LIST4, _E1), _FORM),
    (lambda: trace(_LIST4), _FORM),
    (lambda: trace(_E1, _LIST4), _FORM),
    (lambda: trace(_E1, Multivector.generator(4, 2), _LIST4), _FORM),
    (lambda: supertrace(_LIST4), _FORM),
    (lambda: Multivector(4, [1, 2]), _MAPPING),
    (lambda: ThreeForm(4, [1]), _MAPPING),
    (lambda: SymScalar([1]), _MAPPING),
    (lambda: mv_mul(_E1, 4), _INT),
    (lambda: scalar_product(_E1, 4), _INT),
    (lambda: metric_pair(_U4, 4), _INT),
    (lambda: eval_threeform(4, _U4, _U4, _U4), _INT),
    (lambda: normal_trace_combination(4, _U4, _U4), _INT),
    (lambda: sigma_minus2m([1]), _FORM),
    (lambda: integrate_sphere(4, [1]), "an XiPolynomialMV, got list"),
    (lambda: mv_mul(_E1, _U4), _MV_FORM),
    (lambda: trace(_E1, _U4), _MV_FORM),
    (lambda: scalar_product(_E1, _T4), "a Multivector, got ThreeForm"),
    (lambda: supertrace(_U4), _MV_FORM),
    (lambda: sigma_minus2m(_U4), _MV_FORM),
    (lambda: boundary_density(_T4, _U4, _U4), _ONE_THREE),
    (lambda: interior_density(_T4, _U4, _U4, TorsionVector(_T4, _U4)), _ONE_THREE),
    (lambda: theorem_value(TorsionVector(_T4, _U4), _T4, _U4, _U4, ManifoldSpec(4)),
     _ONE_THREE),
    (lambda: theorem_value(Grading(), _U4, _T4, _U4, ManifoldSpec(4)), _ONE_THREE),
    (lambda: spectral_torsion(TorsionVector(_T4, _U4), _T4, _U4, _U4, ManifoldSpec(4)),
     _ONE_THREE),
    (lambda: eval_threeform(_T4, _T4, _U4, _U4), _ONE_THREE),
    (lambda: eval_threeform(_U4, _U4, _U4, _U4), "a ThreeForm, got OneForm"),
    (lambda: metric_pair(_T4, _U4), _ONE_THREE),
    (lambda: _complement(_LIST4), _FORM),
    (lambda: verify._sphere_trace_integral(_LIST4, _E1, (True,)), _FORM),
], ids=["interior", "interior-zero", "boundary", "metric-right", "metric-left",
        "threeform-row", "threeform-t", "mv_mul-right", "mv_mul-left", "trace",
        "trace-second", "trace-third", "supertrace", "multivector-coeffs",
        "threeform-components", "symscalar-terms", "mv_mul-int", "scalar_product-int",
        "metric-int", "threeform-int", "normal-trace-int", "sigma", "integrate_sphere",
        "mv_mul-form", "trace-form", "scalar_product-form", "supertrace-form",
        "sigma-form", "boundary-threeform", "interior-threeform",
        "theorem-threeform", "theorem-zero-threeform", "spectral_torsion-threeform",
        "threeform-row-threeform", "threeform-t-oneform", "metric-threeform",
        "complement", "sphere-trace-integral"])
def test_a_list_argument_is_a_type_error(call, expected):
    """A list where a form or a multivector belongs has no int dim: the one
    same-dimension rule refuses it with a TypeError naming its type, not an
    AttributeError, on the zero interior density too.  A bare int there is
    refused the same way, though the rule reads an int second argument as a
    dimension.  A list where the constructors of Multivector, ThreeForm and
    SymScalar take a mapping, or where integrate_sphere takes a polynomial,
    is refused the same way.  A form where a multivector belongs, or a
    3-form where a one-form belongs, has an int dim: the rule refuses it by
    the type that the caller reads, on the zero closed form too."""
    with pytest.raises(TypeError, match=rf"^expected {expected}$"):
        call()


def test_theorem_torsion_vector_n6():
    n = 6
    t = ThreeForm(n, {(1, 2, 3): 1})
    case = TorsionVector(t, OneForm.zero(n))
    value = theorem_value(case, basis(n, 1), basis(n, 2), basis(n, 3), ManifoldSpec(n))
    assert value == SymScalar.from_monomial((vol_sphere(5), TR_F_PHI), -16)


def test_theorem_grading_zero(rng):
    n = 6
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    assert theorem_value(Grading(), u, v, w, ManifoldSpec(n)).is_zero()


def test_theorem_torsion_grading_n8_zero(rng):
    n = 8
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    case = TorsionGrading(rand_threeform(rng, n))
    assert theorem_value(case, u, v, w, ManifoldSpec(n)).is_zero()


@pytest.mark.parametrize("case_name, n, inputs", [
    ("vector_grading", 4, 256), ("torsion_grading", 4, 256), ("torsion_grading", 6, 4320)])
def test_graded_closed_forms_on_basis_inputs(case_name, n, inputs):
    """theorem_value equals the catalogued constant times the Levi-Civita
    oracle on every input of basis one-forms u, v, w and a basis X or T.
    Each closed form is multilinear in (u, v, w, X or T), so agreement on
    the basis proves it on every input."""
    es = [basis(n, i) for i in range(1, n + 1)]
    if case_name == "vector_grading":
        last = es
    else:
        last = [ThreeForm(n, {abc: 1}) for abc in itertools.combinations(range(1, n + 1), 3)]
    spec, checked, nonzero = ManifoldSpec(n), 0, 0
    for u, v, w, f in itertools.product(es, es, es, last):
        if case_name == "vector_grading":
            case, coeff = VectorGrading(f), 8 * top_pairing_oracle(u, v, w, f)
        elif n == 4:
            # g(e_i, e_j) is 1 on equal basis one-forms, else 0
            combo = (-top_pairing_oracle(w, f) * (u == v)
                     + top_pairing_oracle(v, f) * (u == w)
                     - top_pairing_oracle(u, f) * (v == w))
            case, coeff = TorsionGrading(f), combo * 16 * GaussianRational(0, 1)
        else:
            case, coeff = TorsionGrading(f), 16 * top_pairing_oracle(u, v, w, f)
        expected = SymScalar.from_monomial((vol_sphere(n - 1), TR_F_PHI), coeff)
        assert theorem_value(case, u, v, w, spec) == expected, (u, v, w, f)
        checked += 1
        nonzero += not expected.is_zero()
    assert checked == inputs and nonzero > 0


def test_theorem_value_rejects_a_form_of_another_dimension():
    u, v, w = (basis(4, i) for i in (1, 2, 3))
    for case in (VectorGrading(basis(6, 4)), TorsionGrading(ThreeForm(6, {(4, 5, 6): 1}))):
        with pytest.raises(DimensionMismatch):
            theorem_value(case, u, v, w, ManifoldSpec(4))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_spectral_torsion_matches_torsion_vector(n, rng):
    for _ in range(5):
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        case = TorsionVector(rand_threeform(rng, n), rand_oneform(rng, n))
        report = spectral_torsion(case, u, v, w, ManifoldSpec(n))
        assert report.matches_theorem
        assert report.boundary_density.is_zero()
        assert report.total == report.interior_density


def test_spectral_torsion_vector_grading_basis():
    n = 4
    report = spectral_torsion(VectorGrading(basis(n, 4)),
                              basis(n, 1), basis(n, 2), basis(n, 3),
                              ManifoldSpec(n))
    assert report.interior_density == SymScalar.from_monomial(
        (vol_sphere(3), TR_F_PHI), 8)
    assert report.matches_theorem


def test_spectral_torsion_with_boundary_tangential_inputs(rng):
    n = 4
    u = OneForm((1, rational("1/2"), 0, 0))
    v = OneForm((0, 1, 3, 0))
    w = OneForm((2, 0, 1, 0))
    case = TorsionVector(rand_threeform(rng, n), rand_oneform(rng, n))
    report = spectral_torsion(case, u, v, w, ManifoldSpec(n, with_boundary=True))
    assert report.boundary_density.is_zero()
    assert report.total == report.interior_density
    assert report.matches_theorem


def test_spectral_torsion_with_boundary_matches(rng):
    for n in (4, 6):
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        case = TorsionVector(rand_threeform(rng, n), rand_oneform(rng, n))
        report = spectral_torsion(case, u, v, w, ManifoldSpec(n, with_boundary=True))
        assert report.matches_theorem
        assert report.total == report.interior_density + report.boundary_density


def test_grading_torsion_n4_report_drops_match_flag(rng):
    """The honest pipeline value (zero) differs from the catalogued n=4 line."""
    n = 4
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    case = TorsionGrading(rand_threeform(rng, n))
    report = spectral_torsion(case, u, v, w, ManifoldSpec(n))
    assert report.interior_density.is_zero()
    if not report.theorem_value.is_zero():
        assert not report.matches_theorem


def test_torsion_vector_density_antisymmetric(rng):
    n = 6
    case = TorsionVector(rand_threeform(rng, n), rand_oneform(rng, n))
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    base = interior_density(u, v, w, case)
    assert (interior_density(v, u, w, case) + base).is_zero()
    assert (interior_density(u, w, v, case) + base).is_zero()
    assert interior_density(u, u, w, case).is_zero()


def test_frame_rotation_invariance(rng):
    n = 4
    q = cayley_rotation(rng, n)
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    t, y = rand_threeform(rng, n), rand_oneform(rng, n)
    x = rand_oneform(rng, n)

    ur, vr, wr = (rotate_oneform(q, f) for f in (u, v, w))
    tr_, yr = rotate_threeform(q, t), rotate_oneform(q, y)
    xr = rotate_oneform(q, x)

    for case, rotated in (
        (TorsionVector(t, y), TorsionVector(tr_, yr)),
        (Grading(), Grading()),
        (VectorGrading(x), VectorGrading(xr)),
        (TorsionGrading(t), TorsionGrading(tr_)),
    ):
        assert interior_density(u, v, w, case) == \
            interior_density(ur, vr, wr, rotated)


def test_report_identity_rows_present():
    n = 4
    report = spectral_torsion(
        TorsionVector(ThreeForm(n, {(1, 2, 3): 1}), OneForm.zero(n)),
        basis(n, 1), basis(n, 2), basis(n, 3), ManifoldSpec(n),
        with_identities=True)
    ids = {row.id for row in report.identity_comparisons}
    assert {"T4.5", "E4.20", "L4.9", "E4.63"} <= ids


# -- verify suite ----------------------------------------------------------------


def test_verify_suite_reports_documented_mismatches_n4():
    rows = {r.id: r for r in verify_suite(ManifoldSpec(4))}
    assert not rows["E4.20"].matches
    assert rows["E4.20"].computed == SymScalar.from_atom(vol_sphere(3), -2)
    assert rows["E4.20"].reference == SymScalar.from_atom(vol_sphere(3), -20)
    assert not rows["E4.41"].matches
    assert not rows["E4.31"].matches
    assert not rows["E4.61"].matches
    assert not rows["T4.11n4"].matches
    assert rows["T4.11n4"].computed.is_zero()
    assert rows["T4.11n4"].reference == SymScalar.from_monomial(
        (vol_sphere(3), TR_F_PHI), GaussianRational(0, 16))


def test_verify_suite_final_rows_n6_all_match():
    rows = verify_suite(ManifoldSpec(6))
    finals = [r for r in rows if r.id in FINAL_IDS]
    assert finals and all(r.matches for r in finals)
    by_id = {r.id: r for r in rows}
    assert by_id["E4.41"].matches  # both sides vanish at n=6
    assert by_id["E4.63"].matches
    assert by_id["T4.13"].matches


def test_verify_suite_structural_rows_match_everywhere():
    for n in (4, 6, 8):
        rows = {r.id: r for r in verify_suite(ManifoldSpec(n), trials=2)}
        for key in ("L4.3a", "L4.3b", "E4.17", "E4.18", "E4.19", "L4.9",
                    "E4.36", "E4.37", "E4.42", "E4.55", "E4.56", "E4.57",
                    "E4.60", "E4.62", "E4.63", "T4.5", "R4.7", "T4.8γ",
                    "T4.10", "T4.13"):
            assert rows[key].matches, key


def test_verify_suite_deterministic_with_seed():
    a = verify_suite(ManifoldSpec(4), seed=7)
    b = verify_suite(ManifoldSpec(4), seed=7)
    assert [(r.id, r.matches, str(r.computed)) for r in a] == \
        [(r.id, r.matches, str(r.computed)) for r in b]


def test_verify_suite_never_aborts_on_mismatch():
    rows = verify_suite(ManifoldSpec(4), trials=1)
    assert len(rows) >= 25


def test_high_dimension_spot_check(rng):
    # beyond the acceptance range the closed forms still hold exactly
    n = 10
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    t, y = rand_threeform(rng, n, keep=0.3), rand_oneform(rng, n)
    case = TorsionVector(t, y)
    assert interior_density(u, v, w, case) == \
        theorem_value(case, u, v, w, ManifoldSpec(n))
    assert interior_density(u, v, w, TorsionGrading(t)).is_zero()


def test_theorem_value_n16_time_bound():
    """theorem_value alone on a dense torsion_vector input at n=16: all 560
    triples of T set, the fastest of three calls.

    On the fractions backend (2-vCPU VM) the first runs took 0.9-1.4 ms with
    eval_threeform on integer numerators; the bound is about 6x the slowest.
    Summed in Rationals, eval_threeform took 21-23 ms here.
    """
    n = 16
    rng = random.Random("theorem-n16")
    u, v, w, y = (rand_oneform(rng, n) for _ in range(4))
    t = ThreeForm(n, {abc: rand_rational(rng) or 1
                      for abc in itertools.combinations(range(1, n + 1), 3)})
    assert len(t.components) == 560
    case, spec = TorsionVector(t, y), ManifoldSpec(n)
    elapsed = []
    for _ in range(3):
        start = time.monotonic()
        value = theorem_value(case, u, v, w, spec)
        elapsed.append(time.monotonic() - start)
    assert value == SymScalar.from_monomial((TR_F_PHI, vol_sphere(n - 1)),
                                            -2 ** 9 * eval_threeform(t, u, v, w))
    assert min(elapsed) < 0.008, f"theorem_value at n=16 took {min(elapsed) * 1e3:.1f} ms " \
        f"on {Rational.__module__}.{Rational.__name__}"
