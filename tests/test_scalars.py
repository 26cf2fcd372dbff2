"""Exact scalar kernel: Gaussian rationals and symbolic scalars."""

from __future__ import annotations

import copy
import fractions
import math
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

from spectral_torsion import (
    DIM_F,
    GaussianRational,
    MissingAtom,
    PI,
    SymScalar,
    TR_F_PHI,
    rational,
    sym,
    vol_sphere,
)
from spectral_torsion.clifford import Multivector, mv_mul
from spectral_torsion.forms import OneForm, ThreeForm
from spectral_torsion.halfline import Poly, XiRational
from spectral_torsion.moments import XiPolynomialMV, vol_numeric
from spectral_torsion.scalars import Rational


def test_gaussian_norm_product():
    z = GaussianRational(rational("1/2"), 1)
    assert z * GaussianRational(z.re, -z.im) == GaussianRational(rational("5/4"))


def test_monomial_merge():
    a = SymScalar.from_atom(vol_sphere(3), 2)
    b = SymScalar.from_atom(PI) * SymScalar.from_atom(TR_F_PHI)
    prod = a * b
    assert prod == SymScalar.from_monomial((PI, vol_sphere(3), TR_F_PHI), 2)
    assert str(prod) == "2*pi*vol(S^3)*tr_F(Phi)"


def test_zero_annihilates():
    x = SymScalar.from_atom(PI, GaussianRational(3, -2))
    assert (x * SymScalar()).is_zero()
    assert (x * sym(0)).is_zero()


def test_eval_pi():
    s = SymScalar.from_atom(PI)
    assert s.evaluate({PI: math.pi}) == pytest.approx(math.pi)


def test_eval_vol_s3_gamma_oracle():
    # vol(S^3) from the Gamma closed form: 2 pi^2
    expected = 2.0 * math.pi ** 2
    assert vol_numeric(3) == pytest.approx(expected, rel=1e-14)
    s = SymScalar.from_atom(vol_sphere(3))
    assert s.evaluate({vol_sphere(3): vol_numeric(3)}) == pytest.approx(19.7392088021787, rel=1e-12)


@pytest.mark.parametrize("k", [2.5, True, 3.0, 0])
def test_vol_sphere_refuses_non_int_dimensions(k):
    """A sphere dimension is an int >= 1, not a float or a bool: no atom is
    made for vol_sphere(2.5) or vol_sphere(True)."""
    with pytest.raises(ValueError, match=rf"^sphere dimension must be an int >= 1, got {k!r}$"):
        vol_sphere(k)


@pytest.mark.parametrize("coeff", [0.5, 1j, "1", None])
def test_symscalar_refuses_non_exact_coefficients(coeff):
    """Each coefficient container (SymScalar, Multivector, Poly) coerces a
    coefficient as a Gaussian rational: an int is accepted, a float,
    complex, string or None is a TypeError, not an AttributeError.  Only the
    scalar and form constructors parse strings."""
    assert SymScalar({(PI,): 2, (): 0}) == SymScalar.from_atom(PI, 2)
    assert Multivector(4, {1: 2, 3: 0}) == Multivector(4, {1: GaussianRational(2)})
    assert Poly((2, 0)) == Poly((GaussianRational(2),))
    message = rf"^cannot interpret {re.escape(repr(coeff))} as a Gaussian rational$"
    for build in (lambda: SymScalar({(): coeff}), lambda: Multivector(4, {0: coeff}),
                  lambda: Poly((coeff,))):
        with pytest.raises(TypeError, match=message):
            build()


def test_eval_scaled_vol():
    s = SymScalar.from_atom(vol_sphere(3), -8)
    value = s.evaluate({vol_sphere(3): vol_numeric(3)})
    assert value == pytest.approx(-157.91367041742973, rel=1e-12)


def test_eval_missing_atom():
    s = SymScalar.from_atom(PI) + SymScalar.from_atom(TR_F_PHI)
    with pytest.raises(MissingAtom):
        s.evaluate({PI: math.pi})


# -- randomized ring axioms -------------------------------------------------

small_rationals = st.fractions(max_denominator=8).map(
    lambda f: rational(f.numerator) / rational(f.denominator))

gaussians = st.builds(GaussianRational, small_rationals, small_rationals)

atoms = st.sampled_from([PI, vol_sphere(3), vol_sphere(5), TR_F_PHI])

monomial_scalars = st.builds(
    lambda a, c: SymScalar.from_monomial(a, c),
    st.lists(atoms, max_size=3),
    gaussians,
)

sym_scalars = st.lists(monomial_scalars, min_size=0, max_size=3).map(
    lambda parts: sum(parts, SymScalar()))


@settings(max_examples=200, deadline=None)
@given(sym_scalars, sym_scalars, sym_scalars)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, deadline=None)
@given(sym_scalars, sym_scalars)
def test_eval_multiplicative(a, b):
    env = {PI: math.pi, vol_sphere(3): vol_numeric(3),
           vol_sphere(5): vol_numeric(5), TR_F_PHI: 1.7}
    lhs = (a * b).evaluate(env)
    rhs = a.evaluate(env) * b.evaluate(env)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_gaussian_printed_form():
    """Real, imaginary and complex values, as the goldens print them."""
    cases = [((rational("-3/4"), 0), "-3/4"), ((0, 1), "1 i"), ((0, -1), "-1 i"),
             ((0, rational("-1/2")), "-1/2 i"), ((0, rational("5/2")), "5/2 i"),
             ((3, -2), "3-2 i"), ((rational("-1/2"), 1), "-1/2+1 i"), ((0, 0), "0")]
    assert [str(GaussianRational(re, im)) for (re, im), _ in cases] == \
        [text for _, text in cases]


def test_conjugation_involution():
    def conj(x):
        return GaussianRational(x.re, -x.im)

    z, w = GaussianRational(rational("2/3"), rational("-5/7")), GaussianRational(3, 1)
    assert conj(conj(z)) == z and conj(z * w) == conj(z) * conj(w)
    assert GaussianRational(0, 1) * GaussianRational(0, 1) == GaussianRational(-1)


def test_rational_reduction_and_parse():
    assert str(rational("-6/8")) == "-3/4"
    assert rational("4/2") == 2
    with pytest.raises(ZeroDivisionError):
        rational("1/0")


def test_division_exact():
    z = GaussianRational(1, 1) / GaussianRational(0, 2)
    assert z == GaussianRational(rational("1/2"), rational("-1/2"))
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_printing_order_and_terms_roundtrip():
    s = (SymScalar.from_monomial((TR_F_PHI, vol_sphere(3)), -8)
         + SymScalar.from_atom(PI, GaussianRational(0, rational("1/2"))))
    # atoms inside a monomial are ordered pi < vol < tr_F < dim_F
    assert str(s) == "(1/2 i)*pi - 8*vol(S^3)*tr_F(Phi)"
    # the compute JSON's term blocks: real, imaginary and complex coefficients
    s = (s + sym(rational("2/3")) + SymScalar.from_atom(PI, GaussianRational(0, -1))
         + SymScalar.from_monomial((PI, DIM_F), GaussianRational(0, -1))
         + SymScalar.from_atom(DIM_F, GaussianRational(rational("-1/2"), 1)))
    assert str(s) == ("2/3 - (1/2 i)*pi - (1 i)*pi*dim_F - 8*vol(S^3)*tr_F(Phi)"
                      " + (-1/2+1 i)*dim_F")
    assert s.to_terms() == [
        {"atoms": [], "coeff": "2/3"},
        {"atoms": ["pi"], "coeff": "-1/2 i"},
        {"atoms": ["pi", "dim_F"], "coeff": "-1 i"},
        {"atoms": ["vol(S^3)", "tr_F(Phi)"], "coeff": "-8"},
        {"atoms": ["dim_F"], "coeff": "-1/2+1 i"},
    ]
    assert str(sym(GaussianRational(0, 1))) == "(1 i)"
    assert str(sym(GaussianRational(3, -2))) == "(3-2 i)"
    # a magnitude of 1 is dropped before atoms, whatever the sign; an
    # imaginary coefficient puts its sign in front, a complex one prints whole
    assert str(SymScalar.from_atom(PI, -1) + SymScalar.from_atom(DIM_F, 1)) == "-pi + dim_F"
    assert str(sym(-1) + SymScalar.from_atom(PI, GaussianRational(0, 1))) == "-1 + (1 i)*pi"
    assert str(SymScalar.from_atom(PI, GaussianRational(-2, 3))) == "(-2+3 i)*pi"
    assert str(SymScalar.from_atom(vol_sphere(3), GaussianRational(0, -1))) \
        == "-(1 i)*vol(S^3)"


def test_gaussian_plus_symscalar_is_symscalar_plus_gaussian():
    """GaussianRational + SymScalar used to raise TypeError while the other
    order answered; it now hands the sum to SymScalar.__radd__."""
    g = GaussianRational(1, 2)
    s = SymScalar.from_atom(PI, 3) + sym(3)
    assert g + s == s + g == SymScalar.from_atom(PI, 3) + sym(GaussianRational(4, 2))
    assert g + sym(3) == sym(GaussianRational(4, 2))
    for other in ("3", 1.5, None):
        with pytest.raises(TypeError, match=rf"^cannot interpret {re.escape(repr(other))} "
                                            r"as a Gaussian rational$"):
            g + other


def test_gaussian_times_symscalar_is_symscalar_times_gaussian():
    """GaussianRational * SymScalar used to raise TypeError while the other
    order answered; it now hands the product to SymScalar.__rmul__."""
    g = GaussianRational(1, 2)
    s = SymScalar.from_atom(PI, 3) + sym(3)
    assert g * s == s * g == SymScalar.from_atom(PI, GaussianRational(3, 6)) \
        + sym(GaussianRational(3, 6))
    assert GaussianRational(2) * SymScalar.from_atom(PI) == SymScalar.from_atom(PI, 2)
    assert g * sym(3) == sym(GaussianRational(3, 6))
    for other in ("3", 1.5, None):
        with pytest.raises(TypeError, match=rf"^cannot interpret {re.escape(repr(other))} "
                                            r"as a Gaussian rational$"):
            g * other


def test_str_zero():
    assert str(SymScalar()) == "0"


def test_equal_scalars_hash_alike():
    """Values that compare equal are one set member and one dict key."""
    half = rational("1/2")
    equal_groups = [
        (3, rational(3), GaussianRational(3), sym(3), sym(GaussianRational(3))),
        (half, GaussianRational(half), sym(half)),
        (0, rational(0), GaussianRational(0), sym(0), SymScalar()),
        (GaussianRational(1, -2), sym(GaussianRational(1, -2))),
        (True, 1, GaussianRational(1), sym(1)),
    ]
    for group in equal_groups:
        assert all(a == b for a in group for b in group)
        assert len(set(group)) == 1
        table = {group[0]: "value"}
        assert all(table.get(x) == "value" for x in group)
    distinct = {GaussianRational(3), GaussianRational(0, 3), GaussianRational(3, 3),
                sym(3), SymScalar.from_atom(PI, 3)}
    assert len(distinct) == 4  # GaussianRational(3) and sym(3) are one member


# (a builder of one value, the attribute to probe, what the value has always
# hashed as: the protocol must not move any set or dict key)
_VALUE_TYPES = {
    "Multivector": (lambda: Multivector(4, {1: 1, 6: GaussianRational(0, 2)}), "dim",
                    (4, frozenset({1: GaussianRational(1), 6: GaussianRational(0, 2)}.items()))),
    "OneForm": (lambda: OneForm([1, "2/3"]), "dim", (rational(1), rational("2/3"))),
    "ThreeForm": (lambda: ThreeForm(4, {(1, 2, 3): 1, (2, 3, 4): -2}), "dim",
                  (4, frozenset({(1, 2, 3): rational(1), (2, 3, 4): rational(-2)}.items()))),
    "XiPolynomialMV": (lambda: XiPolynomialMV(4, {(1, 1, 0, 0): Multivector.generator(4, 2)}),
                       "terms", None),
    "Poly": (lambda: Poly((1, 0, GaussianRational(0, 3))), "coeffs",
             (GaussianRational(1), GaussianRational(0), GaussianRational(0, 3))),
    "XiRational": (lambda: XiRational(Poly((2, 1)), 1, 2), "up", (Poly((2, 1)), 1, 2)),
}


@pytest.mark.parametrize("name", list(_VALUE_TYPES))
def test_value_types_are_immutable_and_compared_by_value(name):
    """The one value-type protocol: assigning or deleting an attribute is an
    AttributeError, equal values are equal and hash alike, a value never
    equals another type's, and XiPolynomialMV is unhashable."""
    build, attribute, hashed_as = _VALUE_TYPES[name]
    a, b = build(), build()
    message = rf"^{name} is immutable$"
    for target in (attribute, "other"):
        with pytest.raises(AttributeError, match=message):
            setattr(a, target, 1)
        with pytest.raises(AttributeError, match=message):
            delattr(a, target)
    assert a is not b and a == b and not a != b
    for other in (None, 1, OneForm([1]), Poly((1,))):
        assert a != other and not a == other
    if name != "Multivector":  # its own __eq__ reads the coefficients, not a key
        assert a != a._key()
    if hashed_as is None:
        with pytest.raises(TypeError, match="unhashable type"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(hashed_as)
        assert len({a, b}) == 1


@pytest.mark.parametrize("name", list(_VALUE_TYPES))
def test_value_types_copy_and_pickle(name):
    """A copy is the value itself; a pickle round trip, at every protocol
    from 0, rebuilds an equal value that hashes alike and stays immutable,
    GaussianRational coefficients included."""
    build, attribute, _ = _VALUE_TYPES[name]
    a = build()
    assert copy.copy(a) is a and copy.deepcopy(a) is a
    assert copy.deepcopy([a, a])[0] is a
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        b = pickle.loads(pickle.dumps(a, protocol))
        assert type(b) is type(a) and b is not a and b == a
        if name != "XiPolynomialMV":  # unhashable
            assert hash(b) == hash(a)
        with pytest.raises(AttributeError, match=rf"^{name} is immutable$"):
            setattr(b, attribute, 1)


@pytest.mark.parametrize("value", [
    GaussianRational(rational("-2/3"), 5), GaussianRational(0, 1),
    SymScalar.from_monomial((PI, vol_sphere(3)), GaussianRational(rational("1/2"), -1)),
    SymScalar()])
def test_scalars_copy_and_pickle_at_every_protocol(value):
    """GaussianRational and SymScalar, which are not _Values, copy and
    round-trip through pickle at every protocol to an equal value of the
    same type that hashes alike."""
    for other in [copy.copy(value), copy.deepcopy(value)] + [
            pickle.loads(pickle.dumps(value, protocol))
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]:
        assert type(other) is type(value) and other == value
        assert hash(other) == hash(value) and str(other) == str(value)


def test_int_and_rational_operands_keep_their_values():
    """An int or Rational operand is coerced without the validating
    constructor; the values, and the refusal of a bool, stay."""
    g = GaussianRational(rational("1/2"), -3)
    third = rational("1/3")
    for got, expected in ((g * 3, GaussianRational(rational("3/2"), -9)),
                          (3 * g, GaussianRational(rational("3/2"), -9)),
                          (g * third, GaussianRational(rational("1/6"), -1)),
                          (3 + g, GaussianRational(rational("7/2"), -3)),
                          (g - 3, GaussianRational(rational("-5/2"), -3)),
                          (g + third, GaussianRational(rational("5/6"), -3))):
        assert type(got) is GaussianRational and got == expected
        assert type(got.re) is Rational and type(got.im) is Rational
    for bad in (True, False):
        with pytest.raises(TypeError):
            g * bad
        with pytest.raises(TypeError):
            g + bad


def test_rational_is_the_stdlib_fraction():
    """Rational is fractions.Fraction, the one exact rational type, so a
    stdlib Fraction is accepted wherever a rational is and compares equal
    to the same value given as a string or an int."""
    assert Rational is fractions.Fraction
    half, one = fractions.Fraction(1, 2), fractions.Fraction(1)
    assert rational(half) is half and rational(half) == rational("+1/2")
    assert GaussianRational(half, one) == GaussianRational(rational("1/2"), 1)
    assert GaussianRational(one) == one
    assert sym(half) == SymScalar({(): half}) == SymScalar({(): rational("1/2")})
    assert sym(1) == one and SymScalar({(PI,): half}) == SymScalar.from_atom(PI, rational("1/2"))
    assert Multivector(4, {0: half}) == Multivector(4, {0: GaussianRational("1/2")})


def test_a_pickled_product_keeps_its_unbuilt_parts():
    """A product's coefficients are not built by pickling it; the copy reads
    them from the same integer parts."""
    a = Multivector(4, {1: rational("1/3"), 6: GaussianRational(0, 2)})
    product = mv_mul(a, a)
    b = pickle.loads(pickle.dumps(product))
    assert product._coeffs is None and b._coeffs is None
    assert b._parts == product._parts and b == product


@settings(max_examples=200, deadline=None)
@given(small_rationals, small_rationals)
def test_rational_stays_reduced(a, b):
    # gcd(numerator, denominator) = 1 and denominator > 0 after every operation
    for value in (a + b, a - b, a * b) + ((a / b,) if b != 0 else ()):
        assert math.gcd(int(value.numerator), int(value.denominator)) == 1
        assert value.denominator > 0


def test_catalog_identifiers_exported():
    from spectral_torsion import FINAL_IDS, IDENTITY_IDS
    assert set(FINAL_IDS) <= set(IDENTITY_IDS)
    assert len(IDENTITY_IDS) == 29
