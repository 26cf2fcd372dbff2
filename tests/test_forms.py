"""Forms, complement duals, top pairings and Clifford embeddings."""

from __future__ import annotations

import itertools
import random
import re
import sys

import pytest

from spectral_torsion import (
    DimensionMismatch,
    Multivector,
    OneForm,
    ThreeForm,
    XiPolynomialMV,
    eval_threeform,
    frame_product,
    mv_mul,
    rational,
    to_clifford,
    trace,
    xi_monomial,
)
from spectral_torsion.clifford import MAX_DIM
from spectral_torsion.forms import _complement
from spectral_torsion.torsion import _frame_pairing

from conftest import add_reference, coprime_draw, det_exact, eval_threeform_reference, \
    long_input, metric_pair, rand_oneform, rand_rational, rand_threeform, to_clifford_reference


def basis(n, i):
    return OneForm.basis(n, i)


def top_pairing(u, v, w, x):
    """<u ^ v ^ w ^ x, e_1* ^ ... ^ e_n*> by the complement dual of x."""
    return eval_threeform(_complement(x), u, v, w)


def test_metric_pair_basis():
    """The tests' metric oracle on basis one-forms."""
    assert metric_pair(basis(4, 1), basis(4, 1)) == 1
    assert metric_pair(basis(4, 1), basis(4, 2)) == 0


def test_eval_threeform_basic():
    t = ThreeForm(4, {(1, 2, 3): 1})
    u, v, w = basis(4, 1), basis(4, 2), basis(4, 3)
    assert eval_threeform(t, u, v, w) == 1
    assert eval_threeform(t, v, u, w) == -1
    assert eval_threeform(t, u, u, w) == 0


def test_top_pairing_basis():
    assert top_pairing(basis(4, 1), basis(4, 2), basis(4, 3), basis(4, 4)) == 1
    assert top_pairing(basis(4, 2), basis(4, 1), basis(4, 3), basis(4, 4)) == -1
    assert _complement(basis(4, 4)) == ThreeForm(4, {(1, 2, 3): 1})
    assert _complement(ThreeForm(4, {(1, 3, 4): 1})) == OneForm((0, -1, 0, 0))


def test_top_pairing_is_determinant(rng):
    n = 4
    for _ in range(30):
        rows = [[rand_rational(rng) for _ in range(n)] for _ in range(n)]
        assert top_pairing(*(OneForm(r) for r in rows)) == det_exact(rows)


def test_top_pairing_alternating(rng):
    n = 4
    u, v, w, x = (rand_oneform(rng, n) for _ in range(4))
    p = top_pairing(u, v, w, x)
    assert top_pairing(v, u, w, x) == -p
    assert top_pairing(u, u, w, x) == 0


def test_complementary_threeform_pairing():
    t = ThreeForm(6, {(4, 5, 6): 1})
    assert _complement(t) == ThreeForm(6, {(1, 2, 3): 1})
    assert top_pairing(basis(6, 1), basis(6, 2), basis(6, 3), t) == 1
    assert _complement(ThreeForm(6)) == ThreeForm(6)


def test_to_clifford_basics():
    assert to_clifford(basis(4, 1)) == Multivector(4, {0b1: 1})
    assert to_clifford(OneForm((0,) * 4)).is_zero()
    assert to_clifford(ThreeForm(6)) == Multivector(6)
    with pytest.raises(TypeError, match="cannot embed int"):
        to_clifford(3)
    t = ThreeForm(4, {(1, 2, 3): rational("1/2")})
    assert to_clifford(t) == Multivector(4, {0b111: rational("1/2")})


# each constructor that takes a dimension, as a function of that dimension
_DIM_BUILDERS = {
    "OneForm": lambda dim: OneForm([0] * dim),  # its dimension is its length
    "OneForm.basis": lambda dim: OneForm.basis(dim, 1),
    "ThreeForm": ThreeForm,
    "Multivector": Multivector,
    "Multivector.generator": lambda dim: Multivector.generator(dim, 1),
    "xi_monomial": xi_monomial,
    "xi_monomial(dim, 1)": lambda dim: xi_monomial(dim, 1),
    # its one dimension counts the cosphere variables and is the coefficients'
    # Clifford dimension, checked with an empty mapping and with no terms
    "XiPolynomialMV.nvars": lambda dim: XiPolynomialMV(dim, {}),
    "XiPolynomialMV.mv_dim": lambda dim: XiPolynomialMV(dim),
}


@pytest.mark.parametrize("name", _DIM_BUILDERS)
def test_every_constructor_takes_a_dimension_in_1_to_16(name):
    """ThreeForm(0), xi_monomial(-2) and OneForm([1] * 17) used to be built:
    forms and xi-polynomials took any int dimension, xi_monomial(True)
    returned (0,) and XiPolynomialMV(4.0, {}) was accepted.  A form
    outside Cl(1)..Cl(16) cannot be built, so none reaches to_clifford.  A
    one-form's length is an int >= 0, so a bool, a float, a string or a
    negative dimension cannot reach it."""
    build = _DIM_BUILDERS[name]
    for dim in (1, MAX_DIM):
        build(dim)
    bad = (0, MAX_DIM + 1) if name == "OneForm" else (0, -1, MAX_DIM + 1, True, 4.0, "4")
    for dim in bad:
        with pytest.raises(DimensionMismatch, match=rf"^dimension must be in \[1, 16\], got {dim}$"):
            build(dim)


@pytest.mark.parametrize("terms, message", [
    ([1, 2], "expected a mapping, got list"),
    ({(0, 0, 0, 0): 5}, "expected a form or a multivector, got int"),
    ({(0, 0, 0, 0): OneForm((0,) * 4)}, "expected a Multivector, got OneForm"),
], ids=["list", "int-term", "oneform-term"])
def test_xi_polynomial_terms_map_to_multivectors(terms, message):
    """A list of terms and an int term used to raise AttributeError, and a
    one-form term was kept."""
    with pytest.raises(TypeError, match=f"^{message}$"):
        XiPolynomialMV(4, terms)


def test_basis_index_outside_the_dimension():
    assert OneForm.basis(4, 1).components == (1, 0, 0, 0)
    assert OneForm.basis(4, 4).components == (0, 0, 0, 1)
    for i in (0, 5, 1.0, True):
        with pytest.raises(DimensionMismatch, match=rf"^basis index {i} outside 1\.\.4$"):
            OneForm.basis(4, i)


def test_oneform_components_come_in_order():
    """A list, tuple, range or iterator gives the components in its order;
    text, bytes, a set or a mapping, which would give its characters, its
    byte values, an arbitrary order or its keys, is a TypeError naming it."""
    want = (rational(0), rational(1), rational("2/3"))
    for comps in ([0, 1, "2/3"], (0, 1, "2/3"), iter([0, 1, "2/3"]),
                  (c for c in (0, 1, "2/3"))):
        assert OneForm(comps).components == want
    assert OneForm(range(3)).components == (0, 1, 2)
    for comps in ("12", b"12", bytearray(b"12"), {1, 2}, frozenset({1, 2}), {1: 2, 3: 4}):
        with pytest.raises(TypeError, match=rf"got {type(comps).__name__}$"):
            OneForm(comps)


def test_forms_refuse_a_float_or_bool_dimension():
    """True and 4.0 compare like the ints 1 and 4, yet neither is a dimension."""
    for dim in (4.0, True):
        for build in (lambda: ThreeForm(dim, {}), lambda: OneForm.basis(dim, 1)):
            with pytest.raises(DimensionMismatch,
                               match=rf"^dimension must be in \[1, 16\], got {dim}$"):
                build()


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", ["small", "coprime"])
def test_integer_paths_match_the_fraction_oracles(kind, n):
    """to_clifford and eval_threeform on integer numerators equal their
    Rational bodies, by value and printed form.  The coprime denominators
    are long enough to split T and every row into runs."""
    rng = random.Random(f"forms-{kind}-{n}")
    draw = coprime_draw(rng, digits=200) if kind == "coprime" else lambda: rand_rational(rng)
    u, v, w = (OneForm(tuple(draw() for _ in range(n))) for _ in range(3))
    t = ThreeForm(n, {abc: draw() for abc in itertools.combinations(range(1, n + 1), 3)})
    for x in (u, v, w, t):
        got = to_clifford(x)
        if kind == "coprime":
            assert "parts" in long_input(got)
        expected = to_clifford_reference(x)
        assert got == expected and str(got) == str(expected)
    # a coprime T(u, v, w) prints more digits than str(int) allows by default
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        got, expected = eval_threeform(t, u, v, w), eval_threeform_reference(t, u, v, w)
        assert got == expected and str(got) == str(expected)
    finally:
        sys.set_int_max_str_digits(limit)


def test_to_clifford_linear(rng):
    n = 6
    for _ in range(20):
        u, v = rand_oneform(rng, n), rand_oneform(rng, n)
        u_plus_v = OneForm([p + q for p, q in zip(u.components, v.components)])
        assert to_clifford(u_plus_v) == add_reference(to_clifford(u), to_clifford(v))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_threeform_trace_bridge(n, rng):
    # eval_threeform(T,u,v,w) * 2^m = trace(c(u)c(v)c(w)c(T))
    for _ in range(20):
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        t = rand_threeform(rng, n)
        lhs = eval_threeform(t, u, v, w) * 2 ** (n // 2)
        rhs = trace(mv_mul(mv_mul(to_clifford(u), to_clifford(v)),
                           mv_mul(to_clifford(w), to_clifford(t))))
        assert lhs == rhs


def test_threeform_validation():
    with pytest.raises(ValueError):
        ThreeForm(4, {(2, 1, 3): 1})
    with pytest.raises(ValueError):
        ThreeForm(4, {(1, 2, 5): 1})
    for key in ((1, 2), (1, 2, 3, 4)):
        message = rf"^triple \({str(key)[1:-1]}\) not strictly increasing in 1\.\.4$"
        with pytest.raises(ValueError, match=message):
            ThreeForm(4, {key: 1})


@pytest.mark.parametrize("key", [(1.0, 2, 3), (True, 2, 3), 5, "123"],
                         ids=["float", "bool", "int", "str"])
def test_threeform_keys_are_tuples_of_three_ints(key):
    """A float or bool index, or a key that is no tuple, is the constructor's
    own ValueError, not a key that to_clifford cannot read or a bool read
    as 1."""
    message = rf"^triple {re.escape(str(key))} not strictly increasing in 1\.\.4$"
    with pytest.raises(ValueError, match=message):
        ThreeForm(4, {key: 1})


def test_dimension_errors_share_one_message():
    """Every same-dimension check of the forms reads "dim a vs b"."""
    u4, u6 = basis(4, 1), basis(6, 1)
    t4 = ThreeForm(4, {(1, 2, 3): 1})
    with pytest.raises(DimensionMismatch, match=r"^dim 6 vs 4$"):
        eval_threeform(t4, basis(4, 2), u6, basis(4, 3))
    with pytest.raises(DimensionMismatch, match=r"^dim 6 vs 4$"):
        frame_product(u4, u6, u4)
    with pytest.raises(DimensionMismatch, match=r"^dim 4 vs 6$"):
        frame_product(u6, u6, u4)
    with pytest.raises(DimensionMismatch, match=r"^dim 6 vs 4$"):
        _frame_pairing(u4, u4, u4, u6)
