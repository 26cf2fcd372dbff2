"""Clifford algebra: blade products, traces, supertraces, matrix oracle."""

from __future__ import annotations

import math
import random
import sys
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from spectral_torsion import (
    DimensionMismatch,
    Grading,
    Multivector,
    OddDimension,
    OneForm,
    TorsionGrading,
    VectorGrading,
    boundary_density,
    eval_threeform,
    grading,
    interior_density,
    mv_mul,
    rational,
    scalar_product,
    supertrace,
    sym,
    to_clifford,
    trace,
)
from spectral_torsion import clifford
from spectral_torsion.clifford import _RUN_DEN_BITS, _from_int_parts, _rational_runs, \
    _scale_grades, blade_product
from spectral_torsion.moments import _grade_factors
from spectral_torsion.scalars import GaussianRational, Rational, i_power
from spectral_torsion.verify import _SPHERE_SYMBOLS

from conftest import add_reference, blade_mask, coprime_draw, long_input, metric_pair, \
    mv_mul_reference, product_by_sorting, rand_multivector, rand_oneform, rand_threeform, \
    scalar_product_reference, scale_reference
from matrix_rep import MatrixRep, mat_add, mat_mul


def gen(n, i):
    return Multivector.generator(n, i)


def test_generator_squares():
    assert mv_mul(gen(4, 1), gen(4, 1)) == Multivector(4, {0: -1})


def test_generator_product_is_blade():
    assert mv_mul(gen(4, 1), gen(4, 2)) == Multivector(4, {0b11: 1})


def test_grade_three_square():
    w = mv_mul(mv_mul(gen(6, 1), gen(6, 2)), gen(6, 3))
    assert mv_mul(w, w) == Multivector(6, {0: 1})
    # cross-check on the matrix oracle
    rep = MatrixRep(6)
    assert rep.trace(mv_mul(w, w)) == trace(Multivector(6, {0: 1}))


def test_grading_n2():
    assert grading(2) == Multivector(2, {0b11: GaussianRational(0, 1)})


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
def test_grading_squares_to_identity(n):
    g = grading(n)
    assert mv_mul(g, g) == Multivector(n, {0: 1})
    # built from a coefficient, it stores one short part
    assert not long_input(g)


def test_grading_anticommutes_with_generators():
    g = grading(4)
    assert add_reference(mv_mul(g, gen(4, 1)), mv_mul(gen(4, 1), g)).is_zero()


def test_grading_odd_dimension_rejected():
    with pytest.raises(OddDimension):
        grading(3)
    with pytest.raises(OddDimension, match=r"^dimension must be even, got 4\.0$"):
        grading(4.0)


def test_generator_and_blade_refuse_a_float_or_bool_index():
    for i in (True, 1.0):
        with pytest.raises(DimensionMismatch, match=rf"^generator index {i} outside 1\.\.4$"):
            Multivector.generator(4, i)
        with pytest.raises(DimensionMismatch, match=rf"^blade mask {i} does not fit dim 4$"):
            Multivector(4, {i: 1})
    with pytest.raises(DimensionMismatch, match=r"^dimension must be in \[1, 16\], got 4\.0$"):
        Multivector.generator(4.0, 1)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mv_mul(gen(4, 1), gen(6, 1))


def test_trace_identity():
    assert trace(Multivector(4, {0: 1})) == 4
    assert trace(Multivector(6, {0: 1})) == 8


def test_trace_top_blade_vanishes():
    assert trace(Multivector(4, {0b1111: 1})).is_zero()
    rep = MatrixRep(4)
    assert rep.trace(Multivector(4, {0b1111: 1})).is_zero()


@pytest.mark.parametrize("n", [4, 6])
def test_four_generator_delta_formula(n, rng):
    # Tr(c_i c_j c_k c_l) = (-d_ik d_jl + d_il d_jk + d_ij d_kl) 2^m
    m = n // 2
    for _ in range(40):
        i, j, k, l = (rng.randint(1, n) for _ in range(4))
        value = trace(mv_mul(mv_mul(gen(n, i), gen(n, j)),
                             mv_mul(gen(n, k), gen(n, l))))
        delta = (-(i == k) * (j == l) + (i == l) * (j == k)
                 + (i == j) * (k == l)) * 2 ** m
        assert value == delta


def test_supertrace_examples():
    assert supertrace(mv_mul(gen(4, 1), gen(4, 2))).is_zero()
    top = mv_mul(mv_mul(gen(4, 1), gen(4, 2)), mv_mul(gen(4, 3), gen(4, 4)))
    assert supertrace(top) == -4
    assert supertrace(Multivector(4, {0: 1})).is_zero()
    assert supertrace(Multivector(6, {0: 1})).is_zero()


@pytest.mark.parametrize("n", [2, 4, 6])
def test_supertrace_kills_all_subtop_blades(n):
    # every blade of grade < n has supertrace zero; top blade is 2^m / i^m
    m = n // 2
    for mask in range(1 << n):
        value = supertrace(Multivector(n, {mask: 1}))
        if mask == (1 << n) - 1:
            assert value == rational(2 ** m) * (GaussianRational(1) / i_power(m))
        else:
            assert value.is_zero()


@pytest.mark.parametrize("n", [10, 12, 14, 16])
def test_top_blade_supertrace_and_square_signs_at_high_grade(n):
    """The supertrace of the top blade is 2^m / i^m at n = 10 to 16, past
    the literal-matrix oracle's n = 12, and at n = 16 the scalar product
    <e_A e_A>_0 on one blade A of each grade 0..16 is the sign counted by
    sorting the word A A with one sign per transposition and c(e_i)^2 = -1."""
    m = n // 2
    top = (1 << n) - 1
    assert supertrace(Multivector(n, {top: 1})) == \
        rational(2 ** m) * (GaussianRational(1) / i_power(m))
    if n != 16:
        return
    rng = random.Random("square-signs-16")
    for k in range(n + 1):
        word = sorted(rng.sample(range(1, n + 1), k))
        indices, sign = product_by_sorting(word, word)
        assert indices == []
        blade = Multivector(n, {sum(1 << (i - 1) for i in word): 1})
        assert scalar_product(blade, blade) == sign, k


@pytest.mark.parametrize("n", [10, 12, 14, 16])
def test_blade_pair_signs_match_sorting_count_at_high_dimension(n):
    """Past Cl(8)'s exhaustive check: for each pair of grades (j, k), two
    random blades A of grade j and B of grade k.  blade_product and
    mv_mul(e_A, e_B) give the sorted word A B with its sign,
    scalar_product(e_A, e_B) and scalar_product(e_A, e_A) their scalar
    parts, and the three-factor trace of e_A, e_B and e_(A xor B) is 2^m
    times the sign of sorting A B (A xor B)."""
    rng = random.Random(f"blade-pair-signs-{n}")
    top = 2 ** (n // 2)
    for j in range(n + 1):
        for k in range(n + 1):
            for _ in range(2):
                a = sorted(rng.sample(range(1, n + 1), j))
                b = sorted(rng.sample(range(1, n + 1), k))
                indices, sign = product_by_sorting(a, b)
                mask_a, mask_b, mask_ab = blade_mask(a), blade_mask(b), blade_mask(indices)
                e_a, e_b = Multivector(n, {mask_a: 1}), Multivector(n, {mask_b: 1})
                e_ab = Multivector(n, {mask_ab: 1})
                assert blade_product(mask_a, mask_b) == (mask_ab, sign)
                assert mv_mul(e_a, e_b) == Multivector(n, {mask_ab: sign}), (a, b)
                assert scalar_product(e_a, e_b) == (0 if indices else sign), (a, b)
                assert scalar_product(e_a, e_a) == product_by_sorting(a, a)[1], a
                assert trace(e_a, e_b, e_ab) == top * product_by_sorting(a, b, indices)[1], (a, b)


def _conjugate_sum_by_products(b):
    """Sum_i c(e_i) b c(e_i), multiplied out blade by blade."""
    out = Multivector(b.dim)
    for i in range(1, b.dim + 1):
        out = add_reference(out, mv_mul(mv_mul(gen(b.dim, i), b), gen(b.dim, i)))
    return out


def _generator_last_by_products(b):
    """Sum_i b c(e_i) c(e_i), multiplied out blade by blade."""
    out = Multivector(b.dim)
    for i in range(1, b.dim + 1):
        out = add_reference(out, mv_mul(b, mv_mul(gen(b.dim, i), gen(b.dim, i))))
    return out


def _sphere_scaled(b, generator_first):
    """b scaled by grade with the identity catalog's sphere factors."""
    return _scale_grades(b, *_grade_factors(b.dim, range(b.dim + 1),
                                            _SPHERE_SYMBOLS[generator_first]))


def _sphere_by_products(b, generator_first):
    """What those factors stand for: the sphere integral's 1/n (the xi_i^2
    moment) times the generator sum, multiplied out."""
    total = _conjugate_sum_by_products(b) if generator_first else _generator_last_by_products(b)
    return scale_reference(total, Rational(1, b.dim))


def test_conjugate_sum_examples():
    # generator first: grade 1 -> (n-2)/n, grade 3 -> (n-6)/n, identity -> -1;
    # generator last: -1 on every grade
    for n in (4, 6, 8):
        for mask, first in ((0b1, Rational(n - 2, n)), (0b111, Rational(n - 6, n)), (0, -1)):
            blade = Multivector(n, {mask: 1})
            assert _sphere_scaled(blade, True) == _sphere_by_products(blade, True) \
                == scale_reference(blade, first)
            assert _sphere_scaled(blade, False) == _sphere_by_products(blade, False) \
                == scale_reference(blade, -1)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_conjugate_sum_grade_formula(n, rng):
    """On every grade-k blade the catalog's sphere factors, which it reads off
    one blade per grade, are (-1)^k (2k - n) / n with the generator first
    and -1 with it last, as the generator products give; by linearity a
    proof at this n that reading them off one blade per grade is exact."""
    for mask in range(1 << n):
        k = mask.bit_count()
        blade = Multivector(n, {mask: 1})
        assert _sphere_scaled(blade, True) == _sphere_by_products(blade, True) \
            == scale_reference(blade, Rational((-1) ** k * (2 * k - n), n))
        assert _sphere_scaled(blade, False) == _sphere_by_products(blade, False) \
            == scale_reference(blade, -1)
    # and on a multivector of mixed grades with complex coefficients
    for _ in range(5):
        b = rand_multivector(rng, n, 12)
        for generator_first in (True, False):
            assert _sphere_scaled(b, generator_first) == _sphere_by_products(b, generator_first)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_conjugate_sum_stores_no_zero_entry(n, rng):
    """_scale_grades by the conjugate sum's factors (-1)^k (2k - n), which
    are 0 on grade n/2, stores no grade-n/2 blade, nor a part left with no
    blade: at n = 4 the sum of e_1 e_2 and 2 e_1 keeps only 4 e_1, over the
    given denominator, and e_1 e_2 alone gives no part at all."""
    factors = [(-1) ** k * (2 * k - n) for k in range(n + 1)]
    if n == 4:
        mixed = Multivector(4, {0b11: 1, 0b1: 2})
        assert _scale_grades(mixed, factors, 1)._parts == [(1, {0b1: (4, 0)})]
        assert _scale_grades(mixed, factors, 3)._parts == [(3, {0b1: (4, 0)})]
        assert _scale_grades(Multivector(4, {0b11: 1}), factors, 1)._parts == []
    for _ in range(5):
        b = rand_multivector(rng, n, 12)
        got = _scale_grades(b, factors, 1)
        assert all(acc for _, acc in got._parts)
        assert all(mask.bit_count() != n // 2 for _, acc in got._parts for mask in acc)
        assert got == _conjugate_sum_by_products(b)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_associativity_random(n, rng):
    for _ in range(200):
        a = rand_multivector(rng, n, 4)
        b = rand_multivector(rng, n, 4)
        c = rand_multivector(rng, n, 4)
        assert mv_mul(mv_mul(a, b), c) == mv_mul(a, mv_mul(b, c))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_trace_cyclicity(n, rng):
    for _ in range(100):
        a = rand_multivector(rng, n)
        b = rand_multivector(rng, n)
        assert trace(mv_mul(a, b)) == trace(mv_mul(b, a))


@pytest.mark.parametrize("n", [2, 4, 6])
def test_oracle_trace_equivalence(n, rng):
    rep = MatrixRep(n)
    for _ in range(100):
        a = rand_multivector(rng, n)
        assert trace(a) == rep.trace(a)


def test_rep_generators_anticommute():
    rep = MatrixRep(4)
    gens = rep.generators
    for i in range(4):
        for j in range(i + 1, 4):
            anti = mat_add(mat_mul(gens[i], gens[j]), mat_mul(gens[j], gens[i]))
            assert all(entry.is_zero() for row in anti for entry in row)


def test_rep_trace_examples():
    rep = MatrixRep(4)
    assert rep.trace(Multivector(4, {0b11: 1})).is_zero()
    g_top = mv_mul(grading(4), Multivector(4, {0b1111: 1}))
    assert rep.trace(g_top) == -4


@pytest.mark.parametrize("n", [4, 6, 8])
def test_trace_uvwY_identity(n, rng):
    # Tr(c(u)c(v)c(w)c(Y)) = [g(v,w)g(u,Y) - g(u,w)g(v,Y) + g(u,v)g(w,Y)] 2^m
    for _ in range(25):
        u, v, w, y = (rand_oneform(rng, n) for _ in range(4))
        lhs = trace(mv_mul(mv_mul(to_clifford(u), to_clifford(v)),
                           mv_mul(to_clifford(w), to_clifford(y))))
        rhs = (metric_pair(v, w) * metric_pair(u, y)
               - metric_pair(u, w) * metric_pair(v, y)
               + metric_pair(u, v) * metric_pair(w, y)) * 2 ** (n // 2)
        assert lhs == rhs


@pytest.mark.parametrize("n", [4, 6, 8])
def test_trace_uvwT_identity(n, rng):
    # Tr(c(u)c(v)c(w)c(T)) = T(u,v,w) 2^m
    for _ in range(25):
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        t = rand_threeform(rng, n)
        lhs = trace(mv_mul(mv_mul(to_clifford(u), to_clifford(v)),
                           mv_mul(to_clifford(w), to_clifford(t))))
        assert lhs == eval_threeform(t, u, v, w) * 2 ** (n // 2)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_trace_normal_factor_combination(n, rng):
    # Tr(c(u)c(v)c(w)c(e_n)) = (u_n g(v,w) - v_n g(u,w) + w_n g(u,v)) 2^m
    for _ in range(25):
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        lhs = trace(mv_mul(mv_mul(to_clifford(u), to_clifford(v)),
                           mv_mul(to_clifford(w), gen(n, n))))
        rhs = (u.components[-1] * metric_pair(v, w) - v.components[-1] * metric_pair(u, w)
               + w.components[-1] * metric_pair(u, v)) * 2 ** (n // 2)
        assert lhs == rhs


def test_anticommutator_relation(rng):
    n = 6
    for _ in range(30):
        i, j = rng.randint(1, n), rng.randint(1, n)
        anti = add_reference(mv_mul(gen(n, i), gen(n, j)), mv_mul(gen(n, j), gen(n, i)))
        assert anti == Multivector(n, {0: -2 * (i == j)})
    # {c(e_j), c(X)} = -2 X_j, and the grading anticommutes with every generator
    x = rand_oneform(rng, n)
    for j in range(1, n + 1):
        cx = to_clifford(x)
        assert add_reference(mv_mul(gen(n, j), cx), mv_mul(cx, gen(n, j))) == \
            Multivector(n, {0: -2 * x.components[j - 1]})
    for m in (4, 6):
        for j in range(1, m + 1):
            assert add_reference(mv_mul(gen(m, j), grading(m)),
                                 mv_mul(grading(m), gen(m, j))).is_zero()


def test_multivector_printed_form():
    """The goldens embed this grammar: every coefficient shape sym() prints."""
    mv = Multivector(4, {0b101: GaussianRational(rational("1/2"), 1), 0: -3,
                         0b0011: GaussianRational(0, -1),
                         0b0110: GaussianRational(0, rational("-1/2")),
                         0b1100: GaussianRational(3, -2),
                         0b1001: GaussianRational(rational("-1/2"), 1),
                         0b1111: GaussianRational(0, rational("5/2"))})
    assert str(mv) == ("(-3)*e{} + (-(1 i))*e{1 2} + ((1/2+1 i))*e{1 3}"
                       " + (-(1/2 i))*e{2 3} + ((-1/2+1 i))*e{1 4} + ((3-2 i))*e{3 4}"
                       " + ((5/2 i))*e{1 2 3 4}")
    assert str(Multivector(2, {0: GaussianRational(0, -1)})) == "(-(1 i))*e{}"
    assert str(Multivector(4)) == "0"


def test_blade_product_matches_sorting_count():
    """Every pair of blades of Cl(8), which contains every pair for n <= 8."""
    words = [[i + 1 for i in range(8) if mask >> i & 1] for mask in range(256)]
    for a, a_word in enumerate(words):
        for b, b_word in enumerate(words):
            indices, sign = product_by_sorting(a_word, b_word)
            assert blade_product(a, b) == (sum(1 << (i - 1) for i in indices), sign)


def _small(rng):
    return Rational(rng.randint(-9, 9), rng.randint(1, 6))


def _coefficient_draw(rng, kind):
    """A function that draws one Gaussian-rational coefficient of the given kind."""
    if kind == "coprime":
        part = coprime_draw(rng)
        return lambda: GaussianRational(part(), part())
    if kind == "imaginary":
        return lambda: GaussianRational(0, _small(rng))
    return lambda: GaussianRational(_small(rng), _small(rng))


def _assert_canonical(mv: Multivector):
    for c in mv.coeffs.values():
        assert isinstance(c, GaussianRational) and not c.is_zero()
        for part in (c.re, c.im):
            assert part.denominator > 0
            assert math.gcd(part.numerator, part.denominator) == 1


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", ["small", "coprime", "imaginary"])
def test_mv_mul_matches_reference(n, kind):
    draw = _coefficient_draw(random.Random(f"{kind}-{n}"), kind)
    a, b = (Multivector(n, {mask: draw() for mask in range(1 << n)}) for _ in range(2))
    product = mv_mul(a, b)
    assert product == mv_mul_reference(a, b)
    _assert_canonical(product)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_mv_mul_cancellation_and_zero(n):
    rng = random.Random(n)
    # a has no blade containing e1, so a(1 + e1)(1 - e1) = 2a cancels every such blade
    a = Multivector(n, {mask: GaussianRational(_small(rng), _small(rng))
                        for mask in range(0, 1 << n, 2)})
    left = mv_mul_reference(a, Multivector(n, {0: 1, 1: 1}))
    product = mv_mul(left, Multivector(n, {0: 1, 1: -1}))
    assert product == mv_mul_reference(left, Multivector(n, {0: 1, 1: -1})) \
        == scale_reference(a, 2)
    assert not any(mask & 1 for mask in product.coeffs)
    _assert_canonical(product)
    zero = Multivector(n)
    assert mv_mul(zero, left).is_zero() and mv_mul(left, zero).is_zero()
    assert mv_mul(zero, zero).is_zero()


# a dense coprime product at n=8 takes seconds in mv_mul; n=6 covers that kind.
# "parts" operands are products, read through their integer parts unbuilt.
@pytest.mark.parametrize("kind, n", [("small", 4), ("small", 6), ("small", 8),
                                     ("imaginary", 4), ("imaginary", 6), ("imaginary", 8),
                                     ("coprime", 4), ("coprime", 6),
                                     ("parts", 4), ("parts", 6), ("parts", 8)])
def test_scalar_product_matches_mv_mul(kind, n):
    rng = random.Random(f"scalar-{kind}-{n}")
    draw = _coefficient_draw(rng, "small" if kind == "parts" else kind)
    a, b = (Multivector(n, {mask: draw() for mask in range(1 << n)}) for _ in range(2))
    if kind == "parts":
        a, b = mv_mul(a, rand_multivector(rng, n)), mv_mul(rand_multivector(rng, n), b)
    got = scalar_product(a, b)
    if kind == "parts":
        assert a._coeffs is None and b._coeffs is None
    expected = scalar_product_reference(a, b)
    assert got == expected and str(got) == str(expected)
    assert got == mv_mul(a, b).scalar_part()
    # sparse operands share only some blades, or none
    for _ in range(20):
        c, d = rand_multivector(rng, n, 8), rand_multivector(rng, n, 8)
        assert scalar_product(c, d) == mv_mul(c, d).scalar_part()
    assert scalar_product(a, Multivector(n)) == GaussianRational(0)
    with pytest.raises(DimensionMismatch):
        scalar_product(a, Multivector(2, {0: 1}))


# each read, done first on a product whose coefficients are not built yet
_READS = {
    "scalar_part": lambda mv: mv.scalar_part(),
    "is_zero": lambda mv: mv.is_zero(),
    "str": str,
    "hash": hash,
    "coeffs": lambda mv: mv.coeffs,
    "eq": lambda mv: mv,
}


def _operands(kind, n):
    rng = random.Random(f"deferred-{kind}-{n}")
    if kind == "sparse":
        return rand_multivector(rng, n, 8), rand_multivector(rng, n, 8)
    draw = _coefficient_draw(rng, "small" if kind == "dense" else kind)
    return tuple(Multivector(n, {mask: draw() for mask in range(1 << n)})
                 for _ in range(2))


# a dense coprime product at n=6 takes seconds; n=4 covers that kind
@pytest.mark.parametrize("kind, n", [("dense", 4), ("dense", 6), ("sparse", 4),
                                     ("sparse", 6), ("imaginary", 4), ("imaginary", 6),
                                     ("coprime", 4)])
def test_deferred_product_reads_like_the_reference(kind, n):
    a, b = _operands(kind, n)
    reference = mv_mul_reference(a, b)
    for name, read in _READS.items():
        product = mv_mul(a, b)
        assert product._coeffs is None, name
        assert read(product) == read(reference), name
    # a product of a product reads its operand's parts unbuilt, also when a
    # part's denominator is past _RUN_DEN_BITS, as the coprime ones are
    product = mv_mul(a, b)
    assert ("bits" in long_input(product)) == (kind == "coprime")
    assert mv_mul(product, a) == mv_mul_reference(reference, a)
    assert product._coeffs is None


def _trace_operands(kind, n):
    """_operands of the dense or sparse kind, a dense one and zero, or two of
    24 blades over pairwise-coprime 50-digit denominators, so that each
    splits into several integer parts."""
    if kind == "zero":
        return _operands("dense", n)[0], Multivector(n)
    if kind != "coprime":
        return _operands(kind, n)
    rng = random.Random(f"trace-coprime-{n}")
    part = coprime_draw(rng, digits=50)
    a, b = (Multivector(n, {mask: GaussianRational(part(), part())
                            for mask in rng.sample(range(1 << n), min(1 << n, 24))})
            for _ in range(2))
    assert "parts" in long_input(a) and "parts" in long_input(b)
    return a, b


def _long_part_operand(n):
    """One stored integer part over a denominator past _RUN_DEN_BITS: eight
    blades whose coefficients have pairwise-coprime 200-digit denominators."""
    draw = coprime_draw(random.Random(f"long-operand-{n}"), digits=200)
    values = [draw() for _ in range(8)]
    den = math.prod(v.denominator for v in values)
    masks = (0, 1, 2, 3, 6, 7, 11, 13)
    return _from_int_parts(n, [(den, {mask: (v.numerator * (den // v.denominator), -k)
                                      for k, (mask, v) in enumerate(zip(masks, values))})])


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", ["dense", "sparse", "zero", "coprime"])
def test_two_factor_trace_matches_the_product(kind, n):
    """trace(a, b) is the trace of a b, for operands either way round, for
    product operands read through their integer parts, and for an operand
    whose stored part is past _RUN_DEN_BITS, read as stored."""
    a, b = _trace_operands(kind, n)
    for x, y in ((a, b), (b, a)):
        got, expected = trace(x, y), trace(mv_mul(x, y))
        assert got == expected and str(got) == str(expected)
    left, right = mv_mul(a, gen(n, 1)), mv_mul(gen(n, 2), b)
    assert trace(left, right) == trace(mv_mul(left, right))
    assert left._coeffs is None and right._coeffs is None
    long = _long_part_operand(n)
    assert [den.bit_length() > _RUN_DEN_BITS for den, _ in long._parts] == [True]
    got = [trace(a, long), trace(long, a)]
    assert long._coeffs is None  # not re-split from its coefficients
    for value, (x, y) in zip(got, ((a, long), (long, a))):
        expected = trace(mv_mul(x, y))
        assert value == expected and str(value) == str(expected)


def test_two_factor_trace_checks_dimensions():
    with pytest.raises(DimensionMismatch):
        trace(gen(4, 1), gen(6, 1))
    with pytest.raises(DimensionMismatch):
        trace(gen(6, 1), gen(4, 1))
    with pytest.raises(OddDimension):
        trace(gen(5, 1), gen(5, 1))
    with pytest.raises(OddDimension):
        trace(gen(3, 1), gen(4, 1))


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", ["small", "coprime", "imaginary"])
def test_scale_and_conjugate_sum_match_the_coefficient_oracles(kind, n):
    """A product with a scalar multivector s and a scaling by the catalog's
    sphere factors both scale integer numerators; the result is unbuilt and
    reads like the coefficient-by-coefficient scaling, for plain and product
    operands."""
    rng = random.Random(f"scale-{kind}-{n}")
    draw = _coefficient_draw(rng, kind)
    plain = Multivector(n, {mask: draw() for mask in range(1 << n)})
    for b in (plain, mv_mul(rand_multivector(rng, n), rand_multivector(rng, n))):
        for s in (draw(), GaussianRational(0, 1), rational("-3/7"), 2, -1):
            got, expected = mv_mul(b, Multivector(n, {0: s})), scale_reference(b, s)
            assert got._coeffs is None
            assert got == expected and str(got) == str(expected)
        for generator_first in (True, False):
            got, expected = _sphere_scaled(b, generator_first), \
                _sphere_by_products(b, generator_first)
            assert got._coeffs is None
            assert got == expected and str(got) == str(expected)
    zero = mv_mul(plain, Multivector(n, {0: 0}))
    assert zero._coeffs is None
    assert zero.is_zero() and zero == Multivector(n) and str(zero) == "0"
    # the constructor stores the parts of the coefficients it keeps
    assert plain._parts == _rational_runs((mask, c.re, c.im)
                                          for mask, c in plain.coeffs.items())


def test_concurrent_first_reads_build_equal_coefficients():
    """Threads that read a product's coefficients at once all see the
    reference; whichever build is cached, later reads agree."""
    a, b = _operands("dense", 4)
    reference = mv_mul_reference(a, b)
    products = [mv_mul(a, b) for _ in range(200)]
    seen, errors = [], []

    def read():
        try:
            seen.extend(str(p) == str(reference) and p.coeffs == reference.coeffs
                        for p in products)
        except Exception as exc:  # reported through `errors`
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(seen) == 4 * len(products) and all(seen)
    assert all(p == reference for p in products)


def test_deferred_parts_that_cancel_to_zero():
    # 1/3 - 2/6 on e1 and (1 + 2i)/3 - (2 + 4i)/6 on the scalar blade
    zero = _from_int_parts(4, [(3, {1: (1, 0), 0: (1, 2)}), (6, {1: (-2, 0), 0: (-2, -4)})])
    assert zero.scalar_part() == GaussianRational(0)
    assert zero._coeffs is None
    assert zero.is_zero()
    for name, read in _READS.items():
        rebuilt = _from_int_parts(4, [(3, {1: (1, 0)}), (6, {1: (-2, 0)})])
        assert read(rebuilt) == read(Multivector(4)), name
    # a single part is zero exactly when its numerators are
    assert _from_int_parts(4, [(5, {1: (0, 0)})]).is_zero()
    assert not _from_int_parts(4, [(5, {1: (0, 1)})]).is_zero()
    assert _from_int_parts(4, []).is_zero()


def test_is_zero_builds_coefficients_only_where_two_parts_share_a_blade():
    """Parts over disjoint blades cannot cancel, so is_zero reads their
    numerators; parts that share a blade are summed, and may cancel."""
    disjoint = _from_int_parts(4, [(3, {1: (0, 0), 2: (0, 0)}), (5, {4: (0, 0)})])
    assert disjoint.is_zero() and disjoint._coeffs is None
    disjoint = _from_int_parts(4, [(3, {1: (0, 0)}), (5, {4: (0, 1)})])
    assert not disjoint.is_zero() and disjoint._coeffs is None
    # 1/3 - 2/6 on e1: the shared blade cancels
    cancel = _from_int_parts(4, [(3, {1: (1, 0)}), (6, {1: (-2, 0), 2: (0, 0)})])
    assert cancel.is_zero() and cancel._coeffs is not None
    shared = _from_int_parts(4, [(3, {1: (1, 0)}), (6, {1: (-1, 0)})])
    assert not shared.is_zero() and shared.coeffs == {1: GaussianRational(Rational(1, 6))}


def test_long_stored_part_is_multiplied_as_stored():
    """An operand whose one stored part is over a denominator past
    _RUN_DEN_BITS is multiplied as stored, and its coefficients are never
    built; the products read like the coefficient oracle."""
    draw = coprime_draw(random.Random("long-part"), digits=200)
    values = [draw() for _ in range(8)]  # about 660 bits per denominator
    den = math.prod(v.denominator for v in values)
    assert den.bit_length() > _RUN_DEN_BITS
    masks = (1, 2, 4, 8, 3, 5, 6, 9)
    mv = _from_int_parts(4, [(den, {mask: (v.numerator * (den // v.denominator), 0)
                                    for mask, v in zip(masks, values)})])
    reference = Multivector(4, {mask: GaussianRational(v) for mask, v in zip(masks, values)})
    other = Multivector(4, {mask: GaussianRational(_small(random.Random(mask)))
                            for mask in range(16)})
    products = mv_mul(mv, other), mv_mul(other, mv), mv_mul(mv, mv)
    assert mv._coeffs is None and long_input(mv) == {"bits"}
    assert all(p._parts[0][0] % den == 0 for p in products)
    assert products == (mv_mul_reference(reference, other), mv_mul_reference(other, reference),
                        mv_mul_reference(reference, reference))
    assert mv._coeffs is None
    assert mv == reference
    # a long stored denominator whose coefficient reduces reads as that coefficient
    short = _from_int_parts(4, [(den, {3: (den // 2, den)})])
    half_i = GaussianRational(Rational(1, 2), 1)
    assert mv_mul(short, other) == mv_mul_reference(Multivector(4, {3: half_i}), other)
    assert short._coeffs is None
    assert short.coeffs == {3: half_i}


def _stored_parts(n):
    """One operand's integer parts: short parts mixed with parts over a
    denominator past _RUN_DEN_BITS, a blade possibly in several parts and
    numerators possibly 0."""
    den = st.one_of(st.integers(1, 10 ** 6),
                    st.integers(1 << _RUN_DEN_BITS, 1 << (_RUN_DEN_BITS + 64)))
    numerator = st.one_of(st.integers(-9, 9), st.integers(-(1 << 2100), 1 << 2100))
    blades = st.dictionaries(st.integers(0, (1 << n) - 1), st.tuples(numerator, numerator),
                             max_size=6)
    return st.lists(st.tuples(den, blades), max_size=3)


# pairwise-coprime denominators of 540 to 660 bits: any four of them take a
# run's common denominator past _RUN_DEN_BITS, so an operand splits into parts
_COPRIME_DENS = tuple(p ** (700 // p.bit_length()) for p in (3, 5, 7, 11, 13, 17))
# denominators that share the factors 2 and 3, long and short
_SHARED_DENS = (6, 2 ** 9 * 3 ** 4, 2 ** 700 * 3, 6 ** 300, 12 ** 250)


def _three_factor_operand(n, kind):
    """A multivector strategy: stored parts as _stored_parts draws them, or
    complex coefficients over the coprime or the shared denominators."""
    if kind == "stored":
        return _stored_parts(n).map(lambda parts: _from_int_parts(n, parts))
    dens = _COPRIME_DENS if kind == "coprime" else _SHARED_DENS
    part = st.builds(Rational, st.integers(-10 ** 9, 10 ** 9), st.sampled_from(dens))
    coeffs = st.dictionaries(st.integers(0, (1 << n) - 1),
                             st.builds(GaussianRational, part, part), max_size=8)
    return coeffs.map(lambda c: Multivector(n, c))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_kernel_reads_stored_parts_like_the_coefficient_oracles(data):
    """mv_mul, a scaling by the catalog's sphere factors and scalar_product
    read operands' stored parts as they are, long or short, and agree with
    the oracles on the built coefficients.  A constructor-built operand over
    the coprime or the shared denominators keeps the coefficients it was
    given, so there the oracles read no sum of integer parts."""
    n = data.draw(st.sampled_from([2, 4, 6]), "n")
    a, b = (data.draw(_three_factor_operand(n, data.draw(
        st.sampled_from(["stored", "coprime", "shared"]), f"{name} kind")), name)
        for name in "ab")
    built = a._coeffs, b._coeffs
    got = (mv_mul(a, b), _sphere_scaled(a, True), scalar_product(a, b))
    assert a._coeffs is built[0] and b._coeffs is built[1]
    assert got == (mv_mul_reference(a, b), _sphere_by_products(Multivector(n, a.coeffs), True),
                   scalar_product_reference(a, b))


# a denominator of exactly _RUN_DEN_BITS bits, which a run may still take
_EDGE_DEN = 1 << _RUN_DEN_BITS - 1


def _run_items(dens):
    """Up to 30 (key, re, im) items with distinct keys, each part over one of dens."""
    part = st.builds(Rational, st.integers(-10 ** 9, 10 ** 9), st.sampled_from(dens))
    return st.lists(st.tuples(part, part), max_size=30).map(
        lambda values: [(key, re, im) for key, (re, im) in enumerate(values)])


@settings(max_examples=150, deadline=None)
@example([(0, Rational(1, _EDGE_DEN), Rational(0)), (1, Rational(3, _EDGE_DEN), Rational(1, 2))])
@given(st.sampled_from([_COPRIME_DENS, _SHARED_DENS, _COPRIME_DENS + _SHARED_DENS,
                        (1, 2, 6, 10 ** 6, _EDGE_DEN)]).flatmap(_run_items))
def test_rational_runs_make_one_run_whenever_the_lcm_fits(items):
    """Items whose denominators' lcm fits in _RUN_DEN_BITS make one run over
    that lcm.  Otherwise each run is over the lcm of its items, fits unless
    it holds one item, and closes only before an item that would take its
    lcm past the bound."""
    def den_of(item):
        return math.lcm(item[1].denominator, item[2].denominator)

    runs = _rational_runs(items)
    whole = math.lcm(*map(den_of, items))
    if whole.bit_length() <= _RUN_DEN_BITS:
        assert runs == [(whole, {key: (re * whole, im * whole) for key, re, im in items})]
        return
    start = 0
    for den, part in runs:
        run = items[start:start + len(part)]
        start += len(part)
        assert den == math.lcm(*map(den_of, run))
        assert part == {key: (re * den, im * den) for key, re, im in run}
        assert len(run) == 1 or den.bit_length() <= _RUN_DEN_BITS
        if start < len(items):
            assert math.lcm(den, den_of(items[start])).bit_length() > _RUN_DEN_BITS
    assert start == len(items)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_three_factor_trace_equals_the_trace_of_the_product(data):
    """trace(a, b, c) reads a b c's scalar part without building a b: it
    equals trace(mv_mul(a, b), c) exactly, on one-part and several-part
    operands, long and short."""
    n = data.draw(st.sampled_from([2, 4, 6, 8]), "n")
    a, b, c = (data.draw(_three_factor_operand(n, data.draw(
        st.sampled_from(["stored", "coprime", "shared"]), f"{name} kind")), name)
        for name in "abc")
    assert trace(a, b, c) == trace(mv_mul(a, b), c)


@pytest.mark.parametrize("n", [4, 8])
def test_three_factor_trace_on_several_parts(n):
    """Operands of 16 blades over pairwise-coprime 25-digit denominators hold
    several integer parts each; the trace pairs every triple of them."""
    rng = random.Random(f"three-factor-{n}")
    draw = coprime_draw(rng, digits=25)
    a, b, c = (Multivector(n, {mask: GaussianRational(draw(), draw())
                               for mask in rng.sample(range(1 << n), 16)})
               for _ in range(3))
    assert all("parts" in long_input(x) for x in (a, b, c))
    assert trace(a, b, c) == trace(mv_mul(a, b), c) == trace(a, mv_mul(b, c))


def test_three_factor_trace_checks_every_factor():
    a = gen(4, 1)
    with pytest.raises(DimensionMismatch):
        trace(a, a, gen(6, 1))
    with pytest.raises(OddDimension):
        trace(gen(3, 1), a, a)
    for b, c in ((None, a), (a, 4), (4, a), (a, "x")):
        with pytest.raises(TypeError, match=r"^expected a form or a multivector, got "):
            trace(a, b, c)


def _fresh_constants(n):
    """gamma and i gamma, built anew."""
    gamma = Multivector(n, {(1 << n) - 1: i_power(n // 2)})
    return gamma, Multivector(n, {(1 << n) - 1: i_power(n // 2 + 1)})


def test_per_dimension_constants_are_built_once_and_never_change(rng):
    """grading(n) and the torsion-grading factor i gamma come from
    per-dimension caches; after densities, products (the graded
    perturbations' c(X) gamma and c(T) i gamma among them) and traces that
    read them, they still equal fresh builds part for part, and their
    coefficients cannot be written."""
    for n in range(4, 17, 2):
        assert grading(n) is grading(n)
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        t = rand_threeform(rng, n)
        boundary_density(u, v, w)
        for case in (Grading(), VectorGrading(u), TorsionGrading(t)):
            interior_density(u, v, w, case)
        gamma = grading(n)
        mv_mul(to_clifford(u), gamma)
        mv_mul(to_clifford(t), clifford._grading(n, 1))
        mv_mul(gamma, gamma)
        trace(gamma, gamma, gamma)
        supertrace(gamma)
        cached = (gamma, clifford._grading(n, 1))
        assert cached[1] is clifford._grading(n, 1)
        for kept, fresh in zip(cached, _fresh_constants(n)):
            assert kept._parts == fresh._parts and kept.coeffs == fresh.coeffs
            with pytest.raises(TypeError):  # a shared value's coefficients are read-only
                kept.coeffs[0] = GaussianRational(1)


def test_grading_checks_the_dimension_before_its_cache():
    """A refused dimension never reaches the cache, where True and 4.0 would
    hash and compare like the ints 1 and 4."""
    grading(4)
    before = clifford._grading.cache_info()
    for n, error in ((3, OddDimension), (True, OddDimension), (4.0, OddDimension),
                     (18, DimensionMismatch), (0, DimensionMismatch)):
        with pytest.raises(error):
            grading(n)
    assert clifford._grading.cache_info() == before


def test_coefficients_are_gaussian_rationals(rng):
    product = mv_mul(rand_multivector(rng, 4), rand_multivector(rng, 4))
    assert all(isinstance(c, GaussianRational) for c in product.coeffs.values())
    assert isinstance(product.scalar_part(), GaussianRational)
    # symbolic atoms never enter the Clifford layer
    with pytest.raises(TypeError):
        Multivector(4, {0: sym(1)})


def test_blade_scale_collapse():
    u = OneForm((1, 2, 0, 0))
    v = OneForm((3, 0, 0, 5))
    assert metric_pair(u, v) == 3


def test_dimension_caps():
    with pytest.raises(DimensionMismatch):
        MatrixRep(14)  # matrix oracle is capped at n = 12
    with pytest.raises(OddDimension):
        MatrixRep(5)


def test_oracle_at_cap_dimension():
    # n = 12: blade supertrace of the top blade equals the literal matrix trace
    rep = MatrixRep(12)
    top = Multivector(12, {(1 << 12) - 1: 1})
    expected = rational(2 ** 6) * (GaussianRational(1) / i_power(6))
    assert supertrace(top) == expected
    assert rep.trace(mv_mul(grading(12), top)) == expected
