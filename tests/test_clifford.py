"""Clifford algebra: blade products, traces, supertraces, matrix oracle."""

from __future__ import annotations

import math
import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from spectral_torsion import (
    DimensionMismatch,
    Multivector,
    OddDimension,
    OneForm,
    conjugate_sum,
    eval_threeform,
    grading,
    metric_pair,
    mv_mul,
    rational,
    scalar_product,
    supertrace,
    sym,
    to_clifford,
    trace,
)
from spectral_torsion.clifford import _RUN_DEN_BITS, _from_int_parts, _integer_runs, \
    _rational_runs, blade_product
from spectral_torsion.scalars import GaussianRational, Rational, i_power

from conftest import add_reference, coprime_draw, mv_mul_reference, rand_multivector, \
    rand_oneform, rand_threeform, scalar_product_reference, scale_reference
from matrix_rep import MatrixRep, mat_add, mat_mul


def gen(n, i):
    return Multivector.generator(n, i)


def test_generator_squares():
    assert mv_mul(gen(4, 1), gen(4, 1)) == Multivector.identity(4).scale(-1)


def test_generator_product_is_blade():
    assert mv_mul(gen(4, 1), gen(4, 2)) == Multivector.blade(4, 0b11)


def test_grade_three_square():
    w = mv_mul(mv_mul(gen(6, 1), gen(6, 2)), gen(6, 3))
    assert mv_mul(w, w) == Multivector.identity(6)
    # cross-check on the matrix oracle
    rep = MatrixRep(6)
    assert rep.trace(mv_mul(w, w)) == trace(Multivector.identity(6))


def test_grading_n2():
    assert grading(2) == Multivector.blade(2, 0b11, GaussianRational(0, 1))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14, 16])
def test_grading_squares_to_identity(n):
    g = grading(n)
    assert mv_mul(g, g) == Multivector.identity(n)
    # built from a coefficient, it hands the parts it stores to every read
    first, second = _integer_runs(g), _integer_runs(g)
    assert first is second is g._parts


def test_grading_anticommutes_with_generators():
    g = grading(4)
    assert (mv_mul(g, gen(4, 1)) + mv_mul(gen(4, 1), g)).is_zero()


def test_grading_odd_dimension_rejected():
    with pytest.raises(OddDimension):
        grading(3)


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        mv_mul(gen(4, 1), gen(6, 1))


def test_trace_identity():
    assert trace(Multivector.identity(4)) == 4
    assert trace(Multivector.identity(6)) == 8


def test_trace_top_blade_vanishes():
    assert trace(Multivector.blade(4, 0b1111)).is_zero()
    rep = MatrixRep(4)
    assert rep.trace(Multivector.blade(4, 0b1111)).is_zero()


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
    assert supertrace(Multivector.identity(4)).is_zero()
    assert supertrace(Multivector.identity(6)).is_zero()


@pytest.mark.parametrize("n", [2, 4, 6])
def test_supertrace_kills_all_subtop_blades(n):
    # every blade of grade < n has supertrace zero; top blade is 2^m / i^m
    m = n // 2
    for mask in range(1 << n):
        value = supertrace(Multivector.blade(n, mask))
        if mask == (1 << n) - 1:
            assert value == rational(2 ** m) * (GaussianRational(1) / i_power(m))
        else:
            assert value.is_zero()


def _conjugate_sum_by_products(b):
    """Sum_i c(e_i) b c(e_i), multiplied out blade by blade."""
    out = Multivector.zero(b.dim)
    for i in range(1, b.dim + 1):
        out = out + mv_mul(mv_mul(gen(b.dim, i), b), gen(b.dim, i))
    return out


def test_conjugate_sum_examples():
    # grade 1 -> (n-2), grade 3 -> (n-6), identity -> -n
    for n in (4, 6, 8):
        x = Multivector.blade(n, 0b1)
        assert conjugate_sum(x) == _conjugate_sum_by_products(x) == x.scale(n - 2)
        t = Multivector.blade(n, 0b111)
        assert conjugate_sum(t) == _conjugate_sum_by_products(t) == t.scale(n - 6)
        one = Multivector.identity(n)
        assert conjugate_sum(one) == _conjugate_sum_by_products(one) == one.scale(-n)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_conjugate_sum_grade_formula(n, rng):
    # on every grade-k blade: (-1)^k (2k - n); by linearity a proof at this n
    for mask in range(1 << n):
        k = bin(mask).count("1")
        blade = Multivector.blade(n, mask)
        assert conjugate_sum(blade) == _conjugate_sum_by_products(blade) \
            == blade.scale((-1) ** k * (2 * k - n))
    # and on a multivector of mixed grades with complex coefficients
    for _ in range(5):
        b = rand_multivector(rng, n, 12)
        assert conjugate_sum(b) == _conjugate_sum_by_products(b)


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
    assert rep.trace(Multivector.blade(4, 0b11)).is_zero()
    g_top = mv_mul(grading(4), Multivector.blade(4, 0b1111))
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
        rhs = (u[n] * metric_pair(v, w) - v[n] * metric_pair(u, w)
               + w[n] * metric_pair(u, v)) * 2 ** (n // 2)
        assert lhs == rhs


def test_anticommutator_relation(rng):
    n = 6
    for _ in range(30):
        i, j = rng.randint(1, n), rng.randint(1, n)
        anti = mv_mul(gen(n, i), gen(n, j)) + mv_mul(gen(n, j), gen(n, i))
        assert anti == Multivector.identity(n).scale(-2 * (i == j))
    # {c(e_j), c(X)} = -2 X_j, and the grading anticommutes with every generator
    x = rand_oneform(rng, n)
    for j in range(1, n + 1):
        cx = to_clifford(x)
        assert mv_mul(gen(n, j), cx) + mv_mul(cx, gen(n, j)) == \
            Multivector.identity(n).scale(-2 * x[j])
    for m in (4, 6):
        for j in range(1, m + 1):
            assert (mv_mul(gen(m, j), grading(m))
                    + mv_mul(grading(m), gen(m, j))).is_zero()


def test_multivector_parse_roundtrip():
    mv = (Multivector.blade(4, 0b101, GaussianRational(rational("1/2"), 1))
          + Multivector.identity(4).scale(-3))
    assert Multivector.parse(4, str(mv)) == mv
    assert Multivector.parse(4, "0").is_zero()
    # every coefficient form sym() prints: -i, -1/2 i and 3-2 i among them
    mv = mv + Multivector(4, {0b0011: GaussianRational(0, -1),
                              0b0110: GaussianRational(0, rational("-1/2")),
                              0b1100: GaussianRational(3, -2),
                              0b1001: GaussianRational(rational("-1/2"), 1),
                              0b1111: GaussianRational(0, rational("5/2"))})
    assert "(-(1 i))*e{1 2}" in str(mv)
    assert Multivector.parse(4, str(mv)) == mv
    assert Multivector.parse(2, "(-(1 i))*e{}") == Multivector.identity(2).scale(i_power(3))


_parts = st.builds(Rational, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
_nonzero_parts = _parts.filter(bool)
# real, imaginary, negated imaginary (printed "-(p/q i)") and mixed coefficients
_coefficients = st.one_of(
    st.builds(GaussianRational, _parts),
    st.builds(lambda p: GaussianRational(0, abs(p)), _nonzero_parts),
    st.builds(lambda p: GaussianRational(0, -abs(p)), _nonzero_parts),
    st.builds(GaussianRational, _nonzero_parts, _nonzero_parts),
)
_multivectors = st.integers(1, 8).flatmap(lambda n: st.builds(
    Multivector, st.just(n),
    st.dictionaries(st.integers(0, (1 << n) - 1), _coefficients, max_size=10)))


@given(_multivectors)
def test_multivector_parse_roundtrip_property(x):
    assert Multivector.parse(x.dim, str(x)) == x


def _product_by_sorting(a_word, b_word):
    """(indices, sign) of a product of two ascending index words, from first principles."""
    word = list(a_word) + list(b_word)
    sign = 1
    for end in range(len(word) - 1, 0, -1):  # bubble sort: one sign per transposition
        for k in range(end):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                sign = -sign
    out = []
    for i in word:  # a repeated index is adjacent once sorted: c(e_i)^2 = -1
        if out and out[-1] == i:
            out.pop()
            sign = -sign
        else:
            out.append(i)
    return out, sign


def test_blade_product_matches_sorting_count():
    """Every pair of blades of Cl(8), which contains every pair for n <= 8."""
    words = [[i + 1 for i in range(8) if mask >> i & 1] for mask in range(256)]
    for a, a_word in enumerate(words):
        for b, b_word in enumerate(words):
            indices, sign = _product_by_sorting(a_word, b_word)
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
    for _, c in mv:
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
    one = Multivector.identity(n)
    e1 = Multivector.generator(n, 1)
    left = mv_mul_reference(a, one + e1)
    product = mv_mul(left, one - e1)
    assert product == mv_mul_reference(left, one - e1) == a.scale(2)
    assert not any(mask & 1 for mask in product.coeffs)
    _assert_canonical(product)
    zero = Multivector.zero(n)
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
    assert scalar_product(a, Multivector.zero(n)) == GaussianRational(0)
    with pytest.raises(DimensionMismatch):
        scalar_product(a, Multivector.identity(2))


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
    # a product of a product reads its operand's parts unbuilt, unless a
    # part's denominator is past _RUN_DEN_BITS, as the coprime ones are
    product = mv_mul(a, b)
    assert (_integer_runs(product) is product._parts) == (kind != "coprime")
    assert mv_mul(product, a) == mv_mul_reference(reference, a)
    assert (product._coeffs is None) == (kind != "coprime")


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind", ["small", "coprime", "imaginary"])
def test_scale_and_conjugate_sum_match_the_coefficient_oracles(kind, n):
    """Both scale integer numerators; the result is unbuilt and reads like the
    coefficient-by-coefficient scaling, for plain and product operands.  So
    does negation, and a sum keeps its coefficients and their parts."""
    rng = random.Random(f"scale-{kind}-{n}")
    draw = _coefficient_draw(rng, kind)
    plain = Multivector(n, {mask: draw() for mask in range(1 << n)})
    for b in (plain, mv_mul(rand_multivector(rng, n), rand_multivector(rng, n))):
        for s in (draw(), GaussianRational(0, 1), rational("-3/7"), 2):
            got, expected = b.scale(s), scale_reference(b, s)
            assert got._coeffs is None
            assert got == expected and str(got) == str(expected)
        got, expected = conjugate_sum(b), _conjugate_sum_by_products(b)
        assert got._coeffs is None
        assert got == expected and str(got) == str(expected)
    assert plain.scale(0) == Multivector.zero(n)
    # the constructor stores the parts of the coefficients it keeps
    assert plain._parts == _rational_runs((mask, c.re, c.im)
                                          for mask, c in plain.coeffs.items())
    assert _integer_runs(plain) is plain._parts
    other = Multivector(n, {mask: draw() for mask in range(0, 1 << n, 3)})
    for b in (plain, mv_mul(plain, rand_multivector(rng, n, 2))):
        got, expected = -b, scale_reference(b, -1)
        assert got._coeffs is None
        assert got == expected and str(got) == str(expected)
        for c in (other, mv_mul(rand_multivector(rng, n, 2), other)):
            got, expected = b + c, add_reference(b, c)
            assert got == expected and str(got) == str(expected)
            assert got._parts == _rational_runs((mask, x.re, x.im)
                                                for mask, x in got.coeffs.items())
            assert b - c == add_reference(b, scale_reference(c, -1))


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
        assert read(rebuilt) == read(Multivector.zero(4)), name
    # a single part is zero exactly when its numerators are
    assert _from_int_parts(4, [(5, {1: (0, 0)})]).is_zero()
    assert not _from_int_parts(4, [(5, {1: (0, 1)})]).is_zero()
    assert _from_int_parts(4, []).is_zero()


def test_part_past_run_bits_takes_the_split_run_path():
    """A stored denominator past _RUN_DEN_BITS is not used as a run: the
    runs come from the built coefficients, split where their lcm is long."""
    draw = coprime_draw(random.Random("long-part"), digits=200)
    values = [draw() for _ in range(8)]  # about 660 bits per denominator
    den = math.prod(v.denominator for v in values)
    assert den.bit_length() > _RUN_DEN_BITS
    masks = (1, 2, 4, 8, 3, 5, 6, 9)
    mv = _from_int_parts(4, [(den, {mask: (v.numerator * (den // v.denominator), 0)
                                    for mask, v in zip(masks, values)})])
    runs = _integer_runs(mv)
    assert len(runs) > 1
    assert all(run_den.bit_length() <= _RUN_DEN_BITS for run_den, _ in runs)
    reference = Multivector(4, {mask: GaussianRational(v) for mask, v in zip(masks, values)})
    assert mv == reference
    other = Multivector(4, {mask: GaussianRational(_small(random.Random(mask)))
                            for mask in range(16)})
    assert mv_mul(mv, other) == mv_mul_reference(reference, other)
    # a long stored denominator whose coefficients reduce is read as one short run
    short = _from_int_parts(4, [(den, {3: (den // 2, den)})])
    assert _integer_runs(short) == [(2, {3: (1, 2)})]


def test_coefficients_are_gaussian_rationals(rng):
    product = mv_mul(rand_multivector(rng, 4), rand_multivector(rng, 4))
    assert all(isinstance(c, GaussianRational) for _, c in product)
    assert isinstance(product.scalar_part(), GaussianRational)
    # symbolic atoms never enter the Clifford layer
    with pytest.raises(TypeError):
        Multivector(4, {0: sym(1)})
    with pytest.raises(TypeError):
        product.scale(sym(2))


def test_blade_scale_collapse():
    u = OneForm((1, 2, 0, 0))
    v = OneForm((3, 0, 0, 5))
    assert metric_pair(u, v) == 3


def test_dimension_caps():
    with pytest.raises(DimensionMismatch):
        Multivector.identity(17)
    with pytest.raises(DimensionMismatch):
        MatrixRep(14)  # matrix oracle is capped at n = 12
    with pytest.raises(OddDimension):
        MatrixRep(5)


def test_oracle_at_cap_dimension():
    # n = 12: blade supertrace of the top blade equals the literal matrix trace
    rep = MatrixRep(12)
    top = Multivector.blade(12, (1 << 12) - 1)
    expected = rational(2 ** 6) * (GaussianRational(1) / i_power(6))
    assert supertrace(top) == expected
    assert rep.trace(mv_mul(grading(12), top)) == expected
