"""Half-line projection, residues, line integrals, boundary density."""

from __future__ import annotations

import math
import random
import re
import time

import pytest

from spectral_torsion import (
    DimensionMismatch,
    Multivector,
    NonIntegrable,
    OddDimension,
    OneForm,
    PI,
    SymScalar,
    XiRational,
    boundary_density,
    dxn_symbol,
    line_integral,
    pi_plus,
    rational,
    sym,
    theorem_boundary_value,
    vol_sphere,
)
from spectral_torsion import halfline
from spectral_torsion.halfline import POLY_ONE, POLY_X, Poly, _normal_integral, \
    half_inverse_symbol_components
from spectral_torsion.forms import frame_product
from spectral_torsion.torsion import _frame_pairing
from spectral_torsion.scalars import DIM_F, GR_I, GR_ZERO, GaussianRational, Rational

from conftest import (
    boundary_density_reference,
    boundary_pieces_reference,
    boundary_symbol,
    cayley_rotation,
    coprime_draw,
    long_input,
    normal_trace_combination_reference,
    quad_oracle,
    rand_oneform,
    rand_rational,
    rotate_oneform,
)


def lorentzian():
    # 1/(1+x^2) = 1/((x-i)(x+i))
    return XiRational(POLY_ONE, 1, 1)


def x_lorentzian():
    return XiRational(POLY_X, 1, 1)


def eval_pi(z: GaussianRational) -> complex:
    """A value in units of pi, in double precision."""
    return complex(z) * math.pi


def pi_minus(f: XiRational) -> XiRational:
    """The complementary projection: the principal part of f at -i, the pole
    below the axis."""
    numer = Poly()
    if f.down:  # sum_k (x + i)^k (d/dx)^k [(x + i)^down f](-i) / k!, by Horner's rule
        rest = XiRational(f.numer, f.up, 0)
        for k, d in reversed(list(enumerate(rest.derivatives_at(-GR_I, f.down - 1)))):
            numer = numer * Poly((GR_I, 1)) + Poly((d / rational(math.factorial(k)),))
    return XiRational(numer, down=f.down)


def denominator(f: XiRational) -> Poly:
    """(x - i)^up (x + i)^down, expanded."""
    out = POLY_ONE
    for root, mult in ((GR_I, f.up), (-GR_I, f.down)):
        for _ in range(mult):
            out = out * Poly((-root, 1))
    return out


# -- projection -----------------------------------------------------------------


def test_pi_plus_even_fixture():
    got = pi_plus(lorentzian())
    # 1/(2i (x-i)) = -i/2 / (x-i)
    expected = XiRational(Poly((GaussianRational(0, rational("-1/2")),)), up=1)
    assert got == expected


def test_pi_plus_odd_fixture():
    got = pi_plus(x_lorentzian())
    expected = XiRational(Poly((rational("1/2"),)), up=1)
    assert got == expected


def test_pi_plus_idempotent(rng):
    for f in (lorentzian(), x_lorentzian(), dxn_symbol(2), dxn_symbol(3)):
        assert pi_plus(pi_plus(f)) == pi_plus(f)


def rand_proper_xirational(rng) -> XiRational:
    """Multiplicities 0-4 at i and at -i, not both 0, over a numerator of
    lower degree than the denominator."""
    up = down = 0
    while not up + down:
        up, down = rng.randint(0, 4), rng.randint(0, 4)
    degree = rng.randrange(up + down)
    numer = Poly([GaussianRational(rand_rational(rng), rand_rational(rng))
                  for _ in range(degree + 1)])
    return XiRational(numer, up, down)


def test_pi_plus_pi_minus_partition(rng):
    """pi+ f + pi- f = f, checked by cross-multiplying the two projections'
    denominators."""
    fixed = [lorentzian(), x_lorentzian(), dxn_symbol(2),
             XiRational(Poly((1, 2, 0, -3)), 3, 2)]
    drawn = [rand_proper_xirational(rng) for _ in range(40)]
    assert max(max(f.up, f.down) for f in drawn) == 4
    for f in fixed + drawn:
        plus, minus = pi_plus(f), pi_minus(f)
        assert (plus.up, minus.down) == (f.up, f.down)
        lhs = (plus.numer * denominator(minus) + minus.numer * denominator(plus)) \
            * denominator(f)
        assert lhs == f.numer * denominator(plus) * denominator(minus)


def test_pi_plus_rejects_nondecaying():
    with pytest.raises(NonIntegrable):
        pi_plus(XiRational(Poly((1, 0, 1)), 1, 1))


# -- equality ---------------------------------------------------------------------


def cross_multiplied_eq(a: XiRational, b: XiRational) -> bool:
    """The former XiRational equality: N_a * D_b == N_b * D_a on the
    expanded denominators."""
    return a.numer * denominator(b) == b.numer * denominator(a)


def test_xirational_equality_matches_cross_multiplication():
    """Comparing the canonical (numer, up, down) form agrees with
    cross-multiplying, on random pairs, equal values built along different
    routes, and values rebuilt with an extra, cancelled linear factor."""
    rng = random.Random("xirational-eq")
    pool = [GR_I, -GR_I]
    small = (0, 1, -1, 2, rational("1/2"), rational("-3/2"))

    def draw():
        numer = Poly(tuple(GaussianRational(rng.choice(small), rng.choice(small))
                           for _ in range(rng.randint(0, 3))))
        return XiRational(numer, rng.randint(0, 2), rng.randint(0, 2))

    def with_cancelled_factor(f):
        p = rng.choice(pool)
        return XiRational(f.numer * Poly((-p, 1)), f.up + (p == GR_I), f.down + (p != GR_I))

    equal = compared = 0
    for _ in range(400):
        a, b, c = draw(), draw(), draw()
        pairs = [(a, b), (a, with_cancelled_factor(a)),
                 (with_cancelled_factor(a), with_cancelled_factor(a)),
                 ((a * b) * c, a * (b * c)), (a * b, b * a), (a, with_cancelled_factor(b))]
        for x, y in pairs:
            assert (x == y) == cross_multiplied_eq(x, y), (x, y)
            equal += x == y
            compared += 1
    assert 0 < equal < compared  # both outcomes are exercised


@pytest.mark.parametrize("mult", [1.5, True, -1, "1"])
def test_xirational_refuses_non_int_multiplicities(mult):
    for up, down in ((mult, 0), (0, mult)):
        with pytest.raises(ValueError, match=rf"^pole multiplicity must be an int >= 0, "
                                             rf"got {re.escape(repr(mult))}$"):
            XiRational(POLY_ONE, up, down)


@pytest.mark.parametrize("args", [([1],), ([1], 1), ((), 0, 2), (1, 1, 1)],
                         ids=["list", "list-up", "tuple-down", "int"])
def test_xirational_refuses_a_numerator_that_is_not_a_poly(args):
    """The numerator is a Poly, with or without a pole to cancel against it."""
    with pytest.raises(TypeError, match=rf"^XiRational numerator must be a Poly, "
                                        rf"got {type(args[0]).__name__}$"):
        XiRational(*args)


@pytest.mark.parametrize("other", [1, GaussianRational(1), 0.5, None, [1], "x"],
                         ids=["int", "gaussian", "float", "none", "list", "str"])
def test_poly_and_xirational_arithmetic_refuse_a_foreign_operand(other):
    """Poly's + and * take a Poly, and XiRational's * an XiRational; any other
    operand, on either side, is a TypeError, not an AttributeError from
    reading its coefficients.  A Poly and an XiRational do not multiply."""
    poly, f = Poly((1, 2)), XiRational(Poly((1,)), 1, 1)
    for a, b in ((poly, other), (other, poly), (f, other), (other, f), (f, poly), (poly, f)):
        with pytest.raises(TypeError):
            a * b
        if poly in (a, b):
            with pytest.raises(TypeError):
                a + b


# -- the normal-derivative symbol -------------------------------------------------


def test_dxn_symbol_m2():
    expected = XiRational(Poly((0, -2)), 2, 2)
    assert dxn_symbol(2) == expected


def test_dxn_symbol_m3():
    expected = XiRational(Poly((0, -4)), 3, 3)
    assert dxn_symbol(3) == expected


def test_dxn_symbol_odd_function():
    assert dxn_symbol(2).eval_exact(GaussianRational(0)).is_zero()


def test_dxn_symbol_is_exact_derivative():
    for m in (2, 3, 4, 5):
        inverse_power = XiRational(POLY_ONE, m - 1, m - 1)
        assert inverse_power.derivative() == dxn_symbol(m)


# -- residue derivatives -----------------------------------------------------------


def _pole_derivative(m):
    """(d/dx)^m [x / (x+i)^m] at x = i, the value row E4.62 reads."""
    return XiRational(POLY_X, down=m).derivatives_at(GR_I, m)[m]


def test_residue_derivative_m2():
    assert _pole_derivative(2) == GaussianRational(0, rational("-1/8"))


def test_residue_derivative_m3():
    assert _pole_derivative(3) == GaussianRational(0, rational("-3/16"))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_residue_derivative_closed_form(m):
    expected = (GaussianRational(0, -1)
                * rational(math.factorial(2 * m - 2))
                / rational(math.factorial(m - 1) * 2 ** (2 * m)))
    assert _pole_derivative(m) == expected


@pytest.mark.parametrize("m", range(2, 9))
def test_normal_integral_is_the_pole_derivative(m):
    """The boundary constant, the line integral of pi+'s normal weight times
    dxn_symbol(m), equals -2(1-m)/m! times the m-th derivative of
    x/(x+i)^m at x = i: the residue route and the exact differentiation
    that row E4.62 reads give one value for every m the boundary takes."""
    factor = rational(-2 * (1 - m)) / rational(math.factorial(m))
    assert _normal_integral(m) == _pole_derivative(m) * factor


@pytest.mark.parametrize("m", [3.0, 2.5, True, 1])
def test_residue_derivative_and_dxn_symbol_refuse_non_int_orders(m):
    """dxn_symbol refuses an order that is not an int >= 2, a float or a
    bool included, before any Rational conversion."""
    with pytest.raises(ValueError, match=rf"^need an int m >= 2, got {m!r}$"):
        dxn_symbol(m)


@pytest.mark.parametrize("order", [-1, -3, True, False, 1.0, "1"])
def test_derivatives_at_refuses_an_order_that_is_not_an_int_at_least_0(order):
    """A negative order used to give [f(x)] and a bool was read as 0 or 1;
    both are refused, with a float and a string, before any evaluation."""
    f = XiRational(POLY_ONE, 1)
    message = rf"^need an int order >= 0, got {re.escape(repr(order))}$"
    with pytest.raises(ValueError, match=message):
        f.derivatives_at(GaussianRational(2), order)
    assert f.derivatives_at(GaussianRational(2), 0) == [f.eval_exact(GaussianRational(2))]


# -- line integrals ------------------------------------------------------------------


def test_line_integral_lorentzian():
    assert line_integral(lorentzian()) == GaussianRational(1)  # units of pi


def test_line_integral_boundary_kernel():
    # x / (2 (x-i)(1+x^2)^2)
    f = XiRational(Poly((0, rational("1/2"))), 3, 2)
    assert line_integral(f) == GaussianRational(rational("1/16"))  # units of pi
    assert eval_pi(line_integral(f)) == pytest.approx(quad_oracle(f).real, abs=1e-9)


def test_line_integral_odd_vanishes():
    f = XiRational(POLY_X, 2, 2)
    assert line_integral(f).is_zero()


def test_line_integral_without_a_pole_at_i_is_zero():
    """1/(x+i)^2, x/(x+i)^3 and x^2/(x+i)^4 have their only pole at -i
    (up = 0), so closing the contour above the real line picks up no
    residue: each integral is exactly 0.  The quadrature agrees up to its
    truncation at |x| = 10^4, a tail of 2/10^4 for integrands decaying like
    1/x^2."""
    for k in (2, 3, 4):
        f = XiRational(Poly((0,) * (k - 2) + (1,)), 0, k)
        assert f.up == 0 and f.down == k
        assert line_integral(f) == GR_ZERO
        assert abs(quad_oracle(f)) < 3e-4


def test_line_integral_rejects_slow_decay():
    with pytest.raises(NonIntegrable):
        line_integral(XiRational(POLY_X, 1, 1))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_boundary_pipeline_integrands_match_quadrature(m):
    """Every xi_n integral the boundary pipeline produces, against quad."""
    for half in half_inverse_symbol_components():
        f = half * dxn_symbol(m)
        exact = eval_pi(line_integral(f))
        numeric = quad_oracle(f)
        assert exact.real == pytest.approx(numeric.real, abs=1e-9)
        assert exact.imag == pytest.approx(numeric.imag, abs=1e-9)


# -- boundary density -----------------------------------------------------------------


def basis(n, i):
    return OneForm.basis(n, i)


def test_boundary_density_tangential_inputs_vanish(rng):
    n = 4
    # u, v, w with no normal component: the trace combination vanishes
    u = OneForm((rand_rational(rng), rand_rational(rng), rand_rational(rng), 0))
    v = OneForm((rand_rational(rng), rand_rational(rng), rand_rational(rng), 0))
    w = OneForm((rand_rational(rng), rand_rational(rng), rand_rational(rng), 0))
    assert boundary_density(u, v, w).is_zero()


def test_boundary_pieces_tangential_term_is_zero(rng):
    n = 4
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    tangential, normal = boundary_pieces_reference(u, v, w, n)
    assert tangential.is_zero()
    assert not normal.is_zero()
    assert boundary_density(u, v, w) == normal


def test_boundary_symbol_structure(rng):
    from spectral_torsion.moments import xi_monomial
    n = 6
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    table = boundary_symbol(u, v, w, n)
    # one xi'-free entry (normal factor) plus one entry per tangential frame leg
    assert set(table) == {xi_monomial(n - 1)} | {
        xi_monomial(n - 1, i) for i in range(1, n)}
    f_norm, mv_norm = table[xi_monomial(n - 1)]
    assert f_norm.up + f_norm.down == 2 * (n // 2) + 1
    assert mv_norm.dim == n


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_boundary_pieces_match_per_entry_route(n):
    """The normal entry and its cached integral against the full boundary
    symbol, entry by entry, whose tangential piece vanishes: dense random,
    basis and zero one-forms."""
    m = n // 2
    _, normal_half = half_inverse_symbol_components()
    assert _normal_integral(m) == line_integral(normal_half * dxn_symbol(m))
    rng = random.Random(f"boundary-{n}")
    inputs = [tuple(rand_oneform(rng, n) for _ in range(3)) for _ in range(3)]
    inputs.append((basis(n, n), basis(n, 1), basis(n, 1)))
    inputs.append((OneForm((0,) * n),) * 3)
    for u, v, w in inputs:
        tangential, normal = boundary_pieces_reference(u, v, w, n)
        assert tangential.is_zero()
        assert boundary_density(u, v, w) == normal


def test_boundary_density_n16_time_bound():
    """20 dense n=16 boundary densities, checked against the catalogued
    coefficient outside the timed loop."""
    n = 16
    rng = random.Random(f"boundary-time-{n}")
    inputs = [tuple(rand_oneform(rng, n) for _ in range(3)) for _ in range(20)]
    start = time.monotonic()
    values = [boundary_density(u, v, w) for u, v, w in inputs]
    elapsed = time.monotonic() - start
    for (u, v, w), value in zip(inputs, values):
        assert value == theorem_boundary_value(u, v, w)
    assert elapsed < 0.3, f"20 boundary densities at n=16 took {elapsed:.2f}s"


def _boundary_rows(kind: str, n: int):
    """Three one-forms of dimension n: dense, with 2-digit numerators and
    denominators, or with pairwise-coprime 25-digit denominators."""
    rng = random.Random(f"boundary-rows-{kind}-{n}")
    if kind == "coprime":
        draw = coprime_draw(rng, digits=25)
    else:
        def draw():
            return Rational(rng.choice((-1, 1)) * rng.randint(10, 99), rng.randint(10, 99))
    return tuple(OneForm(tuple(draw() for _ in range(n))) for _ in range(3))


@pytest.mark.parametrize("n", range(4, 17, 2))
@pytest.mark.parametrize("kind", ["dense", "coprime"])
def test_boundary_density_matches_the_frame_product_route(kind, n):
    """trace(c(u), c(v), c(w)c(e_n)) equals 2^m <C c(e_n)>_0 with C built, at
    every even n; from n=14 on the 25-digit C holds a stored part past
    _RUN_DEN_BITS."""
    u, v, w = _boundary_rows(kind, n)
    if kind == "coprime" and n >= 14:
        assert "bits" in long_input(frame_product(u, v, w))
    assert boundary_density(u, v, w) == boundary_density_reference(u, v, w, n)


@pytest.mark.parametrize("n", range(4, 17, 2))
@pytest.mark.parametrize("kind", ["dense", "coprime"])
def test_normal_trace_combination_matches_the_metric_pairs(kind, n):
    """The boundary addend's combination is the frame pairing at y = e_n."""
    u, v, w = _boundary_rows(kind, n)
    e_n = OneForm.basis(n, n)
    assert _frame_pairing(u, v, w, e_n) == normal_trace_combination_reference(u, v, w)
    with pytest.raises(DimensionMismatch):
        _frame_pairing(u, v, OneForm((0,) * (n + 1)), e_n)


def test_boundary_density_n16_long_inputs_time_bound():
    """One n=16 boundary density on inputs whose 48 components have
    pairwise-coprime 200-digit denominators, checked against the catalogued
    coefficient outside the timed call.

    On the fractions backend (2-vCPU VM), with the factor read as
    trace(c(u)c(v), c(w)c(e_n)), it took 0.038-0.046 s in three full-suite
    runs; the bound is about 4.3x the slowest.  With c(u)c(v)c(w) built
    first, it took 0.68-0.75 s.  Read as trace(c(u), c(v), c(w)c(e_n)), the
    timed call alone takes about 0.013 s.
    """
    n = 16
    draw = coprime_draw(random.Random("boundary-long-n16"), digits=200)
    u, v, w = (OneForm(tuple(draw() for _ in range(n))) for _ in range(3))
    start = time.monotonic()
    value = boundary_density(u, v, w)
    elapsed = time.monotonic() - start
    assert value == theorem_boundary_value(u, v, w)
    assert elapsed < 0.2, f"boundary_density at n=16 on 200-digit inputs took " \
        f"{elapsed:.3f}s on {Rational.__module__}.{Rational.__name__}"


def test_boundary_density_makes_one_clifford_product(monkeypatch):
    """The boundary reads 2^m <c(u)c(v)c(w)c(e_n)>_0 as trace(c(u), c(v),
    c(w)c(e_n)): its one product is c(w)c(e_n), at every even n."""
    products, mv_mul = [], halfline.mv_mul

    def counted(a, b):
        products.append((a, b))
        return mv_mul(a, b)

    monkeypatch.setattr(halfline, "mv_mul", counted)
    for n in range(4, 17, 2):
        u, v, w = _boundary_rows("dense", n)
        products.clear()
        assert boundary_density(u, v, w) == boundary_density_reference(u, v, w, n)
        assert len(products) == 1
        assert products[0][1] == Multivector.generator(n, n)


@pytest.mark.parametrize("call", [line_integral, pi_plus])
@pytest.mark.parametrize("arg", [[1], None, POLY_ONE, GaussianRational(1)])
def test_half_line_functions_take_only_an_xirational(call, arg):
    with pytest.raises(TypeError, match=rf"^expected an XiRational, got {type(arg).__name__}$"):
        call(arg)


def test_boundary_density_rejects_small_odd_or_large_dimension():
    """The one even-dimension rule, with the boundary's lower bound 4."""
    for n, error, message in ((2, DimensionMismatch, r"dimension must be in \[4, 16\], got 2"),
                              (5, OddDimension, "dimension must be even, got 5")):
        z = OneForm((0,) * n)
        with pytest.raises(error, match=message):
            boundary_density(z, z, z)


def test_theorem_boundary_value_checks_the_dimension_before_its_cache():
    z = OneForm((0,) * 4)
    assert theorem_boundary_value(z, z, z).is_zero()  # caches m = 2
    z = OneForm((0,) * 5)  # 5 // 2 would hit m = 2
    with pytest.raises(OddDimension, match=r"^dimension must be even, got 5$"):
        theorem_boundary_value(z, z, z)
    with pytest.raises(DimensionMismatch, match=r"dimension must be in \[4, 16\], got 2"):
        theorem_boundary_value(OneForm((0,) * 2), OneForm((0,) * 2), OneForm((0,) * 2))


def test_boundary_density_example_n4():
    n = 4
    value = boundary_density(basis(n, 4), basis(n, 1), basis(n, 1))
    expected = SymScalar.from_monomial(
        (PI, DIM_F, vol_sphere(2)), GaussianRational(0, rational("-1/2")))
    assert value == expected
    assert value == theorem_boundary_value(basis(n, 4), basis(n, 1), basis(n, 1))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_boundary_density_matches_catalogued_coefficient(n, rng):
    for _ in range(10):
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
        assert boundary_density(u, v, w) == theorem_boundary_value(u, v, w)


def test_boundary_density_trilinear(rng):
    n = 4
    u1, u2, v, w = (rand_oneform(rng, n) for _ in range(4))
    a, b = rational("3/2"), rational("-2")
    u = OneForm([a * p + b * q for p, q in zip(u1.components, u2.components)])
    lhs = boundary_density(u, v, w)
    rhs = (boundary_density(u1, v, w) * sym(a)
           + boundary_density(u2, v, w) * sym(b))
    assert lhs == rhs


def test_boundary_density_tangential_rotation_invariance(rng):
    # rotations of e_1..e_{n-1} leave the boundary density unchanged
    n = 4
    u, v, w = (rand_oneform(rng, n) for _ in range(3))
    q_small = cayley_rotation(rng, n - 1)
    # extend to an n x n block rotation fixing e_n
    q = [[q_small[i][j] if i < n - 1 and j < n - 1 else rational(int(i == j))
          for j in range(n)] for i in range(n)]
    ur, vr, wr = (rotate_oneform(q, x) for x in (u, v, w))
    assert boundary_density(ur, vr, wr) == boundary_density(u, v, w)


def test_boundary_density_numeric_crosscheck():
    # assembled value against quadrature + closed-form sphere volumes
    n = 4
    m = 2
    u, v, w = basis(n, 4), basis(n, 1), basis(n, 1)
    value = boundary_density(u, v, w)
    from spectral_torsion.moments import vol_numeric
    env = {PI: math.pi, DIM_F: 1.0, vol_sphere(n - 2): vol_numeric(n - 2)}
    exact = value.evaluate(env)
    _, normal_half = half_inverse_symbol_components()
    f = normal_half * dxn_symbol(m)
    comb = float(normal_trace_combination_reference(u, v, w))
    numeric = quad_oracle(f) * comb * (2 ** m) * vol_numeric(n - 2)
    assert exact.real == pytest.approx(numeric.real, abs=1e-9)
    assert exact.imag == pytest.approx(numeric.imag, abs=1e-9)
