"""Exact sphere moments vs Gamma-function and Monte-Carlo oracles."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from spectral_torsion import (
    DimensionMismatch,
    Multivector,
    XiPolynomialMV,
    integrate_sphere,
    moment,
    rational,
    vol_numeric,
)
from spectral_torsion.clifford import _RUN_DEN_BITS
from spectral_torsion.moments import xi_monomial
from spectral_torsion.scalars import GaussianRational, Rational

from conftest import coprime_draw, integrate_sphere_reference


def gamma_moment_full(n: int, alpha) -> float:
    """Independent closed form: 2 prod Gamma((a_i+1)/2) / Gamma((n+|a|)/2)."""
    if any(a % 2 for a in alpha):
        return 0.0
    prod = 1.0
    for a in alpha:
        prod *= math.gamma((a + 1) / 2.0)
    return 2.0 * prod / math.gamma((n + sum(alpha)) / 2.0)


def eval_moment(n, alpha) -> float:
    return float(moment(n, alpha)) * vol_numeric(n - 1)


def test_odd_moment_vanishes():
    assert moment(4, (1, 1, 0, 0)) == 0
    assert moment(6, (1, 0, 0, 0, 0, 0)) == 0


def test_second_moment():
    # in units of vol(S^3) and vol(S^5)
    assert moment(4, (2, 0, 0, 0)) == rational("1/4")
    assert moment(6, (0, 2, 0, 0, 0, 0)) == rational("1/6")


def test_fourth_moment_gamma_oracle():
    # against the independent Gamma formula
    assert moment(4, (4, 0, 0, 0)) == rational("1/8")  # units of vol(S^3)
    assert eval_moment(4, (4, 0, 0, 0)) == pytest.approx(gamma_moment_full(4, (4, 0, 0, 0)), rel=1e-12)
    assert eval_moment(4, (2, 2, 0, 0)) == pytest.approx(gamma_moment_full(4, (2, 2, 0, 0)), rel=1e-12)
    assert eval_moment(6, (2, 2, 2, 0, 0, 0)) == pytest.approx(
        gamma_moment_full(6, (2, 2, 2, 0, 0, 0)), rel=1e-12)


def test_permutation_symmetry(rng):
    n = 6
    alpha = (4, 2, 0, 2, 0, 0)
    base = moment(n, alpha)
    for _ in range(10):
        perm = list(alpha)
        rng.shuffle(perm)
        assert moment(n, tuple(perm)) == base


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_second_moments_sum_to_volume(n):
    total = rational(0)
    for i in range(1, n + 1):
        total = total + moment(n, xi_monomial(n, i, i))
    assert total == 1  # one vol(S^(n-1))


def test_vol_numeric_values():
    assert vol_numeric(1) == pytest.approx(2 * math.pi, rel=1e-14)
    assert vol_numeric(3) == pytest.approx(2 * math.pi ** 2, rel=1e-14)
    assert vol_numeric(5) == pytest.approx(math.pi ** 3, rel=1e-14)


def test_monte_carlo_agreement():
    # quasi-independent check: 10^6 normalized Gaussian points on S^3
    n = 4
    gen = np.random.default_rng(12345)
    points = gen.standard_normal((1_000_000, n))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    for alpha in [(2, 0, 0, 0), (2, 2, 0, 0), (4, 0, 0, 0), (2, 0, 2, 0)]:
        sample_mean = np.prod(points ** np.array(alpha), axis=1).mean()
        exact_mean = eval_moment(n, alpha) / vol_numeric(n - 1)
        assert sample_mean == pytest.approx(exact_mean, rel=0.01)
    # an odd monomial averages to ~0
    odd = np.prod(points ** np.array((1, 1, 0, 0)), axis=1).mean()
    assert abs(odd) < 1e-3


@pytest.mark.parametrize("k", [2.5, True, 0, 3.0])
def test_vol_numeric_refuses_what_vol_sphere_refuses(k):
    """vol_numeric(2.5) and vol_numeric(True) used to answer 16.13 and 2 pi."""
    with pytest.raises(ValueError, match=rf"^sphere dimension must be an int >= 1, got {k!r}$"):
        vol_numeric(k)


@pytest.mark.parametrize("nvars", [True, 4.0, "4"])
def test_xi_monomial_and_polynomial_refuse_a_non_int_variable_count(nvars):
    """xi_monomial(True) used to return (0,), xi_monomial(4.0) raised a bare
    TypeError and XiPolynomialMV(4.0, 4, {}) was accepted; all three take
    the one dimension rule."""
    message = rf"^dimension must be in \[1, 16\], got {nvars}$"
    with pytest.raises(DimensionMismatch, match=message):
        xi_monomial(nvars)
    with pytest.raises(DimensionMismatch, match=message):
        xi_monomial(nvars, 1)
    with pytest.raises(DimensionMismatch, match=message):
        XiPolynomialMV(nvars, 4, {})


def test_xi_monomial_rejects_index_0():
    # Python would read index -1, the last variable
    with pytest.raises(DimensionMismatch, match=r"^variable index 0 outside 1\.\.4$"):
        xi_monomial(4, 0)


def test_xi_monomial_rejects_index_past_nvars():
    with pytest.raises(DimensionMismatch, match=r"^variable index 5 outside 1\.\.4$"):
        xi_monomial(4, 5)


def test_xi_monomial_rejects_a_float_or_bool_index():
    for i in (True, 1.0):
        with pytest.raises(DimensionMismatch, match=rf"^variable index {i} outside 1\.\.4$"):
            xi_monomial(4, i)


def test_moment_refuses_bad_arguments_after_the_equal_key_is_cached():
    """2.0 and True hash and compare like the ints 2 and 1, so a cached
    moment(4, (2, 0, 0, 0)) or moment(4, (1, 1, 0, 0)) must not answer them."""
    assert moment(4, (2, 0, 0, 0)) == rational("1/4")
    assert moment(4, (1, 1, 0, 0)) == 0
    assert moment(4, [2, 0, 0, 0]) is moment(4, (2, 0, 0, 0))
    for n in (4.0, True, "4", 1):
        with pytest.raises(ValueError, match=r"^ambient dimension must be an int >= 2, got "):
            moment(n, (2, 0, 0, 0))
    for alpha in ((2.0, 0, 0, 0), (1.0, 1, 0, 0), (True, True, 0, 0), (-2, 0, 0, 0)):
        with pytest.raises(ValueError, match=r"^exponents must be non-negative ints, got "):
            moment(4, alpha)
    with pytest.raises(DimensionMismatch, match=r"^exponent vector length 3 != 4$"):
        moment(4, (2, 0, 0))


def test_integrate_sphere_odd_term_dies():
    n = 4
    p = XiPolynomialMV(n, n, {xi_monomial(n, 1): Multivector.generator(n, 1)})
    assert integrate_sphere(n, p).is_zero()


def test_integrate_sphere_sums_to_volume():
    n = 4
    terms = {xi_monomial(n, i, i): Multivector(n, {0: 1}) for i in range(1, n + 1)}
    out = integrate_sphere(n, XiPolynomialMV(n, n, terms))
    assert out == Multivector(n, {0: 1})  # in units of vol(S^3)


def test_integrate_sphere_mixed_term_dies():
    n = 4
    terms = {
        xi_monomial(n, 1, 2): Multivector(n, {0b11: 1}),
        xi_monomial(n, 1, 1): Multivector(n, {0: 1}),
    }
    out = integrate_sphere(n, XiPolynomialMV(n, n, terms))
    assert out == Multivector(n, {0: rational("1/4")})  # units of vol(S^3)


def _termwise_polynomial(rng, n):
    """Degree-0, 2 and 4 monomials, odd and mixed ones among them, whose
    coefficients are imaginary, negative, or have pairwise-coprime 12-digit
    denominators."""
    coprime = coprime_draw(rng)
    small = lambda: Rational(rng.randint(1, 9), rng.randint(1, 6))  # noqa: E731
    draws = (lambda: GaussianRational(0, small()),
             lambda: GaussianRational(0, -small()),
             lambda: GaussianRational(-small(), 0),
             lambda: GaussianRational(coprime(), coprime()))
    monomials = [xi_monomial(n)]
    for i in range(1, n + 1):
        monomials += [xi_monomial(n, i, i), xi_monomial(n, i, i, i, i),
                      xi_monomial(n, i, i % n + 1), xi_monomial(n, i, i, i % n + 1, i % n + 1),
                      xi_monomial(n, i, i, i, i % n + 1)]
    terms = {}
    for k, expo in enumerate(monomials):
        draw = draws[k % len(draws)]
        blades = rng.sample(range(1 << n), min(1 << n, 12))
        terms[expo] = Multivector(n, {mask: draw() for mask in blades})
    return XiPolynomialMV(n, n, terms)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_integrate_sphere_matches_termwise(n):
    """Against the reference, which integrates each coefficient on its own
    and adds the results as multivectors."""
    rng = random.Random(f"termwise-{n}")
    p = _termwise_polynomial(rng, n)
    dens = [c.re.denominator * c.im.denominator for expo, mv in p.terms.items()
            if not any(a % 2 for a in expo) for c in mv.coeffs.values()]
    # the surviving terms share no small common denominator (their lcm is past
    # the run limit), so the result's parts, one per coefficient run, are
    # summed over large coprime denominators when read; each single term
    # below gives a result with its own parts only
    assert math.lcm(*dens).bit_length() > _RUN_DEN_BITS
    got = integrate_sphere(n, p)
    assert got == integrate_sphere_reference(n, p)
    assert not got.is_zero()
    # only the even monomials of degree 0, 2 and 4 survive: a single one of each
    for expo in (xi_monomial(n), xi_monomial(n, 1, 1), xi_monomial(n, 1, 1, 2, 2)):
        single = XiPolynomialMV(n, n, {expo: p.terms[expo]})
        assert integrate_sphere(n, single) == integrate_sphere_reference(n, single)
    assert integrate_sphere(n, XiPolynomialMV(n, n)).is_zero()
