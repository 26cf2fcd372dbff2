"""Exact sphere moments vs Gamma-function and Monte-Carlo oracles."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from spectral_torsion import (
    DimensionMismatch,
    Multivector,
    OneForm,
    XiPolynomialMV,
    frame_product,
    integrate_sphere,
    moment,
    rational,
    vol_numeric,
)
from spectral_torsion.clifford import _RUN_DEN_BITS
from spectral_torsion.moments import xi_monomial
from spectral_torsion.scalars import GaussianRational, Rational

from conftest import coprime_draw, integrate_sphere_reference, rand_oneform


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


def test_integrate_sphere_odd_term_dies():
    n = 4
    p = XiPolynomialMV(n, n, {xi_monomial(n, 1): Multivector.generator(n, 1)})
    assert integrate_sphere(n, p).is_zero()


def test_integrate_sphere_sums_to_volume():
    n = 4
    terms = {xi_monomial(n, i, i): Multivector.identity(n) for i in range(1, n + 1)}
    out = integrate_sphere(n, XiPolynomialMV(n, n, terms))
    assert out == Multivector.identity(n)  # in units of vol(S^3)


def test_integrate_sphere_mixed_term_dies():
    n = 4
    terms = {
        xi_monomial(n, 1, 2): Multivector.blade(n, 0b11),
        xi_monomial(n, 1, 1): Multivector.identity(n),
    }
    out = integrate_sphere(n, XiPolynomialMV(n, n, terms))
    assert out == Multivector.identity(n).scale(rational("1/4"))  # units of vol(S^3)


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


def _left_factor(kind, rng, n):
    """None, or a left factor C = c(u)c(v)c(w), which is zero or invertible:
    dense, a single blade, or over pairwise-coprime 12-digit denominators."""
    if kind is None:
        return None
    if kind == "sparse":
        u, v, w = (OneForm.basis(n, i) for i in (1, 2, 3))
    elif kind == "coprime":
        draw = coprime_draw(rng)
        u, v, w = (OneForm(tuple(draw() for _ in range(n))) for _ in range(3))
    else:
        u, v, w = (rand_oneform(rng, n) for _ in range(3))
    return frame_product(u, v, w, n)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_integrate_sphere_matches_termwise(n):
    """Against the reference, which integrates each coefficient with the left
    factor multiplied in (conftest.expand_left); integrate_sphere multiplies
    it in once, after.  The polynomial goes in without a left factor and
    with a dense, a sparse and a coprime one."""
    rng = random.Random(f"termwise-{n}")
    terms = _termwise_polynomial(rng, n).terms
    dens = [c.re.denominator * c.im.denominator for expo, mv in terms.items()
            if not any(a % 2 for a in expo) for _, c in mv]
    # the surviving terms share no small common denominator (their lcm is past
    # the run limit), so the result's parts, one per coefficient run, are
    # summed over large coprime denominators when read; each single term
    # below gives a result with its own parts only
    assert math.lcm(*dens).bit_length() > _RUN_DEN_BITS
    for kind in (None, "dense", "sparse", "coprime"):
        c = _left_factor(kind, rng, n)
        p = XiPolynomialMV(n, n, terms, left=c)
        got = integrate_sphere(n, p)
        assert got == integrate_sphere_reference(n, p), kind
        assert not got.is_zero()
        # only the even monomials of degree 0, 2 and 4 survive: a single one of each
        for expo in (xi_monomial(n), xi_monomial(n, 1, 1), xi_monomial(n, 1, 1, 2, 2)):
            single = XiPolynomialMV(n, n, {expo: terms[expo]}, left=c)
            assert integrate_sphere(n, single) == integrate_sphere_reference(n, single), kind
        assert integrate_sphere(n, XiPolynomialMV(n, n, left=c)).is_zero()


def test_left_factor_is_checked_and_compared():
    """The left factor has the polynomial's dimension, a zero one keeps no
    terms, and equality compares the stored form."""
    n = 4
    terms = {xi_monomial(n): Multivector.generator(n, 1)}
    with pytest.raises(DimensionMismatch, match=r"^dim 6 vs 4$"):
        XiPolynomialMV(n, n, terms, left=Multivector.identity(6))
    assert XiPolynomialMV(n, n, terms, left=Multivector.zero(n)).terms == {}
    c = Multivector.generator(n, 2)
    assert XiPolynomialMV(n, n, terms, left=c) == XiPolynomialMV(n, n, terms, left=c)
    assert XiPolynomialMV(n, n, terms, left=c) != XiPolynomialMV(n, n, terms)
