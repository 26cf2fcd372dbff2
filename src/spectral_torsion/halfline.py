"""Boundary-term machinery: rational functions of the normal covariable.

A boundary symbol ingredient is a rational function of xi_n with Gaussian
rational coefficients whose only poles are the roots +-i of 1 + xi_n^2 (on
|xi'| = 1).  The half-line projection pi+ keeps its principal part at i, the
pole in the upper half plane; real-line integrals are evaluated exactly by the
residue at i, in units of pi.  Both read their coefficients off exact
derivatives at i.
"""

from __future__ import annotations

import functools
import math
from itertools import zip_longest

from .clifford import Multivector, _check_even_dim, mv_mul, trace
from .forms import OneForm, _frame_dim, to_clifford
from .scalars import (
    DIM_F,
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    PI,
    SymScalar,
    _Value,
    _as_gaussian,
    rational,
    vol_sphere,
)


class NonIntegrable(ValueError):
    pass


class Poly(_Value):
    """Dense univariate polynomial over Gaussian rationals (low degree first)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_gaussian(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        return Poly(a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=GR_ZERO))

    def __mul__(self, other: "Poly") -> "Poly":
        if not isinstance(other, Poly):
            return NotImplemented
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def derivative(self) -> "Poly":
        return Poly(tuple(c * rational(k) for k, c in enumerate(self.coeffs) if k))

    def eval(self, x: GaussianRational) -> GaussianRational:
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divide_linear(self, p: GaussianRational) -> tuple["Poly", GaussianRational]:
        """Synthetic division by (x - p): (quotient, remainder)."""
        if self.is_zero():
            return Poly(), GR_ZERO
        out = [GR_ZERO] * len(self.coeffs)
        acc = GR_ZERO
        for k in range(len(self.coeffs) - 1, -1, -1):
            acc = self.coeffs[k] + acc * p
            out[k] = acc
        remainder = out[0]
        return Poly(out[1:]), remainder

    def _key(self):
        return self.coeffs

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


POLY_ZERO = Poly()
POLY_ONE = Poly((GR_ONE,))
POLY_X = Poly((GR_ZERO, GR_ONE))
_X_MINUS_I = Poly((-GR_I, GR_ONE))
_X_PLUS_I = Poly((GR_I, GR_ONE))


def _cancel(numer: Poly, pole: GaussianRational, mult: int) -> tuple[Poly, int]:
    """Divide (x - pole) out of numer while it is a root, at most mult times."""
    while mult:
        quotient, remainder = numer.divide_linear(pole)
        if not remainder.is_zero():
            break
        numer, mult = quotient, mult - 1
    return numer, mult


class XiRational(_Value):
    """N(x) / ((x - i)^up (x + i)^down): a symbol in xi_n whose only poles
    are the roots +-i of 1 + xi_n^2.

    Construction cancels numerator roots at +-i, so (numer, up, down) is
    canonical for the value.
    """

    __slots__ = ("numer", "up", "down")

    def __init__(self, numer: Poly, up: int = 0, down: int = 0):
        if not isinstance(numer, Poly):
            raise TypeError(f"XiRational numerator must be a Poly, got {type(numer).__name__}")
        for mult in (up, down):
            if type(mult) is not int or mult < 0:
                raise ValueError(f"pole multiplicity must be an int >= 0, got {mult!r}")
        numer, up = _cancel(numer, GR_I, up)
        numer, down = _cancel(numer, -GR_I, down)
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "up", up)
        object.__setattr__(self, "down", down)

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def _key(self):  # canonical: the constructor cancels roots at +-i
        return self.numer, self.up, self.down

    def __repr__(self):
        return f"XiRational({self.numer!r}, up={self.up}, down={self.down})"

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "XiRational") -> "XiRational":
        if not isinstance(other, XiRational):
            return NotImplemented
        return XiRational(self.numer * other.numer,
                          self.up + other.up, self.down + other.down)

    def derivative(self) -> "XiRational":
        """Exact derivative; the multiplicity of each present pole increases by one."""
        # d/dx N/(a^u b^d) = [N' a b + N (b (-u) + a (-d))] / (a^(u+1) b^(d+1))
        # with a = x - i and b = x + i, where an absent pole's factor is 1
        up, down = self.up, self.down
        a = _X_MINUS_I if up else POLY_ONE
        b = _X_PLUS_I if down else POLY_ONE
        total = (self.numer.derivative() * a * b
                 + self.numer * (b * Poly((-up,)) + a * Poly((-down,))))
        return XiRational(total, up + 1 if up else 0, down + 1 if down else 0)

    # -- evaluation -----------------------------------------------------------

    def eval_exact(self, x: GaussianRational) -> GaussianRational:
        """f(x); ZeroDivisionError at a pole."""
        return self.numer.eval(x) / ((x - GR_I) ** self.up * (x + GR_I) ** self.down)

    def derivatives_at(self, x: GaussianRational, order: int) -> list:
        """[f(x), f'(x), ..., f^(order)(x)], by exact differentiation."""
        if type(order) is not int or order < 0:
            raise ValueError(f"need an int order >= 0, got {order!r}")
        f, out = self, [self.eval_exact(x)]
        for _ in range(order):
            f = f.derivative()
            out.append(f.eval_exact(x))
        return out


def _series(f: XiRational) -> list:
    """[c_0, ..., c_(m-1)]: the Taylor coefficients in t = x - i of
    (x - i)^m f, for the pole i of multiplicity m.  The principal part of f
    there is sum_j c_j t^(j - m)."""
    if not f.up:
        return []
    return [d / rational(math.factorial(k)) for k, d in
            enumerate(XiRational(f.numer, 0, f.down).derivatives_at(GR_I, f.up - 1))]


def _check_xi(f) -> None:
    """The one argument rule of the half-line functions: an XiRational."""
    if not isinstance(f, XiRational):
        raise TypeError(f"expected an XiRational, got {type(f).__name__}")


def pi_plus(f: XiRational) -> XiRational:
    """Half-line projection: the principal part of f at i, the pole above the axis."""
    _check_xi(f)
    if f.numer.degree >= f.up + f.down:
        raise NonIntegrable("symbol does not vanish at infinity")
    numer = POLY_ZERO  # sum_j c_j (x - i)^j, by Horner's rule
    for c in reversed(_series(f)):
        numer = numer * _X_MINUS_I + Poly((c,))
    return XiRational(numer, f.up)


def _check_order(m: int) -> None:
    """The one order rule of the xi_n symbols: an int (not a bool) m >= 2."""
    if type(m) is not int or m < 2:
        raise ValueError(f"need an int m >= 2, got {m!r}")


def dxn_symbol(m: int) -> XiRational:
    """d/dxi_n of (1 + xi_n^2)^(1-m) on |xi'| = 1: 2(1-m) xi_n (1+xi_n^2)^(-m)."""
    _check_order(m)
    return XiRational(Poly((GR_ZERO, GaussianRational(2 * (1 - m)))), m, m)


def residue_derivative(m: int) -> GaussianRational:
    """(d/dx)^m [x / (x+i)^m] at x = i, computed by exact differentiation.

    Closed form: (2m-2)! (-i) 2^(-2m) / (m-1)!.
    """
    _check_order(m)
    return XiRational(POLY_X, down=m).derivatives_at(GR_I, m)[m]


def line_integral(f: XiRational) -> GaussianRational:
    """Exact real-line integral in units of pi: 2 i times the residue at i."""
    _check_xi(f)
    if f.is_zero():
        return GR_ZERO
    if f.numer.degree > f.up + f.down - 2:
        raise NonIntegrable("integrand does not decay quadratically")
    series = _series(f)
    return GaussianRational(0, 2) * series[-1] if series else GR_ZERO


# ---------------------------------------------------------------------------
# Boundary density assembly
# ---------------------------------------------------------------------------


def half_inverse_symbol_components() -> tuple[XiRational, XiRational]:
    """pi+ of the order -1 inverse symbol i c(xi)/(1+xi_n^2), componentwise.

    Returns (tangential weight of c(xi'), normal weight of c(dx_n)):
    1/(2(xi_n - i)) and i/(2(xi_n - i)).
    """
    # (1 + xi_n^2) = (xi_n - i)(xi_n + i)
    tangential = pi_plus(XiRational(Poly((GR_I,)), 1, 1))
    normal = pi_plus(XiRational(Poly((GR_ZERO, GR_I)), 1, 1))
    return tangential, normal


@functools.cache
def _normal_integral(m: int) -> GaussianRational:
    """Line integral (units of pi) of the normal half_inverse_symbol_components
    weight times dxn_symbol(m); boundary_density bounds m to 2..8."""
    return line_integral(half_inverse_symbol_components()[1] * dxn_symbol(m))


@functools.cache
def _normal_generator(n: int) -> Multivector:
    """c(e_n), built once per dimension; boundary_density checks n first."""
    return Multivector.generator(n, n)


def boundary_density(u: OneForm, v: OneForm, w: OneForm) -> SymScalar:
    """The boundary addend of the torsion functional.

    Entry i of the boundary integrand is tr(c(u)c(v)c(w)c(e_i)) times the
    S^(n-2) moment of xi_i and its xi_n integral.  For i < n that moment is
    xi'-odd, hence zero, so only the normal entry survives: 2^m
    <c(u)c(v)c(w)c(e_n)>_0 times _normal_integral(m).  That trace is read as
    trace(c(u), c(v), c(w)c(e_n)): one product of n blade pairs and n^2
    lookups, with neither c(u)c(v) nor c(u)c(v)c(w) built.  It carries dim_F
    (the perturbation never enters the boundary symbols); the atoms
    pi * dim_F * vol(S^(n-2)) are attached once.  The value is exactly a
    Gaussian-rational multiple of
    pi * (u_n g(v,w) - v_n g(u,w) + w_n g(u,v)) * 2^m * dim_F * vol(S^(n-2)).
    """
    n = _frame_dim(u, v, w)
    _check_even_dim(n, 4)
    factor = trace(to_clifford(u), to_clifford(v),
                   mv_mul(to_clifford(w), _normal_generator(n)))
    return SymScalar.from_monomial((PI, DIM_F, vol_sphere(n - 2)),
                                   factor * _normal_integral(n // 2))
