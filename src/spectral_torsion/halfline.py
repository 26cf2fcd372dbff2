"""Boundary-term machinery: rational functions of the normal covariable.

A boundary symbol ingredient is a rational function of xi_n with Gaussian
rational coefficients and an explicitly factored denominator.  The half-line
projection pi+ keeps the partial-fraction terms whose poles lie in the upper
half plane; real-line integrals are evaluated exactly by residues, in units of
pi.  Both read their coefficients off exact derivatives at each pole.
"""

from __future__ import annotations

import functools
import math

from .clifford import Multivector, _check_even_dim, _same_dim, mv_mul, trace
from .forms import OneForm, to_clifford
from .scalars import (
    DIM_F,
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    PI,
    SymScalar,
    rational,
    vol_sphere,
)


class RealPole(ValueError):
    pass


class NonIntegrable(ValueError):
    pass


class Poly:
    """Dense univariate polynomial over Gaussian rationals (low degree first)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, GaussianRational) else GaussianRational(c)
              for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(out)

    def scale(self, s: GaussianRational) -> "Poly":
        return Poly(tuple(c * s for c in self.coeffs))

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

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({[str(c) for c in self.coeffs]})"


POLY_ZERO = Poly()
POLY_ONE = Poly((GR_ONE,))
POLY_X = Poly((GR_ZERO, GR_ONE))


class XiRational:
    """N(x) / prod_j (x - p_j)^(m_j) with Gaussian-rational poles.

    Construction cancels numerator roots at the poles, so the pole set is
    canonical for the value.
    """

    __slots__ = ("numer", "poles")

    def __init__(self, numer: Poly, poles=None):
        pole_map: dict[GaussianRational, int] = {}
        if poles:
            for p, mult in (poles.items() if isinstance(poles, dict) else poles):
                if mult < 0:
                    raise ValueError("negative pole multiplicity")
                if mult:
                    p = p if isinstance(p, GaussianRational) else GaussianRational(p)
                    pole_map[p] = pole_map.get(p, 0) + mult
        if numer.is_zero():
            pole_map = {}
        else:
            for p in list(pole_map):
                while pole_map[p] > 0:
                    quotient, remainder = numer.divide_linear(p)
                    if not remainder.is_zero():
                        break
                    numer = quotient
                    pole_map[p] -= 1
                if pole_map[p] == 0:
                    del pole_map[p]
        object.__setattr__(self, "numer", numer)
        object.__setattr__(self, "poles", pole_map)

    def __setattr__(self, name, value):
        raise AttributeError("XiRational is immutable")

    # -- structure --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    @property
    def denominator_degree(self) -> int:
        return sum(self.poles.values())

    def __eq__(self, other):
        if not isinstance(other, XiRational):
            return NotImplemented
        # both sides are in the canonical form the constructor guarantees
        return self.numer == other.numer and self.poles == other.poles

    def __hash__(self):
        return hash((self.numer, frozenset(self.poles.items())))

    def __repr__(self):
        poles = {str(p): m for p, m in self.poles.items()}
        return f"XiRational({self.numer!r}, poles={poles})"

    # -- arithmetic ---------------------------------------------------------

    def __mul__(self, other: "XiRational") -> "XiRational":
        merged = dict(self.poles)
        for p, mult in other.poles.items():
            merged[p] = merged.get(p, 0) + mult
        return XiRational(self.numer * other.numer, merged)

    def __add__(self, other: "XiRational") -> "XiRational":
        union = dict(self.poles)
        for p, mult in other.poles.items():
            union[p] = max(union.get(p, 0), mult)
        total = POLY_ZERO
        for f in (self, other):
            numer = f.numer  # lifted to the union's denominator
            for p, mult in union.items():
                for _ in range(mult - f.poles.get(p, 0)):
                    numer = numer * Poly((-p, GR_ONE))
            total = total + numer
        return XiRational(total, union)

    def derivative(self) -> "XiRational":
        """Exact derivative; pole multiplicities increase by one."""
        if self.is_zero():
            return XiRational(POLY_ZERO)
        bumped = {p: mult + 1 for p, mult in self.poles.items()}
        # d/dx N/prod (x-p)^m = [N' prod(x-p) - N sum_j m_j prod_{k!=j}(x-p_k)] / prod (x-p)^(m+1)
        prod_all = POLY_ONE
        for p in self.poles:
            prod_all = prod_all * Poly((-p, GR_ONE))
        total = self.numer.derivative() * prod_all
        for p, mult in self.poles.items():
            partial = POLY_ONE
            for q in self.poles:
                if q != p:
                    partial = partial * Poly((-q, GR_ONE))
            total = total - self.numer.scale(rational(mult)) * partial
        return XiRational(total, bumped)

    # -- evaluation -----------------------------------------------------------

    def eval_exact(self, x: GaussianRational) -> GaussianRational:
        value = self.numer.eval(x)
        for p, mult in self.poles.items():
            d = x - p
            if d.is_zero():
                raise ZeroDivisionError(f"evaluation at pole {p}")
            value = value / d ** mult
        return value

    # -- residues / partial fractions -------------------------------------------

    def derivatives_at(self, x: GaussianRational, order: int) -> list:
        """[f(x), f'(x), ..., f^(order)(x)], by exact differentiation."""
        f, out = self, [self.eval_exact(x)]
        for _ in range(order):
            f = f.derivative()
            out.append(f.eval_exact(x))
        return out

    def _deflated_series(self, p: GaussianRational, order: int) -> list:
        """Taylor coefficients (in t = x - p) of N(x) / prod_{q != p}(x - q)^(m_q)."""
        rest = XiRational(self.numer, {q: mult for q, mult in self.poles.items() if q != p})
        return [d / rational(math.factorial(k))
                for k, d in enumerate(rest.derivatives_at(p, order))]

    def residue(self, p: GaussianRational) -> GaussianRational:
        mult = self.poles.get(p, 0)
        if mult == 0:
            return GR_ZERO
        return self._deflated_series(p, mult - 1)[mult - 1]

    def partial_fractions(self) -> dict:
        """Map pole -> [A_1, ..., A_m] with f = sum A_k / (x - p)^k (+ polynomial)."""
        out = {}
        for p, mult in self.poles.items():
            series = self._deflated_series(p, mult - 1)
            out[p] = [series[mult - k] for k in range(1, mult + 1)]
        return out


def pi_plus(f: XiRational) -> XiRational:
    """Half-line projection: keep partial-fraction terms with poles above the axis."""
    if f.is_zero():
        return XiRational(POLY_ZERO)
    if f.numer.degree >= f.denominator_degree:
        raise NonIntegrable("symbol does not vanish at infinity")
    for p in f.poles:
        if p.im == 0:
            raise RealPole(f"real pole at {p}")
    out = XiRational(POLY_ZERO)
    for p, coeffs in f.partial_fractions().items():
        if p.im < 0:
            continue
        for k, a in enumerate(coeffs, start=1):
            if not a.is_zero():
                out = out + XiRational(Poly((a,)), {p: k})
    return out


def _check_order(m: int) -> None:
    """The one order rule of the xi_n symbols: an int (not a bool) m >= 2."""
    if type(m) is not int or m < 2:
        raise ValueError(f"need an int m >= 2, got {m!r}")


def dxn_symbol(m: int) -> XiRational:
    """d/dxi_n of (1 + xi_n^2)^(1-m) on |xi'| = 1: 2(1-m) xi_n (1+xi_n^2)^(-m)."""
    _check_order(m)
    return XiRational(Poly((GR_ZERO, GaussianRational(2 * (1 - m)))),
                      {GR_I: m, -GR_I: m})


def residue_derivative(m: int) -> GaussianRational:
    """(d/dx)^m [x / (x+i)^m] at x = i, computed by exact differentiation.

    Closed form: (2m-2)! (-i) 2^(-2m) / (m-1)!.
    """
    _check_order(m)
    return XiRational(POLY_X, {-GR_I: m}).derivatives_at(GR_I, m)[m]


def line_integral(f: XiRational) -> GaussianRational:
    """Exact real-line integral in units of pi: 2 i times the sum of upper residues."""
    if f.is_zero():
        return GR_ZERO
    for p in f.poles:
        if p.im == 0:
            raise RealPole(f"real pole at {p}")
    if f.numer.degree > f.denominator_degree - 2:
        raise NonIntegrable("integrand does not decay quadratically")
    total = GR_ZERO
    for p in f.poles:
        if p.im > 0:
            total = total + f.residue(p)
    return GaussianRational(0, 2) * total


# ---------------------------------------------------------------------------
# Boundary density assembly
# ---------------------------------------------------------------------------


def half_inverse_symbol_components() -> tuple[XiRational, XiRational]:
    """pi+ of the order -1 inverse symbol i c(xi)/(1+xi_n^2), componentwise.

    Returns (tangential weight of c(xi'), normal weight of c(dx_n)):
    1/(2(xi_n - i)) and i/(2(xi_n - i)).
    """
    base = {GR_I: 1, -GR_I: 1}  # (1 + xi_n^2) = (xi_n - i)(xi_n + i)
    tangential = pi_plus(XiRational(Poly((GR_I,)), dict(base)))
    normal = pi_plus(XiRational(Poly((GR_ZERO, GR_I)), dict(base)))
    return tangential, normal


@functools.cache
def _normal_integral(m: int) -> GaussianRational:
    """Line integral (units of pi) of the normal half_inverse_symbol_components
    weight times dxn_symbol(m); boundary_density bounds m to 2..8."""
    return line_integral(half_inverse_symbol_components()[1] * dxn_symbol(m))


def boundary_density(u: OneForm, v: OneForm, w: OneForm, n: int) -> SymScalar:
    """The boundary addend of the torsion functional.

    Entry i of the boundary integrand is tr(c(u)c(v)c(w)c(e_i)) times the
    S^(n-2) moment of xi_i and its xi_n integral.  For i < n that moment is
    xi'-odd, hence zero, so only the normal entry survives: 2^m
    <c(u)c(v)c(w)c(e_n)>_0 times _normal_integral(m).  That trace is read as
    trace(c(u)c(v), c(w)c(e_n)): two small Clifford products and one scalar
    product, with c(u)c(v)c(w) never built.  It carries dim_F (the
    perturbation never enters the boundary symbols); the atoms
    pi * dim_F * vol(S^(n-2)) are attached once.  The value is exactly a
    Gaussian-rational multiple of
    pi * (u_n g(v,w) - v_n g(u,w) + w_n g(u,v)) * 2^m * dim_F * vol(S^(n-2)).
    """
    _check_even_dim(n, 4)
    for x in (u, v, w):
        _same_dim(x, n)
    factor = trace(mv_mul(to_clifford(u), to_clifford(v)),
                   mv_mul(to_clifford(w), Multivector.generator(n, n)))
    return SymScalar.from_monomial((PI, DIM_F, vol_sphere(n - 2)),
                                   factor * _normal_integral(n // 2))
