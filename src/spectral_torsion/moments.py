"""Exact moments of monomials over the unit sphere S^(n-1).

The surface measure is unnormalized, so the zeroth moment is the formal atom
vol(S^(n-1)).  Odd moments vanish; even moments are rational multiples of the
volume atom via double factorials:

    integral of xi^alpha = vol(S^(n-1)) * prod_i (alpha_i - 1)!!
                           / prod_{j=0}^{k-1} (n + 2j),    2k = |alpha|.

Moments and sphere integrals are exact values in units of vol(S^(n-1)); the
caller attaches the atom.
"""

from __future__ import annotations

import functools
import math

from .clifford import DimensionMismatch, Multivector, _check_dim, _check_index, _from_int_parts, \
    _same_dim
from .scalars import Rational, _Value, _mapping_items, rational, vol_sphere


def moment(n: int, alpha) -> Rational:
    """Exact integral of prod xi_i^alpha_i over S^(n-1), n >= 2, in units of
    vol(S^(n-1))."""
    if type(n) is not int or n < 2:
        raise ValueError(f"ambient dimension must be an int >= 2, got {n!r}")
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise DimensionMismatch(f"exponent vector length {len(alpha)} != {n}")
    if any(type(a) is not int or a < 0 for a in alpha):
        raise ValueError(f"exponents must be non-negative ints, got {alpha!r}")
    if any(a % 2 for a in alpha):
        return rational(0)
    num = math.prod(math.prod(range(a - 1, 1, -2)) for a in alpha)  # (a-1)!! each
    den = math.prod(range(n, n + sum(alpha), 2))  # n (n + 2) ... (n + |alpha| - 2)
    return rational(num) / rational(den)


def vol_numeric(k: int) -> float:
    """vol(S^k) = 2 pi^((k+1)/2) / Gamma((k+1)/2); k obeys vol_sphere's rule."""
    vol_sphere(k)
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


class XiPolynomialMV(_Value):
    """Polynomial in the dim cosphere variables with Cl(dim) coefficients:
    sum_alpha xi^alpha terms[alpha]."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        _check_dim(dim)
        clean: dict[tuple, Multivector] = {}
        if terms is not None:
            for expo, mv in _mapping_items(terms):
                expo = tuple(expo)
                if len(expo) != dim:
                    raise DimensionMismatch(
                        f"exponent vector length {len(expo)} != {dim}")
                _same_dim(mv, dim, Multivector)
                if not mv.is_zero():
                    clean[expo] = mv
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "terms", clean)

    def is_zero(self) -> bool:
        return not self.terms

    def _key(self):
        return self.dim, self.terms

    __hash__ = None  # its terms are a dict

    def __repr__(self):
        return f"XiPolynomialMV(dim={self.dim}, terms={len(self.terms)})"


def xi_monomial(nvars: int, *indices: int) -> tuple:
    """Exponent vector for a product of variables given by 1-based indices."""
    _check_dim(nvars)
    expo = [0] * nvars
    for i in indices:
        _check_index(i, nvars, "variable")
        expo[i - 1] += 1
    return tuple(expo)


def integrate_sphere(n: int, p: XiPolynomialMV) -> Multivector:
    """Termwise sphere integration in units of vol(S^(n-1)).

    The result is sum_alpha moment(n, alpha) * terms[alpha]; the caller
    attaches the volume atom.  Each surviving term's stored parts are kept,
    scaled by its moment: numerators times its numerator, denominators times
    its denominator.
    """
    if not isinstance(p, XiPolynomialMV):
        raise TypeError(f"expected an XiPolynomialMV, got {type(p).__name__}")
    if p.dim != n:
        raise DimensionMismatch(f"polynomial in {p.dim} vars, sphere needs {n}")
    return _from_int_parts(n, [
        (den * weight.denominator, {mask: (re * weight.numerator, im * weight.numerator)
                                    for mask, (re, im) in acc.items()})
        for expo, mv in p.terms.items() if (weight := moment(n, expo))
        for den, acc in mv._parts])


# A bounded lru_cache keyed on symbol too: other symbols share an n, and a
# wrapped symbol (a tracer's) must integrate again; only such keys never hit twice.
@functools.lru_cache(maxsize=64)
def _grade_factors(n: int, grades, symbol) -> tuple[tuple[int, ...], int]:
    """The factors by which the sphere integral of symbol(A) scales A's blades
    of each listed grade k, as integers f_k over one denominator D, the lcm
    of the factors' reduced denominators (f_k = 0 on every other grade), read
    off the integrated symbol of one blade e_1...e_k per grade.  symbol must
    scale each blade by a real factor of its grade alone.  The result is
    cached on all three arguments, so one process integrates a given symbol
    once per n and grade list; grades must be hashable."""
    unit = _from_int_parts(n, [(1, {(1 << k) - 1: (1, 0) for k in grades})])
    coeffs = integrate_sphere(n, symbol(unit)).coeffs
    den = math.lcm(*(c.re.denominator for c in coeffs.values()))
    factors = [0] * (n + 1)
    for mask, c in coeffs.items():
        factors[mask.bit_count()] = c.re.numerator * (den // c.re.denominator)
    return tuple(factors), den
