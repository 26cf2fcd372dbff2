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
    vol(S^(n-1)).

    The arguments are checked before the cache is read: 2.0 and True hash
    and compare like the ints 2 and 1, so a cached key would answer them.
    """
    if type(n) is not int or n < 2:
        raise ValueError(f"ambient dimension must be an int >= 2, got {n!r}")
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise DimensionMismatch(f"exponent vector length {len(alpha)} != {n}")
    if any(type(a) is not int or a < 0 for a in alpha):
        raise ValueError(f"exponents must be non-negative ints, got {alpha!r}")
    return _moment(n, alpha)


@functools.lru_cache(maxsize=4096)
def _moment(n: int, alpha: tuple) -> Rational:
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
    """Polynomial in the cosphere variables with multivector coefficients:
    sum_alpha xi^alpha terms[alpha]."""

    __slots__ = ("nvars", "mv_dim", "terms")

    def __init__(self, nvars: int, mv_dim: int, terms=None):
        _check_dim(nvars)
        _check_dim(mv_dim)
        clean: dict[tuple, Multivector] = {}
        if terms is not None:
            for expo, mv in _mapping_items(terms):
                expo = tuple(expo)
                if len(expo) != nvars:
                    raise DimensionMismatch(
                        f"exponent vector length {len(expo)} != {nvars}")
                _same_dim(mv, mv_dim, Multivector)
                if not mv.is_zero():
                    clean[expo] = mv
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "mv_dim", mv_dim)
        object.__setattr__(self, "terms", clean)

    def is_zero(self) -> bool:
        return not self.terms

    def _key(self):
        return self.nvars, self.mv_dim, self.terms

    __hash__ = None  # its terms are a dict

    def __repr__(self):
        return f"XiPolynomialMV(nvars={self.nvars}, terms={len(self.terms)})"


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
    attaches the volume atom.  The surviving terms' integer numerators,
    scaled by their moments over the lcm L of the moment denominators, are
    summed into one part per denominator D, kept over D * L.
    """
    if not isinstance(p, XiPolynomialMV):
        raise TypeError(f"expected an XiPolynomialMV, got {type(p).__name__}")
    if p.nvars != n:
        raise DimensionMismatch(f"polynomial in {p.nvars} vars, sphere needs {n}")
    weights = {expo: weight for expo in p.terms if (weight := moment(n, expo))}
    scale = math.lcm(*(weight.denominator for weight in weights.values()))
    sums: dict[int, dict[int, tuple[int, int]]] = {}
    for expo, weight in weights.items():
        factor = weight.numerator * (scale // weight.denominator)
        for den, part in p.terms[expo]._parts:
            acc = sums.setdefault(den, {})
            for mask, (re, im) in part.items():
                cur = acc.get(mask)
                re, im = re * factor, im * factor
                acc[mask] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    return _from_int_parts(p.mv_dim, [(den * scale, acc) for den, acc in sums.items()])


def _grade_factors(n: int, grades, symbol) -> tuple[tuple[int, ...], int]:
    """The factors by which the sphere integral of symbol(A) scales A's blades
    of each listed grade k, as integers f_k over one denominator D (f_k = 0
    on every other grade), read off the integrated symbol of one blade
    e_1...e_k per grade.  symbol must scale each blade by a real factor of
    its grade alone, over one denominator."""
    masks = [(1 << k) - 1 for k in grades]
    unit = _from_int_parts(n, [(1, {mask: (1, 0) for mask in masks})])
    (den, acc), = integrate_sphere(n, symbol(unit))._parts
    factors = [0] * (n + 1)
    for mask in masks:
        factors[mask.bit_count()] = acc.get(mask, (0, 0))[0]
    return tuple(factors), den
