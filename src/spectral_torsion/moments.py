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

import math

from .clifford import DimensionMismatch, Multivector, _from_int_parts, _integer_runs
from .scalars import Rational, rational


# an exponent vector over the cosphere variables, one entry per variable
XiMonomial = tuple


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def moment(n: int, alpha) -> Rational:
    """Exact integral of prod xi_i^alpha_i over S^(n-1), n >= 2, in units of
    vol(S^(n-1))."""
    if n < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {n}")
    alpha = tuple(alpha)
    if len(alpha) != n:
        raise DimensionMismatch(f"exponent vector length {len(alpha)} != {n}")
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be non-negative")
    if any(a % 2 for a in alpha):
        return rational(0)
    total = sum(alpha)
    num = 1
    for a in alpha:
        num *= double_factorial(a - 1)
    den = 1
    for j in range(total // 2):
        den *= n + 2 * j
    return rational(num) / rational(den)


def vol_numeric(k: int) -> float:
    """vol(S^k) = 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    if k < 1:
        raise ValueError("sphere dimension must be >= 1")
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


class XiPolynomialMV:
    """Polynomial in the cosphere variables with multivector coefficients."""

    __slots__ = ("nvars", "mv_dim", "terms")

    def __init__(self, nvars: int, mv_dim: int, terms=None):
        clean: dict[tuple, Multivector] = {}
        if terms:
            for expo, mv in terms.items():
                expo = tuple(expo)
                if len(expo) != nvars:
                    raise DimensionMismatch(
                        f"exponent vector length {len(expo)} != {nvars}")
                if mv.dim != mv_dim:
                    raise DimensionMismatch(f"mv dim {mv.dim} != {mv_dim}")
                if not mv.is_zero():
                    clean[expo] = mv
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "mv_dim", mv_dim)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("XiPolynomialMV is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, XiPolynomialMV)
                and self.nvars == other.nvars and self.mv_dim == other.mv_dim
                and self.terms == other.terms)

    def __repr__(self):
        return f"XiPolynomialMV(nvars={self.nvars}, terms={len(self.terms)})"


def xi_monomial(nvars: int, *indices: int) -> tuple:
    """Exponent vector for a product of variables given by 1-based indices."""
    expo = [0] * nvars
    for i in indices:
        expo[i - 1] += 1
    return tuple(expo)


def integrate_sphere(n: int, p: XiPolynomialMV) -> Multivector:
    """Termwise sphere integration in units of vol(S^(n-1)).

    The result is sum_alpha moment(n, alpha) * coefficient; the caller
    attaches the volume atom.  Each surviving coefficient's integer parts are
    scaled by its moment and kept as parts of the result, which are summed
    when read.
    """
    if p.nvars != n:
        raise DimensionMismatch(f"polynomial in {p.nvars} vars, sphere needs {n}")
    parts = []
    for expo, mv in p.terms.items():
        weight = moment(n, expo)
        if weight:
            num = weight.numerator
            parts += [(den * weight.denominator,
                       {mask: (re * num, im * num) for mask, re, im in terms})
                      for den, terms in _integer_runs(mv)]
    return _from_int_parts(p.mv_dim, parts)
