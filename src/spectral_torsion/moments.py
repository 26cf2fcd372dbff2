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

from .clifford import DimensionMismatch, Multivector, _from_int_parts, _integer_runs, \
    _same_dim, mv_mul
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
    """Polynomial in the cosphere variables with multivector coefficients:
    left * sum_alpha xi^alpha terms[alpha].

    `left` is a multivector factored out of every coefficient, None for the
    identity.  It must be zero or invertible, so that a coefficient is zero
    exactly when its term is; a zero `left` keeps no terms.
    """

    __slots__ = ("nvars", "mv_dim", "terms", "left")

    def __init__(self, nvars: int, mv_dim: int, terms=None, left: Multivector | None = None):
        clean: dict[tuple, Multivector] = {}
        if left is not None:
            _same_dim(left, mv_dim)
            if left.is_zero():
                terms = None
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
        object.__setattr__(self, "left", left)

    def __setattr__(self, name, value):
        raise AttributeError("XiPolynomialMV is immutable")

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, XiPolynomialMV)
                and self.nvars == other.nvars and self.mv_dim == other.mv_dim
                and self.left == other.left and self.terms == other.terms)

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

    The result is left * sum_alpha moment(n, alpha) * terms[alpha]; the
    caller attaches the volume atom.  The surviving terms' integer
    numerators, scaled by their moments over the lcm L of the moment
    denominators, are summed into one part per denominator D, kept over
    D * L, and multiplied by the left factor once.
    """
    if p.nvars != n:
        raise DimensionMismatch(f"polynomial in {p.nvars} vars, sphere needs {n}")
    weights = {expo: weight for expo in p.terms if (weight := moment(n, expo))}
    scale = math.lcm(*(weight.denominator for weight in weights.values()))
    sums: dict[int, dict[int, tuple[int, int]]] = {}
    for expo, weight in weights.items():
        factor = weight.numerator * (scale // weight.denominator)
        for den, part in _integer_runs(p.terms[expo]):
            acc = sums.setdefault(den, {})
            for mask, (re, im) in part.items():
                cur = acc.get(mask)
                re, im = re * factor, im * factor
                acc[mask] = (re, im) if cur is None else (cur[0] + re, cur[1] + im)
    left = Multivector.identity(p.mv_dim) if p.left is None else p.left
    return mv_mul(left, _from_int_parts(p.mv_dim, [(den * scale, acc)
                                                   for den, acc in sums.items()]))
