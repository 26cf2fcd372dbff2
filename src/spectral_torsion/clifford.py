"""Exact Clifford algebra Cl(n) over an orthonormal frame.

Generators satisfy c(e_i)c(e_j) + c(e_j)c(e_i) = -2 delta_ij, so each
generator squares to -1.  A blade is an ascending product of distinct
generators, encoded as a bitmask over {1..n}; multivectors map blades to
Gaussian-rational coefficients.  The spinor-representation trace of a
multivector is 2^m times its scalar part (n = 2m), returned as a symbolic
scalar; the supertrace composes with the grading operator.
"""

from __future__ import annotations

import re as _re
from typing import Iterator

from .scalars import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    SymScalar,
    _as_gaussian,
    i_power,
    sym,
)

MAX_DIM = 16  # blade masks stay in one machine word


class DimensionMismatch(ValueError):
    pass


class OddDimension(ValueError):
    pass


def _check_even_dim(n: int, cap: int = MAX_DIM) -> None:
    if n % 2 != 0:
        raise OddDimension(f"dimension must be even, got {n}")
    if not 2 <= n <= cap:
        raise DimensionMismatch(f"dimension must be in [2, {cap}], got {n}")


def blade_product(a: int, b: int) -> tuple[int, int]:
    """Product of two blade masks: (result mask, sign in {+1, -1}).

    Reordering contributes (-1) per transposition, each repeated index
    contracts to c(e_i)^2 = -1.
    """
    inversions = 0
    bb = b
    while bb:
        low = bb & -bb
        # bits of `a` strictly above this index
        inversions += (a & ~(low | (low - 1))).bit_count()
        bb ^= low
    sign = -1 if (inversions + (a & b).bit_count()) & 1 else 1
    return a ^ b, sign


def blade_mask(indices) -> int:
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated index {i} in blade")
        mask |= bit
    return mask


def blade_indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class Multivector:
    """Element of Cl(n): finite map from blade masks to GaussianRational coefficients."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs=None):
        if not 1 <= dim <= MAX_DIM:
            raise DimensionMismatch(f"dimension must be in [1, {MAX_DIM}], got {dim}")
        clean: dict[int, GaussianRational] = {}
        if coeffs:
            top = 1 << dim
            for mask, c in coeffs.items():
                if mask >= top or mask < 0:
                    raise DimensionMismatch(f"blade {mask:b} does not fit dim {dim}")
                c = _as_gaussian(c)
                if not c.is_zero():
                    clean[mask] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Multivector":
        return cls(dim)

    @classmethod
    def identity(cls, dim: int) -> "Multivector":
        return cls(dim, {0: GR_ONE})

    @classmethod
    def generator(cls, dim: int, i: int) -> "Multivector":
        """c(e_i), 1-based index."""
        if not 1 <= i <= dim:
            raise DimensionMismatch(f"generator index {i} outside 1..{dim}")
        return cls(dim, {1 << (i - 1): GR_ONE})

    @classmethod
    def blade(cls, dim: int, mask: int, coeff=1) -> "Multivector":
        return cls(dim, {mask: coeff})

    # -- linear structure ----------------------------------------------

    def _require_same_dim(self, other: "Multivector") -> None:
        if self.dim != other.dim:
            raise DimensionMismatch(f"dim {self.dim} vs {other.dim}")

    def __add__(self, other: "Multivector") -> "Multivector":
        self._require_same_dim(other)
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            cur = out.get(mask)
            s = c if cur is None else cur + c
            if s.is_zero():
                out.pop(mask, None)
            else:
                out[mask] = s
        return _raw(self.dim, out)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return _raw(self.dim, {m: -c for m, c in self.coeffs.items()})

    def scale(self, s) -> "Multivector":
        s = _as_gaussian(s)
        if s.is_zero():
            return Multivector(self.dim)
        return _raw(self.dim, {mask: c * s for mask, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return mv_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything
        return self.scale(other)

    # -- structure queries ----------------------------------------------

    def scalar_part(self) -> GaussianRational:
        return self.coeffs.get(0, GR_ZERO)

    def grade_part(self, k: int) -> "Multivector":
        return _raw(self.dim, {m: c for m, c in self.coeffs.items()
                               if m.bit_count() == k})

    def grades(self) -> set[int]:
        return {m.bit_count() for m in self.coeffs}

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, frozenset(self.coeffs.items())))

    def __iter__(self) -> Iterator[tuple[int, GaussianRational]]:
        return iter(sorted(self.coeffs.items()))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for mask in sorted(self.coeffs):
            idx = " ".join(str(i) for i in blade_indices(mask))
            parts.append(f"({sym(self.coeffs[mask])})*e{{{idx}}}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Multivector<dim={self.dim}: {self}>"

    @classmethod
    def parse(cls, dim: int, text: str) -> "Multivector":
        """Parse the printed form: "(coeff)*e{i j ...}" terms joined by " + "."""
        text = text.strip()
        if text == "0":
            return cls(dim)
        coeffs: dict[int, GaussianRational] = {}
        matched = []
        for m in _MV_TERM_RE.finditer(text):
            matched.append(m.group(0))
            raw = m.group(1).strip()
            if raw.startswith("(") and raw.endswith(")"):
                raw = raw[1:-1]
            coeff = GaussianRational.parse(raw)
            indices = [int(t) for t in m.group(2).split()]
            mask = blade_mask(indices)
            coeffs[mask] = coeffs.get(mask, GR_ZERO) + coeff
        if " + ".join(matched) != text:
            raise ValueError(f"bad multivector literal {text!r}")
        return cls(dim, coeffs)


_MV_TERM_RE = _re.compile(r"\((.*?)\)\*e\{([\d\s]*)\}")


def _raw(dim: int, coeffs: dict[int, GaussianRational]) -> Multivector:
    mv = Multivector.__new__(Multivector)
    object.__setattr__(mv, "dim", dim)
    object.__setattr__(mv, "coeffs", coeffs)
    return mv


def mv_mul(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear extension of the blade product."""
    if a.dim != b.dim:
        raise DimensionMismatch(f"dim {a.dim} vs {b.dim}")
    out: dict[int, GaussianRational] = {}
    b_items = list(b.coeffs.items())
    for ma, ca in a.coeffs.items():
        for mb, cb in b_items:
            mask, sign = blade_product(ma, mb)
            term = ca * cb if sign > 0 else -(ca * cb)
            cur = out.get(mask)
            out[mask] = term if cur is None else cur + term
    return _raw(a.dim, {m: c for m, c in out.items() if not c.is_zero()})


def grading(n: int) -> Multivector:
    """Chirality element (sqrt(-1))^m c(e_1)...c(e_2m); squares to +1."""
    _check_even_dim(n)
    m = n // 2
    return Multivector.blade(n, (1 << n) - 1, i_power(m))


def trace(a: Multivector) -> SymScalar:
    """Spinor-representation trace: 2^m times the scalar part (n = 2m).

    Every blade of positive grade is traceless in the irreducible
    representation; the matrix oracle cross-checks this definition.
    """
    _check_even_dim(a.dim)
    return sym(a.scalar_part() * 2 ** (a.dim // 2))


def supertrace(a: Multivector) -> SymScalar:
    """trace(grading * a); kills every blade except the top-grade one."""
    return trace(mv_mul(grading(a.dim), a))


def conjugate_sum(b: Multivector) -> Multivector:
    """Sum_i c(e_i) * b * c(e_i).

    On a grade-k blade this is (-1)^k (2k - n) times the blade.
    """
    out = Multivector.zero(b.dim)
    for i in range(1, b.dim + 1):
        g = Multivector.generator(b.dim, i)
        out = out + mv_mul(mv_mul(g, b), g)
    return out


def anticommutator(a: Multivector, b: Multivector) -> Multivector:
    return mv_mul(a, b) + mv_mul(b, a)
