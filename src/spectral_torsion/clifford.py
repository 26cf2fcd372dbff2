"""Exact Clifford algebra Cl(n) over an orthonormal frame.

Generators satisfy c(e_i)c(e_j) + c(e_j)c(e_i) = -2 delta_ij, so each
generator squares to -1.  A blade is an ascending product of distinct
generators, encoded as a bitmask over {1..n}; multivectors map blades to
Gaussian-rational coefficients.  The spinor-representation trace of a
multivector is 2^m times its scalar part (n = 2m), returned as a Gaussian
rational; the supertrace composes with the grading operator.
"""

from __future__ import annotations

import functools
from math import lcm
from operator import itemgetter
from types import MappingProxyType

from .scalars import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Rational,
    _ZERO,
    _Value,
    _as_gaussian,
    _gr,
    _mapping_items,
    i_power,
    sym,
)

MAX_DIM = 16  # blade masks stay in one machine word


class DimensionMismatch(ValueError):
    pass


class OddDimension(ValueError):
    pass


def _same_dim(a, b, kind: type) -> None:
    """The one same-dimension rule: `a` is a `kind` with an int `dim`, `b` has
    one or is one, so an operand that may be a bare int is checked first, as
    _same_dim(b, b, kind)."""
    a_dim = getattr(a, "dim", None)
    dim = b if isinstance(b, int) else getattr(b, "dim", None)
    if type(a_dim) is not int or type(dim) is not int:
        x = b if type(a_dim) is int else a
        raise TypeError(f"expected a form or a multivector, got {type(x).__name__}")
    if not isinstance(a, kind):
        raise TypeError(f"expected a {kind.__name__}, got {type(a).__name__}")
    if a_dim != dim:
        raise DimensionMismatch(f"dim {a_dim} vs {dim}")


def _check_dim(dim: int) -> None:
    """The one dimension rule for every Cl(n) operand (multivectors, forms,
    xi-polynomials): an int (not a bool) in [1, MAX_DIM]."""
    if type(dim) is not int or not 1 <= dim <= MAX_DIM:
        raise DimensionMismatch(f"dimension must be in [1, {MAX_DIM}], got {dim}")


def _check_index(i: int, dim: int, what: str) -> None:
    """The one 1-based index rule: an int (not a bool) in 1..dim."""
    if type(i) is not int or not 1 <= i <= dim:
        raise DimensionMismatch(f"{what} index {i} outside 1..{dim}")


def _check_even_dim(n: int, low: int = 2) -> None:
    """The one even-dimension rule: an even int (not a bool), with
    low <= n <= MAX_DIM."""
    if type(n) is not int or n % 2 != 0:
        raise OddDimension(f"dimension must be even, got {n}")
    if not low <= n <= MAX_DIM:
        raise DimensionMismatch(f"dimension must be in [{low}, {MAX_DIM}], got {n}")


def _sign_mask(a: int) -> int:
    """F(a), the mask with sign(a*b) = (-1)^|b & F(a)| for every blade b.

    Moving c(e_j) of b past the generators of `a` above it costs one sign
    each, and a repeated index contracts to c(e_j)^2 = -1.  Both counts are
    linear over GF(2) in b, so bit j of F(a) is the parity of the bits of
    `a` above j, plus bit j of `a` itself.
    """
    above = a >> 1
    shift = 1
    while above >> shift:  # suffix XOR: bit j becomes the parity of a's bits above j
        above ^= above >> shift
        shift <<= 1
    return above ^ a


def blade_product(a: int, b: int) -> tuple[int, int]:
    """Product of two blade masks: (result mask, sign in {+1, -1})."""
    return a ^ b, -1 if (b & _sign_mask(a)).bit_count() & 1 else 1


def blade_indices(mask: int) -> tuple[int, ...]:
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class Multivector(_Value):
    """Element of Cl(n): finite map from blade masks to GaussianRational coefficients.

    Stored as integer parts [(D, {mask: (re, im)}), ...]: the coefficient on
    a blade is the sum over parts of (re + i*im)/D.  Reduced coefficients are
    a cache: kept when given to the constructor, otherwise built on first
    read.
    """

    __slots__ = ("dim", "_coeffs", "_parts")

    def __init__(self, dim: int, coeffs=None):
        _check_dim(dim)
        clean: dict[int, GaussianRational] = {}
        if coeffs is not None:
            top = 1 << dim
            for mask, c in _mapping_items(coeffs):
                if type(mask) is not int or not 0 <= mask < top:
                    raise DimensionMismatch(f"blade mask {mask!r} does not fit dim {dim}")
                c = _as_gaussian(c)
                if not c.is_zero():
                    clean[mask] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "_parts",
                           _rational_runs((mask, c.re, c.im) for mask, c in clean.items()))

    @property
    def coeffs(self) -> MappingProxyType[int, GaussianRational]:
        """The nonzero coefficients by blade mask, each part reduced, as a
        read-only view: a Multivector may be shared, as the per-dimension
        constants are.

        Built from the integer parts on first read and cached; two threads
        that both build it build equal dicts, so either may stay.
        """
        coeffs = self._coeffs
        if coeffs is None:
            sums: dict[int, GaussianRational] = {}
            for den, acc in self._parts:
                for mask, (re, im) in acc.items():
                    if re or im:
                        c = _gr(_part(re, den), _part(im, den))
                        cur = sums.get(mask)
                        sums[mask] = c if cur is None else cur + c
            coeffs = {mask: c for mask, c in sums.items() if not c.is_zero()}
            object.__setattr__(self, "_coeffs", coeffs)
        return MappingProxyType(coeffs)

    # -- constructors --------------------------------------------------

    @classmethod
    def generator(cls, dim: int, i: int) -> "Multivector":
        """c(e_i), 1-based index."""
        _check_dim(dim)
        _check_index(i, dim, "generator")
        return cls(dim, {1 << (i - 1): GR_ONE})

    # -- structure queries ----------------------------------------------

    def scalar_part(self) -> GaussianRational:
        total = GR_ZERO
        for den, acc in self._parts:
            re, im = acc.get(0, (0, 0))
            if re or im:
                total = total + _gr(_part(re, den), _part(im, den))
        return total

    def is_zero(self) -> bool:
        if len(self._parts) > 1:  # parts can cancel only on a blade that two of them hold
            masks = [mask for _, acc in self._parts for mask in acc]
            if len(masks) != len(set(masks)):
                return not self.coeffs
        return not any(re or im for _, acc in self._parts for re, im in acc.values())

    def _key(self):
        return self.dim, frozenset(self.coeffs.items())

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


# Past about this many bits a common denominator costs more in big-integer
# products than sharing it saves, so entering rationals are split into runs.
_RUN_DEN_BITS = 2048


def _rational_runs(items) -> list[tuple[int, dict]]:
    """(key, re, im) items with rational re and im, as integer parts
    [(D, {key: (D*re, D*im), ...}), ...], one part per run of the items.

    D is the lcm of the run's denominators.  One run holds every item unless
    that lcm grows past _RUN_DEN_BITS, as it does when the items carry many
    large coprime denominators; then a run closes before the item that
    would take its lcm past the bound.  Keys must be distinct.
    """
    # each value's numerator and denominator read once: Fraction's are properties
    items = [(key, re.numerator, re.denominator, im.numerator, im.denominator)
             for key, re, im in items]
    dens = {*map(itemgetter(2), items), *map(itemgetter(4), items)}
    if sum(d.bit_length() for d in dens) <= _RUN_DEN_BITS:  # their lcm divides the product
        runs = [(lcm(*dens), items)]
    else:
        runs = []
        den, run = 1, []
        for item in items:
            _, _, re_den, _, im_den = item
            grown = lcm(den, re_den, im_den)
            if run and grown.bit_length() > _RUN_DEN_BITS:
                runs.append((den, run))
                grown, run = lcm(re_den, im_den), []
            den = grown
            run.append(item)
        runs.append((den, run))
    return [(den, {key: (re * (den // re_den), im * (den // im_den))
                   for key, re, re_den, im, im_den in run})
            for den, run in runs]


def _part(numerator: int, den: int):
    return Rational(numerator, den) if numerator else _ZERO


def _int_product(a_parts, b_parts) -> list[tuple[int, dict[int, list[int]]]]:
    """The product of two operands given as stored integer parts, on integers.

    One (den, {mask: [re, im]}) part per pair of parts; the part is the
    product's share over den, with numerators that may cancel to 0.  The
    right operand's nonzero terms are flattened once: the inner loop reads
    them for every left blade, and a sum such as integrate_sphere's can hold
    a zero on every blade of one grade.
    """
    parts = []
    b_flat = [(den_b, [(mb, br, bi) for mb, (br, bi) in b_acc.items() if br or bi])
              for den_b, b_acc in b_parts]
    for den_a, a_acc in a_parts:
        for den_b, b_items in b_flat:
            acc: dict[int, list[int]] = {}
            parts.append((den_a * den_b, acc))
            for ma, (ar, ai) in a_acc.items():
                flip = _sign_mask(ma)
                for mb, br, bi in b_items:
                    mask = ma ^ mb
                    re = ar * br - ai * bi
                    im = ar * bi + ai * br
                    if (mb & flip).bit_count() & 1:
                        re = -re
                        im = -im
                    cur = acc.get(mask)
                    if cur is None:
                        acc[mask] = [re, im]
                    else:
                        cur[0] += re
                        cur[1] += im
    return parts


def _from_int_parts(dim: int, parts) -> Multivector:
    """The sum of (den, {mask: (re, im)}) integer parts as a Multivector.

    The Multivector keeps the parts.  Its coefficients are built on first
    read: each nonzero numerator becomes one reduced Rational, and parts over
    different denominators are added.  The parts are handed over, so the
    caller must not mutate them afterwards.  Nothing is validated.
    """
    mv = Multivector.__new__(Multivector)
    object.__setattr__(mv, "dim", dim)
    object.__setattr__(mv, "_coeffs", None)
    object.__setattr__(mv, "_parts", list(parts))
    return mv


def mv_mul(a: Multivector, b: Multivector) -> Multivector:
    """Bilinear extension of the blade product.

    Multiplies the operands' stored integer parts pairwise, on integers; the
    product's coefficients are built on its first read.
    """
    _same_dim(b, b, Multivector)
    _same_dim(a, b, Multivector)
    return _from_int_parts(a.dim, _int_product(a._parts, b._parts))


def grading(n: int) -> Multivector:
    """Chirality element (sqrt(-1))^m c(e_1)...c(e_2m); squares to +1."""
    _check_even_dim(n)
    return _grading(n)


@functools.cache
def _grading(n: int, turns: int = 0) -> Multivector:
    """i^turns grading(n), built once per (n, turns); callers check n first."""
    return Multivector(n, {(1 << n) - 1: i_power(n // 2 + turns)})


def trace(a: Multivector, b: Multivector | None = None,
          c: Multivector | None = None) -> GaussianRational:
    """Spinor-representation trace of a, a b or a b c: 2^m times the scalar
    part (n = 2m).

    Every blade of positive grade is traceless in the irreducible
    representation; the tests cross-check this on literal matrices.  With
    two factors the value is 2^m scalar_product(a, b), with three 2^m
    _triple_scalar(a, b, c); no product of the factors is built.
    """
    _same_dim(a, a, Multivector)  # an int dim, whose parity is checked before the other factors
    _check_even_dim(a.dim)
    for x in (b, c) if c is not None else (b,) if b is not None else ():
        _same_dim(x, a, Multivector)
    if c is not None:
        scalar = _triple_scalar(a, b, c)
    else:
        scalar = a.scalar_part() if b is None else scalar_product(a, b)
    scale = 2 ** (a.dim // 2)  # an int: no Gaussian coercion of the factor
    return _gr(scalar.re * scale, scalar.im * scale)


def supertrace(a: Multivector) -> GaussianRational:
    """trace(grading * a); kills every blade except the top-grade one."""
    _same_dim(a, a, Multivector)
    return trace(grading(a.dim), a)


def scalar_product(a: Multivector, b: Multivector) -> GaussianRational:
    """<a b>_0: sum over shared blades A of s(A) a_A b_A, with e_A e_A = s(A).

    Summed on both operands' stored integer parts, one Rational per pair of
    parts; neither operand's coefficients are built.
    """
    _same_dim(b, b, Multivector)
    _same_dim(a, b, Multivector)
    total = GR_ZERO
    for den_b, b_acc in b._parts:
        for den_a, a_acc in a._parts:
            re_sum = im_sum = 0
            for mask, (ar, ai) in a_acc.items():
                shared = b_acc.get(mask)
                if shared is None:
                    continue
                br, bi = shared
                re, im = ar * br - ai * bi, ar * bi + ai * br
                # s(A) = (-1)^(k(k+1)/2) on grade k: -1 for k = 1, 2 mod 4
                if (mask.bit_count() + 1) & 2:
                    re, im = -re, -im
                re_sum += re
                im_sum += im
            if re_sum or im_sum:
                den = den_a * den_b
                total = total + _gr(_part(re_sum, den), _part(im_sum, den))
    return total


def _triple_scalar(a: Multivector, b: Multivector, c: Multivector) -> GaussianRational:
    """<a b c>_0 = sum over blades A of a and B of b of sign(A, B) s(A^B) a_A
    b_B c_(A^B), each A^B looked up in c's integer parts; one Rational per
    triple of parts, and a b is never built."""
    total = GR_ZERO
    for den_a, a_acc in a._parts:
        a_items = [(ma, ar, ai, _sign_mask(ma)) for ma, (ar, ai) in a_acc.items()]
        for den_b, b_acc in b._parts:
            for den_c, c_acc in c._parts:
                re_sum = im_sum = 0
                for ma, ar, ai, flip in a_items:
                    for mb, (br, bi) in b_acc.items():
                        shared = c_acc.get(ma ^ mb)
                        if shared is not None:
                            cr, ci = shared
                            re, im = ar * br - ai * bi, ar * bi + ai * br
                            re, im = re * cr - im * ci, re * ci + im * cr
                            # sign(A, B) from F(A); s(D) = -1 on grades 1, 2 mod 4
                            if ((mb & flip).bit_count() + ((ma ^ mb).bit_count() + 1 >> 1)) & 1:
                                re, im = -re, -im
                            re_sum += re
                            im_sum += im
                if re_sum or im_sum:
                    den = den_a * den_b * den_c
                    total = total + _gr(_part(re_sum, den), _part(im_sum, den))
    return total


def _scale_grades(b: Multivector, factors: tuple[int, ...] | list[int],
                  den: int = 1) -> Multivector:
    """b with each grade-k blade times factors[k] / den: its integer
    numerators scaled by factors[k], each part's denominator by den, with no
    entry for a factor of 0 and no part left empty."""
    return _from_int_parts(b.dim, [
        (d * den, scaled) for d, acc in b._parts
        if (scaled := {mask: (re * f, im * f) for mask, (re, im) in acc.items()
                       if (f := factors[mask.bit_count()])})])
