"""Exact Clifford algebra Cl(n) over an orthonormal frame.

Generators satisfy c(e_i)c(e_j) + c(e_j)c(e_i) = -2 delta_ij, so each
generator squares to -1.  A blade is an ascending product of distinct
generators, encoded as a bitmask over {1..n}; multivectors map blades to
Gaussian-rational coefficients.  The spinor-representation trace of a
multivector is 2^m times its scalar part (n = 2m), returned as a Gaussian
rational; the supertrace composes with the grading operator.
"""

from __future__ import annotations

import re as _re
from math import lcm
from typing import Iterator

from .scalars import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Rational,
    _ZERO,
    _as_gaussian,
    _gr,
    i_power,
    sym,
)

MAX_DIM = 16  # blade masks stay in one machine word


class DimensionMismatch(ValueError):
    pass


class OddDimension(ValueError):
    pass


def _same_dim(a, b) -> None:
    """The one same-dimension rule: `a` has a `dim`, and `b` has one or is one."""
    dim = b if isinstance(b, int) else b.dim
    if a.dim != dim:
        raise DimensionMismatch(f"dim {a.dim} vs {dim}")


def _check_dim(dim: int) -> None:
    """The one Multivector dimension rule: 1 <= dim <= MAX_DIM."""
    if not 1 <= dim <= MAX_DIM:
        raise DimensionMismatch(f"dimension must be in [1, {MAX_DIM}], got {dim}")


def _check_even_dim(n: int, low: int = 2) -> None:
    """The one even-dimension rule: n even, with low <= n <= MAX_DIM."""
    if n % 2 != 0:
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
        if coeffs:
            top = 1 << dim
            for mask, c in coeffs.items():
                if mask >= top or mask < 0:
                    raise DimensionMismatch(f"blade {mask:b} does not fit dim {dim}")
                c = _as_gaussian(c)
                if not c.is_zero():
                    clean[mask] = c
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "_parts",
                           _rational_runs((mask, c.re, c.im) for mask, c in clean.items()))

    def __setattr__(self, name, value):
        raise AttributeError("Multivector is immutable")

    @property
    def coeffs(self) -> dict[int, GaussianRational]:
        """The nonzero coefficients by blade mask, each part reduced.

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
        return coeffs

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

    def __add__(self, other: "Multivector") -> "Multivector":
        _same_dim(self, other)
        out = dict(self.coeffs)
        for mask, c in other.coeffs.items():
            cur = out.get(mask)
            out[mask] = c if cur is None else cur + c
        return Multivector(self.dim, out)

    def __sub__(self, other: "Multivector") -> "Multivector":
        return self + (-other)

    def __neg__(self) -> "Multivector":
        return self.scale(-1)

    def scale(self, s) -> "Multivector":
        """s times self, on the integer numerators: (sr + i si)/d times each term."""
        s = _as_gaussian(s)
        if s.is_zero():
            return Multivector(self.dim)
        [(d, one)] = _rational_runs([(0, s.re, s.im)])
        sr, si = one[0]
        return _from_int_parts(self.dim, [
            (den * d, {mask: (re * sr - im * si, re * si + im * sr)
                       for mask, (re, im) in acc.items()})
            for den, acc in _integer_runs(self)])

    def __mul__(self, other):
        if isinstance(other, Multivector):
            return mv_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        # scalars commute with everything
        return self.scale(other)

    # -- structure queries ----------------------------------------------

    def scalar_part(self) -> GaussianRational:
        total = GR_ZERO
        for den, acc in self._parts:
            re, im = acc.get(0, (0, 0))
            if re or im:
                total = total + _gr(_part(re, den), _part(im, den))
        return total

    def is_zero(self) -> bool:
        if len(self._parts) > 1:
            return not self.coeffs  # several parts can cancel each other
        return not any(re or im for _, acc in self._parts for re, im in acc.values())

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
            # sym() prints an imaginary or complex coefficient in parentheses,
            # negated outside them when it is purely imaginary: "-(1 i)"
            negate = raw.startswith("-(")
            if negate:
                raw = raw[1:]
            if raw.startswith("(") and raw.endswith(")"):
                raw = raw[1:-1]
            coeff = GaussianRational.parse(raw)
            if negate:
                coeff = -coeff
            indices = [int(t) for t in m.group(2).split()]
            mask = blade_mask(indices)
            coeffs[mask] = coeffs.get(mask, GR_ZERO) + coeff
        if " + ".join(matched) != text:
            raise ValueError(f"bad multivector literal {text!r}")
        return cls(dim, coeffs)


_MV_TERM_RE = _re.compile(r"\((.*?)\)\*e\{([\d\s]*)\}")


# Past about this many bits a common denominator costs more in big-integer
# products than sharing it saves, so the operand is split into runs.
_RUN_DEN_BITS = 2048


def _rational_runs(items) -> list[tuple[int, dict]]:
    """(key, re, im) items with rational re and im, as integer parts
    [(D, {key: (D*re, D*im), ...}), ...], one part per run of the items.

    D is the lcm of the run's denominators.  One run holds every item unless
    that lcm grows past _RUN_DEN_BITS, as it does when the items carry many
    large coprime denominators; then a run closes before the item that
    would take its lcm past the bound.  Keys must be distinct.
    """
    items = list(items)
    dens = {d for _, re, im in items for d in (re.denominator, im.denominator)}
    if sum(d.bit_length() for d in dens) <= _RUN_DEN_BITS:  # their lcm divides the product
        runs = [(lcm(*dens), items)]
    else:
        runs = []
        den, run = 1, []
        for item in items:
            _, re, im = item
            grown = lcm(den, re.denominator, im.denominator)
            if run and grown.bit_length() > _RUN_DEN_BITS:
                runs.append((den, run))
                grown, run = lcm(re.denominator, im.denominator), []
            den = grown
            run.append(item)
        runs.append((den, run))
    return [(den, {key: (re.numerator * (den // re.denominator),
                         im.numerator * (den // im.denominator))
                   for key, re, im in run})
            for den, run in runs]


def _from_rationals(dim: int, items) -> Multivector:
    """The Multivector with coefficient re + i*im on the blade of each
    (mask, re, im) item, kept as the integer parts of _rational_runs.

    Masks must be distinct and fit `dim`; no coefficient is built.
    """
    _check_dim(dim)
    return _from_int_parts(dim, _rational_runs(items))


def _integer_runs(a: Multivector) -> list[tuple[int, dict]]:
    """a's integer parts, each denominator within _RUN_DEN_BITS.

    These are a's stored parts when every denominator fits, and otherwise
    _rational_runs of its coefficients.
    """
    if all(den.bit_length() <= _RUN_DEN_BITS for den, _ in a._parts):
        return a._parts
    return _rational_runs((mask, c.re, c.im) for mask, c in a.coeffs.items())


def _part(numerator: int, den: int):
    return Rational(numerator, den) if numerator else _ZERO


def _int_product(a_parts, b_parts) -> list[tuple[int, dict[int, list[int]]]]:
    """The product of two operands given as _integer_runs, on integers.

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
            if not b_items:  # e.g. a projected-out B: no _sign_mask per left blade
                continue
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

    Multiplies integer numerators over common denominators of the operands'
    coefficients and reduces each output coefficient once per pair of parts.
    """
    _same_dim(a, b)
    return _from_int_parts(a.dim, _int_product(_integer_runs(a), _integer_runs(b)))


def grading(n: int) -> Multivector:
    """Chirality element (sqrt(-1))^m c(e_1)...c(e_2m); squares to +1."""
    _check_even_dim(n)
    m = n // 2
    return Multivector.blade(n, (1 << n) - 1, i_power(m))


def trace(a: Multivector) -> GaussianRational:
    """Spinor-representation trace: 2^m times the scalar part (n = 2m).

    Every blade of positive grade is traceless in the irreducible
    representation; the tests cross-check this on literal matrices.
    """
    _check_even_dim(a.dim)
    return a.scalar_part() * 2 ** (a.dim // 2)


def supertrace(a: Multivector) -> GaussianRational:
    """trace(grading * a); kills every blade except the top-grade one."""
    return trace(mv_mul(grading(a.dim), a))


def _relabel(acc: dict, i: int) -> dict:
    """Integer parts {mask: (re, im)} times c(e_i): each blade moves to
    mask ^ bit and keeps or flips its sign; no coefficient is multiplied."""
    bit, shift = 1 << (i - 1), i - 1
    # bit i-1 of _sign_mask(mask) is the parity of mask's bits from i-1 up
    return {mask ^ bit: (-re, -im) if (mask >> shift).bit_count() & 1 else (re, im)
            for mask, (re, im) in acc.items()}


def scalar_product(a: Multivector, b: Multivector) -> GaussianRational:
    """<a b>_0: sum over shared blades A of s(A) a_A b_A, with e_A e_A = s(A).

    Summed on both operands' integer parts, one Rational per pair of parts;
    neither operand's coefficients are built.
    """
    _same_dim(a, b)
    total = GR_ZERO
    a_parts = _integer_runs(a)
    for den_b, b_acc in _integer_runs(b):
        for den_a, a_acc in a_parts:
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


def conjugate_sum(b: Multivector) -> Multivector:
    """Sum_i c(e_i) * b * c(e_i).

    On a grade-k blade this is (-1)^k (2k - n) times the blade; the factor
    scales b's integer numerators.
    """
    factors = [(-1) ** k * (2 * k - b.dim) for k in range(b.dim + 1)]
    return _from_int_parts(b.dim, [
        (den, {mask: (re * factors[mask.bit_count()], im * factors[mask.bit_count()])
               for mask, (re, im) in acc.items()})
        for den, acc in _integer_runs(b)])
