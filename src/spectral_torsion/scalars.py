"""Exact scalar arithmetic: rationals, Gaussian rationals and symbolic scalars.

Every density computed by this package is a finite Gaussian-rational linear
combination of monomials in a handful of formal atoms (pi, sphere volumes,
the twist-trace tr_F(Phi) and the twist dimension dim_F).  Keeping those
atoms symbolic makes closed-form comparisons exact; floating evaluation is a
separate, lossy view.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction as Rational
from typing import Iterable, Mapping


class MissingAtom(KeyError):
    """An atom occurring in a symbolic scalar has no numeric assignment."""


class _Value:
    """The value-type protocol: immutable, compared and hashed by `_key()`.

    Constructors write their slots with object.__setattr__; afterwards
    assigning or deleting an attribute raises AttributeError.  Values of
    different types never compare equal.  A copy is the value itself, since
    neither it nor its parts are ever mutated; a pickle rebuilds it from its
    slots.
    """

    __slots__ = ()

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__

    def __reduce__(self):
        return _rebuild, (type(self), tuple(getattr(self, name) for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def _mapping_items(x) -> Iterable:
    """x.items(); a TypeError naming x's type when x is not a mapping."""
    if type(x) is not dict and not isinstance(x, Mapping):
        raise TypeError(f"expected a mapping, got {type(x).__name__}")
    return x.items()


def _rebuild(cls, slots: tuple):
    """The _Value of type cls with these slot values, written past the guard."""
    value = cls.__new__(cls)
    for name, slot in zip(cls.__slots__, slots):
        object.__setattr__(value, name, slot)
    return value


# the only accepted string form of a rational: "p" or "p/q", optionally signed
_SIGNED_RATIONAL_RE = _re.compile(r"[+-]?\d+(?:/\d+)?", _re.ASCII)


def rational(value) -> Rational:
    """Coerce an int, string ("p/q" or "p") or rational to a Rational."""
    if isinstance(value, Rational):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational")
    if isinstance(value, str) and not _SIGNED_RATIONAL_RE.fullmatch(value):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, (int, str)):
        return Rational(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


_ZERO = Rational(0)


class GaussianRational:
    """Exact complex number with rational real and imaginary parts.

    Treated as immutable everywhere; arithmetic always builds new values.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = rational(re)
        self.im = rational(im)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, SymScalar):
            return NotImplemented  # SymScalar.__radd__ answers
        other = _as_gaussian(other)
        return _gr(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_gaussian(other)
        return _gr(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        try:
            other = _as_gaussian(other)
        except TypeError:
            if isinstance(other, SymScalar):
                return NotImplemented  # SymScalar.__rmul__ answers
            raise
        a, b, c, d = self.re, self.im, other.re, other.im
        if b == 0:
            if d == 0:
                return _gr(a * c, _ZERO)
            return _gr(a * c, a * d)
        if d == 0:
            return _gr(a * c, b * c)
        return _gr(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gaussian(other)
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b, c, d = self.re, self.im, other.re, other.im
        return _gr((a * c + b * d) / n, (b * c - a * d) / n)

    def __neg__(self):
        return _gr(-self.re, -self.im)

    def __pow__(self, k: int):
        if k < 0:
            return GaussianRational(1) / self.__pow__(-k)
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates / views -------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        if isinstance(other, (int, Rational)):
            return self.im == 0 and self.re == other
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):  # a real value equals, so hashes as, its real part
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im} i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)} i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __reduce__(self):  # slots without __getstate__: protocols 0 and 1 need this
        return GaussianRational, (self.re, self.im)


def _gr(re, im) -> GaussianRational:
    """Fast constructor for already-reduced rational parts."""
    z = GaussianRational.__new__(GaussianRational)
    z.re = re
    z.im = im
    return z


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def _as_gaussian(x) -> GaussianRational:
    """x as a GaussianRational; a plain int or a Rational skips the validating
    constructor, which still refuses a bool and converts other int types."""
    if isinstance(x, GaussianRational):
        return x
    if type(x) is int:
        return _gr(Rational(x), _ZERO)
    if isinstance(x, Rational):
        return _gr(x, _ZERO)
    if isinstance(x, int):
        return GaussianRational(x)
    raise TypeError(f"cannot interpret {x!r} as a Gaussian rational")


def i_power(k: int) -> GaussianRational:
    """i**k, exactly."""
    return (GR_I, GaussianRational(-1), GaussianRational(0, -1), GR_ONE)[(k - 1) % 4]


# ---------------------------------------------------------------------------
# Symbolic atoms
# ---------------------------------------------------------------------------

# Atoms are small tuples (rank, parameter); ordering PI < VOL_SPHERE(k) <
# TR_F_PHI < DIM_F is the canonical printing order.
Atom = tuple

PI: Atom = (0, 0)
TR_F_PHI: Atom = (2, 0)
DIM_F: Atom = (3, 0)


def vol_sphere(k: int) -> Atom:
    """The formal atom vol(S^k), the total surface measure of the unit k-sphere."""
    if type(k) is not int or k < 1:
        raise ValueError(f"sphere dimension must be an int >= 1, got {k!r}")
    return (1, k)


def atom_name(a: Atom) -> str:
    rank, param = a
    if rank == 0:
        return "pi"
    if rank == 1:
        return f"vol(S^{param})"
    if rank == 2:
        return "tr_F(Phi)"
    if rank == 3:
        return "dim_F"
    raise ValueError(f"unknown atom {a!r}")


class SymScalar:
    """Finite Gaussian-rational combination of atom monomials (sorted tuples
    of atoms), in canonical form.

    No zero coefficients are stored; equality is dict equality, which makes
    closed-form comparisons exact structural identities.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple, GaussianRational] | None = None):
        clean = {}
        if terms is not None:
            for mono, coeff in _mapping_items(terms):
                coeff = _as_gaussian(coeff)
                if not coeff.is_zero():
                    clean[mono] = coeff
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def from_coeff(cls, c) -> "SymScalar":
        return cls({(): c})

    @classmethod
    def from_atom(cls, a: Atom, coeff=1) -> "SymScalar":
        return cls({(a,): coeff})

    @classmethod
    def from_monomial(cls, atoms: Iterable[Atom], coeff=1) -> "SymScalar":
        return cls({tuple(sorted(atoms)): coeff})

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = sym(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            cur = out.get(mono)
            if cur is None:
                out[mono] = coeff
            else:
                sre, sim = cur.re + coeff.re, cur.im + coeff.im
                if sre == 0 and sim == 0:
                    del out[mono]
                else:
                    out[mono] = _gr(sre, sim)
        return _raw_sym(out)

    __radd__ = __add__

    def __mul__(self, other):
        """Distributive exact product; monomials merge multiset-wise."""
        other = sym(other)
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(sorted(m1 + m2))
                term = c1 * c2
                cur = out.get(mono)
                out[mono] = term if cur is None else cur + term
        return SymScalar(out)

    __rmul__ = __mul__

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, (int, Rational, GaussianRational)):  # a bool included
            return self.terms.keys() <= {()} and self.terms.get((), GR_ZERO) == other
        if not isinstance(other, SymScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):  # a constant equals, so hashes as, its coefficient
        if self.terms.keys() <= {()}:
            return hash(self.terms.get((), 0))
        return hash(frozenset(self.terms.items()))

    # -- views ----------------------------------------------------------

    def evaluate(self, env: Mapping[Atom, complex]) -> complex:
        """Substitute numeric atom values and evaluate in double precision."""
        total = 0j
        for mono, coeff in self.terms.items():
            value = complex(coeff)
            for a in mono:
                if a not in env:
                    raise MissingAtom(atom_name(a))
                value *= env[a]
            total += value
        return total

    def to_terms(self) -> list:
        """Structured canonical form: [{"atoms": [...], "coeff": str}, ...]."""
        out = []
        for mono in sorted(self.terms):
            out.append({"atoms": [atom_name(a) for a in mono],
                        "coeff": str(self.terms[mono])})
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms):
            coeff = self.terms[mono]
            # a real or imaginary coefficient puts its sign in front of the
            # term; a complex one prints whole, in parentheses
            if coeff.im == 0:
                neg = coeff.re < 0
            elif coeff.re == 0:
                neg = coeff.im < 0
            else:
                neg = False
            mag = str(-coeff if neg else coeff)
            if coeff.im != 0:
                mag = f"({mag})"
            atoms = "*".join(atom_name(a) for a in mono)
            if not atoms:
                body = mag
            elif mag == "1":
                body = atoms
            else:
                body = f"{mag}*{atoms}"
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append(("- " if neg else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"SymScalar<{self}>"

    def __reduce__(self):
        return SymScalar, (self.terms,)


def _raw_sym(terms: dict) -> SymScalar:
    """Fast constructor: `terms` must already be free of zero coefficients."""
    s = SymScalar.__new__(SymScalar)
    s.terms = terms
    return s


def sym(x) -> SymScalar:
    """A symbolic scalar as is; an int or (Gaussian) rational as a constant."""
    if isinstance(x, SymScalar):
        return x
    if isinstance(x, (int, Rational, GaussianRational)):
        return SymScalar.from_coeff(x)
    raise TypeError(f"cannot interpret {x!r} as a symbolic scalar")
