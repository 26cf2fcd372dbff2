"""One-forms, antisymmetric 3-forms, complement duals and Clifford embeddings.

Everything lives in an orthonormal frame where the metric is the identity,
so vectors and covectors share one representation.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from math import lcm
from typing import Iterable

from .clifford import Multivector, _check_dim, _check_index, _exact, _from_int_parts, \
    _rational_runs, _same_dim, _sign_mask, blade_indices, mv_mul
from .scalars import Rational, _Value, _mapping_items, rational


class OneForm(_Value):
    """u = sum_i u_i e_i* with exact rational components."""

    __slots__ = ("dim", "components")

    def __init__(self, components: Iterable):
        # text would give its characters, bytes their values, a set an
        # arbitrary order and a mapping its keys
        if isinstance(components, (str, bytes, bytearray, Set, Mapping)):
            raise TypeError(f"one-form components must be a sequence or an iterator, got "
                            f"{type(components).__name__}")
        comps = tuple(rational(c) for c in components)
        _check_dim(len(comps))
        object.__setattr__(self, "dim", len(comps))
        object.__setattr__(self, "components", comps)

    @classmethod
    def basis(cls, dim: int, i: int) -> "OneForm":
        """e_i*, 1-based index."""
        _check_dim(dim)
        _check_index(i, dim, "basis")
        return cls(tuple(1 if j == i else 0 for j in range(1, dim + 1)))

    def _key(self):
        return self.components  # its length is the dimension

    def __repr__(self):
        return f"OneForm({[str(c) for c in self.components]})"


class ThreeForm(_Value):
    """Antisymmetric 3-form stored on strictly increasing index triples."""

    __slots__ = ("dim", "components")

    def __init__(self, dim: int, components=None):
        _check_dim(dim)
        clean = {}
        if components is not None:
            for key, value in _mapping_items(components):
                if not (type(key) is tuple and len(key) == 3
                        and type(key[0]) is type(key[1]) is type(key[2]) is int
                        and 1 <= key[0] < key[1] < key[2] <= dim):
                    raise ValueError(f"triple {key} not strictly increasing in 1..{dim}")
                v = rational(value)
                if v != 0:
                    clean[key] = v
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "components", clean)

    def _key(self):
        return self.dim, frozenset(self.components.items())

    def __repr__(self):
        items = {k: str(v) for k, v in sorted(self.components.items())}
        return f"ThreeForm(dim={self.dim}, {items})"


def _integer_row(x: OneForm) -> tuple[int, list[int]]:
    """x's components as integer numerators over their common denominator."""
    den = lcm(*(c.denominator for c in x.components))
    return den, [c.numerator * (den // c.denominator) for c in x.components]


def eval_threeform(t: ThreeForm, u: OneForm, v: OneForm, w: OneForm) -> Rational:
    """T(u, v, w): full antisymmetrization of the stored components.

    Each stored triple contributes its 3x3 minor det over the rows u, v, w.
    The sum runs on integer numerators over the rows' common denominators
    and T's part denominators, one share per part of T for _exact.  The rows
    are not split into runs: each term of a minor reads one entry of every
    row, so split rows would multiply the work by the number of part triples.
    """
    _same_dim(t, t, ThreeForm)
    for x in (u, v, w):
        _same_dim(x, t, OneForm)
    (du, u), (dv, v), (dw, w) = (_integer_row(x) for x in (u, v, w))
    shares = []
    for den, part in _rational_runs((abc, coeff, 0) for abc, coeff in t.components.items()):
        acc = 0
        for (a, b, c), (coeff, _) in part.items():
            a, b, c = a - 1, b - 1, c - 1
            acc += coeff * (u[a] * (v[b] * w[c] - v[c] * w[b])
                            - u[b] * (v[a] * w[c] - v[c] * w[a])
                            + u[c] * (v[a] * w[b] - v[b] * w[a]))
        shares.append((den * du * dv * dw, acc, 0))
    return _exact(shares).re


def _complement(x):
    """The complement dual of a one-form or 3-form x, of dimension n = x.dim.

    Each stored component moves to the complementary index tuple, signed so
    that the top pairing of a ^ x is the pairing of a with the dual: a k-form
    becomes an (n-k)-form, a OneForm or a ThreeForm.  The sign is that of
    the blade product c(e_rest) c(e_key), read from _sign_mask.
    """
    kind = OneForm if isinstance(x, OneForm) else ThreeForm
    _same_dim(x, x, kind)
    n = x.dim
    top = (1 << n) - 1
    dual = {}
    for key, c in _clifford_items(x):
        rest = top ^ key
        dual[blade_indices(rest)] = -c if (_sign_mask(rest) & key).bit_count() & 1 else c
    if n - (1 if kind is OneForm else 3) == 1:
        return OneForm(tuple(dual.get((i,), 0) for i in range(1, n + 1)))
    return ThreeForm(n, dual)


def _clifford_items(x) -> list[tuple[int, Rational]]:
    """(blade mask, component) for each nonzero component of a one-form or 3-form."""
    if isinstance(x, OneForm):
        return [(1 << i, c) for i, c in enumerate(x.components) if c]
    if isinstance(x, ThreeForm):  # the constructor checked each a < b < c
        return [(1 << a - 1 | 1 << b - 1 | 1 << c - 1, v)
                for (a, b, c), v in x.components.items()]
    raise TypeError(f"cannot embed {type(x).__name__} into the Clifford algebra")


def to_clifford(x) -> Multivector:
    """Embed a one-form or 3-form as its Clifford multiplication element,
    built as integer parts."""
    items = [(mask, c, 0) for mask, c in _clifford_items(x)]
    return _from_int_parts(x.dim, _rational_runs(items))


def _frame_dim(u: OneForm, v: OneForm, w: OneForm) -> int:
    """The one frame rule: one-forms u, v and w of u's dimension, returned."""
    _same_dim(u, u, OneForm)
    for x in (v, w):
        _same_dim(x, u.dim, OneForm)
    return u.dim


def frame_product(u: OneForm, v: OneForm, w: OneForm) -> Multivector:
    """c(u) c(v) c(w), the frame factor, for one-forms of one dimension."""
    _frame_dim(u, v, w)
    return mv_mul(mv_mul(to_clifford(u), to_clifford(v)), to_clifford(w))
