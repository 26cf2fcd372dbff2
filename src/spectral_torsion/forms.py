"""One-forms, antisymmetric 3-forms, wedge products and Clifford embeddings.

Everything lives in an orthonormal frame where the metric is the identity,
so vectors and covectors share one representation.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable

from .clifford import DimensionMismatch, Multivector, _from_rationals, _part, _rational_runs, \
    _same_dim, blade_mask, mv_mul
from .scalars import GR_ZERO, GaussianRational, Rational, rational


class GradeOverflow(ValueError):
    pass


class NotTopGrade(ValueError):
    pass


class OneForm:
    """u = sum_i u_i e_i* with exact rational components."""

    __slots__ = ("dim", "components")

    def __init__(self, components: Iterable):
        comps = tuple(rational(c) for c in components)
        if not comps:
            raise ValueError("one-form needs at least one component")
        object.__setattr__(self, "dim", len(comps))
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("OneForm is immutable")

    @classmethod
    def basis(cls, dim: int, i: int) -> "OneForm":
        return cls(tuple(1 if j == i else 0 for j in range(1, dim + 1)))

    @classmethod
    def zero(cls, dim: int) -> "OneForm":
        return cls((0,) * dim)

    def __getitem__(self, i: int) -> Rational:
        """1-based component access."""
        return self.components[i - 1]

    def __add__(self, other: "OneForm") -> "OneForm":
        _same_dim(self, other)
        return OneForm(tuple(a + b for a, b in zip(self.components, other.components)))

    def scale(self, s) -> "OneForm":
        s = rational(s)
        return OneForm(tuple(s * c for c in self.components))

    def __eq__(self, other):
        return (isinstance(other, OneForm) and self.dim == other.dim
                and self.components == other.components)

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        return f"OneForm({[str(c) for c in self.components]})"


class ThreeForm:
    """Antisymmetric 3-form stored on strictly increasing index triples."""

    __slots__ = ("dim", "components")

    def __init__(self, dim: int, components=None):
        clean = {}
        if components:
            for key, value in components.items():
                a, b, c = key
                if not (1 <= a < b < c <= dim):
                    raise ValueError(f"triple {key} not strictly increasing in 1..{dim}")
                v = rational(value)
                if v != 0:
                    clean[(a, b, c)] = v
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "components", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ThreeForm is immutable")

    @classmethod
    def zero(cls, dim: int) -> "ThreeForm":
        return cls(dim)

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        return (isinstance(other, ThreeForm) and self.dim == other.dim
                and self.components == other.components)

    def __hash__(self):
        return hash((self.dim, frozenset(self.components.items())))

    def __repr__(self):
        items = {k: str(v) for k, v in sorted(self.components.items())}
        return f"ThreeForm(dim={self.dim}, {items})"


class AntisymTensor:
    """Fully antisymmetric grade-k tensor on strictly increasing k-tuples.

    Coefficients are Gaussian rationals so wedge-combinations with complex
    weights stay exact.
    """

    __slots__ = ("dim", "grade", "components")

    def __init__(self, dim: int, grade: int, components=None):
        if not 0 <= grade <= dim:
            raise GradeOverflow(f"grade {grade} outside 0..{dim}")
        clean = {}
        if components:
            for key, value in components.items():
                key = tuple(key)
                if len(key) != grade or any(not 1 <= i <= dim for i in key) \
                        or any(key[i] >= key[i + 1] for i in range(len(key) - 1)):
                    raise ValueError(f"key {key} is not a strictly increasing {grade}-tuple")
                v = value if isinstance(value, GaussianRational) else GaussianRational(value)
                if not v.is_zero():
                    clean[key] = v
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "grade", grade)
        object.__setattr__(self, "components", clean)

    def __setattr__(self, name, value):
        raise AttributeError("AntisymTensor is immutable")

    @classmethod
    def from_one_form(cls, u: OneForm) -> "AntisymTensor":
        return cls(u.dim, 1, {(i,): GaussianRational(u[i]) for i in range(1, u.dim + 1)})

    @classmethod
    def from_three_form(cls, t: ThreeForm) -> "AntisymTensor":
        return cls(t.dim, 3, {k: GaussianRational(v) for k, v in t.components.items()})

    def __add__(self, other: "AntisymTensor") -> "AntisymTensor":
        _same_dim(self, other)
        if self.grade != other.grade:
            raise DimensionMismatch(f"grade {self.grade} vs {other.grade}")
        out = dict(self.components)
        for k, v in other.components.items():
            s = out.get(k, GR_ZERO) + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return AntisymTensor(self.dim, self.grade, out)

    def scale(self, s) -> "AntisymTensor":
        s = s if isinstance(s, GaussianRational) else GaussianRational(s)
        return AntisymTensor(self.dim, self.grade,
                             {k: v * s for k, v in self.components.items()})

    def __eq__(self, other):
        return (isinstance(other, AntisymTensor) and self.dim == other.dim
                and self.grade == other.grade and self.components == other.components)

    def __hash__(self):
        return hash((self.dim, self.grade, frozenset(self.components.items())))

    def is_zero(self) -> bool:
        return not self.components

    def __repr__(self):
        items = {k: str(v) for k, v in sorted(self.components.items())}
        return f"AntisymTensor(dim={self.dim}, grade={self.grade}, {items})"


def _integer_row(x: OneForm) -> tuple[int, list[int]]:
    """x's components as integer numerators over their common denominator."""
    den = lcm(*(c.denominator for c in x.components))
    return den, [c.numerator * (den // c.denominator) for c in x.components]


def metric_pair(u: OneForm, v: OneForm) -> Rational:
    """g(u, v) in the orthonormal frame: the exact dot product."""
    _same_dim(u, v)
    return sum((a * b for a, b in zip(u.components, v.components)),
               rational(0))


def eval_threeform(t: ThreeForm, u: OneForm, v: OneForm, w: OneForm) -> Rational:
    """T(u, v, w): full antisymmetrization of the stored components.

    Each stored triple contributes its 3x3 minor det over the rows u, v, w.
    The sum runs on integer numerators over the rows' common denominators
    and T's run denominators, with one Rational per run of T.  The rows are
    not split into runs: each term of a minor reads one entry of every row,
    so split rows would multiply the work by the number of run triples.
    """
    for x in (u, v, w):
        _same_dim(x, t)
    (du, u), (dv, v), (dw, w) = (_integer_row(x) for x in (u, v, w))
    total = rational(0)
    for den, run in _rational_runs((abc, coeff, 0) for abc, coeff in t.components.items()):
        acc = 0
        for (a, b, c), coeff, _ in run:
            a, b, c = a - 1, b - 1, c - 1
            acc += coeff * (u[a] * (v[b] * w[c] - v[c] * w[b])
                            - u[b] * (v[a] * w[c] - v[c] * w[a])
                            + u[c] * (v[a] * w[b] - v[b] * w[a]))
        total += _part(acc, den * du * dv * dw)
    return total


def _merge_sign(s: tuple, t: tuple) -> int:
    """Sign of sorting the concatenation s+t of two increasing tuples; 0 on overlap."""
    inversions = 0
    for x in t:
        for y in s:
            if y == x:
                return 0
            if y > x:
                inversions += 1
    return -1 if inversions & 1 else 1


def wedge(a: AntisymTensor, b: AntisymTensor) -> AntisymTensor:
    """Alternating wedge product with shuffle signs."""
    _same_dim(a, b)
    if a.grade + b.grade > a.dim:
        raise GradeOverflow(f"grade {a.grade}+{b.grade} exceeds dim {a.dim}")
    out: dict[tuple, GaussianRational] = {}
    for ka, va in a.components.items():
        for kb, vb in b.components.items():
            sign = _merge_sign(ka, kb)
            if sign == 0:
                continue
            key = tuple(sorted(ka + kb))
            term = va * vb
            if sign < 0:
                term = -term
            cur = out.get(key, GR_ZERO) + term
            if cur.is_zero():
                out.pop(key, None)
            else:
                out[key] = cur
    return AntisymTensor(a.dim, a.grade + b.grade, out)


def wedge_all(factors) -> AntisymTensor:
    out = None
    for f in factors:
        if isinstance(f, OneForm):
            f = AntisymTensor.from_one_form(f)
        elif isinstance(f, ThreeForm):
            f = AntisymTensor.from_three_form(f)
        out = f if out is None else wedge(out, f)
    if out is None:
        raise ValueError("empty wedge product")
    return out


def top_pairing(a: AntisymTensor) -> GaussianRational:
    """<a, e_1* ^ ... ^ e_n*>: the coefficient of the full index tuple."""
    if a.grade != a.dim:
        raise NotTopGrade(f"grade {a.grade} != dim {a.dim}")
    return a.components.get(tuple(range(1, a.dim + 1)), GR_ZERO)


def _clifford_items(x) -> list[tuple[int, Rational]]:
    """(blade mask, component) for each nonzero component of a one-form or 3-form."""
    if isinstance(x, OneForm):
        return [(1 << i, c) for i, c in enumerate(x.components) if c]
    if isinstance(x, ThreeForm):
        return [(blade_mask(k), c) for k, c in x.components.items()]
    raise TypeError(f"cannot embed {type(x).__name__} into the Clifford algebra")


def to_clifford(x) -> Multivector:
    """Embed a one-form or 3-form as its Clifford multiplication element,
    built as integer parts."""
    items = [(mask, c, 0) for mask, c in _clifford_items(x)]
    return _from_rationals(x.dim, items)


def frame_product(u: OneForm, v: OneForm, w: OneForm, n: int) -> Multivector:
    """c(u) c(v) c(w), the frame factor, for one-forms of dimension n."""
    for x in (u, v, w):
        _same_dim(x, n)
    return mv_mul(mv_mul(to_clifford(u), to_clifford(v)), to_clifford(w))
