"""Shared exact oracles for the test suite.

These deliberately avoid the library's blade algebra where independence
matters: determinants by Gaussian elimination, top pairings by the
Levi-Civita sum, rotations via the Cayley transform, and a density evaluator
that works on literal representation matrices instead of blades.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from spectral_torsion import (
    Grading,
    Multivector,
    OneForm,
    SymScalar,
    ThreeForm,
    TorsionVector,
    TR_F_PHI,
    VectorGrading,
    grading,
    mv_mul,
    rational,
    trace,
)
from spectral_torsion.clifford import _RUN_DEN_BITS, DimensionMismatch, _sign_mask, \
    blade_product
from spectral_torsion.halfline import _normal_integral, dxn_symbol, \
    half_inverse_symbol_components, line_integral
from spectral_torsion.moments import XiPolynomialMV, moment, xi_monomial
from spectral_torsion.scalars import DIM_F, GR_I, GR_ZERO, PI, GaussianRational, Rational, \
    vol_sphere
from spectral_torsion.forms import frame_product, metric_pair, to_clifford
from spectral_torsion.verify import rand_oneform, rand_rational  # noqa: F401 (re-exported)

from matrix_rep import MatrixRep, mat_mul, mat_trace, mat_add, mat_scale


def rand_threeform(rng: random.Random, n: int, keep: float = 0.6) -> ThreeForm:
    """A 3-form that keeps each component with probability `keep`: the tests
    draw denser 3-forms than the verify catalog, in the same order."""
    comps = {}
    for abc in itertools.combinations(range(1, n + 1), 3):
        if rng.random() < keep:
            comps[abc] = rand_rational(rng)
    return ThreeForm(n, comps)


def rand_multivector(rng: random.Random, n: int, max_blades: int = 6) -> Multivector:
    coeffs = {}
    for _ in range(rng.randint(1, max_blades)):
        mask = rng.randint(0, (1 << n) - 1)
        coeffs[mask] = GaussianRational(rand_rational(rng), rand_rational(rng))
    return Multivector(n, coeffs)


def coprime_draw(rng: random.Random, digits: int = 12):
    """A function drawing rationals whose denominators have the given number
    of digits and are pairwise coprime across all its draws."""
    used = 1

    def draw():
        nonlocal used
        while True:
            den = rng.randrange(10 ** (digits - 1), 10 ** digits)
            if math.gcd(den, used) == 1:
                used *= den
                return Rational(rng.randrange(-10 ** digits, 10 ** digits), den)
    return draw


def long_input(mv: Multivector) -> set[str]:
    """The one long-input precondition, read off mv's stored integer parts:
    "parts" when there are several, "bits" when one of them is over a
    denominator past _RUN_DEN_BITS.  Empty for a short input."""
    kinds = set()
    if len(mv._parts) > 1:
        kinds.add("parts")
    if any(den.bit_length() > _RUN_DEN_BITS for den, _ in mv._parts):
        kinds.add("bits")
    return kinds


def mv_mul_reference(a: Multivector, b: Multivector) -> Multivector:
    """Reference product: blade by blade, one Gaussian-rational term at a time."""
    out = {}
    b_items = list(b.coeffs.items())
    for ma, ca in a.coeffs.items():
        for mb, cb in b_items:
            mask, sign = blade_product(ma, mb)
            term = ca * cb if sign > 0 else -(ca * cb)
            cur = out.get(mask)
            out[mask] = term if cur is None else cur + term
    return Multivector(a.dim, {m: c for m, c in out.items() if not c.is_zero()})


# ---------------------------------------------------------------------------
# coefficient-by-coefficient oracles for the integer-numerator paths
# ---------------------------------------------------------------------------


def blade_mask(indices) -> int:
    """The blade mask of distinct 1-based generator indices."""
    mask = 0
    for i in indices:
        bit = 1 << (i - 1)
        if mask & bit:
            raise ValueError(f"repeated index {i} in blade")
        mask |= bit
    return mask


def product_by_sorting(*words):
    """(indices, sign) of a product of ascending index words, from first
    principles: one sign per transposition that sorts the concatenated word,
    and one per adjacent repeated index, as c(e_i)^2 = -1."""
    word = [i for w in words for i in w]
    sign = 1
    for end in range(len(word) - 1, 0, -1):  # bubble sort: one sign per transposition
        for k in range(end):
            if word[k] > word[k + 1]:
                word[k], word[k + 1] = word[k + 1], word[k]
                sign = -sign
    out = []
    for i in word:  # a repeated index is adjacent once sorted
        if out and out[-1] == i:
            out.pop()
            sign = -sign
        else:
            out.append(i)
    return out, sign


def to_clifford_reference(x) -> Multivector:
    """The Clifford embedding of a one-form or 3-form, one GaussianRational
    coefficient per component."""
    if isinstance(x, OneForm):
        return Multivector(x.dim, {1 << i: GaussianRational(c)
                                   for i, c in enumerate(x.components)})
    return Multivector(x.dim, {blade_mask(k): GaussianRational(v)
                               for k, v in x.components.items()})


def scale_reference(mv: Multivector, s) -> Multivector:
    """s times each coefficient."""
    return Multivector(mv.dim, {mask: c * s for mask, c in mv.coeffs.items()})


def add_reference(a: Multivector, b: Multivector) -> Multivector:
    """a + b, one coefficient sum per blade of either."""
    dim, a, b = a.dim, a.coeffs, b.coeffs
    return Multivector(dim, {mask: a.get(mask, GR_ZERO) + b.get(mask, GR_ZERO)
                             for mask in a.keys() | b.keys()})


def perturbation_multivector_reference(case, n) -> Multivector:
    """B from the embeddings' coefficients, i multiplied into each one."""
    if isinstance(case, TorsionVector):
        return add_reference(to_clifford_reference(case.T),
                             scale_reference(to_clifford_reference(case.Y), GR_I))
    if isinstance(case, Grading):
        return grading(n)
    if isinstance(case, VectorGrading):
        return mv_mul(to_clifford_reference(case.X), grading(n))
    return scale_reference(mv_mul(to_clifford_reference(case.T), grading(n)), GR_I)


def scalar_product_reference(a: Multivector, b: Multivector) -> GaussianRational:
    """<a b>_0 from the built coefficients of the shared blades."""
    total = GR_ZERO
    for mask in a.coeffs.keys() & b.coeffs.keys():
        term = a.coeffs[mask] * b.coeffs[mask]
        total = total - term if (mask & _sign_mask(mask)).bit_count() & 1 else total + term
    return total


def eval_threeform_reference(t: ThreeForm, u: OneForm, v: OneForm, w: OneForm):
    """T(u, v, w): each stored triple times its 3x3 minor, in Rationals."""
    total = rational(0)
    u, v, w = (x.components for x in (u, v, w))
    for (a, b, c), coeff in t.components.items():
        a, b, c = a - 1, b - 1, c - 1
        det = (u[a] * (v[b] * w[c] - v[c] * w[b])
               - u[b] * (v[a] * w[c] - v[c] * w[a])
               + u[c] * (v[a] * w[b] - v[b] * w[a]))
        total += coeff * det
    return total


# ---------------------------------------------------------------------------
# generator products by full blade multiplication
# ---------------------------------------------------------------------------


def _add_xi_term(terms: dict, expo: tuple, term: Multivector) -> None:
    cur = terms.get(expo)
    s = term if cur is None else add_reference(cur, term)
    if s.is_zero():
        terms.pop(expo, None)
    else:
        terms[expo] = s


def sigma_minus2m_reference(b: Multivector) -> XiPolynomialMV:
    """Order -2m symbol of B, the frame factor left off, with every
    generator product done by mv_mul.

    m {c(e_i), B} c(e_l), with the anticommutator multiplied out, summed
    against xi_i xi_l, plus the constant term B.
    """
    n = b.dim
    m = n // 2
    terms = {}
    if not b.is_zero():
        terms[xi_monomial(n)] = b
    for i in range(1, n + 1):
        gi = Multivector.generator(n, i)
        bracket = scale_reference(add_reference(mv_mul(gi, b), mv_mul(b, gi)), m)
        if bracket.is_zero():
            continue
        for l in range(1, n + 1):
            term = mv_mul(bracket, Multivector.generator(n, l))
            if not term.is_zero():
                _add_xi_term(terms, xi_monomial(n, i, l), term)
    return XiPolynomialMV(n, terms)


def integrate_sphere_reference(n, p: XiPolynomialMV) -> Multivector:
    """Termwise sphere integration in units of vol(S^(n-1)): each surviving
    coefficient scaled by its moment weight and added coefficient by
    coefficient."""
    total = Multivector(p.dim)
    for expo, mv in p.terms.items():
        weight = moment(n, expo)
        if weight:
            total = add_reference(total, scale_reference(mv, weight))
    return total


def symbol_trace_reference(u, v, w, b, n) -> GaussianRational:
    """The trace of the sphere-integrated symbol built from all of B: its
    terms integrated termwise, C = c(u)c(v)c(w) built by mv_mul and
    multiplied into the integral, and the whole product traced."""
    cuvw = mv_mul(mv_mul(to_clifford(u), to_clifford(v)), to_clifford(w))
    return trace(mv_mul(cuvw, integrate_sphere_reference(n, sigma_minus2m_reference(b))))


def sphere_trace_integral_reference(n, left, middle, generator_first) -> GaussianRational:
    """Sum over i of the sphere integral of Tr(left c(e_i) middle xi_i c(xi))
    (generator_first) or Tr(left middle c(e_i) xi_i c(xi)), from the full
    xi-polynomial integrated term by term, in units of vol(S^(n-1))."""
    terms = {}
    for i in range(1, n + 1):
        gi = Multivector.generator(n, i)
        core = mv_mul(mv_mul(left, gi), middle) if generator_first \
            else mv_mul(mv_mul(left, middle), gi)
        if core.is_zero():
            continue
        for l in range(1, n + 1):
            term = mv_mul(core, Multivector.generator(n, l))
            if not term.is_zero():
                _add_xi_term(terms, xi_monomial(n, i, l), term)
    integrated = integrate_sphere_reference(n, XiPolynomialMV(n, terms))
    return trace(integrated)


# ---------------------------------------------------------------------------
# boundary pieces entry by entry
# ---------------------------------------------------------------------------


def boundary_symbol(u, v, w, n) -> dict:
    """The boundary integrand as a map xi'-monomial -> (XiRational, Multivector).

    Each entry pairs the xi_n-rational weight (the projected inverse symbol
    times the normal derivative of the inverse-power symbol) with the
    Clifford factor c(u)c(v)c(w)c(e_i) whose trace it multiplies.
    """
    if n % 2 != 0 or n < 4:
        raise DimensionMismatch(f"boundary setting needs even n >= 4, got {n}")
    cuvw = frame_product(u, v, w)
    tangential_half, normal_half = half_inverse_symbol_components()
    dsym = dxn_symbol(n // 2)
    out = {xi_monomial(n - 1): (normal_half * dsym,
                                mv_mul(cuvw, Multivector.generator(n, n)))}
    f_tan = tangential_half * dsym
    for i in range(1, n):
        out[xi_monomial(n - 1, i)] = (f_tan, mv_mul(cuvw, Multivector.generator(n, i)))
    return out


def boundary_pieces_reference(u, v, w, n) -> tuple[SymScalar, SymScalar]:
    """(tangential, normal) boundary pieces from the full boundary symbol:
    per entry, the trace of its Clifford factor times its sphere moment
    times the line integral of its xi_n weight.  The tangential piece is a
    sum over xi'-odd moments, so it must vanish, and the normal piece is
    halfline.boundary_density."""
    tangential = normal = GR_ZERO
    for expo, (f, mv) in boundary_symbol(u, v, w, n).items():
        contribution = trace(mv) * moment(n - 1, expo) * line_integral(f)
        if sum(expo):
            tangential = tangential + contribution
        else:
            normal = normal + contribution
    atoms = (PI, DIM_F, vol_sphere(n - 2))
    return (SymScalar.from_monomial(atoms, tangential),
            SymScalar.from_monomial(atoms, normal))


def boundary_density_reference(u, v, w, n) -> SymScalar:
    """The boundary addend with the frame factor built: 2^m <C c(e_n)>_0
    for C = c(u)c(v)c(w), times the normal entry's xi_n integral."""
    factor = trace(frame_product(u, v, w), Multivector.generator(n, n))
    return SymScalar.from_monomial((PI, DIM_F, vol_sphere(n - 2)),
                                   factor * _normal_integral(n // 2))


def normal_trace_combination_reference(u, v, w):
    """u_n g(v,w) - v_n g(u,w) + w_n g(u,v), summed in Rationals."""
    return (u.components[-1] * metric_pair(v, w)
            - v.components[-1] * metric_pair(u, w)
            + w.components[-1] * metric_pair(u, v))


# ---------------------------------------------------------------------------
# determinant oracle (row reduction over exact rationals)
# ---------------------------------------------------------------------------


def det_exact(rows):
    mat = [list(r) for r in rows]
    size = len(mat)
    det = rational(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col] != 0), None)
        if pivot is None:
            return rational(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det = det * mat[col][col]
        inv = rational(1) / mat[col][col]
        for r in range(col + 1, size):
            factor = mat[r][col] * inv
            if factor != 0:
                for c in range(col, size):
                    mat[r][c] = mat[r][c] - factor * mat[col][c]
    return det


def top_pairing_oracle(*factors):
    """<f_1 ^ ... ^ f_k, e_1* ^ ... ^ e_n*> for one-forms and 3-forms whose
    grades add up to n: over one stored component of each factor, the sum of
    their product times the Levi-Civita sign of the concatenated indices."""
    def items(f):
        if isinstance(f, OneForm):
            return [((i,), c) for i, c in enumerate(f.components, 1)]
        return list(f.components.items())
    total = rational(0)
    for picks in itertools.product(*map(items, factors)):
        idx = sum((key for key, _ in picks), ())
        assert len(idx) == factors[0].dim, "not a top-grade product"
        if len(set(idx)) < len(idx):
            continue
        inversions = sum(a > b for i, a in enumerate(idx) for b in idx[i + 1:])
        term = math.prod(c for _, c in picks)
        total += -term if inversions & 1 else term
    return total


# ---------------------------------------------------------------------------
# exact special-orthogonal rotations (Cayley transform)
# ---------------------------------------------------------------------------


def _solve_exact(a, b):
    """Solve a X = b for square rational a and matrix b, by elimination."""
    size = len(a)
    aug = [list(a[r]) + list(b[r]) for r in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if aug[r][col] != 0)
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = rational(1) / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def cayley_rotation(rng: random.Random, n: int):
    """Random rational special-orthogonal matrix (I-A)(I+A)^-1, A antisymmetric."""
    a = [[rational(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            x = rational(rng.randint(-2, 2)) / rational(rng.randint(1, 3))
            a[i][j] = x
            a[j][i] = -x
    eye = [[rational(1 if i == j else 0) for j in range(n)] for i in range(n)]
    i_plus = [[eye[i][j] + a[i][j] for j in range(n)] for i in range(n)]
    i_minus = [[eye[i][j] - a[i][j] for j in range(n)] for i in range(n)]
    return _solve_exact(i_plus, i_minus)  # (I+A)^-1 (I-A); orthogonal, det +1


def rotate_oneform(q, u: OneForm) -> OneForm:
    n = u.dim
    return OneForm(tuple(
        sum((q[i][a] * u.components[i] for i in range(n)), rational(0))
        for a in range(n)))


def rotate_threeform(q, t: ThreeForm) -> ThreeForm:
    n = t.dim
    comps = {}
    for a in range(1, n - 1):
        for b in range(a + 1, n):
            for c in range(b + 1, n + 1):
                total = rational(0)
                for (i, j, k), value in t.components.items():
                    minor = det_exact([
                        [q[i - 1][a - 1], q[i - 1][b - 1], q[i - 1][c - 1]],
                        [q[j - 1][a - 1], q[j - 1][b - 1], q[j - 1][c - 1]],
                        [q[k - 1][a - 1], q[k - 1][b - 1], q[k - 1][c - 1]],
                    ])
                    total = total + value * minor
                if total != 0:
                    comps[(a, b, c)] = total
    return ThreeForm(n, comps)


# ---------------------------------------------------------------------------
# literal-matrix density oracle
# ---------------------------------------------------------------------------


def density_via_matrix_rep(u, v, w, case, n) -> SymScalar:
    """Interior density recomputed on literal representation matrices.

    Shares only the exact moment table with the blade pipeline; all Clifford
    products and traces happen entry-by-entry on matrices, and B comes from
    perturbation_multivector_reference, coefficient by coefficient, not from
    the interior density's form factor.  The atoms
    vol(S^(n-1)) * tr_F(Phi) are attached to the exact sum at the end.
    """
    rep = MatrixRep(n)
    m = n // 2
    cw = rep.of(mv_mul(mv_mul(to_clifford(u), to_clifford(v)), to_clifford(w)))
    bmat = rep.of(perturbation_multivector_reference(case, n))
    gens = [rep.of(Multivector.generator(n, i)) for i in range(1, n + 1)]

    total = mat_trace(mat_mul(cw, bmat)) * moment(n, xi_monomial(n))
    for i in range(n):
        anti = mat_add(mat_mul(gens[i], bmat), mat_mul(bmat, gens[i]))
        left = mat_scale(mat_mul(cw, anti), GaussianRational(m))
        for l in range(n):
            weight = moment(n, xi_monomial(n, i + 1, l + 1))
            if weight == 0:
                continue
            total = total + mat_trace(mat_mul(left, gens[l])) * weight
    return SymScalar.from_monomial((vol_sphere(n - 1), TR_F_PHI), total)


def eval_complex(f, x: complex) -> complex:
    """A rational symbol (XiRational) at a complex point, in double precision."""
    value = 0j
    for c in reversed(f.numer.coeffs):
        value = value * x + complex(c)
    value /= (x - 1j) ** f.up * (x + 1j) ** f.down
    return value


def quad_oracle(f, bound: float = 1e4) -> complex:
    """Adaptive quadrature of a rational symbol over [-bound, bound]."""
    from scipy.integrate import quad

    hints = [-10.0, -1.0, 0.0, 1.0, 10.0]
    re = quad(lambda x: eval_complex(f, x).real, -bound, bound,
              limit=800, epsabs=1e-13, epsrel=1e-13, points=hints)[0]
    im = quad(lambda x: eval_complex(f, x).imag, -bound, bound,
              limit=800, epsabs=1e-13, epsrel=1e-13, points=hints)[0]
    return complex(re, im)


@pytest.fixture
def rng():
    return random.Random(20240810)
