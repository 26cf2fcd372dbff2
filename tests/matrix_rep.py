"""Independent matrix-representation oracle for Cl(n), used by the tests.

Generators are built by the standard iterated tensor-product (Jordan-Wigner)
construction over exact Gaussian rationals, so every trace identity proved
algebraically in `spectral_torsion.clifford` can be cross-checked against
literal matrices.
"""

from __future__ import annotations

from spectral_torsion.clifford import DimensionMismatch, Multivector, _check_even_dim
from spectral_torsion.scalars import GR_ONE, GR_ZERO, GaussianRational

MAX_REP_DIM = 12

Matrix = tuple  # tuple of row tuples of GaussianRational

_S1 = ((GR_ZERO, GR_ONE), (GR_ONE, GR_ZERO))
_S2 = ((GR_ZERO, GaussianRational(0, -1)), (GaussianRational(0, 1), GR_ZERO))
_S3 = ((GR_ONE, GR_ZERO), (GR_ZERO, -GR_ONE))
_I2 = ((GR_ONE, GR_ZERO), (GR_ZERO, GR_ONE))


def mat_identity(d: int) -> Matrix:
    return tuple(tuple(GR_ONE if i == j else GR_ZERO for j in range(d))
                 for i in range(d))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    bt = tuple(zip(*b))
    out = []
    for i in range(n):
        row_a = a[i]
        row = []
        for j in range(m):
            col = bt[j]
            acc = GR_ZERO
            for t in range(k):
                x = row_a[t]
                if not x.is_zero():
                    acc = acc + x * col[t]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, s: GaussianRational) -> Matrix:
    return tuple(tuple(x * s for x in row) for row in a)


def mat_trace(a: Matrix) -> GaussianRational:
    acc = GR_ZERO
    for i in range(len(a)):
        acc = acc + a[i][i]
    return acc


def kron(a: Matrix, b: Matrix) -> Matrix:
    db = len(b)
    out = []
    for ra in a:
        for rb in b:
            row = []
            for x in ra:
                row.extend(x * y for y in rb)
            out.append(tuple(row))
    return tuple(out)


class MatrixRep:
    """Irreducible representation of Cl(2m) on 2^m-dimensional spinors."""

    def __init__(self, n: int):
        _check_even_dim(n)
        if n > MAX_REP_DIM:
            raise DimensionMismatch(f"dimension must be in [2, {MAX_REP_DIM}], got {n}")
        self.dim = n
        m = n // 2
        self.size = 2 ** m
        gens = []
        imag = GaussianRational(0, 1)
        for k in range(1, m + 1):
            for pauli in (_S1, _S2):
                # sigma3^(k-1) (x) pauli (x) I^(m-k)
                factors = [_S3] * (k - 1) + [pauli] + [_I2] * (m - k)
                mat = factors[0]
                for f in factors[1:]:
                    mat = kron(mat, f)
                gens.append(mat_scale(mat, imag))  # c(e)^2 = -1
        self.generators = tuple(gens)
        self._blade_cache: dict[int, Matrix] = {0: mat_identity(self.size)}

    def blade_matrix(self, mask: int) -> Matrix:
        cached = self._blade_cache.get(mask)
        if cached is not None:
            return cached
        low = mask & -mask
        rest = mask ^ low
        mat = mat_mul(self.generators[low.bit_length() - 1],
                      self.blade_matrix(rest))
        self._blade_cache[mask] = mat
        return mat

    def of(self, a: Multivector) -> Matrix:
        """Image of a multivector as a dense Gaussian-rational matrix."""
        if a.dim != self.dim:
            raise DimensionMismatch(f"dim {a.dim} vs rep dim {self.dim}")
        d = self.size
        acc = [[GR_ZERO] * d for _ in range(d)]
        for mask, coeff in a.coeffs.items():
            mat = self.blade_matrix(mask)
            for i in range(d):
                row = mat[i]
                for j in range(d):
                    if not row[j].is_zero():
                        acc[i][j] = acc[i][j] + coeff * row[j]
        return tuple(tuple(row) for row in acc)

    def trace(self, a: Multivector) -> GaussianRational:
        """Literal matrix trace of the represented multivector."""
        return mat_trace(self.of(a))
