"""Identity catalog: the closed-form sphere integrals and the catalog's time."""

from __future__ import annotations

import random
import time

import pytest

from spectral_torsion import ManifoldSpec, Multivector, grading, mv_mul, to_clifford, verify_suite
from spectral_torsion.scalars import GaussianRational, rational
from spectral_torsion.verify import _sphere_trace_integral

from conftest import rand_multivector, rand_oneform, rand_threeform, \
    sphere_trace_integral_reference


def _operands(rng, n):
    """Random left/middle pairs: generic multivectors, and the catalog's shapes."""
    negative_imaginary = Multivector.blade(n, rng.randint(0, (1 << n) - 1),
                                           GaussianRational(0, rational("-3/2")))
    pairs = []
    for _ in range(3):
        left = rand_multivector(rng, n, 16) + negative_imaginary
        middle = rand_multivector(rng, n, 16) - negative_imaginary.scale(2)
        pairs.append((left, middle))
    u, v, w, x = (rand_oneform(rng, n) for _ in range(4))
    cuvw = mv_mul(mv_mul(to_clifford(u), to_clifford(v)), to_clifford(w))
    t = rand_threeform(rng, n)
    pairs.append((cuvw, to_clifford(x)))
    pairs.append((cuvw, to_clifford(t)))
    pairs.append((cuvw, mv_mul(to_clifford(x), grading(n))))
    pairs.append((cuvw, mv_mul(to_clifford(t), grading(n)).scale(GaussianRational(0, -1))))
    return pairs


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sphere_trace_integral_matches_xi_polynomial(n):
    rng = random.Random(f"sphere-{n}")
    for left, middle in _operands(rng, n):
        for generator_first in (True, False):
            assert _sphere_trace_integral(n, left, middle, generator_first) == \
                sphere_trace_integral_reference(n, left, middle, generator_first)


def test_verify_suite_n8_time_bound():
    """The whole n=8 catalog, canonical inputs plus 5 trials per row."""
    start = time.monotonic()
    rows = verify_suite(ManifoldSpec(8))
    elapsed = time.monotonic() - start
    assert {row.id for row in rows if not row.matches} == {"E4.20", "E4.31", "E4.61"}
    assert elapsed < 3.5, f"verify_suite at n=8 took {elapsed:.1f}s"
