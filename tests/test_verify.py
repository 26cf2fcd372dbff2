"""Identity catalog: the closed-form sphere integrals and the catalog's time."""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time

import pytest

from spectral_torsion import ManifoldSpec, Multivector, SymScalar, grading, mv_mul, \
    to_clifford, trace, verify_suite
from spectral_torsion import verify
from spectral_torsion.clifford import _from_int_parts
from spectral_torsion.scalars import GR_I, GaussianRational, rational
from spectral_torsion.verify import CATALOG, DEFAULT_SEED, _sphere_trace_integral

from conftest import rand_multivector, rand_oneform, rand_threeform, scale_reference, \
    sphere_trace_integral_reference


def _two_parts(a, b):
    """a + b as two stored integer parts, a's then b's."""
    return _from_int_parts(a.dim, a._parts + b._parts)


def _operands(rng, n):
    """Random left/middle pairs: generic multivectors of two parts, and the
    catalog's shapes."""
    negative_imaginary = Multivector(n, {rng.randint(0, (1 << n) - 1):
                                         GaussianRational(0, rational("-3/2"))})
    pairs = []
    for _ in range(3):
        left = _two_parts(rand_multivector(rng, n, 16), negative_imaginary)
        middle = _two_parts(rand_multivector(rng, n, 16), scale_reference(negative_imaginary, -2))
        pairs.append((left, middle))
    u, v, w, x = (rand_oneform(rng, n) for _ in range(4))
    cuvw = mv_mul(mv_mul(to_clifford(u), to_clifford(v)), to_clifford(w))
    t = rand_threeform(rng, n)
    pairs.append((cuvw, to_clifford(x)))
    pairs.append((cuvw, to_clifford(t)))
    pairs.append((cuvw, mv_mul(to_clifford(x), grading(n))))
    pairs.append((cuvw, scale_reference(mv_mul(to_clifford(t), grading(n)),
                                        GaussianRational(0, -1))))
    return pairs


@pytest.mark.parametrize("n", [4, 6, 8])
def test_sphere_trace_integral_matches_xi_polynomial(n):
    rng = random.Random(f"sphere-{n}")
    for left, middle in _operands(rng, n):
        reference = {generator_first: sphere_trace_integral_reference(n, left, middle,
                                                                      generator_first)
                     for generator_first in (True, False)}
        for positions in ((True,), (False,), (False, True)):
            assert _sphere_trace_integral(left, middle, positions) == \
                sum(reference[generator_first] for generator_first in positions)


def _squares_to_plus_one(a, b):
    """mv_mul, except that a generator times itself gives +1, not -1."""
    items = list(a.coeffs.items())
    if a == b and len(items) == 1 and items[0][0].bit_count() == 1 and items[0][1] == 1:
        return Multivector(a.dim, {0: 1})
    return mv_mul(a, b)


def test_generator_last_rows_read_their_factor_off_the_clifford_product(monkeypatch):
    """With the generator last, the sphere rows' factor -1 is c(e_i)c(e_i),
    read off the catalog's own products: where those give +1, E4.19, E4.36
    and E4.42 mismatch on the canonical input.  E4.36 is left out at n = 6,
    where it compares 0 with 0 and so shows nothing."""
    checked = {4: ("E4.19", "E4.36", "E4.42"), 6: ("E4.19", "E4.42")}
    rows = {ident.id: ident for ident in CATALOG}
    assert all(rows[i].run(n, None)[2] for n, ids in checked.items() for i in ids)
    with monkeypatch.context() as patch:
        patch.setattr(verify, "mv_mul", _squares_to_plus_one)
        verify._sphere_factors.cache_clear()
        try:
            for n, ids in checked.items():
                assert not any(rows[i].run(n, None)[2] for i in ids), n
        finally:
            patch.undo()
            verify._sphere_factors.cache_clear()


def test_verify_suite_n8_time_bound():
    """The whole n=8 catalog, canonical inputs plus 5 trials per row."""
    start = time.monotonic()
    rows = verify_suite(ManifoldSpec(8))
    elapsed = time.monotonic() - start
    assert {row.id for row in rows if not row.matches} == {"E4.20", "E4.31", "E4.61"}
    assert elapsed < 3.5, f"verify_suite at n=8 took {elapsed:.1f}s"


def test_verify_suite_n12_time_bound():
    """The whole n=12 catalog, canonical inputs plus 5 trials per row."""
    start = time.monotonic()
    rows = verify_suite(ManifoldSpec(12))
    elapsed = time.monotonic() - start
    assert {row.id for row in rows if not row.matches} == {"E4.20", "E4.31", "E4.61"}
    assert elapsed < 5.0, f"verify_suite at n=12 took {elapsed:.1f}s"


def test_verify_suite_n16_time_bound():
    """The whole n=16 catalog, canonical inputs plus 5 trials per row.

    On the fractions backend (2-vCPU VM) the first in-suite runs took
    1.4-1.5 s, most of it in the rows T4.5, T4.13 and R4.7, which call
    interior_density on torsion_vector; the bound is about 2.6x the
    slowest.  With C = c(u)c(v)c(w) multiplied into each symbol term before
    the sphere integral, it took 11-14 s.
    """
    start = time.monotonic()
    rows = verify_suite(ManifoldSpec(16))
    elapsed = time.monotonic() - start
    assert {row.id for row in rows if not row.matches} == {"E4.20", "E4.31", "E4.61"}
    assert elapsed < 4.0, f"verify_suite at n=16 took {elapsed:.1f}s"


def test_verify_suite_n16_tight_time_bound():
    """The whole n=16 catalog, as in the test above, under a tighter bound.

    On the fractions backend (2-vCPU VM) it took 0.41-0.48 s in six
    full-suite runs, with C = c(u)c(v)c(w) traced against the
    sphere-integrated symbol in the density rows; the bound is about 2.5x
    the slowest.  With C multiplied into the integral first, the catalog
    took 1.0-1.3 s.
    """
    start = time.monotonic()
    rows = verify_suite(ManifoldSpec(16))
    elapsed = time.monotonic() - start
    assert {row.id for row in rows if not row.matches} == {"E4.20", "E4.31", "E4.61"}
    assert elapsed < 1.2, f"verify_suite at n=16 took {elapsed:.2f}s"


# the rows that read tr(ab) as 2^m <ab>_0 through trace(a, b) or scalar_product
TRACE_PRODUCT_ROWS = {"L4.3a", "L4.3b", "E4.34", "E4.36", "E4.37", "E4.39", "E4.41",
                      "E4.42", "E4.49", "E4.57"}


def _scalar_part_of_product(a, b):
    """<ab>_0 by the product route: trace(a b) = 2^m <ab>_0."""
    return trace(mv_mul(a, b)) / rational(2 ** (a.dim // 2))


def _trace_of_product(a, b=None):
    """tr(a) or tr(a b), with the product a b built."""
    return trace(a if b is None else mv_mul(a, b))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_trace_rows_match_the_product_route(n, monkeypatch):
    """Each row that reads a trace through trace(a, b) or scalar_product
    gives the same values and flag as through trace(mv_mul(...)), on the
    basis inputs and on random ones."""
    assert TRACE_PRODUCT_ROWS <= {ident.id for ident in CATALOG}
    rows = [ident for ident in CATALOG if ident.id in TRACE_PRODUCT_ROWS and n in ident.dims]

    def outcomes():
        return [ident.run(n, rng) for ident in rows
                for rng in (None, *(random.Random(f"{ident.id}-{k}") for k in range(4)))]

    without_product = outcomes()
    monkeypatch.setattr(verify, "trace", _trace_of_product)
    monkeypatch.setattr(verify, "scalar_product", _scalar_part_of_product)
    assert outcomes() == without_product


# the rows whose trials draw no random input: the half-line residue calculus
DRAWLESS_ROWS = {"E4.55", "E4.56", "E4.60", "E4.61", "E4.62"}


class _Drew(Exception):
    pass


class _Tripwire:
    """Stands in for the trial rng: any draw advances the real rng by one
    step and aborts the row, so no row computes past drawing its inputs."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            self.rng.random()
            raise _Drew
        return draw


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_rows_without_random_input_run_one_trial(n, monkeypatch):
    """Exactly the rows that draw nothing stop after one trial; every other
    row runs all five.  Canonical runs are skipped and drawing rows abort, so
    even the n=16 catalog takes milliseconds."""
    trials = {}

    def counted(ident):
        def run(n, rng):
            if rng is not None:
                trials[ident.id] = trials.get(ident.id, 0) + 1
                try:
                    return ident.run(n, _Tripwire(rng))
                except _Drew:
                    pass
            return SymScalar(), SymScalar(), True
        return dataclasses.replace(ident, run=run)

    monkeypatch.setattr(verify, "CATALOG", tuple(counted(ident) for ident in CATALOG))
    verify_suite(ManifoldSpec(n))
    assert {row for row, count in trials.items() if count == 1} == DRAWLESS_ROWS
    assert set(trials.values()) == {1, 5}


@pytest.mark.parametrize("n", [4, 6])
def test_a_row_stops_at_its_first_mismatch(n, monkeypatch):
    """A mismatch decides the row's flag, so no trial runs after it: the rows
    that mismatch on the canonical input run none."""
    trials = {}

    def counted(ident):
        def run(n, rng):
            if rng is not None:
                trials[ident.id] = trials.get(ident.id, 0) + 1
            return ident.run(n, rng)
        return dataclasses.replace(ident, run=run)

    monkeypatch.setattr(verify, "CATALOG", tuple(counted(ident) for ident in CATALOG))
    rows = verify_suite(ManifoldSpec(n))
    mismatched = {row.id for row in rows if not row.matches}
    assert mismatched == {4: {"E4.20", "E4.31", "E4.41", "E4.61", "T4.11n4"},
                          6: {"E4.20", "E4.31", "E4.61"}}[n]
    assert {row.id for row in rows} - set(trials) == mismatched


def test_a_trial_mismatch_ends_the_row(monkeypatch):
    """A row that first mismatches on its second trial runs no third."""
    trials = []

    def run(n, rng):
        if rng is None:
            return SymScalar(), SymScalar(), True
        trials.append(rng.random())
        return SymScalar(), SymScalar(), len(trials) != 2

    monkeypatch.setattr(verify, "CATALOG", (verify.Identity("X", "", (4,), run),))
    assert [row.matches for row in verify_suite(ManifoldSpec(4))] == [False]
    assert len(trials) == 2


def test_row_keys_dimensions_and_finality_are_read_off_the_catalog():
    """IDENTITY_IDS and FINAL_IDS keep their values and order; a row with
    restricted dims runs at those n alone, every other at each even n."""
    assert verify.IDENTITY_IDS == (
        "L4.3a", "L4.3b", "E4.17", "E4.18", "E4.19", "E4.20", "L4.9", "E4.31", "E4.34",
        "E4.36", "E4.37", "E4.39", "E4.41", "E4.42", "E4.49", "E4.55", "E4.56", "E4.57",
        "E4.60", "E4.61", "E4.62", "E4.63", "T4.5", "R4.7", "T4.8γ", "T4.10", "T4.11n4",
        "T4.11n6", "T4.13")
    assert verify.FINAL_IDS == ("T4.5", "R4.7", "T4.8γ", "T4.10", "T4.11n4", "T4.11n6")
    restricted = {"E4.34": [4], "E4.39": [6], "E4.49": [4], "T4.11n4": [4], "T4.11n6": [6]}
    for ident in CATALOG:
        assert list(ident.dims) == restricted.get(ident.id, list(range(4, 17, 2))), ident.id


@pytest.mark.parametrize("n", range(4, 17, 2))
def test_e461_misses_its_reference_by_exactly_a_factor_i(n):
    """E4.61 and E4.60 are one pole-mirror rule, at numerators i and 1.  The
    catalogued E4.61 value has no factor i, so the computed value is exactly
    i times it (3/8 i against 3/8 at n=4, 2027025/512 i against 2027025/512
    at n=16), while E4.60 matches: the mismatch is the reference's."""
    rows = {ident.id: ident for ident in CATALOG}
    computed, reference, ok = rows["E4.61"].run(n, None)
    assert not ok and not reference.is_zero()
    assert computed == reference * GR_I
    assert rows["E4.60"].run(n, None)[2]
    if n in (4, 16):
        assert (str(computed), str(reference)) == \
            {4: ("(3/8 i)", "3/8"), 16: ("(2027025/512 i)", "2027025/512")}[n]


def _suite_every_trial(n, seed, trials=5):
    """verify_suite without its early stops: every row runs every trial."""
    rng = random.Random(seed)
    rows = []
    for ident in CATALOG:
        if n not in ident.dims:
            continue
        computed, reference, ok = ident.run(n, None)
        for _ in range(trials):
            ok = ident.run(n, rng)[2] and ok
        rows.append((ident.id, str(computed), str(reference), ok))
    return rows


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("seed", [None, 7])
def test_verify_suite_matches_every_trial_loop(n, seed):
    rows = verify_suite(ManifoldSpec(n), seed=seed)
    assert [(row.id, str(row.computed), str(row.reference), row.matches)
            for row in rows] == _suite_every_trial(n, DEFAULT_SEED if seed is None else seed)


# SHA-256 of the rows "id<TAB>computed<TAB>reference<TAB>flag", one a line
ROW_HASHES = {
    8: "e9b4a6ce68c647d36bac138ef4757de7bbbca23c3d71a8856c4ffbff8095b5a8",
    10: "71792149d76e0b68ba5292c9c366cff8a10868ac06483d665f71ce41d476c536",
    12: "aefd7060f18cd8d9f1e045eaa83809282481f47b42dfa4cc885e3a2c776f4910",
    14: "aea98b9813944336a8c806257155fb9df807e6d2275e77c521373cbd68498181",
    16: "b0bfc7beb71c37c5baf238117163ce3e2b4ffdec1e3cd8e9924f777022157b77",
}


@pytest.mark.parametrize("n", sorted(ROW_HASHES))
@pytest.mark.parametrize("seed", [None, 7])
def test_verify_rows_are_pinned(n, seed):
    """The rows above the dimensions the goldens cover keep their values and flags.

    The displayed values come from the rng=None run, so the seed changes only
    the flags; the hashes at the default seed and seed 7 were equal at
    every even n from 4 to 16 when they were recorded.
    """
    text = "\n".join(f"{row.id}\t{row.computed}\t{row.reference}\t{row.matches}"
                     for row in verify_suite(ManifoldSpec(n), seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == ROW_HASHES[n]


# SHA-256 of every run "id<TAB>canonical<TAB>computed<TAB>reference<TAB>flag",
# canonical and trial, one a line, at the default seed
RUN_HASHES = {
    4: "719c1bfd0db3ef8d21b882df9114541c92795355eaf5f8ee46190165ce0b9f87",
    6: "3c42641692fcafa36a6767032ac51014a2dc9a908426f47351eb4cbddb34b1da",
    8: "eed911dd86452b40269f6e770c2d7d3d2b1e28e29f3d4e5dc5196e2cf2bfc059",
    10: "1c9eaddbfaf7ff504f41d3745c60efe26307ded84256d5540ba03d2ac202ceae",
    12: "256fb9279cb9fd4b388f11ac04b7fea0688d823777b74a249ad89b660bc239d1",
    14: "f888965caa0c308b3097d5787892f9e04bf96098d391c8ab5a99ef14b781c6ce",
    16: "86796c9e628be033b37e6b8f44e62eba4d59a06655c9966f220665be4407940f",
}


@pytest.mark.parametrize("n", sorted(RUN_HASHES))
def test_every_trial_is_pinned(n, monkeypatch):
    """Each trial keeps what it draws and computes, not only its flag.

    The pinned rows and the goldens read only the canonical run, whose
    values no seed changes; this reads every run the suite makes."""
    runs = []

    def recorded(ident):
        def run(n, rng):
            computed, reference, ok = ident.run(n, rng)
            runs.append(f"{ident.id}\t{rng is None}\t{computed}\t{reference}\t{ok}")
            return computed, reference, ok
        return dataclasses.replace(ident, run=run)

    monkeypatch.setattr(verify, "CATALOG", tuple(recorded(ident) for ident in CATALOG))
    verify_suite(ManifoldSpec(n))
    text = "\n".join(runs)
    assert hashlib.sha256(text.encode()).hexdigest() == RUN_HASHES[n]


class _Recording:
    """A catalog row at n = 4 that records the draw of each of its trials."""

    id = description = "recording"
    dims = (4,)
    final = False

    def __init__(self):
        self.draws = []

    def run(self, n, rng):
        if rng is not None:
            self.draws.append(rng.random())
        return SymScalar(), SymScalar(), True


def test_distinct_seeds_draw_distinct_trials(monkeypatch):
    """random.Random(-s) repeats random.Random(s), so verify_suite seeds a
    negative seed otherwise; every seed >= 0 keeps random.Random(seed)'s trials."""
    draws = {}
    for seed in (5, -5, 0, -1, 1):
        row = _Recording()
        monkeypatch.setattr(verify, "CATALOG", (row,))
        verify_suite(ManifoldSpec(4), seed=seed)
        draws[seed] = tuple(row.draws)
    assert len(set(draws.values())) == len(draws)
    for seed in (5, 0, 1):
        rng = random.Random(seed)
        assert draws[seed] == tuple(rng.random() for _ in range(5))
