"""Independent reference values for benchmark jobs.

Imports nothing from ``spectral_torsion``: every expected value is evaluated
here from the closed forms in PAPER.md with ``fractions.Fraction``, and the
catalogued discrepancy ledger is written out explicitly.  Results are compared
in the program's JSON shape (``{"terms": [{"atoms": [...], "coeff": str}]}``
blocks), so the same checks serve the in-process API, the CLI and the
high-dimension child processes.

Each ``check_*`` function returns a list of human-readable errors; an empty
list means the job's result is correct.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Rows whose recomputation disagrees with the catalogued value (PAPER.md,
# "Known reference discrepancies"), keyed by dimension.
LEDGER_MISMATCHES_ALL_N = frozenset({"E4.20", "E4.31", "E4.61"})
LEDGER_MISMATCHES_N4 = frozenset({"E4.41", "T4.11n4"})
FINAL_ROW_MISMATCH = "T4.11n4"

ZERO = (Fraction(0), Fraction(0))


def ledger_mismatches(n: int) -> frozenset:
    return LEDGER_MISMATCHES_ALL_N | (LEDGER_MISMATCHES_N4 if n == 4 else frozenset())


# ---------------------------------------------------------------------------
# exact Gaussian-rational terms
# ---------------------------------------------------------------------------


def parse_gaussian(text: str) -> tuple[Fraction, Fraction]:
    """Parse the program's printed Gaussian rationals: "p/q", "r/s i", "p/q-r/s i"."""
    s = text.strip()
    if not s.endswith("i"):
        return Fraction(s), Fraction(0)
    body = s[:-1].strip()
    split = max(body.rfind("+"), body.rfind("-"))
    if split > 0:
        return Fraction(body[:split].strip()), Fraction(body[split:].replace(" ", ""))
    return Fraction(0), Fraction(body.replace(" ", ""))


def block_terms(block: dict) -> dict:
    """{sorted atom names: (re, im)} of one printed scalar block, zeros dropped."""
    out: dict = {}
    for item in block["terms"]:
        key = tuple(sorted(item["atoms"]))
        re, im = parse_gaussian(item["coeff"])
        cur = out.get(key, ZERO)
        out[key] = (cur[0] + re, cur[1] + im)
    return {k: v for k, v in out.items() if v != ZERO}


def _add(*parts: dict) -> dict:
    out: dict = {}
    for part in parts:
        for key, (re, im) in part.items():
            cur = out.get(key, ZERO)
            out[key] = (cur[0] + re, cur[1] + im)
    return {k: v for k, v in out.items() if v != ZERO}


def _term(atoms, re=Fraction(0), im=Fraction(0)) -> dict:
    return _add({tuple(sorted(atoms)): (Fraction(re), Fraction(im))})


# ---------------------------------------------------------------------------
# multilinear algebra on exact components
# ---------------------------------------------------------------------------


def _vector(items) -> list[Fraction]:
    return [Fraction(s) for s in items]


def _threeform(records) -> dict:
    out: dict = {}
    for a, b, c, value in records:
        out[(a, b, c)] = out.get((a, b, c), Fraction(0)) + Fraction(value)
    return out


def _dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _eval_threeform(t: dict, u, v, w) -> Fraction:
    """T(u, v, w) = sum over stored triples of T_abc times the 3x3 minor."""
    total = Fraction(0)
    for (a, b, c), coeff in t.items():
        rows = [[x[a - 1], x[b - 1], x[c - 1]] for x in (u, v, w)]
        det = (rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
               - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
               + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0]))
        total += coeff * det
    return total


def _wedge(a: dict, b: dict) -> dict:
    """Wedge of alternating tensors stored as {increasing index tuple: value}."""
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            if set(ka) & set(kb):
                continue
            merged = ka + kb
            inversions = sum(1 for i in range(len(merged))
                             for j in range(i + 1, len(merged)) if merged[i] > merged[j])
            value = va * vb * (-1 if inversions % 2 else 1)
            key = tuple(sorted(merged))
            out[key] = out.get(key, Fraction(0)) + value
    return out


def _top(n: int, *factors: dict) -> Fraction:
    """<f1 ^ f2 ^ ..., e_1 ^ ... ^ e_n>."""
    acc = factors[0]
    for f in factors[1:]:
        acc = _wedge(acc, f)
    return acc.get(tuple(range(1, n + 1)), Fraction(0))


def _oneform(u) -> dict:
    return {(i,): x for i, x in enumerate(u, start=1) if x}


# ---------------------------------------------------------------------------
# expected densities
# ---------------------------------------------------------------------------


def expected_density(config: dict) -> dict:
    """Expected "interior", "boundary", "total", "theorem" terms and "matches".

    The pipeline value of ``torsion_grading`` at n=4 is exactly 0, while the
    catalogued value is nonzero (T4.11n4): there ``theorem`` differs from
    ``total`` and ``matches`` is false.
    """
    n = config["dimension"]
    m = n // 2
    case = config["case"]
    u, v, w = (_vector(config[k]) for k in ("u", "v", "w"))
    interior_atoms = ("tr_F(Phi)", f"vol(S^{n - 1})")
    pipeline: dict = {}
    catalogued: dict = {}
    if case == "torsion_vector":
        t = _threeform(config["T"])
        pipeline = _term(interior_atoms, -(2 ** (m + 1)) * _eval_threeform(t, u, v, w))
        catalogued = pipeline
    elif case == "vector_grading" and n == 4:
        x = _vector(config["X"])
        pipeline = _term(interior_atoms,
                         8 * _top(n, _oneform(u), _oneform(v), _oneform(w), _oneform(x)))
        catalogued = pipeline
    elif case == "torsion_grading" and n in (4, 6):
        t = _threeform(config["T"])
        if n == 4:
            combo = (-_top(n, _oneform(w), t) * _dot(u, v)
                     + _top(n, _oneform(v), t) * _dot(u, w)
                     - _top(n, _oneform(u), t) * _dot(v, w))
            catalogued = _term(interior_atoms, im=16 * combo)
        else:
            pipeline = _term(interior_atoms,
                             16 * _top(n, _oneform(u), _oneform(v), _oneform(w), t))
            catalogued = pipeline
    elif case not in ("torsion_vector", "grading", "vector_grading", "torsion_grading"):
        raise ValueError(f"unknown case {case!r}")

    boundary: dict = {}
    if config.get("with_boundary", False):
        comb = u[-1] * _dot(v, w) - v[-1] * _dot(u, w) + w[-1] * _dot(u, v)
        coeff = (Fraction((1 - m) * math.factorial(2 * m - 2),
                          math.factorial(m) * math.factorial(m - 1) * 2 ** (2 * m - 1))
                 * 2 ** m * comb)
        boundary = _term(("pi", "dim_F", f"vol(S^{n - 2})"), im=coeff)
    total = _add(pipeline, boundary)
    theorem = _add(catalogued, boundary)
    return {"interior": pipeline, "boundary": boundary, "total": total,
            "theorem": theorem, "matches": total == theorem}


def check_density(config: dict, result: dict) -> list[str]:
    """Compare printed density blocks and the match flag with the closed forms."""
    expected = expected_density(config)
    errors = []
    for key in ("interior", "boundary", "total", "theorem"):
        got = block_terms(result[key])
        if got != expected[key]:
            errors.append(f"{key}: got {got}, expected {expected[key]}")
    if result["matches"] is not expected["matches"]:
        errors.append(f"matches: got {result['matches']}, expected {expected['matches']}")
    return errors


def check_ledger(n: int, rows: list) -> list[str]:
    """The set of mismatching catalog rows is exactly the documented one."""
    got = {row["id"] for row in rows if not row["matches"]}
    want = ledger_mismatches(n)
    if got != want:
        return [f"n={n} ledger mismatches: got {sorted(got)}, expected {sorted(want)}"]
    return []


def check_compute(config: dict, payload: dict, exit_code: int) -> list[str]:
    """A ``compute`` job: exit 0, echoed job fields, densities and the ledger."""
    if exit_code != 0:
        return [f"compute exit code {exit_code}, expected 0"]
    errors = [f"{key}: got {payload.get(key)!r}, expected {config.get(key, False)!r}"
              for key in ("dimension", "case", "with_boundary")
              if payload.get(key) != config.get(key, False)]
    return errors + check_density(config, payload) + check_ledger(
        config["dimension"], payload["identities"])


def check_verify(n: int, payload: dict, exit_code: int) -> list[str]:
    """A ``verify n --json`` job: exit 1 exactly when T4.11n4 applies (n=4)."""
    final_fails = n == 4
    errors = []
    if exit_code != (1 if final_fails else 0):
        errors.append(f"verify {n} exit code {exit_code}, expected {int(final_fails)}")
    if payload.get("dimensions") != [n] or len(payload.get("results", ())) != 1:
        return errors + [f"verify {n}: unexpected dimensions {payload.get('dimensions')!r}"]
    if payload["all_final_match"] is final_fails:
        errors.append(f"verify {n}: all_final_match is {payload['all_final_match']}")
    rows = payload["results"][0]["rows"]
    failed_final = {row["id"] for row in rows if row["final"] and not row["matches"]}
    if failed_final != ({FINAL_ROW_MISMATCH} if final_fails else set()):
        errors.append(f"verify {n}: failed final rows {sorted(failed_final)}")
    return errors + check_ledger(n, rows)
