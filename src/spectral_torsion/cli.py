"""Command-line front end.

Subcommands:
  compute <config.json>        evaluate one job, JSON report on stdout
  verify <dims...> [--json]    run the identity catalog per dimension
  trace --dim n [words...]     exact trace/supertrace of a generator word
  moments --dim n --alpha ...  exact sphere moment of a monomial

Exit codes: 0 success; 1 a final-theorem row failed in verify; 2 parse or
validation error; 3 dimension/case inconsistency in a compute job.  The
commands raise ConfigError (2) or ConsistencyError (3); main alone prints the
one line `error: <message>` on stderr and returns the code.
A job reads its case's fields off symbols' case table (Y alone defaults to 0)
and refuses another case's field.
SPECTRAL_TORSION_SEED fixes the randomized-trial seed for verify and for
compute's identity rows.  Every integer argument, and the seed, reads the
ASCII grammar [+-]?[0-9]+.  No input integer, and no numerator or
denominator of an input rational, may have more than MAX_INPUT_DIGITS digits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys

from .clifford import DimensionMismatch, Multivector, OddDimension, _check_even_dim, grading, \
    mv_mul, supertrace, trace
from .forms import OneForm, ThreeForm
from .moments import moment, vol_numeric
from .scalars import DIM_F, PI, SymScalar, TR_F_PHI, rational, sym, vol_sphere
from .symbols import CASE_NAMES, _CASE_FIELDS
from .torsion import ManifoldSpec, UnsupportedDimension, spectral_torsion
from .verify import DEFAULT_SEED, FINAL_IDS, IdentityComparison, verify_suite

EXIT_OK = 0
EXIT_FINAL_MISMATCH = 1
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3

# the largest total degree `moments` accepts; its exact value at 20000 has
# about 12,000 digits and takes a tenth of a second
MAX_MOMENT_DEGREE = 20000

# a compute configuration's fields: every job's, and the cases' from their table;
# any other is refused, and so is a case field that the job's case does not take
_JOB_FIELDS = frozenset({"dimension", "case", "u", "v", "w", "with_boundary", "numeric_eval"})
CONFIG_FIELDS = _JOB_FIELDS | {field for fields in _CASE_FIELDS.values() for field, _ in fields}

# the most digits one input integer may have, sign not counted: CPython's
# default int-to-str limit, which interpreters before 3.10.7 do not enforce
MAX_INPUT_DIGITS = 4300


class ConfigError(Exception):
    """Malformed configuration (exit 2)."""


class ConsistencyError(Exception):
    """Dimension/case inconsistency (exit 3)."""


_ASCII_INT_RE = re.compile(r"([+-]?)[0-9]+")
_DIGIT_RUN_RE = re.compile(r"[0-9]+")


def _check_digits(raw: str, what: str) -> None:
    """A ConfigError when a run of digits in raw exceeds MAX_INPUT_DIGITS."""
    longest = max(map(len, _DIGIT_RUN_RE.findall(raw)), default=0)
    if longest > MAX_INPUT_DIGITS:
        raise ConfigError(
            f"{what}: an integer has {longest} digits, the cap is {MAX_INPUT_DIGITS}")


def _ascii_int(raw: str, what: str, signed: bool = True) -> int:
    """int(raw) for the grammar [+-]?[0-9]+ ([0-9]+ unless signed); other
    digits, underscores and spaces, which int() accepts, are a ConfigError."""
    match = _ASCII_INT_RE.fullmatch(raw)
    if not match or (match.group(1) and not signed):
        grammar = "[+-]?[0-9]+" if signed else "[0-9]+"
        raise ConfigError(f"{what} must be an integer ({grammar}), got {raw!r}")
    _check_digits(raw, what)
    return int(raw)


def _json_int(raw: str) -> int:
    """An integer literal of a JSON configuration, under the same digit cap."""
    _check_digits(raw, "integer literal")
    return int(raw)


def _unique_fields(pairs: list) -> dict:
    """A JSON object of the config as a dict; a field given twice is a
    ConfigError, where a plain dict would keep the last value silently."""
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise ConfigError(f"duplicate field {key!r}")
        fields[key] = value
    return fields


def _seed_from_env() -> int:
    raw = os.environ.get("SPECTRAL_TORSION_SEED")
    return DEFAULT_SEED if raw is None else _ascii_int(raw, "SPECTRAL_TORSION_SEED")


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------


def _parse_rational_field(value, where: str):
    if not isinstance(value, str):
        raise ConfigError(f"{where}: rationals must be strings, got {value!r}")
    _check_digits(value, where)
    try:
        return rational(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ConfigError(f"{where}: bad rational {value!r} ({exc})") from exc


def _parse_oneform(items, key: str, n: int) -> OneForm:
    if not isinstance(items, list):
        raise ConfigError(f"{key}: expected an array of rational strings")
    comps = [_parse_rational_field(s, f"{key}[{i}]") for i, s in enumerate(items)]
    if len(comps) != n:
        raise ConsistencyError(f"{key} has {len(comps)} components, dimension is {n}")
    return OneForm(comps)


def _parse_threeform(items, key: str, n: int) -> ThreeForm:
    if not isinstance(items, list):
        raise ConfigError(f"{key}: expected an array of [a, b, c, rational] records")
    comps = {}
    for record in items:
        if not isinstance(record, list) or len(record) != 4:
            raise ConfigError(f"{key}: bad record {record!r}")
        a, b, c, value = record
        if not all(type(x) is int for x in (a, b, c)):  # rejects JSON true/false
            raise ConfigError(f"{key}: indices must be integers in {record!r}")
        coeff = _parse_rational_field(value, f"{key}{(a, b, c)}")
        if not 1 <= a < b < c <= n:
            raise ConsistencyError(
                f"{key}: triple {(a, b, c)} not strictly increasing within 1..{n}")
        if (a, b, c) in comps:
            raise ConfigError(f"{key}: triple {(a, b, c)} given twice")
        comps[(a, b, c)] = coeff
    return ThreeForm(n, comps)


def _build_case(config: dict, n: int):
    name = config.get("case")
    if not isinstance(name, str) or name not in CASE_NAMES:
        raise ConfigError(f"case must be one of {sorted(CASE_NAMES)}, got {name!r}")
    values = []
    for field, form in _CASE_FIELDS[CASE_NAMES[name]]:
        if config.get(field) is not None:
            parse = _parse_oneform if form is OneForm else _parse_threeform
            values.append(parse(config[field], field, n))
        elif field == "Y":  # the one optional field
            values.append(OneForm((0,) * n))
        else:
            raise ConsistencyError(f"case requires field {field!r}")
    own = _JOB_FIELDS | {field for field, _ in _CASE_FIELDS[CASE_NAMES[name]]}
    foreign = [key for key in config if key not in own]
    if foreign:
        raise ConfigError(f"case {name} takes no field {foreign[0]!r}")
    return CASE_NAMES[name](*values)


def default_numeric_env(n: int) -> dict:
    """pi and sphere volumes from the Gamma closed form; unit twist bundle."""
    env = {PI: math.pi, TR_F_PHI: 1.0, DIM_F: 1.0}
    for k in range(1, n):
        env[vol_sphere(k)] = vol_numeric(k)
    return env


@contextlib.contextmanager
def _unlimited_int_str():
    """Lift CPython's int-to-str digit limit; MAX_INPUT_DIGITS guards every input."""
    if not hasattr(sys, "get_int_max_str_digits"):  # before 3.10.7: no limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _scalar_block(s: SymScalar) -> dict:
    return {"canonical": str(s), "terms": s.to_terms()}


@_unlimited_int_str()  # an exact result may have any number of digits
def run_compute(config: dict, seed: int) -> dict:
    if not isinstance(config, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = [key for key in config if key not in CONFIG_FIELDS]
    if unknown:
        raise ConfigError(f"unknown field {unknown[0]!r}")
    n = config.get("dimension")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ConfigError(f"dimension must be an integer, got {n!r}")
    spec = ManifoldSpec(n, with_boundary=config.get("with_boundary") is True)
    for key in ("with_boundary", "numeric_eval"):
        if key in config and not isinstance(config[key], bool):
            raise ConfigError(f"{key} must be a boolean")
    case = _build_case(config, n)
    frame = []
    for key in ("u", "v", "w"):
        if config.get(key) is None:
            raise ConfigError(f"missing required field {key!r}")
        frame.append(_parse_oneform(config[key], key, n))
    report = spectral_torsion(case, *frame, spec, with_identities=True, seed=seed)

    numeric = None
    if config.get("numeric_eval", False):
        try:
            value = report.total.evaluate(default_numeric_env(n))
            if not (math.isfinite(value.real) and math.isfinite(value.imag)):
                raise OverflowError
        except OverflowError as exc:
            raise ConsistencyError(
                "numeric_eval: the exact total does not fit a float") from exc
        numeric = {"re": value.real, "im": value.imag}

    return {
        "dimension": n,
        "case": config["case"],
        "with_boundary": spec.with_boundary,
        "interior": _scalar_block(report.interior_density),
        "boundary": _scalar_block(report.boundary_density),
        "total": _scalar_block(report.total),
        "theorem": _scalar_block(report.theorem_value),
        "matches": report.matches_theorem,
        "identities": [_ledger_row(row) for row in report.identity_comparisons],
        "numeric": numeric,
    }


def _ledger_row(row: IdentityComparison) -> dict:
    return {"id": row.id, "description": row.description, "computed": str(row.computed),
            "reference": str(row.reference), "matches": row.matches}


def render_output(payload: dict) -> str:
    """Canonical JSON rendering: UTF-8, two-space indent, insertion order."""
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def _cmd_compute(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as handle:
            raw = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.config}: {exc}") from exc
    try:
        config = json.loads(raw, parse_int=_json_int, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.config}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (ConfigError, RecursionError) as exc:  # a digit cap; nesting too deep
        raise ConfigError(f"{args.config}: {exc}") from exc
    payload = run_compute(config, seed=_seed_from_env())
    sys.stdout.write(render_output(payload))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def run_verify(dims: list[int], seed: int) -> dict:
    """The ledger of each listed dimension, in order; the catalog runs once
    per distinct n, and a repeated n reuses its rows."""
    ledgers = {n: [{**_ledger_row(row), "final": row.id in FINAL_IDS}
                   for row in verify_suite(n, seed=seed)] for n in dict.fromkeys(dims)}
    all_final_match = all(row["matches"] for rows in ledgers.values()
                          for row in rows if row["final"])
    return {"dimensions": dims, "all_final_match": all_final_match,
            "results": [{"dimension": n, "rows": ledgers[n]} for n in dims]}


def _cmd_verify(args) -> int:
    dims = []
    for raw in args.dims:
        dims.append(_ascii_int(raw, "dimension"))
        try:
            ManifoldSpec(dims[-1])
        except UnsupportedDimension as exc:  # a bad argument, not a bad job
            raise ConfigError(str(exc)) from exc
    payload = run_verify(dims, seed=_seed_from_env())
    if args.json:
        sys.stdout.write(render_output(payload))
    else:
        for result in payload["results"]:
            print(f"dimension {result['dimension']}")
            width = max(len(r["id"]) for r in result["rows"])
            for row in result["rows"]:
                status = "match   " if row["matches"] else "MISMATCH"
                mark = " [final]" if row["final"] else ""
                print(f"  {row['id']:<{width}}  {status}  computed: {row['computed']}")
                print(f"  {'':<{width}}            reference: {row['reference']}{mark}")
        verdict = "all final rows match" if payload["all_final_match"] \
            else "FINAL ROW MISMATCH"
        print(verdict)
    return EXIT_OK if payload["all_final_match"] else EXIT_FINAL_MISMATCH


# ---------------------------------------------------------------------------
# trace / moments
# ---------------------------------------------------------------------------


def _cmd_trace(args) -> int:
    n = _ascii_int(args.dim, "--dim")
    try:
        _check_even_dim(n)
    except (OddDimension, DimensionMismatch) as exc:
        raise ConfigError(f"--dim: {exc}") from exc
    word = Multivector(n, {0: 1})
    for token in args.word:
        if token == "gamma":
            factor = grading(n)
        elif token.startswith("e"):
            index = _ascii_int(token[1:], "generator index", signed=False)
            if not 1 <= index <= n:
                raise ConfigError(f"generator {token!r} outside 1..{n}")
            factor = Multivector.generator(n, index)
        else:
            raise ConfigError(f"bad token {token!r} (expected e<k> or gamma)")
        word = mv_mul(word, factor)
    print(f"word = {word}")
    print(f"trace = {sym(trace(word))}")
    print(f"supertrace = {sym(supertrace(word))}")
    return EXIT_OK


def _cmd_moments(args) -> int:
    n = _ascii_int(args.dim, "--dim")
    alpha = tuple(_ascii_int(p, "--alpha exponent") for p in args.alpha.split(","))
    if n < 2:
        raise ConfigError(f"--dim must be >= 2, got {n}")
    if len(alpha) != n or any(a < 0 for a in alpha):
        raise ConfigError(f"need {n} non-negative exponents, got {args.alpha!r}")
    if sum(alpha) > MAX_MOMENT_DEGREE:
        raise ConfigError(f"total degree {sum(alpha)} exceeds {MAX_MOMENT_DEGREE}")
    print(str(SymScalar.from_atom(vol_sphere(n - 1), moment(n, alpha))))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-torsion",
        description="Exact spectral-torsion densities and identity verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate a job configuration")
    p_compute.add_argument("config", help="path to the JSON job configuration")
    p_compute.set_defaults(func=_cmd_compute)

    p_verify = sub.add_parser("verify", help="run the identity catalog")
    p_verify.add_argument("dims", nargs="+", help="even dimensions, e.g. 4 6")
    p_verify.add_argument("--json", action="store_true",
                          help="machine-readable output")
    p_verify.set_defaults(func=_cmd_verify)

    p_trace = sub.add_parser("trace", help="trace/supertrace of a generator word")
    p_trace.add_argument("--dim", required=True, help="even dimension, [+-]?[0-9]+")
    p_trace.add_argument("word", nargs="*",
                         help="generator tokens e1..en and gamma; empty = identity")
    p_trace.set_defaults(func=_cmd_trace)

    p_moments = sub.add_parser("moments", help="exact sphere moment of a monomial")
    p_moments.add_argument("--dim", required=True, help="dimension >= 2, [+-]?[0-9]+")
    p_moments.add_argument("--alpha", required=True,
                           help="comma-separated exponents, one per variable")
    p_moments.set_defaults(func=_cmd_moments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # argparse reads "-1,0" as an option; --alpha=-1,0 reaches the exponent check
    tokens: list[str] = []
    for token in sys.argv[1:] if argv is None else argv:
        if tokens and tokens[-1] == "--alpha" and re.match(r"-\d", token):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    try:
        args = parser.parse_args(tokens)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the parse-error code
        return int(exc.code or 0)
    if hasattr(sys.stdout, "reconfigure"):  # UTF-8 whatever the locale; a StringIO has none
        sys.stdout.reconfigure(encoding="utf-8")
    # MAX_INPUT_DIGITS bounds every input, so exact results and the numbers
    # that messages echo print in full whatever the interpreter's limit
    try:
        with _unlimited_int_str():
            return args.func(args)
    except (ConfigError, ConsistencyError, UnsupportedDimension) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, ConfigError) else EXIT_INCONSISTENT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
