"""CLI behavior: exit codes, canonical JSON, determinism."""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from spectral_torsion.cli import MAX_INPUT_DIGITS, MAX_MOMENT_DEGREE, ConfigError, \
    ConsistencyError, _unlimited_int_str, main, render_output, run_compute
from spectral_torsion.scalars import Rational
from spectral_torsion.torsion import UnsupportedDimension

from test_golden import COMPUTE_CONFIGS


def write_config(tmp_path, payload, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def base_config():
    return {
        "dimension": 4,
        "case": "torsion_vector",
        "u": ["1", "0", "0", "0"],
        "v": ["0", "1", "0", "0"],
        "w": ["0", "0", "1", "0"],
        "T": [[1, 2, 3, "1"]],
        "with_boundary": False,
        "numeric_eval": False,
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_torsion_vector(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    code, out, err = run(capsys, "compute", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["total"]["canonical"] == "-8*vol(S^3)*tr_F(Phi)"
    assert payload["matches"] is True
    assert payload["numeric"] is None
    ids = {row["id"] for row in payload["identities"]}
    assert "T4.5" in ids and "E4.20" in ids


def test_compute_grading_zero(tmp_path, capsys):
    config = {
        "dimension": 6,
        "case": "grading",
        "u": ["1", "0", "0", "0", "0", "0"],
        "v": ["0", "1", "0", "0", "0", "0"],
        "w": ["0", "0", "1", "0", "0", "0"],
    }
    code, out, _ = run(capsys, "compute", write_config(tmp_path, config))
    assert code == 0
    payload = json.loads(out)
    assert payload["total"]["canonical"] == "0"
    assert payload["matches"] is True


def test_compute_numeric_eval(tmp_path, capsys):
    config = base_config()
    config["numeric_eval"] = True
    code, out, _ = run(capsys, "compute", write_config(tmp_path, config))
    assert code == 0
    payload = json.loads(out)
    assert payload["numeric"]["re"] == pytest.approx(-157.91367041742973)
    assert payload["numeric"]["im"] == pytest.approx(0.0)


def test_compute_with_boundary(tmp_path, capsys):
    config = base_config()
    config["with_boundary"] = True
    config["u"] = ["0", "0", "0", "1"]
    config["v"] = ["1", "0", "0", "0"]
    config["w"] = ["1", "0", "0", "0"]
    code, out, _ = run(capsys, "compute", write_config(tmp_path, config))
    assert code == 0
    payload = json.loads(out)
    assert payload["boundary"]["canonical"] != "0"
    assert payload["matches"] is True


def test_compute_huge_exact_result(tmp_path, capsys):
    """A product of 3000-digit inputs is printed exactly; only the float view fails."""
    big = "7" * 3000
    config = base_config()
    config["with_boundary"] = True
    config["u"] = [big, "0", "0", "0"]
    config["v"] = ["0", big, "0", "0"]
    config["w"] = ["0", "0", big, "0"]
    config["T"] = [[1, 2, 3, big]]
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "compute", write_config(tmp_path, config))
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    payload = json.loads(out)
    sys.set_int_max_str_digits(0)
    try:
        expected = f"-{8 * int(big) ** 4}*vol(S^3)*tr_F(Phi)"
    finally:
        sys.set_int_max_str_digits(limit)
    assert payload["interior"]["canonical"] == expected
    assert payload["matches"] is True
    config["numeric_eval"] = True
    code, out, err = run(capsys, "compute", write_config(tmp_path, config))
    assert code == 3
    assert out == ""
    assert "error: numeric_eval: the exact total does not fit a float" in err
    # the digit cap still guards the inputs
    config["numeric_eval"] = False
    config["u"][0] = "7" * (MAX_INPUT_DIGITS + 1)
    code, _, err = run(capsys, "compute", write_config(tmp_path, config))
    assert code == 2
    assert err == f"error: u[0]: an integer has {MAX_INPUT_DIGITS + 1} digits, " \
        f"the cap is {MAX_INPUT_DIGITS}\n"
    path = tmp_path / "long_index.json"
    path.write_text('{"dimension": 4, "T": [[1, 2, ' + "3" * (MAX_INPUT_DIGITS + 1)
                    + ', "1"]]}', encoding="utf-8")
    code, _, err = run(capsys, "compute", str(path))
    assert code == 2
    assert err == f"error: {path}: integer literal: an integer has " \
        f"{MAX_INPUT_DIGITS + 1} digits, the cap is {MAX_INPUT_DIGITS}\n"


def test_compute_malformed_rational_exits_2(tmp_path, capsys):
    config = base_config()
    config["T"] = [[1, 2, 3, "1/0"]]
    code, _, err = run(capsys, "compute", write_config(tmp_path, config))
    assert code == 2
    assert "1/0" in err
    # only "p" and "p/q" are rationals, though Fraction parses all but "1/-2"
    for bad in ("0.5", "1e3", "1_000", " 1/2 ", "1/-2", "\u0661"):
        config = base_config()
        config["u"] = [bad, "0", "0", "0"]
        code, _, err = run(capsys, "compute", write_config(tmp_path, config))
        assert code == 2, bad
        assert "error: u[0]: bad rational" in err, bad
    config = base_config()
    config["T"] = [[True, 2, 3, "1"]]  # a JSON boolean is not an index
    code, _, err = run(capsys, "compute", write_config(tmp_path, config))
    assert code == 2
    assert "indices must be integers" in err


def test_compute_bad_json_exits_2_with_line(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "dimension": 4,\n  oops\n}', encoding="utf-8")
    code, _, err = run(capsys, "compute", str(path))
    assert code == 2
    assert ":3:" in err  # line-anchored message


def test_compute_odd_dimension_exits_3(tmp_path, capsys):
    for n in (5, 2, 18):  # odd, and even on either side of 4..16
        config = base_config()
        config["dimension"] = n
        code, _, err = run(capsys, "compute", write_config(tmp_path, config))
        assert code == 3
        assert err == f"error: dimension must be even with 4 <= n <= 16, got {n}\n"


def test_compute_wrong_length_exits_3(tmp_path, capsys):
    config = base_config()
    config["u"] = ["1", "0", "0"]
    code, _, _ = run(capsys, "compute", write_config(tmp_path, config))
    assert code == 3


def test_compute_missing_case_field_exits_3(tmp_path, capsys):
    config = base_config()
    config["case"] = "vector_grading"  # X missing
    code, _, _ = run(capsys, "compute", write_config(tmp_path, config))
    assert code == 3


def test_compute_missing_oneform_exits_2(tmp_path, capsys):
    config = base_config()
    del config["w"]
    code, _, _ = run(capsys, "compute", write_config(tmp_path, config))
    assert code == 2


def test_compute_bad_triple_exits_3(tmp_path, capsys):
    config = base_config()
    config["T"] = [[2, 1, 3, "1"]]
    code, _, _ = run(capsys, "compute", write_config(tmp_path, config))
    assert code == 3


def test_compute_deterministic_bytes(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    _, out1, _ = run(capsys, "compute", path)
    _, out2, _ = run(capsys, "compute", path)
    assert out1 == out2


def test_output_json_roundtrip_byte_identical(tmp_path, capsys):
    path = write_config(tmp_path, base_config())
    _, out, _ = run(capsys, "compute", path)
    assert render_output(json.loads(out)) == out


def test_verify_6_exits_0(capsys):
    code, out, _ = run(capsys, "verify", "6")
    assert code == 0
    assert "all final rows match" in out


def test_verify_8_exits_0(capsys):
    # the n=4-specific failing row does not apply at n=8
    code, out, _ = run(capsys, "verify", "8")
    assert code == 0


def test_verify_4_reports_final_mismatch(capsys):
    # the n=4 grading-torsion row genuinely fails; exit policy must flag it
    code, out, _ = run(capsys, "verify", "4")
    assert code == 1
    assert "T4.11n4" in out
    assert "FINAL ROW MISMATCH" in out


def test_verify_exit_policy_matches_rows(capsys):
    code, out, _ = run(capsys, "verify", "4", "6", "--json")
    payload = json.loads(out)
    finals = [row for result in payload["results"] for row in result["rows"]
              if row["final"]]
    assert code == (0 if all(r["matches"] for r in finals) else 1)
    failing = {r["id"] for r in finals if not r["matches"]}
    assert failing == {"T4.11n4"}


def test_verify_intermediate_mismatch_reported_not_fatal(capsys):
    code, out, _ = run(capsys, "verify", "6", "--json")
    payload = json.loads(out)
    rows = {r["id"]: r for r in payload["results"][0]["rows"]}
    assert rows["E4.20"]["matches"] is False
    assert rows["E4.20"]["computed"] and rows["E4.20"]["reference"]
    assert code == 0


def test_verify_odd_dim_exits_2(capsys):
    for n in ("3", "2", "18"):
        code, _, err = run(capsys, "verify", n)
        assert code == 2
        assert err == f"error: dimension must be even with 4 <= n <= 16, got {n}\n"


def test_verify_seed_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SPECTRAL_TORSION_SEED", "123")
    code1, out1, _ = run(capsys, "verify", "6", "--json")
    code2, out2, _ = run(capsys, "verify", "6", "--json")
    assert (code1, out1) == (code2, out2)
    monkeypatch.setenv("SPECTRAL_TORSION_SEED", "not-an-int")
    code3, _, err = run(capsys, "verify", "6")
    assert code3 == 2


# int() also reads other Unicode digits, underscores and surrounding spaces
_NOT_ASCII_INTEGERS = ("\u0664", "0_4", " 4", "4 ", "4.0", "", "+")


@pytest.mark.parametrize("bad", _NOT_ASCII_INTEGERS)
def test_integer_arguments_are_ascii(capsys, monkeypatch, bad):
    for argv in (("verify", bad, "--json"), ("verify", "4", bad),
                 ("trace", "--dim", bad, "e1"), ("trace", "--dim", "4", f"e{bad}"),
                 ("moments", "--dim", bad, "--alpha", "2,0"),
                 ("moments", "--dim", "2", "--alpha", f"2,{bad}")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "must be an integer" in err, argv
    monkeypatch.setenv("SPECTRAL_TORSION_SEED", bad)
    code, out, err = run(capsys, "verify", "4")
    assert (code, out) == (2, "")
    assert err == f"error: SPECTRAL_TORSION_SEED must be an integer ([+-]?[0-9]+), got {bad!r}\n"


def test_integer_arguments_accept_a_sign_where_it_makes_sense(capsys, monkeypatch):
    code, out, _ = run(capsys, "moments", "--dim", "+2", "--alpha", "+2,0")
    assert (code, out) == (0, "1/2*vol(S^1)\n")
    code, out, err = run(capsys, "verify", "-4")
    assert (code, out) == (2, "")
    assert err == "error: dimension must be even with 4 <= n <= 16, got -4\n"
    for token in ("e+1", "e-1"):  # a generator index takes no sign
        code, out, err = run(capsys, "trace", "--dim", "4", token)
        assert (code, out) == (2, "")
        assert err == f"error: generator index must be an integer ([0-9]+), got {token[1:]!r}\n"
    # past the digit cap: exit 2 with a message, no traceback
    code, out, err = run(capsys, "moments", "--dim", "2", "--alpha", "1" * 5000 + ",0")
    assert (code, out) == (2, "")
    assert err == f"error: --alpha exponent: an integer has 5000 digits, " \
        f"the cap is {MAX_INPUT_DIGITS}\n"
    monkeypatch.setenv("SPECTRAL_TORSION_SEED", "-7")
    code, _, _ = run(capsys, "verify", "4")
    assert code == 1  # the seed is read; T4.11n4 is the known final-row mismatch at n=4


def _cap_config(field: str, digits: str) -> dict:
    """base_config with a `digits`-long numerator in one field."""
    config = base_config()
    if field == "u":
        config["u"] = [digits, "0", "0", "0"]
    else:
        config["T"] = [[1, 2, 3, f"-{digits}/7"]]
    return config


@pytest.mark.parametrize("field", ["u", "T"])
def test_input_digit_cap_on_components(tmp_path, capsys, field):
    """MAX_INPUT_DIGITS digits are read whatever the interpreter's int-to-str
    limit; one more exits 2 with the library's message."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the lowest limit CPython allows
    try:
        code, out, err = run(capsys, "compute", write_config(
            tmp_path, _cap_config(field, "3" * MAX_INPUT_DIGITS)))
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert json.loads(out)["matches"] is True
    where = "u[0]" if field == "u" else "T(1, 2, 3)"
    code, out, err = run(capsys, "compute", write_config(
        tmp_path, _cap_config(field, "3" * (MAX_INPUT_DIGITS + 1))))
    assert (code, out) == (2, "")
    assert err == f"error: {where}: an integer has {MAX_INPUT_DIGITS + 1} digits, " \
        f"the cap is {MAX_INPUT_DIGITS}\n"


def test_input_digit_cap_on_the_seed(capsys, monkeypatch):
    monkeypatch.setenv("SPECTRAL_TORSION_SEED", "-" + "9" * MAX_INPUT_DIGITS)
    code, out, err = run(capsys, "verify", "4")
    assert code == 1 and "T4.11n4" in out  # the known final-row mismatch at n=4
    monkeypatch.setenv("SPECTRAL_TORSION_SEED", "-" + "9" * (MAX_INPUT_DIGITS + 1))
    code, out, err = run(capsys, "verify", "4")
    assert (code, out) == (2, "")
    assert err == f"error: SPECTRAL_TORSION_SEED: an integer has {MAX_INPUT_DIGITS + 1} " \
        f"digits, the cap is {MAX_INPUT_DIGITS}\n"


def test_long_dimensions_are_echoed_whatever_the_int_limit(capsys):
    dim = "2" * 700
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for argv, message in (
                (("trace", "--dim", dim), f"--dim: dimension must be in [2, 16], got {dim}"),
                (("verify", dim), f"dimension must be even with 4 <= n <= 16, got {dim}"),
                (("moments", "--dim", dim, "--alpha", "2"),
                 f"need {dim} non-negative exponents, got '2'")):
            assert run(capsys, *argv) == (2, "", f"error: {message}\n"), argv[0]
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


def test_compute_runs_on_an_interpreter_without_the_int_limit(tmp_path, capsys, monkeypatch):
    """Before 3.10.7 sys has no int-to-str limit to lift, and compute prints
    the same bytes."""
    path = tmp_path / "job.json"
    path.write_text(json.dumps(base_config()), encoding="utf-8")
    expected = run(capsys, "compute", str(path))
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    monkeypatch.delattr(sys, "set_int_max_str_digits")
    assert run(capsys, "compute", str(path)) == expected


def test_capped_exponents_summing_past_the_int_limit_exit_2(capsys):
    big = "9" * MAX_INPUT_DIGITS
    code, out, err = run(capsys, "moments", "--dim", "2", "--alpha", f"{big},{big}")
    assert (code, out) == (2, "")
    with _unlimited_int_str():
        assert err == f"error: total degree {2 * int(big)} exceeds {MAX_MOMENT_DEGREE}\n"


# every dimension error a user can reach through compute, trace, moments and
# verify, with its exit code and exact message
_COMPUTE_DIMENSION_ERRORS = [
    ({"dimension": 5}, 3, "error: dimension must be even with 4 <= n <= 16, got 5\n"),
    ({"dimension": 2}, 3, "error: dimension must be even with 4 <= n <= 16, got 2\n"),
    ({"dimension": 18}, 3, "error: dimension must be even with 4 <= n <= 16, got 18\n"),
    ({"dimension": "4"}, 2, "error: dimension must be an integer, got '4'\n"),
    ({"u": ["1", "0", "0"]}, 3, "error: u has 3 components, dimension is 4\n"),
    ({"Y": ["0"] * 5}, 3, "error: Y has 5 components, dimension is 4\n"),
    ({"case": "vector_grading", "X": ["1"]}, 3,
     "error: X has 1 components, dimension is 4\n"),
    ({"T": [[1, 2, 5, "1"]]}, 3,
     "error: T: triple (1, 2, 5) not strictly increasing within 1..4\n"),
    ({"case": "torsion_grading", "T": [[0, 1, 2, "1"]]}, 3,
     "error: T: triple (0, 1, 2) not strictly increasing within 1..4\n"),
]
_COMMAND_DIMENSION_ERRORS = [
    (("trace", "--dim", "5"), "error: --dim: dimension must be even, got 5\n"),
    (("trace", "--dim", "18"), "error: --dim: dimension must be in [2, 16], got 18\n"),
    (("trace", "--dim", "0"), "error: --dim: dimension must be in [2, 16], got 0\n"),
    (("trace", "--dim", "4", "e5"), "error: generator 'e5' outside 1..4\n"),
    (("trace", "--dim", "4", "e0"), "error: generator 'e0' outside 1..4\n"),
    (("moments", "--dim", "1", "--alpha", "2"), "error: --dim must be >= 2, got 1\n"),
    (("moments", "--dim", "3", "--alpha", "2,0"),
     "error: need 3 non-negative exponents, got '2,0'\n"),
    (("verify", "5"), "error: dimension must be even with 4 <= n <= 16, got 5\n"),
    (("verify", "4", "18"), "error: dimension must be even with 4 <= n <= 16, got 18\n"),
]


@pytest.mark.parametrize("change, code, message", _COMPUTE_DIMENSION_ERRORS)
def test_compute_dimension_error_messages(tmp_path, capsys, change, code, message):
    config = {**base_config(), **change}
    assert run(capsys, "compute", write_config(tmp_path, config)) == (code, "", message)


@pytest.mark.parametrize("argv, message", _COMMAND_DIMENSION_ERRORS)
def test_command_dimension_error_messages(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", message)


def _config(drop=(), **change) -> dict:
    """base_config with fields changed and dropped."""
    config = {**base_config(), **change}
    for key in drop:
        del config[key]
    return config


_COMPUTE = ("compute", "{path}")
_BIG = "7" * 400  # its fourth power is past a float's range
_CASES = "['grading', 'torsion_grading', 'torsion_vector', 'vector_grading']"
_GRAMMAR = "must be an integer ([+-]?[0-9]+)"

# every other error message of the four commands: the argv, the config file
# ({path} in argv; a dict is written as JSON, a str as it is, None writes no
# file; {dir} is its directory), the exit code and the exact stderr
_PINNED_ERRORS = [
    pytest.param(("trace", "--dim", "4", "f2"), None, 2,
                 "error: bad token 'f2' (expected e<k> or gamma)\n", id="trace-token"),
    pytest.param(("trace", "--dim", "4", "e١"), None, 2,
                 "error: generator index must be an integer ([0-9]+), got '١'\n",
                 id="trace-unicode-index"),
    pytest.param(("trace", "--dim", "4", "e-1"), None, 2,
                 "error: generator index must be an integer ([0-9]+), got '-1'\n",
                 id="trace-signed-index"),
    pytest.param(("trace", "--dim", "x"), None, 2,
                 f"error: --dim {_GRAMMAR}, got 'x'\n", id="trace-dim"),
    pytest.param(("moments", "--dim", "2", "--alpha", "2,x"), None, 2,
                 f"error: --alpha exponent {_GRAMMAR}, got 'x'\n", id="moments-alpha"),
    pytest.param(("moments", "--dim", "x", "--alpha", "2"), None, 2,
                 f"error: --dim {_GRAMMAR}, got 'x'\n", id="moments-dim"),
    pytest.param(("moments", "--dim", "2", "--alpha", "2,-1"), None, 2,
                 "error: need 2 non-negative exponents, got '2,-1'\n",
                 id="moments-negative"),
    pytest.param(("moments", "--dim", "2", "--alpha", "-1,0"), None, 2,
                 "error: need 2 non-negative exponents, got '-1,0'\n",
                 id="moments-negative-first"),
    pytest.param(("moments", "--dim", "2", "--alpha=-1,0"), None, 2,
                 "error: need 2 non-negative exponents, got '-1,0'\n",
                 id="moments-negative-first-joined"),
    pytest.param(("moments", "--dim", "2", "--alpha", f"{MAX_MOMENT_DEGREE + 1},0"), None, 2,
                 f"error: total degree {MAX_MOMENT_DEGREE + 1} exceeds {MAX_MOMENT_DEGREE}\n",
                 id="moments-degree"),
    pytest.param(("compute", "{dir}/missing.json"), None, 2,
                 "error: cannot read {dir}/missing.json: [Errno 2] No such file or "
                 "directory: '{dir}/missing.json'\n", id="compute-missing-file"),
    pytest.param(("compute", "{dir}"), None, 2,
                 "error: cannot read {dir}: [Errno 21] Is a directory: '{dir}'\n",
                 id="compute-directory"),
    pytest.param(_COMPUTE, '{\n  "dimension": 4,\n  oops\n}', 2,
                 "error: {path}:3:3: Expecting property name enclosed in double quotes\n",
                 id="compute-json-syntax"),
    pytest.param(_COMPUTE, "[" + "1" * (MAX_INPUT_DIGITS + 1) + "]", 2,
                 f"error: {{path}}: integer literal: an integer has {MAX_INPUT_DIGITS + 1} "
                 f"digits, the cap is {MAX_INPUT_DIGITS}\n", id="compute-literal-cap"),
    pytest.param(_COMPUTE, _config(T=[[1, 2, 3, "1/" + "3" * (MAX_INPUT_DIGITS + 1)]]), 2,
                 f"error: T(1, 2, 3): an integer has {MAX_INPUT_DIGITS + 1} digits, "
                 f"the cap is {MAX_INPUT_DIGITS}\n", id="compute-rational-cap"),
    pytest.param(_COMPUTE, _config(u=["0.5", "0", "0", "0"]), 2,
                 "error: u[0]: bad rational '0.5' (not a rational: '0.5')\n",
                 id="compute-bad-rational"),
    pytest.param(_COMPUTE, _config(u=[1, "0", "0", "0"]), 2,
                 "error: u[0]: rationals must be strings, got 1\n", id="compute-not-string"),
    pytest.param(_COMPUTE, _config(T=[[1, 2, 3, 1]]), 2,
                 "error: T(1, 2, 3): rationals must be strings, got 1\n",
                 id="compute-threeform-not-string"),
    pytest.param(_COMPUTE, _config(u="1"), 2,
                 "error: u: expected an array of rational strings\n", id="compute-oneform-shape"),
    pytest.param(_COMPUTE, _config(T="1"), 2,
                 "error: T: expected an array of [a, b, c, rational] records\n",
                 id="compute-threeform-shape"),
    pytest.param(_COMPUTE, _config(T=[[1, 2, 3]]), 2,
                 "error: T: bad record [1, 2, 3]\n", id="compute-record"),
    pytest.param(_COMPUTE, _config(T=[[True, 2, 3, "1"]]), 2,
                 "error: T: indices must be integers in [True, 2, 3, '1']\n",
                 id="compute-index"),
    pytest.param(_COMPUTE, _config(drop=("w",)), 2,
                 "error: missing required field 'w'\n", id="compute-missing-field"),
    pytest.param(_COMPUTE, _config(case="vector_grading"), 3,
                 "error: case requires field 'X'\n", id="compute-case-field-X"),
    pytest.param(_COMPUTE, _config(drop=("T",)), 3,
                 "error: case requires field 'T'\n", id="compute-case-field-T"),
    pytest.param(_COMPUTE, _config(case="nope"), 2,
                 f"error: case must be one of {_CASES}, got 'nope'\n", id="compute-case"),
    pytest.param(_COMPUTE, _config(with_boundary="yes"), 2,
                 "error: with_boundary must be a boolean\n", id="compute-with-boundary"),
    pytest.param(_COMPUTE, _config(numeric_eval=1), 2,
                 "error: numeric_eval must be a boolean\n", id="compute-numeric-eval-type"),
    pytest.param(_COMPUTE, "[1]", 2,
                 "error: configuration must be a JSON object\n", id="compute-not-object"),
    pytest.param(_COMPUTE, _config(case="grading", drop=("T",), with_boundry=True), 2,
                 "error: unknown field 'with_boundry'\n", id="compute-unknown-field"),
    pytest.param(_COMPUTE, _config(u=[_BIG, "0", "0", "0"], v=["0", _BIG, "0", "0"],
                                   w=["0", "0", _BIG, "0"], T=[[1, 2, 3, _BIG]],
                                   numeric_eval=True), 3,
                 "error: numeric_eval: the exact total does not fit a float\n",
                 id="compute-numeric-overflow"),
    # the first bad argument is reported, dimension by dimension
    pytest.param(("verify", "5", "x"), None, 2,
                 "error: dimension must be even with 4 <= n <= 16, got 5\n",
                 id="order-verify-range-first"),
    pytest.param(("verify", "x", "5"), None, 2,
                 f"error: dimension {_GRAMMAR}, got 'x'\n", id="order-verify-parse-first"),
    pytest.param(("moments", "--dim", "1", "--alpha", "x"), None, 2,
                 f"error: --alpha exponent {_GRAMMAR}, got 'x'\n",
                 id="order-moments-parse-before-range"),
]


@pytest.mark.parametrize("argv, config, code, message", _PINNED_ERRORS)
def test_error_messages(tmp_path, capsys, argv, config, code, message):
    path = tmp_path / "job.json"
    if config is not None:
        path.write_text(config if isinstance(config, str) else json.dumps(config),
                        encoding="utf-8")

    def fill(text):
        return text.replace("{path}", str(path)).replace("{dir}", str(tmp_path))

    assert run(capsys, *map(fill, argv)) == (code, "", fill(message))


def test_trace_word(capsys):
    code, out, _ = run(capsys, "trace", "--dim", "4", "e1", "e2", "e3", "e4")
    assert code == 0
    assert "trace = 0" in out
    assert "supertrace = -4" in out


def test_trace_identity(capsys):
    code, out, _ = run(capsys, "trace", "--dim", "4")
    assert code == 0
    assert "trace = 4" in out
    assert "supertrace = 0" in out


def test_trace_repeated_generator(capsys):
    code, out, _ = run(capsys, "trace", "--dim", "6", "e1", "e1")
    assert code == 0
    assert "trace = -8" in out


def test_trace_gamma(capsys):
    code, out, _ = run(capsys, "trace", "--dim", "4", "gamma", "e1", "e2", "e3", "e4")
    assert code == 0
    assert "trace = -4" in out


def test_trace_bad_token_exits_2(capsys):
    code, _, err = run(capsys, "trace", "--dim", "4", "f2")
    assert code == 2


def test_trace_dimension_out_of_range_exits_2(capsys):
    for n, message in (("18", "dimension must be in [2, 16], got 18"),
                       ("0", "dimension must be in [2, 16], got 0"),
                       ("3", "dimension must be even, got 3"),
                       ("17", "dimension must be even, got 17")):
        code, out, err = run(capsys, "trace", "--dim", n, "e1")
        assert (code, out) == (2, "")
        assert err == f"error: --dim: {message}\n"
    code, out, _ = run(capsys, "trace", "--dim", "16", "e16", "e16")
    assert code == 0
    assert "trace = -256" in out


def test_trace_out_of_range_generator_exits_2(capsys):
    code, _, _ = run(capsys, "trace", "--dim", "4", "e7")
    assert code == 2


def test_moments_subcommand(capsys):
    code, out, _ = run(capsys, "moments", "--dim", "4", "--alpha", "4,0,0,0")
    assert code == 0
    assert out.strip() == "1/8*vol(S^3)"


def test_moments_odd_is_zero(capsys):
    code, out, _ = run(capsys, "moments", "--dim", "4", "--alpha", "1,1,0,0")
    assert code == 0
    assert out.strip() == "0"


def test_moments_bad_alpha_exits_2(capsys):
    code, _, _ = run(capsys, "moments", "--dim", "4", "--alpha", "1,2")
    assert code == 2
    # a total degree past the cap
    for alpha in (f"{MAX_MOMENT_DEGREE + 1},0", f"{MAX_MOMENT_DEGREE},1", "400000,0"):
        code, out, err = run(capsys, "moments", "--dim", "2", "--alpha", alpha)
        total = sum(int(a) for a in alpha.split(","))
        assert (code, out) == (2, "")
        assert err == f"error: total degree {total} exceeds {MAX_MOMENT_DEGREE}\n"


def test_moments_at_degree_cap_prints_in_full(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "moments", "--dim", "2", "--alpha", f"{MAX_MOMENT_DEGREE},0")
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    # xi_1^(2k) over S^1 is (2k-1)!!/(2k)!! = C(2k, k)/4^k in units of vol(S^1)
    k = MAX_MOMENT_DEGREE // 2
    with _unlimited_int_str():
        expected = f"{Fraction(math.comb(2 * k, k), 4 ** k)}*vol(S^1)\n"
    assert len(expected) > 4300
    assert out == expected


# Any JSON value: scalars (near-valid strings and small integers among them),
# and arrays and objects of them.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6)
    | st.sampled_from(["0", "1/2", "-3", "1/0", "1.5", "٤", " 1", "T", "grading"]),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=8)


def _mutate(config: dict, data) -> None:
    """One mutation: a field replaced, added or deleted, or one item of a
    list field (a component or a whole 3-form record) or of a 3-form record
    replaced, appended or dropped."""
    key = data.draw(st.sampled_from(sorted(config) + ["extra"]))
    target = config.get(key)
    if isinstance(target, list) and target and data.draw(st.booleans()):
        index = data.draw(st.integers(0, len(target) - 1))
        if isinstance(target[index], list) and target[index] and data.draw(st.booleans()):
            target = target[index]  # a 3-form record
            index = data.draw(st.integers(0, len(target) - 1))
        action = data.draw(st.sampled_from(["replace", "append", "drop"]))
        if action == "replace":
            target[index] = data.draw(_json_values)
        elif action == "append":
            target.append(data.draw(_json_values))
        else:
            del target[index]
    elif data.draw(st.booleans()):
        config[key] = data.draw(_json_values)
    else:
        config.pop(key, None)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_run_compute_mutated_golden_configs_raise_only_known_errors(data):
    """A mutated golden compute config either runs or raises one of the
    three errors the CLI maps to exit 2 or 3, never anything else."""
    name = data.draw(st.sampled_from(sorted(COMPUTE_CONFIGS)))
    config = copy.deepcopy(COMPUTE_CONFIGS[name])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(config, data)
    try:
        payload = run_compute(config, seed=1)
    except (ConfigError, ConsistencyError, UnsupportedDimension):
        return
    assert payload["dimension"] == config["dimension"]
    render_output(payload)


_CONFIG_KEYS = ("dimension", "case", "u", "v", "w", "T", "Y", "X", "with_boundary",
                "numeric_eval")
_component = st.integers(-3, 3) | st.sampled_from(["0", "1/2", "-3", "1/0", "1.5", "٤"])


def _mostly(strategy):
    """`strategy` four times in five, otherwise any JSON value."""
    return st.integers(0, 4).flatmap(lambda k: strategy if k else _json_values)


# Whole documents: any JSON value, with objects keyed mostly by config fields,
# and config-shaped objects whose fields are mostly near-valid.  Lists stay
# short, so only n=4 documents can be valid and run the catalog.
_json_documents = st.recursive(
    _json_values,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(_CONFIG_KEYS) | st.text(max_size=3), inner,
                      max_size=6),
    max_leaves=16) | st.fixed_dictionaries({
        "dimension": _mostly(st.sampled_from([4, 4, 4, 3, 6, 18])),
        "case": _mostly(st.sampled_from(["torsion_vector", "grading", "vector_grading",
                                         "torsion_grading"])),
    }, optional={
        **{key: _mostly(st.lists(_component, min_size=3, max_size=5)) for key in "uvwXY"},
        "T": _mostly(st.lists(st.lists(_component, min_size=3, max_size=5), max_size=3)),
        "with_boundary": _mostly(st.booleans()),
        "numeric_eval": _mostly(st.booleans()),
    })


def _main_compute(path, data: bytes):
    """main(["compute", path]) on a file holding `data`: the exit code and the
    stdout and stderr bytes, the streams encoding like a UTF-8 terminal's.
    Any code but 0 must be 2 or 3 with an error line."""
    path.write_bytes(data)
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["compute", str(path)])
    out.flush()
    err.flush()
    if code != 0:
        assert code in (2, 3)
        assert err.buffer.getvalue().startswith(b"error: ")
    return code, out.buffer.getvalue(), err.buffer.getvalue()


@settings(max_examples=150, deadline=None)
@given(_json_documents)
def test_main_compute_random_documents_exit_with_a_code(tmp_path_factory, document):
    """Any JSON document given to `compute` exits 0, 2 or 3, with a message
    on 2 or 3, and never raises."""
    path = tmp_path_factory.getbasetemp() / "random_document.json"
    code, out, _ = _main_compute(path, json.dumps(document).encode("utf-8"))
    if code == 0:
        assert json.loads(out)["dimension"] == document["dimension"]


@settings(max_examples=150, deadline=None)
@given(st.binary())
@example(b"\xff\xfe")  # not UTF-8
@example(b"[" * 100_000)  # nested past the decoder's recursion limit
def test_main_compute_raw_bytes_exit_with_a_code(tmp_path_factory, data):
    """Any bytes given to `compute`, UTF-8 or not, exit 0, 2 or 3, with a
    message on 2 or 3, and never raise."""
    _main_compute(tmp_path_factory.getbasetemp() / "random_bytes.json", data)


def _dense_config(case: str, n: int, rng: random.Random) -> dict:
    """A compute config with boundary whose every component is a 2-digit
    fraction, T on all C(n, 3) triples where the case has one."""
    def draw():
        return f"{rng.choice((-1, 1)) * rng.randint(10, 99)}/{rng.randint(10, 99)}"

    def row():
        return [draw() for _ in range(n)]
    config = {"dimension": n, "case": case, "u": row(), "v": row(), "w": row(),
              "with_boundary": True, "numeric_eval": False}
    if case in ("torsion_vector", "torsion_grading"):
        config["T"] = [[*abc, draw()] for abc in itertools.combinations(range(1, n + 1), 3)]
    if case == "torsion_vector":
        config["Y"] = row()
    if case == "vector_grading":
        config["X"] = row()
    return config


def test_run_compute_n16_all_cases_with_boundary_time_bound():
    """run_compute at n=16 with boundary on dense 2-digit inputs, one job per
    case, timed together: each job runs the density, the boundary addend and
    the whole identity catalog.

    On the fractions backend (2-vCPU VM) the four took 1.63-1.76 s in
    three full-suite runs; the bound is about 2.6x the slowest.
    """
    rng = random.Random("compute-n16-boundary")
    configs = [_dense_config(case, 16, rng) for case in
               ("torsion_vector", "grading", "vector_grading", "torsion_grading")]
    start = time.monotonic()
    payloads = [run_compute(config, seed=1) for config in configs]
    elapsed = time.monotonic() - start
    assert all(payload["matches"] is True for payload in payloads)
    assert elapsed < 4.5, f"four n=16 compute jobs with boundary took {elapsed:.2f}s on " \
        f"{Rational.__module__}.{Rational.__name__}"
