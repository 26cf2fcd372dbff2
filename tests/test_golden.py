"""Golden CLI outputs: stdout bytes and exit codes of fixed invocations.

Each case runs `cli.main` in process and compares what it writes to stdout,
byte for byte, and its exit code against the files under `tests/golden/`;
the cases with non-ASCII output also run in a fresh process whose stdout
encoding is ASCII or Latin-1.
The goldens pin the public output while the internals change; regenerate
them only for an intended output change, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spectral_torsion.cli import main

GOLDEN = Path(__file__).parent / "golden"

_U = ["1/2", "-1", "0", "2"]
_V = ["0", "3/4", "1", "-1"]
_W = ["2", "0", "-1/3", "1"]
_T = [[1, 2, 3, "1"], [1, 2, 4, "-2/3"], [1, 3, 4, "1/2"], [2, 3, 4, "3"]]
_CASE_FIELDS = {
    "torsion_vector": {"T": _T, "Y": ["1", "0", "-1", "1/2"]},
    "grading": {},
    "vector_grading": {"X": ["0", "1", "-2", "1/3"]},
    "torsion_grading": {"T": _T},
}


def _compute_configs() -> dict:
    """name -> n=4 job: every case, with and without boundary."""
    configs = {}
    for case, fields in _CASE_FIELDS.items():
        for boundary in (False, True):
            name = f"compute_{case}" + ("_boundary" if boundary else "")
            configs[name] = {"dimension": 4, "case": case,
                             "u": _U, "v": _V, "w": _W, **fields,
                             "with_boundary": boundary,
                             "numeric_eval": case == "torsion_vector" and boundary}
    return configs


# n=6 jobs: a 3-form and vectors with mixed denominators touch every grade
_U6 = ["1/2", "-1", "0", "2", "5/7", "-3/11"]
_V6 = ["0", "3/4", "1", "-1", "2/9", "1/13"]
_W6 = ["2", "0", "-1/3", "1", "-4/5", "7/6"]
_T6 = [[1, 2, 3, "1"], [1, 2, 6, "-2/3"], [1, 4, 5, "5/8"], [2, 3, 4, "3"],
       [2, 5, 6, "-7/10"], [3, 4, 6, "1/9"], [4, 5, 6, "-11/4"]]


def _compute_configs_6() -> dict:
    """name -> n=6 job: torsion_vector with boundary, torsion_grading without."""
    base = {"dimension": 6, "u": _U6, "v": _V6, "w": _W6, "numeric_eval": False}
    return {
        "compute_torsion_vector_boundary_6": {
            **base, "case": "torsion_vector", "T": _T6,
            "Y": ["1", "0", "-1", "1/2", "-5/3", "2/7"], "with_boundary": True},
        "compute_torsion_grading_6": {
            **base, "case": "torsion_grading", "T": _T6, "with_boundary": False},
    }


COMPUTE_CONFIGS = {**_compute_configs(), **_compute_configs_6()}

# name -> argv after the compute cases, whose config path is filled in per run
OTHER_ARGV = {
    "verify_4_json": ["verify", "4", "--json"],
    "verify_4": ["verify", "4"],
    "trace_4_e1_gamma": ["trace", "--dim", "4", "e1", "gamma"],
    "trace_2_e1_e2_gamma": ["trace", "--dim", "2", "e1", "e2", "gamma"],
    "moments_4_2200": ["moments", "--dim", "4", "--alpha", "2,2,0,0"],
    "verify_6_json": ["verify", "6", "--json"],
}

CASES = tuple(COMPUTE_CONFIGS) + tuple(OTHER_ARGV)


def run_case(name: str, workdir: Path) -> tuple[bytes, int]:
    """(stdout bytes, exit code) of one golden invocation."""
    if name in COMPUTE_CONFIGS:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(COMPUTE_CONFIGS[name]), encoding="utf-8")
        argv = ["compute", str(path)]
    else:
        argv = OTHER_ARGV[name]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return buffer.getvalue().encode("utf-8"), code


def _expected_exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", CASES)
def test_golden_output(name, tmp_path, monkeypatch):
    monkeypatch.delenv("SPECTRAL_TORSION_SEED", raising=False)
    out, code = run_case(name, tmp_path)
    assert code == _expected_exit_codes()[name]
    assert out == (GOLDEN / f"{name}.out").read_bytes()


# invocations whose stdout holds non-ASCII text (the row id T4.8γ)
UTF8_CASES = ("compute_grading", "verify_4", "verify_4_json")


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
@pytest.mark.parametrize("name", UTF8_CASES)
def test_golden_output_is_utf8_whatever_the_stdout_encoding(name, encoding, tmp_path):
    """A fresh process whose stdout encoding cannot write the output still
    writes the golden bytes, UTF-8, and exits with the golden code."""
    if name in COMPUTE_CONFIGS:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(COMPUTE_CONFIGS[name]), encoding="utf-8")
        argv = ["compute", str(path)]
    else:
        argv = OTHER_ARGV[name]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {key: value for key, value in os.environ.items() if key != "SPECTRAL_TORSION_SEED"}
    env.update(PYTHONIOENCODING=encoding,
               PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", "spectral_torsion.cli", *argv],
                            env=env, capture_output=True, timeout=60)
    assert (result.returncode, result.stderr) == (_expected_exit_codes()[name], b"")
    assert result.stdout == (GOLDEN / f"{name}.out").read_bytes()


if __name__ == "__main__":
    import tempfile

    os.environ.pop("SPECTRAL_TORSION_SEED", None)
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            out, codes[case] = run_case(case, Path(tmp))
            (GOLDEN / f"{case}.out").write_bytes(out)
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2) + "\n", encoding="utf-8")
