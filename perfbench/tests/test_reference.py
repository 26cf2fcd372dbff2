"""The independent reference checker against the library and against bad results."""

import copy
import json
import random

import pytest

import reference
import run

CASES = run.CASES


def _blocks(config):
    from spectral_torsion.torsion import spectral_torsion
    return run.report_blocks(spectral_torsion(*run.build_inputs(config)))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("n", (4, 6))
def test_reference_agrees_with_library(case, n):
    rng = random.Random(f"{case}-{n}")
    for boundary in (False, True):
        for _ in range(2):
            config = run.make_config(rng, case, n, boundary)
            assert reference.check_density(config, _blocks(config)) == []


def test_torsion_grading_n4_pipeline_is_zero_and_unmatched():
    config = run.make_config(random.Random(1), "torsion_grading", 4, False)
    expected = reference.expected_density(config)
    assert expected["interior"] == {}
    assert expected["theorem"] != {}
    assert expected["matches"] is False


def test_altered_canonical_value_is_a_failure():
    config = run.make_config(random.Random(2), "torsion_vector", 4, True)
    blocks = _blocks(config)
    altered = copy.deepcopy(blocks)
    term = altered["total"]["terms"][0]
    term["coeff"] = term["coeff"] + "+1 i" if not term["coeff"].endswith("i") else "7/3"
    assert reference.check_density(config, altered)
    flipped = dict(blocks, matches=not blocks["matches"])
    assert reference.check_density(config, flipped)

    job = run.Job("density", 4, config)
    assert run._checked(job, json.dumps(blocks), 0) == []
    assert run._checked(job, json.dumps(altered), 0)
    assert run._checked(job, json.dumps(blocks), 1)
    assert run._checked(job, "not json", 0)
    assert run._checked(job, json.dumps({"interior": {}}), 0)


def test_verify_ledger_and_exit_codes():
    from spectral_torsion import cli
    import contextlib
    import io

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        exit_code = cli.main(["verify", "4", "--json"])
    payload = json.loads(buffer.getvalue())
    assert reference.check_verify(4, payload, exit_code) == []
    assert reference.check_verify(4, payload, 0)

    rows = payload["results"][0]["rows"]
    healed = copy.deepcopy(payload)
    for row in healed["results"][0]["rows"]:
        if row["id"] == "E4.20":
            row["matches"] = True
    assert reference.check_verify(4, healed, exit_code)
    assert reference.check_ledger(4, rows) == []
    assert reference.check_ledger(6, rows)


@pytest.mark.parametrize("text, value", [
    ("3/4", (3, 4, 0, 1)), ("-2", (-2, 1, 0, 1)), ("1 i", (0, 1, 1, 1)),
    ("-1 i", (0, 1, -1, 1)), ("-5/6 i", (0, 1, -5, 6)),
    ("1/2+3/4 i", (1, 2, 3, 4)), ("-1/2-3 i", (-1, 2, -3, 1)),
])
def test_parse_gaussian(text, value):
    from fractions import Fraction
    re, im = reference.parse_gaussian(text)
    assert (re, im) == (Fraction(value[0], value[1]), Fraction(value[2], value[3]))
