"""Tracing wrappers, their self-check and the per-layer metric names."""

import json
from pathlib import Path

import pytest

import run
import tracing

ROOT = Path(__file__).resolve().parents[2]
COUNTS = ("clifford.mv_mul.calls", "clifford.mv_mul.blade_pairs",
          "clifford.mv_mul.out_blades", "clifford.trace.calls", "forms.to_clifford.calls",
          "moments.integrate_sphere.xi_terms", "moments.moment.calls",
          "symbols.sigma_minus2m.blade_coeffs", "halfline.boundary_density.calls",
          "verify.verify_suite.calls", "verify.rows_mismatched", "cli.output_bytes")


def _traced_counts(jobs):
    with tracing.Tracer() as tracer:
        outcomes = run.run_passes(jobs, run.run_in_process, 0, float("inf"))
    assert all(not outcome.errors for _, outcome in outcomes)
    metrics = tracing.layer_metrics(tracer)
    return {name: metrics[name] for name in COUNTS}, tracer


@pytest.fixture(scope="module")
def small_jobs(tmp_path_factory):
    """n <= 6 density jobs and the n = 4 CLI jobs of one seed."""
    density, _, _ = run.setup("density_api", 5, tmp_path_factory.mktemp("d"), True)
    cli, _, _ = run.setup("cli_jobs", 5, tmp_path_factory.mktemp("c"), True)
    return ([job for job in density if job.n <= 6],
            [job for job in cli if job.n == 4][:3])


def test_work_counts_repeat_exactly(small_jobs):
    density, cli = small_jobs
    first, tracer = _traced_counts(density)
    second, _ = _traced_counts(density)
    assert first == second
    assert first["clifford.mv_mul.blade_pairs"] > 0
    assert tracing.check_layers(tracer, "density_api") == []
    assert first["verify.verify_suite.calls"] == 0

    first, tracer = _traced_counts(cli)
    second, _ = _traced_counts(cli)
    assert first == second
    assert first["verify.verify_suite.calls"] > 0


def test_every_binding_is_wrapped_and_restored():
    from spectral_torsion import clifford, halfline, symbols, verify

    original = clifford.mv_mul
    with tracing.Tracer():
        assert clifford.mv_mul is not original
        for module in (symbols, halfline, verify):
            assert module.mv_mul is clifford.mv_mul
    for module in (clifford, symbols, halfline, verify):
        assert module.mv_mul is original


def test_layer_without_calls_fails_the_check():
    tracer = tracing.Tracer()
    errors = tracing.check_layers(tracer, "cli_jobs")
    assert len(errors) == len(tracing.DENSITY_LAYERS + tracing.CLI_LAYERS)
    assert any("clifford.mv_mul" in error for error in errors)
    tracer.stats["verify.verify_suite"] = tracing.SpanStats(calls=1)
    assert any("verify_suite ran" in e for e in tracing.check_layers(tracer, "density_api"))


def test_row_ids_match_the_catalog():
    from spectral_torsion.verify import IDENTITY_IDS
    assert tracing.ROW_IDS == IDENTITY_IDS


def test_benchmark_json_names_match_the_output():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    names = ([name for name, *_ in tracing.KERNELS]
             + list(tracing.layer_metrics(tracing.Tracer()))
             + ["cli.process_start_s", "trace_overhead_ratio"])
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(run.REPLICAS)
