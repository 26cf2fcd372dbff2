"""The report of tools/bench_pairs.py, on canned benchmark result lines; no
benchmark is run."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"jobs_per_s": "higher", "job_p50_s": "lower"}


def _stdout(p50, rate, correct=True, failed=0):
    """A run's stdout as perfbench/run.py prints it: metric lines, then the
    JSON result on the last line."""
    result = {"correct": correct, "attempted": 72, "failed": failed,
              "metrics": {"jobs_per_s": {"value": rate, "unit": "1/s"},
                          "job_p50_s": {"value": p50, "unit": "s"},
                          "peak_rss_mb": {"value": 30.0, "unit": "MB"}}}
    return (f"meta {{\"seed\": 1}}\ndensity_api job_p50_s {p50} s\n"
            f"{json.dumps(result)}\n\n")


def test_parse_result_reads_the_last_line():
    result = bench_pairs.parse_result(_stdout(0.0006, 1000))
    assert result["correct"] is True
    assert result["metrics"]["job_p50_s"]["value"] == 0.0006
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n \n")


def test_summary_counts_the_pairs_the_change_won_in_each_direction():
    runs = [((0.00064, 980), (0.00055, 1030)), ((0.00062, 990), (0.00056, 985)),
            ((0.00060, 1000), (0.00061, 1010))]
    pairs = [tuple(bench_pairs.parse_result(_stdout(*side)) for side in pair)
             for pair in runs]
    lines = bench_pairs.summary_lines(pairs, BETTER)
    rows = {line.split()[0]: line.split() for line in lines[1:-1]}
    # jobs_per_s: higher wins in pairs 1 and 3; job_p50_s: lower wins in 1 and 2.
    # Spread: base jobs_per_s 980, 990, 1000 has quartiles 985 and 995, so 10/990
    assert rows["jobs_per_s"][1:] == ["higher", "990", "0.010", "1010", "0.022", "2/3"]
    assert rows["job_p50_s"][1:] == ["lower", "0.00062", "0.032", "0.00056", "0.054", "2/3"]
    assert "peak_rss_mb" not in rows  # not an end-to-end metric of BETTER
    assert lines[-1] == "pairs with both runs correct: 3/3"


def test_spread_is_the_interquartile_range_over_the_median():
    # inclusive quartiles of 1..5 are 2 and 4, the median 3
    assert bench_pairs.spread([5, 1, 3, 2, 4]) == pytest.approx(2 / 3)
    assert bench_pairs.spread([0.2, 0.25]) == pytest.approx(0.025 / 0.225)
    assert bench_pairs.spread([7.0]) == 0.0
    # a noisy side reads wider than a steady one with the same median
    assert bench_pairs.spread([0.19, 0.21, 0.22, 0.25, 0.26]) > \
        bench_pairs.spread([0.215, 0.218, 0.22, 0.222, 0.224])


def test_pair_lines_show_correct_and_failed_jobs():
    base = bench_pairs.parse_result(_stdout(0.0006, 1000))
    change = bench_pairs.parse_result(_stdout(0.0005, 1100, correct=False, failed=2))
    lines = bench_pairs.pair_lines(4, 504, base, change, BETTER)
    assert lines == [
        "pair 4 seed 504 base   correct=True failed=0/72 jobs_per_s=1000 job_p50_s=0.0006",
        "pair 4 seed 504 change correct=False failed=2/72 jobs_per_s=1100 job_p50_s=0.0005",
    ]
    summary = bench_pairs.summary_lines([(base, change)], BETTER)
    assert summary[-1] == "pairs with both runs correct: 0/1"


def test_directions_and_command_follow_the_benchmark_declaration():
    declared = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    better = bench_pairs.better_directions(declared)
    assert better["job_p50_s"] == "lower" and better["jobs_per_s"] == "higher"
    command = bench_pairs.run_command("cli_jobs", 7, 5.0)
    assert command[1:] == ["perfbench/run.py", "--workload", "cli_jobs", "--seed", "7",
                           "--seconds", "5.0", "--trace", "0"]
