"""The report of tools/bench_pairs.py, on canned benchmark result lines, and
the checkouts it runs in; no benchmark is run."""

from __future__ import annotations

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BETTER = {"jobs_per_s": "higher", "job_p50_s": "lower"}
BOUNDS = {"jobs_per_s": 0.25, "job_p50_s": 0.25}


def _stdout(p50, rate, correct=True, failed=0, speed=1.5):
    """A run's stdout as perfbench/run.py prints it: metric lines, the
    wall-clock note (none when speed is None), then the JSON result on the
    last line."""
    result = {"correct": correct, "attempted": 72, "failed": failed,
              "metrics": {"jobs_per_s": {"value": rate, "unit": "1/s"},
                          "job_p50_s": {"value": p50, "unit": "s"},
                          "peak_rss_mb": {"value": 30.0, "unit": "MB"}}}
    note = "" if speed is None else (
        f"density_api wall clock: jobs_per_s {rate * speed:.6g}, job_p50_s "
        f"{p50 / speed:.6g}, job_tail_s 0.002, CPU speed {speed} of the reference\n")
    return (f"meta {{\"seed\": 1}}\ndensity_api job_p50_s {p50} s\n"
            f"density_api job_tail_s is p98.6 of 72 jobs\n{note}"
            f"{json.dumps(result)}\n\n")


def test_parse_result_reads_the_last_line():
    result = bench_pairs.parse_result(_stdout(0.0006, 1000))
    assert result["correct"] is True
    assert result["metrics"]["job_p50_s"]["value"] == 0.0006
    assert result["speed"] == 1.5
    assert bench_pairs.parse_result(_stdout(0.0006, 1000, speed=None))["speed"] is None
    with pytest.raises(ValueError):
        bench_pairs.parse_result("\n \n")


def _split(summary):
    """(metric rows, the lines after them) of a summary, its header left out."""
    end = next(i for i, line in enumerate(summary) if line.startswith("pairs with both runs"))
    return summary[1:end], summary[end:]


def test_summary_counts_the_pairs_the_change_won_in_each_direction():
    runs = [((0.00064, 980), (0.00055, 1030)), ((0.00062, 990), (0.00056, 985)),
            ((0.00060, 1000), (0.00061, 1010))]
    pairs = [tuple(bench_pairs.parse_result(_stdout(*side)) for side in pair)
             for pair in runs]
    lines = bench_pairs.summary_lines(pairs, BETTER, BOUNDS)
    table, tail = _split(lines)
    rows = {line.split()[0]: line.split() for line in table}
    # jobs_per_s: higher wins in pairs 1 and 3; job_p50_s: lower wins in 1 and 2.
    # Spread: base jobs_per_s 980, 990, 1000 has quartiles 985 and 995, so 10/990
    assert rows["jobs_per_s"][1:] == ["higher", "990", "0.010", "1010", "0.022", "2/3", "same"]
    assert rows["job_p50_s"][1:] == ["lower", "0.00062", "0.032", "0.00056", "0.054", "2/3",
                                     "same"]
    assert "peak_rss_mb" not in rows  # not an end-to-end metric of BETTER
    assert tail[0] == "pairs with both runs correct: 3/3"


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
        "pair 4 seed 504 base   correct=True failed=0/72 jobs_per_s=1000 job_p50_s=0.0006 "
        "speed=1.5",
        "pair 4 seed 504 change correct=False failed=2/72 jobs_per_s=1100 job_p50_s=0.0005 "
        "speed=1.5",
    ]
    summary = bench_pairs.summary_lines([(base, change)], BETTER, BOUNDS)
    assert _split(summary)[1][0] == "pairs with both runs correct: 0/1"


def test_pair_lines_and_summary_show_each_runs_cpu_speed():
    """The speed of each run's wall-clock note is printed beside its metrics,
    and each side's median speed closes the summary; a run without the note
    prints "?" and is left out of its side's median."""
    runs = [((0.00064, 980, 1.1), (0.00055, 1030, 2.3)),
            ((0.00062, 990, 1.2), (0.00056, 985, None)),
            ((0.00060, 1000, 1.6), (0.00061, 1010, 1.9))]
    pairs = [tuple(bench_pairs.parse_result(_stdout(p50, rate, speed=speed))
                   for p50, rate, speed in pair) for pair in runs]
    lines = bench_pairs.pair_lines(1, 401, *pairs[0], BETTER)
    assert [line.split()[-1] for line in lines] == ["speed=1.1", "speed=2.3"]
    assert bench_pairs.pair_lines(2, 402, *pairs[1], BETTER)[1].endswith(" speed=?")
    rows, tail = _split(bench_pairs.summary_lines(pairs, BETTER, BOUNDS))
    assert tail[1] == "median CPU speed of the reference: base 1.2, change 2.1"
    assert tail[2] == "steady pairs: 1/3; drifted: 1, 3"
    # the verdict rows are the same as on runs that printed no speed
    plain = [tuple(bench_pairs.parse_result(_stdout(p50, rate, speed=None))
                   for p50, rate, _ in pair) for pair in runs]
    bare_rows, bare_tail = _split(bench_pairs.summary_lines(plain, BETTER, BOUNDS))
    assert (bare_rows, bare_tail[0]) == (rows, tail[0])
    assert bare_tail[1] == "median CPU speed of the reference: base ?, change ?"
    assert bare_tail[2] == "steady pairs: 3/3; drifted: none"


def test_directions_and_command_follow_the_benchmark_declaration():
    declared = json.loads((_PATH.parent.parent / "BENCHMARK.json").read_text())
    better = bench_pairs.better_directions(declared)
    assert better["job_p50_s"] == "lower" and better["jobs_per_s"] == "higher"
    bounds = bench_pairs.declared_bounds(declared)
    assert bounds.keys() == better.keys()
    assert all(0 < bound < 1 for bound in bounds.values())
    command = bench_pairs.run_command("cli_jobs", 7, 5.0)
    assert command[1:] == ["perfbench/run.py", "--workload", "cli_jobs", "--seed", "7",
                           "--seconds", "5.0", "--trace", "0"]


def _sides(bases, changes):
    return list(zip(bases, changes))


_STEADY = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_verdict_worse_past_the_bound_even_when_noisy():
    # change median 1.30 against 1.00: 30% worse, past a 25% bound
    assert bench_pairs.verdict(_sides(_STEADY, [x * 1.3 for x in _STEADY]), "lower", 0.25) \
        == "worse"
    # jobs_per_s falls from 1000 to 700: worse when higher is better
    assert bench_pairs.verdict(_sides([1000] * 10, [700] * 10), "higher", 0.25) == "worse"
    noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 1.0, 0.7, 1.3, 0.8, 1.2]
    assert bench_pairs.verdict(_sides(noisy, [2.0] * 10), "lower", 0.25) == "worse"


def test_verdict_unresolved_when_the_base_spread_exceeds_the_bound():
    noisy = [0.5, 1.5, 0.6, 1.4, 1.0, 1.0, 0.7, 1.3, 0.8, 1.2]  # spread 0.55
    assert bench_pairs.spread(noisy) > 0.25
    # a change 10% better in every pair, but not below every base run
    assert bench_pairs.verdict(_sides(noisy, [x * 0.9 for x in noisy]), "lower", 0.25) \
        == "unresolved"
    # every change run beats every base run: the noise cannot explain it
    assert bench_pairs.verdict(_sides(noisy, [0.4] * 10), "lower", 0.25) == "better"


def test_verdict_better_needs_nine_in_ten_and_a_gap_past_the_base_iqr():
    faster = [x - 0.05 for x in _STEADY]  # wins all 10; the gap 0.05 exceeds the IQR
    assert bench_pairs.verdict(_sides(_STEADY, faster), "lower", 0.25) == "better"
    nine = faster[:9] + [_STEADY[9] + 0.01]
    assert bench_pairs.verdict(_sides(_STEADY, nine), "lower", 0.25) == "better"
    eight = faster[:8] + [x + 0.01 for x in _STEADY[8:]]
    assert bench_pairs.verdict(_sides(_STEADY, eight), "lower", 0.25) == "same"
    # wins all 10 by 0.001, inside the base IQR of 0.015
    barely = [x - 0.001 for x in _STEADY]
    assert bench_pairs.verdict(_sides(_STEADY, barely), "lower", 0.25) == "same"
    more = [x + 50 for x in [1000] * 10]
    assert bench_pairs.verdict(_sides([1000] * 10, more), "higher", 0.25) == "better"


@pytest.mark.parametrize("count, expected", [(1, "same"), (3, "same"), (10, "better")])
def test_verdict_better_needs_ten_pairs(count, expected):
    """One pair wins 1/1 with an IQR of 0, and three win 3/3: neither shows
    9 in 10, so only the side of ten pairs reads better."""
    bases = _STEADY[:count]
    assert bench_pairs.verdict(_sides(bases, [x - 0.05 for x in bases]), "lower", 0.25) \
        == expected
    assert bench_pairs.verdict([(1.0, 0.999)] * count, "lower", 0.25) == expected


def test_verdict_same_on_equal_runs_and_small_losses():
    assert bench_pairs.verdict(_sides(_STEADY, _STEADY), "lower", 0.25) == "same"
    slower = [x * 1.2 for x in _STEADY]  # 20% worse, inside a 25% bound
    assert bench_pairs.verdict(_sides(_STEADY, slower), "lower", 0.25) == "same"
    assert bench_pairs.verdict(_sides(_STEADY, slower), "lower", 0.05) == "worse"


def _verdicts(runs) -> dict:
    """{metric: verdict} of the summary over (base, change) _stdout argument pairs."""
    pairs = [tuple(bench_pairs.parse_result(_stdout(**side)) for side in pair) for pair in runs]
    return {line.split()[0]: line.split()[-1]
            for line in _split(bench_pairs.summary_lines(pairs, BETTER, BOUNDS))[0]}


def test_a_broken_run_makes_every_verdict_invalid():
    """Ten pairs in which the change is 10% faster read better; one run that
    is not correct, on either side, or one change run that fails a larger
    share of its jobs than its base turns every metric invalid.  Equal
    failures on both sides leave the verdicts as they are."""
    base, change = {"p50": 0.0006, "rate": 1000}, {"p50": 0.00054, "rate": 1100}
    runs = [(dict(base), dict(change)) for _ in range(10)]
    assert _verdicts(runs) == {"jobs_per_s": "better", "job_p50_s": "better"}
    invalid = {"jobs_per_s": "invalid", "job_p50_s": "invalid"}
    for side, broken in ((1, {"correct": False}), (0, {"correct": False}),
                         (1, {"failed": 2}), (1, {"correct": False, "failed": 2})):
        runs_broken = [list(pair) for pair in runs]
        runs_broken[3][side] = {**runs_broken[3][side], **broken}
        assert _verdicts(runs_broken) == invalid, (side, broken)
    # the base failing more, or both sides failing alike, is no reason to refuse
    both = [({**b, "failed": 2}, {**c, "failed": 2}) for b, c in runs]
    assert _verdicts(both) == {"jobs_per_s": "better", "job_p50_s": "better"}
    base_worse = [({**b, "failed": 3}, c) for b, c in runs]
    assert _verdicts(base_worse) == {"jobs_per_s": "better", "job_p50_s": "better"}


def test_better_is_read_only_from_pairs_whose_runs_kept_one_cpu_speed():
    """Ten pairs in which the change won every steady pair read better over
    all pairs.  One base run at CPU speed 1.71, against 2.45 for the other 19
    runs, drifts its pair; the 9 steady pairs left are too few for better, so
    the metrics read unresolved.  An eleventh steady pair restores better,
    and a run that printed no speed drifts no pair."""
    base, change = {"p50": 0.0006, "rate": 1000}, {"p50": 0.00057, "rate": 1050}
    runs = [({**base, "speed": 2.45}, {**change, "speed": 2.45}) for _ in range(10)]
    runs[3] = ({"p50": 0.00086, "rate": 700, "speed": 1.71}, {**change, "speed": 2.45})
    unresolved = {"jobs_per_s": "unresolved", "job_p50_s": "unresolved"}
    assert _verdicts(runs) == unresolved
    better = {"jobs_per_s": "better", "job_p50_s": "better"}
    assert _verdicts(runs + [runs[0]]) == better
    assert _verdicts([(b, c) if b["speed"] > 2 else ({**b, "speed": None}, c)
                      for b, c in runs]) == better
    assert 2.45 - 1.71 > bench_pairs.MAX_SPEED_DRIFT * 2.45 > 2.45 - 2.24


def test_summary_counts_the_steady_pairs_and_names_the_drifted_ones():
    """Ten pairs, three of them drifted (pairs 2, 5 and 9): the summary prints
    7/10 steady pairs with the drifted indices, and a last line saying that no
    metric could read better from them.  Ten steady pairs print no such line."""
    base, change = {"p50": 0.0006, "rate": 1000}, {"p50": 0.00054, "rate": 1100}
    runs = [({**base, "speed": 2.45}, {**change, "speed": 2.45}) for _ in range(10)]
    for index in (1, 4, 8):
        runs[index] = ({**base, "speed": 1.71}, {**change, "speed": 2.45})
    pairs = [tuple(bench_pairs.parse_result(_stdout(**side)) for side in pair) for pair in runs]
    rows, tail = _split(bench_pairs.summary_lines(pairs, BETTER, BOUNDS))
    assert tail[2:] == ["steady pairs: 7/10; drifted: 2, 5, 9",
                        "no metric could read better from 7 steady pairs, fewer than 10: "
                        "more seeds are needed"]
    assert all(row.split()[-1] != "better" for row in rows)
    steady = [(b, {**c, "speed": b["speed"]}) for b, c in runs]
    pairs = [tuple(bench_pairs.parse_result(_stdout(**side)) for side in pair) for pair in steady]
    rows, tail = _split(bench_pairs.summary_lines(pairs, BETTER, BOUNDS))
    assert tail[2:] == ["steady pairs: 10/10; drifted: none"]
    assert [row.split()[-1] for row in rows] == ["better", "better"]


def test_source_lines_count_the_package_modules_as_wc_does(tmp_path):
    package = tmp_path / "src" / "spectral_torsion"
    (package / "sub").mkdir(parents=True)
    (package / "__init__.py").write_text("a = 1\nb = 2\n")
    (package / "core.py").write_text("x = 1\n\n\ny = 2")  # 3 newlines, no final one
    (package / "notes.txt").write_text("not\ncounted\n")
    (package / "sub" / "deep.py").write_text("not = 'counted'\n")
    (tmp_path / "tools.py").write_text("outside = True\n")
    assert bench_pairs.module_lines(tmp_path) == {"__init__.py": 2, "core.py": 3}
    assert bench_pairs.module_lines(tmp_path / "empty") == {}


def test_lines_line_names_each_module_whose_count_changed(tmp_path):
    """The totals, their difference, then every module whose newline count
    differs, in name order, a module missing from one tree counted as 0."""
    trees = {"base": {"core.py": "a\nb\nc\n", "gone.py": "x\n", "same.py": "s\n"},
             "change": {"core.py": "a\n", "new.py": "y\nz\n", "same.py": "t\n"}}
    for side, files in trees.items():
        package = tmp_path / side / "src" / "spectral_torsion"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
    assert bench_pairs.lines_line(bench_pairs.line_counts(tmp_path / "base",
                                                          tmp_path / "change")) == (
        "src/spectral_torsion/*.py lines: base 5, change 4, difference -1; "
        "changed: core.py 3 -> 1, gone.py 1 -> 0, new.py 0 -> 2")
    assert bench_pairs.lines_line(bench_pairs.line_counts(tmp_path / "base",
                                                          tmp_path / "base")).endswith(
        "difference +0; changed: none")


def test_an_undeclared_workload_exits_2_before_any_checkout(monkeypatch, capsys):
    """--workload takes its choices from BENCHMARK.json's workloads, so a
    misspelt name stops in argparse, before a directory is made."""
    def refuse(*args, **kwargs):
        raise AssertionError("mkdtemp called")
    monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp", refuse)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["HEAD", "--workload", "density-api", "--seeds", "1",
                          "--seconds", "1"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "argument --workload: invalid choice: 'density-api'" in err
    assert "density_api" in err and "cli_jobs" in err  # the declared names


def test_an_unknown_base_revision_exits_2_before_any_checkout(monkeypatch, capsys):
    """A base that git cannot resolve to a commit stops with an error line,
    before a directory is made or anything is extracted."""
    def refuse(*args, **kwargs):
        raise AssertionError("mkdtemp called")
    monkeypatch.setattr(bench_pairs.tempfile, "mkdtemp", refuse)
    monkeypatch.setattr(bench_pairs, "_extract", refuse)
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(["nosuchrev", "--workload", "density_api", "--seeds", "1",
                          "--seconds", "1"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "error: base: 'nosuchrev' is not a commit that git knows" in err
    assert "Traceback" not in err


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.invalid",
                    "-c", "commit.gpgsign=false", *args],
                   cwd=repo, check=True, capture_output=True)


def test_both_sides_run_from_fresh_copies_without_bytecode(tmp_path, monkeypatch):
    """Neither side runs in the repository itself: the base is an extract and
    the change a copy of the working tree's tracked and untracked files,
    with no __pycache__ and no ignored file.  Both copies are gone at the
    end."""
    repo = tmp_path / "repo"
    package = repo / "src" / "spectral_torsion"
    (package / "__pycache__").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text((_PATH.parent.parent / "BENCHMARK.json").read_text())
    (repo / ".gitignore").write_text("ignored.txt\n")
    (package / "core.py").write_text("x = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "base")  # the base must name a commit
    (package / "new.py").write_text("y = 2\nz = 3\n")  # untracked
    (package / "__pycache__" / "core.cpython-311.pyc").write_bytes(b"stale")
    (repo / "ignored.txt").write_text("left behind by a run\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)

    def extract(revision, target):
        (target / "src" / "spectral_torsion").mkdir(parents=True)
        (target / "src" / "spectral_torsion" / "core.py").write_text("x = 1\n")
    monkeypatch.setattr(bench_pairs, "_extract", extract)
    seen = []

    def run(checkout, command):
        seen.append((checkout, sorted(str(path.relative_to(checkout))
                                      for path in checkout.rglob("*") if path.is_file())))
        return bench_pairs.parse_result(_stdout(0.0006, 1000))
    monkeypatch.setattr(bench_pairs, "_run", run)
    assert bench_pairs.main(["HEAD", "--workload", "density_api", "--seeds", "1", "2",
                             "--seconds", "1"]) == 0
    checkouts = {checkout for checkout, _ in seen}
    assert len(seen) == 4 and len(checkouts) == 2
    assert not checkouts & {repo, bench_pairs.ROOT, _PATH.parent.parent}
    copied = [files for _, files in seen if "src/spectral_torsion/new.py" in files]
    assert len(copied) == 2 and all(files == [".gitignore", "BENCHMARK.json", "src/spectral_torsion/core.py",
                                    "src/spectral_torsion/new.py"] for files in copied)
    assert not any(checkout.exists() for checkout in checkouts)


def _canned_pairs():
    """Three pairs of canned runs, the second drifted (CPU speed 1.1 against 2.3)."""
    runs = [((0.00064, 980, 2.3), (0.00055, 1030, 2.3)),
            ((0.00062, 990, 1.1), (0.00056, 985, 2.3)),
            ((0.00060, 1000, None), (0.00061, 1010, 1.9))]
    return [tuple(bench_pairs.parse_result(_stdout(p50, rate, speed=speed))
                  for p50, rate, speed in pair) for pair in runs]


def test_record_holds_each_pair_and_the_printed_summary():
    """The record keeps the settings, each pair's sides with their steadiness,
    the rows that the summary prints and the line counts, as JSON data."""
    pairs = _canned_pairs()
    counts = {"base": 5, "change": 4, "difference": -1, "changed": {"core.py": [3, 2]}}
    change = {"commit": "c" * 40, "dirty": True}
    entry = bench_pairs.record("b" * 40, change, "density_api", [401, 402, 403], 5.0, pairs,
                               BETTER, BOUNDS, counts)
    assert json.loads(json.dumps(entry)) == entry
    assert (entry["base"], entry["change"], entry["workload"], entry["seeds"],
            entry["seconds"], entry["lines"]) == ("b" * 40, change, "density_api",
                                                  [401, 402, 403], 5.0, counts)
    assert [pair["seed"] for pair in entry["pairs"]] == [401, 402, 403]
    assert [pair["steady"] for pair in entry["pairs"]] == [True, False, True]
    assert entry["pairs"][1]["base"] == {"correct": True, "failed": 0, "attempted": 72,
                                         "speed": 1.1,
                                         "metrics": {"jobs_per_s": 990, "job_p50_s": 0.00062}}
    assert entry["pairs"][2]["base"]["speed"] is None
    assert entry["pairs"][0]["change"]["metrics"] == {"jobs_per_s": 1030, "job_p50_s": 0.00055}
    table, _ = _split(bench_pairs.summary_lines(pairs, BETTER, BOUNDS))
    printed = {line.split()[0]: line.split()[1:] for line in table}
    for row in entry["metrics"]:
        direction, base, base_spread, change_median, change_spread, won, reading = \
            printed[row["metric"]]
        assert (row["better"], f"{row['won']}/{row['pairs']}", row["verdict"]) == \
            (direction, won, reading)
        assert (f"{row['base_median']:.6g}", f"{row['base_spread']:.3f}") == (base, base_spread)
        assert f"{row['change_median']:.6g}" == change_median
    assert [row["metric"] for row in entry["metrics"]] == list(printed)


def test_append_record_extends_the_list_in_path(tmp_path):
    path = tmp_path / "BENCH_pairs.json"
    bench_pairs.append_record(path, {"n": 1})
    bench_pairs.append_record(path, {"n": 2})
    assert json.loads(path.read_text()) == [{"n": 1}, {"n": 2}]


def test_record_leaves_stdout_as_it_is(tmp_path, monkeypatch, capsys):
    """A --record run prints what a run without it prints, and appends one
    record per invocation, with the base and the change commits and a dirty
    flag for an untracked file."""
    repo = tmp_path / "repo"
    (repo / "src" / "spectral_torsion").mkdir(parents=True)
    (repo / "BENCHMARK.json").write_text((_PATH.parent.parent / "BENCHMARK.json").read_text())
    (repo / "src" / "spectral_torsion" / "core.py").write_text("x = 1\n")
    _git(repo, "init", "-q")
    _git(repo, "add", ".")
    _git(repo, "commit", "-q", "-m", "base")
    (repo / "src" / "spectral_torsion" / "new.py").write_text("y = 2\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    monkeypatch.setattr(bench_pairs, "_run",
                        lambda checkout, command: bench_pairs.parse_result(_stdout(0.0006, 1000)))
    argv = ["HEAD", "--workload", "density_api", "--seeds", "1", "2", "--seconds", "1"]
    path = tmp_path / "BENCH_pairs.json"
    printed = []
    for extra in ([], ["--record", str(path)], ["--record", str(path)]):
        assert bench_pairs.main(argv + extra) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] == printed[2]
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, capture_output=True,
                          text=True, check=True).stdout.strip()
    records = json.loads(path.read_text())
    assert len(records) == 2
    assert records[0]["base"] == head and records[0]["change"] == {"commit": head, "dirty": True}
    assert records[0]["seeds"] == [1, 2] and len(records[0]["pairs"]) == 2
    assert records[0]["lines"] == {"base": 1, "change": 2, "difference": 1,
                                   "changed": {"new.py": [0, 1]}}
