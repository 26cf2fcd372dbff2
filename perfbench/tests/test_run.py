"""Run mechanics: child processes, speed scaling, the tail rank, a bare checkout."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def test_child_exit_status_rss_and_time_limit(tmp_path):
    done = run.run_child([sys.executable, "-c", "import sys; sys.exit(3)"], tmp_path, 30)
    assert (done.exit_code, done.timed_out) == (3, False)
    assert done.peak_rss_mb > 1
    slow = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"], tmp_path, 0.5)
    assert slow.timed_out and slow.latency_s < 10


def test_each_job_is_scaled_by_the_probes_around_it(monkeypatch):
    probes = iter([0.02, 0.01, 0.03, 0.03])
    monkeypatch.setattr(run, "speed_probe_s", lambda: next(probes))
    outcomes = run.run_passes(["a", "b", "c"], lambda job: run.Outcome(1.0, []),
                              0, float("inf"))
    ref = run.PROBE_REFERENCE_S
    assert [o.scaled_s for _, o in outcomes] == pytest.approx(
        [2 * ref / 0.03, 2 * ref / 0.04, 2 * ref / 0.06])


def test_tail_rank():
    assert run.tail(list(range(1, 33))) == (22, 100 * 22 / 32)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "density_api",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
