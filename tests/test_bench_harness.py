"""The benchmark harness's own tests, run from this suite.

``perfbench/tests`` lies outside ``testpaths``, and its ``conftest.py`` cannot
share one pytest session with this suite's.  The harness wraps library
layers by module and function name, so a change under ``src/`` can break a
traced benchmark run while every other test here passes.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_harness_tests_pass():
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/tests"],
                            cwd=ROOT, capture_output=True, text=True, timeout=600)
    tail = "\n".join((result.stdout + result.stderr).splitlines()[-40:])
    assert result.returncode == 0, tail
