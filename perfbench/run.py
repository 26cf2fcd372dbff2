"""Benchmark of the spectral-torsion library and its CLI.

Run from the repository root:

    python3 perfbench/run.py --workload density_api --seed 1 --seconds 5 --trace 0

and test the benchmark itself with ``python3 -m pytest perfbench/tests``.

Workloads (each a closed loop: one caller, next job after the previous ends):

  density_api  in-process ``spectral_torsion(..., with_identities=False)`` on
               dense random exact inputs: every case, n in {4, 6, 8, 10},
               boundary on and off.
  cli_jobs     one fresh ``python -m spectral_torsion.cli`` process per job:
               ``compute`` on every case, n in {4, 6}, boundary on and off,
               plus ``verify 4 --json`` and ``verify 6 --json``.

A pass runs every combination once, and some ``REPLICAS`` times with other
inputs, so that the median and the tail rank fall inside a group of jobs of
similar cost rather than between two groups.  The seed fixes every input; the
library sees only the generated inputs.  A run measures whole passes and
starts another pass while less than ``--seconds`` have elapsed.  Every result
is checked against ``reference.py``, which does not use the library.

Times are scaled to a reference CPU speed.  On a shared virtual machine the
speed of a CPU can drift by a third within seconds (on a 2-vCPU Xeon VM the
same job mix gave wall-clock spreads of 18-60% between runs).  The benchmark
therefore pins itself and its child processes to one CPU and times a fixed
standard-library probe (``speed_probe_s``) before the first job and after
every job and set-up; each job's wall time is multiplied by
``PROBE_REFERENCE_S`` over the mean of the probes on either side of it.  The
raw wall-clock figures are printed on the lines above the result.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced in-process pass of the combinations, each once (the
CLI through ``cli.main``), and reports the per-layer metrics of the traced
pass.  The last line of stdout is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it restate the
metrics with their units, the failure ratio, the tail percentile and the
run's metadata.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CASES = ("torsion_vector", "grading", "vector_grading", "torsion_grading")
SETUP_REPEATS = 5
JOB_TIME_LIMIT_S = 60.0   # per child process; every job here takes under 5 s
RUN_TIME_LIMIT_S = 150.0  # no job starts later than this after program start
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
# inputs per (case, n, boundary) combination in a timed pass, by n
REPLICAS = {"density_api": {4: 1, 6: 4, 8: 2, 10: 2}, "cli_jobs": {4: 1, 6: 2}}
PROBE_REFERENCE_S = 0.015  # probe time of the reference CPU speed

END_TO_END_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
                    "job_tail_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def _rational(rng: random.Random) -> str:
    return f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 5)}"


def make_config(rng: random.Random, case: str, n: int, boundary: bool) -> dict:
    """A ``compute`` config with dense, nonzero random components."""
    def vector():
        return [_rational(rng) for _ in range(n)]

    config = {"dimension": n, "case": case, "with_boundary": boundary,
              "u": vector(), "v": vector(), "w": vector()}
    if case in ("torsion_vector", "torsion_grading"):
        config["T"] = [[a, b, c, _rational(rng)]
                       for a, b, c in itertools.combinations(range(1, n + 1), 3)]
    if case == "torsion_vector":
        config["Y"] = vector()
    if case == "vector_grading":
        config["X"] = vector()
    return config


def build_inputs(config: dict):
    """(case, u, v, w, spec) for ``spectral_torsion`` from a job config."""
    from spectral_torsion.forms import OneForm, ThreeForm
    from spectral_torsion.symbols import (Grading, TorsionGrading, TorsionVector,
                                          VectorGrading)
    from spectral_torsion.torsion import ManifoldSpec

    n = config["dimension"]

    def one(key):
        return OneForm([Fraction(s) for s in config[key]])

    def three(key):
        return ThreeForm(n, {(a, b, c): Fraction(s) for a, b, c, s in config[key]})

    name = config["case"]
    if name == "torsion_vector":
        case = TorsionVector(three("T"), one("Y"))
    elif name == "grading":
        case = Grading()
    elif name == "vector_grading":
        case = VectorGrading(one("X"))
    else:
        case = TorsionGrading(three("T"))
    return case, one("u"), one("v"), one("w"), ManifoldSpec(n, config["with_boundary"])


def report_blocks(report) -> dict:
    """A ``TorsionReport`` in the ``compute`` output shape the checker reads."""
    blocks = {key: {"terms": value.to_terms()} for key, value in (
        ("interior", report.interior_density), ("boundary", report.boundary_density),
        ("total", report.total), ("theorem", report.theorem_value))}
    blocks["matches"] = report.matches_theorem
    return blocks


@dataclasses.dataclass
class Job:
    kind: str                 # "density", "compute" or "verify"
    n: int
    config: dict | None = None
    path: Path | None = None  # config file, for jobs run from a file
    inputs: tuple | None = None  # library objects, for in-process density jobs

    @property
    def label(self) -> str:
        if self.kind == "verify":
            return f"verify n={self.n}"
        c = self.config
        return f"{self.kind} {c['case']} n={self.n} boundary={c['with_boundary']}"


def make_jobs(workload: str, seed: int, replicate: bool) -> list[Job]:
    """The jobs of one pass, in seeded order; ``replicate`` applies ``REPLICAS``."""
    rng = random.Random(seed)
    if workload == "density_api":
        kind, dims = "density", (4, 6, 8, 10)
    elif workload == "cli_jobs":
        kind, dims = "compute", (4, 6)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = [Job(kind, n, make_config(rng, case, n, b))
            for n in dims for case in CASES for b in (False, True)
            for _ in range(REPLICAS[workload][n] if replicate else 1)]
    if workload == "cli_jobs":
        jobs += [Job("verify", 4), Job("verify", 6)]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("SPECTRAL_TORSION_SEED", None)
    return env


@dataclasses.dataclass
class ChildResult:
    latency_s: float
    exit_code: int
    timed_out: bool
    peak_rss_mb: float
    stdout: bytes


def run_child(argv: list[str], workdir: Path, time_limit: float) -> ChildResult:
    """Run one child to completion; exit status and peak RSS come from wait4."""
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)

        def kill():
            with lock:
                if not state["reaped"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(time_limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            with lock:
                state["reaped"] = True
            timer.cancel()
            timer.join()
        latency = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(latency, proc.returncode, state["killed"],
                       usage.ru_maxrss / 1024.0, out_path.read_bytes())


def cli_args(job: Job) -> list[str]:
    if job.kind == "compute":
        return ["compute", str(job.path)]
    return ["verify", str(job.n), "--json"]


def child_argv(job: Job) -> list[str]:
    return [sys.executable, "-m", "spectral_torsion.cli"] + cli_args(job)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Outcome:
    latency_s: float
    errors: list
    peak_rss_mb: float = 0.0
    speed: float = 1.0  # PROBE_REFERENCE_S over the probe time around the job

    @property
    def scaled_s(self) -> float:
        return self.latency_s * self.speed


def check(job: Job, payload: dict, exit_code: int) -> list[str]:
    if job.kind == "density":
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        return reference.check_density(job.config, payload)
    if job.kind == "compute":
        return reference.check_compute(job.config, payload, exit_code)
    return reference.check_verify(job.n, payload, exit_code)


def _checked(job: Job, text, exit_code: int) -> list[str]:
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"exit code {exit_code}, unreadable output: {exc}"]
    try:
        return check(job, payload, exit_code)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed result: {exc!r}"]


def run_in_child(job: Job, workdir: Path, time_limit: float) -> Outcome:
    child = run_child(child_argv(job), workdir, time_limit)
    if child.timed_out:
        errors = [f"timed out after {time_limit:.0f} s"]
    else:
        errors = _checked(job, child.stdout, child.exit_code)
    return Outcome(child.latency_s, errors, child.peak_rss_mb)


def run_in_process(job: Job) -> Outcome:
    """The job in this process: the API for density jobs, ``cli.main`` otherwise."""
    from spectral_torsion import cli
    from spectral_torsion.torsion import spectral_torsion

    buffer = io.StringIO()
    start = perf_counter()
    try:
        if job.kind == "density":
            report = spectral_torsion(*job.inputs, with_identities=False)
        else:
            with contextlib.redirect_stdout(buffer):
                exit_code = cli.main(cli_args(job))
    except Exception as exc:  # a job that crashes is a failed job, not a failed run
        return Outcome(perf_counter() - start, [f"crashed: {exc!r}"])
    latency = perf_counter() - start
    if job.kind == "density":
        return Outcome(latency, check(job, report_blocks(report), 0))
    return Outcome(latency, _checked(job, buffer.getvalue(), exit_code))


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


def speed_probe_s() -> float:
    """Wall time of a fixed standard-library Fraction loop on this CPU, now."""
    start = perf_counter()
    total, step = Fraction(0), Fraction(355, 113)
    for k in range(2000):
        total += step * Fraction(k % 7 + 1, 3)
    return perf_counter() - start


def _speed(before: float, after: float) -> float:
    return 2 * PROBE_REFERENCE_S / (before + after)


def import_probe_s() -> float:
    """Wall time of a fresh interpreter that imports the CLI and its library."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import spectral_torsion.cli"],
                   env=child_env(), cwd=ROOT, check=True)
    return perf_counter() - start


def setup(workload: str, seed: int, workdir: Path, traced: bool):
    """Set up ``SETUP_REPEATS`` times; return the jobs, scaled set-up times and
    import times.

    One set-up is a fresh-process import, input generation, the config files
    and, for API jobs, the library input objects.
    """
    times, probes = [], []
    before = speed_probe_s()
    for attempt in range(SETUP_REPEATS):
        start = perf_counter()
        probes.append(import_probe_s())
        jobs = make_jobs(workload, seed, replicate=not traced)
        target = workdir / f"setup{attempt}"
        target.mkdir()
        for index, job in enumerate(jobs):
            if job.config is None:
                continue
            job.path = target / f"job{index}.json"
            job.path.write_text(json.dumps(job.config), encoding="utf-8")
            if job.kind == "density":
                job.inputs = build_inputs(job.config)
        elapsed = perf_counter() - start
        after = speed_probe_s()
        times.append(elapsed * _speed(before, after))
        before = after
    return jobs, times, probes


def run_passes(jobs, execute, seconds: float, deadline: float) -> list:
    """Whole passes over ``jobs``, another one while under ``seconds``."""
    outcomes = []
    start = perf_counter()
    before = speed_probe_s()
    while True:
        for job in jobs:
            if perf_counter() > deadline:
                return outcomes
            outcome = execute(job)
            after = speed_probe_s()
            outcome.speed = _speed(before, after)
            outcomes.append((job, outcome))
            before = after
        if perf_counter() - start >= seconds:
            return outcomes


def tail(latencies: list) -> tuple[float, float]:
    """(value, percentile) at the highest rank with TAIL_BEYOND samples beyond it.

    With no more than TAIL_BEYOND samples there is no such rank; the maximum is
    reported instead.
    """
    ordered = sorted(latencies)
    count = len(ordered)
    rank = count - TAIL_BEYOND if count > TAIL_BEYOND else count
    return ordered[rank - 1], 100.0 * rank / count


def end_to_end(outcomes, setup_times, in_process: bool) -> tuple[dict, list]:
    latencies = [o.scaled_s for _, o in outcomes]
    raw = [o.latency_s for _, o in outcomes]
    completed = sum(not o.errors for _, o in outcomes)
    tail_value, tail_pct = tail(latencies)
    if in_process:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        peak = max(o.peak_rss_mb for _, o in outcomes)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "jobs_per_s": completed / sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_value,
        "peak_rss_mb": peak,
    }
    notes = [f"job_tail_s is p{tail_pct:.1f} of {len(latencies)} jobs",
             f"setup_s is the median of {len(setup_times)} set-ups",
             f"wall clock: jobs_per_s {completed / sum(raw):.6g}, job_p50_s "
             f"{statistics.median(raw):.6g}, job_tail_s {tail(raw)[0]:.6g}, "
             f"CPU speed {statistics.median(o.speed for _, o in outcomes):.4g}"
             " of the reference"]
    if not in_process:
        kinds: dict = {}
        for job, o in outcomes:
            key = f"{job.kind} n={job.n}"
            kinds[key] = max(kinds.get(key, 0.0), o.peak_rss_mb)
        notes.append("peak_rss_mb per child kind: " + ", ".join(
            f"{k} {v:.1f}" for k, v in sorted(kinds.items())))
    return metrics, notes


def traced(workload: str, jobs, deadline: float, probes) -> tuple[list, dict, list]:
    """One untraced and one traced in-process pass; per-layer metrics of the latter."""
    plain = run_passes(jobs, run_in_process, 0, deadline)
    with tracing.Tracer() as tracer:
        outcomes = run_passes(jobs, run_in_process, 0, deadline)
    errors = tracing.check_layers(tracer, workload)
    metrics = tracing.microkernels()
    metrics.update(tracing.layer_metrics(tracer))
    metrics["cli.process_start_s"] = statistics.median(probes)
    metrics["trace_overhead_ratio"] = (sum(o.scaled_s for _, o in outcomes)
                                       / sum(o.scaled_s for _, o in plain))
    return plain + outcomes, metrics, errors


def unit_of(name: str) -> str:
    """Per-layer units follow the metric name's suffix."""
    for suffix, unit in (("_ns", "ns"), ("_ms", "ms"), ("_s", "s"),
                         ("_bytes", "bytes"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def metadata(seed: int) -> dict:
    from spectral_torsion import scalars

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "rational_backend": scalars.Rational.__module__.split(".")[0],
            "seed": seed, "commit": commit}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(REPLICAS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    program_start = perf_counter()
    args = parse_args(argv)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "spectral_torsion" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SPECTRAL_TORSION_SEED", None)
    deadline = program_start + RUN_TIME_LIMIT_S
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        in_process = args.trace == 1 or args.workload == "density_api"
        jobs, setup_times, probes = setup(args.workload, args.seed, workdir, args.trace == 1)
        errors = []
        if args.trace:
            outcomes, metrics, errors = traced(args.workload, jobs, deadline, probes)
            units = {name: unit_of(name) for name in metrics}
            notes = []
        else:
            if in_process:
                execute = run_in_process
            else:
                def execute(job):
                    limit = min(JOB_TIME_LIMIT_S, max(1.0, deadline - perf_counter()))
                    return run_in_child(job, workdir, limit)
            outcomes = run_passes(jobs, execute, args.seconds, deadline)
            metrics, notes = end_to_end(outcomes, setup_times, in_process)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    failed = [(job, o) for job, o in outcomes if o.errors]
    for job, o in failed:
        print(f"FAILED {job.label}: {'; '.join(o.errors)}")
    for error in errors:
        print(f"TRACE CHECK FAILED: {error}")
    meta = metadata(args.seed)
    print("meta " + json.dumps(meta))
    if meta["rational_backend"] != "fractions":
        print(f"NOTE: {meta['rational_backend']} backend; only fractions runs count")
    print(f"{args.workload} failed_ratio {len(failed) / len(outcomes):.4f} "
          f"({len(failed)}/{len(outcomes)})")
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {units[name]}")
    for note in notes:
        print(f"{args.workload} {note}")
    print(json.dumps({
        "correct": not failed and not errors,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
