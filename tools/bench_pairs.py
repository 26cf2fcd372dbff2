"""Alternating base/change pairs of one benchmark workload.

Run from the repository root, for example:

    python3 tools/bench_pairs.py HEAD --workload density_api --seeds 401 402 403 --seconds 5

For every seed the script runs ``perfbench/run.py --workload W --seed S
--seconds X --trace 0`` once in a temporary checkout of the base revision and
once in a temporary copy of the working tree, base first on odd pairs and
change first on even ones, so that a slow drift of the machine favours neither
side.  It prints each pair's end-to-end metrics, ``correct`` and the run's CPU
speed relative to the reference (from the run's wall-clock note), then, per
metric, the median of each side with its spread (interquartile range over
median), the number of pairs in which the change was better (lower or higher
as ``BENCHMARK.json`` declares) and a verdict, read against the metric's
declared ``bound``, a fraction of the base median:

* ``worse``: the change median is worse than the base median by more than
  the bound;
* ``unresolved``: the base spread exceeds the bound, and not every change
  run beats every base run; or the metric reads ``better`` over all pairs
  but not over the steady ones;
* ``better``: over the steady pairs, there are at least 10 of them, the
  change won at least 9 in 10 of them, and its median beats the base median
  by more than the base interquartile range (fewer pairs cannot show 9 in
  10, and the range of one or two runs says nothing of the noise);
* ``same``: otherwise.

A pair is *drifted*, and not steady, when both of its runs printed a CPU
speed and the two differ by more than ``MAX_SPEED_DRIFT`` of the faster
one: the host changed speed between the two runs, so the scaled times of
the pair compare the host with itself, not the change with its base.

Every metric reads ``invalid`` instead when the runs cannot be compared: a
run on either side is not ``correct``, or in some pair the change failed a
larger share of its attempted jobs than its base did.

The summary then gives each side's median CPU speed, which shows a drift of
the host that the scaled times did not absorb, and the steady pairs with the
indices of the drifted ones (``steady pairs: 7/10; drifted: 1, 2, 3``).
When fewer than ``MIN_BETTER_PAIRS`` pairs were steady, one more line says
that no metric could read ``better`` and that more seeds are needed.  A last
line, printed after the summary, gives the line
totals of ``src/spectral_torsion/*.py`` in the base and in the working tree,
as ``wc -l`` counts them, their difference, and each module whose count
changed.  With ``--record PATH`` the script also appends one JSON record
of the invocation to the list in PATH (made when missing), and prints
nothing more: the base commit, the change's commit with a flag for
uncommitted changes, the workload, seeds and seconds, each pair's seed,
steadiness and per-side end-to-end metrics, ``correct``, failed and
attempted jobs and CPU speed, each metric's summary row, and the line
counts.  ``--workload`` takes one of the ``workloads`` that
``BENCHMARK.json`` declares; any other name, or a base that ``git rev-parse
--verify`` does not resolve to a commit, exits 2 before anything is
extracted.

The base is extracted with ``git archive`` into a temporary directory.  The
change side is a copy of the working tree's files that git lists as tracked or
as untracked and not ignored (``git ls-files -co --exclude-standard``), never a
``__pycache__``, in a second one; so both sides start without bytecode, and
neither reads what earlier runs left in the working tree.  Both directories
are removed at the end whatever happens; the repository's worktree list never
changes.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the fewest pairs from which a "better" verdict is read
MIN_BETTER_PAIRS = 10
# the largest CPU speed difference of a steady pair's runs, a fraction of the faster
MAX_SPEED_DRIFT = 0.1

# the end of perfbench/run.py's wall-clock note
_SPEED = re.compile(r"CPU speed (\S+) of the reference")


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a run's stdout, with the
    CPU speed of the run's wall-clock note under "speed" (None when the run
    printed no such note)."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("the run printed nothing")
    result = json.loads(lines[-1])
    speeds = _SPEED.findall(stdout)
    result["speed"] = float(speeds[-1]) if speeds else None
    return result


def _speed(result: dict) -> str:
    return "?" if result["speed"] is None else f"{result['speed']:.4g}"


def better_directions(benchmark: dict) -> dict[str, str]:
    """{metric name: "lower" or "higher"} for the end-to-end metrics."""
    return {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}


def declared_bounds(benchmark: dict) -> dict[str, float]:
    """{metric name: bound} for the end-to-end metrics, each bound a fraction
    of the base median."""
    return {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}


def _values(result: dict) -> dict[str, float]:
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def pair_lines(index: int, seed: int, base: dict, change: dict,
               better: dict[str, str]) -> list[str]:
    """One line per side of a pair: correct, failed jobs, the metrics and
    the CPU speed."""
    lines = []
    for side, result in (("base", base), ("change", change)):
        metrics = " ".join(f"{name}={value:.6g}"
                           for name, value in _values(result).items() if name in better)
        lines.append(f"pair {index} seed {seed} {side:6} correct={result['correct']} "
                     f"failed={result['failed']}/{result['attempted']} {metrics} "
                     f"speed={_speed(result)}")
    return lines


def _beats(change: float, base: float, direction: str) -> bool:
    return change < base if direction == "lower" else change > base


def _iqr(values: list[float]) -> float:
    """Q3 - Q1 of the values, quartiles by the inclusive method; 0 for fewer
    than two values."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median of the values, quartiles by the inclusive method;
    0 for fewer than two values."""
    return _iqr(values) / statistics.median(values) if len(values) > 1 else 0.0


def verdict(sides: list[tuple[float, float]], direction: str, bound: float) -> str:
    """"worse", "unresolved", "better" or "same" for one metric's (base,
    change) value pairs, by the rules in the module docstring, tried in
    that order."""
    bases, changes = [b for b, _ in sides], [c for _, c in sides]
    base_median, change_median = statistics.median(bases), statistics.median(changes)
    gain = base_median - change_median if direction == "lower" else change_median - base_median
    if -gain > bound * base_median:
        return "worse"
    if spread(bases) > bound and not all(_beats(c, b, direction) for c in changes for b in bases):
        return "unresolved"
    won = sum(_beats(c, b, direction) for b, c in sides)
    if len(sides) >= MIN_BETTER_PAIRS and 10 * won >= 9 * len(sides) and gain > _iqr(bases):
        return "better"
    return "same"


def broken(pairs: list[tuple[dict, dict]]) -> bool:
    """Whether a run is not correct, or a change failed a larger share of
    its attempted jobs than its base, in any (base, change) result pair."""
    return any(not base["correct"] or not change["correct"]
               or change["failed"] * base["attempted"] > base["failed"] * change["attempted"]
               for base, change in pairs)


def drifted_pairs(pairs: list[tuple[dict, dict]]) -> list[bool]:
    """Per (base, change) result pair, whether it drifted (module docstring)."""
    return [None not in speeds and max(speeds) - min(speeds) > MAX_SPEED_DRIFT * max(speeds)
            for speeds in ((base["speed"], change["speed"]) for base, change in pairs)]


def metric_rows(pairs: list[tuple[dict, dict]], better: dict[str, str],
                bounds: dict[str, float]) -> list[dict]:
    """Per metric that some pair reports on both sides: its direction, the
    median and the IQR/median spread of each side, the pairs in which the
    change was better out of the pairs compared, and the verdict, "better"
    only as the steady pairs read it and "invalid" for every metric when the
    pairs are broken."""
    invalid = broken(pairs)
    drifted = drifted_pairs(pairs)
    rows = []
    for name, direction in better.items():
        kept = [((_values(base).get(name), _values(change).get(name)), drift)
                for (base, change), drift in zip(pairs, drifted)]
        kept = [(side, drift) for side, drift in kept if None not in side]
        if not kept:
            continue
        sides, steady = [side for side, _ in kept], [side for side, drift in kept if not drift]
        reading = "invalid" if invalid else verdict(sides, direction, bounds[name])
        steady_better = bool(steady) and verdict(steady, direction, bounds[name]) == "better"
        if reading == "better" and not steady_better:
            reading = "unresolved"
        elif reading == "same" and steady_better:
            reading = "better"
        bases, changes = [b for b, _ in sides], [c for _, c in sides]
        rows.append({"metric": name, "better": direction,
                     "base_median": statistics.median(bases), "base_spread": spread(bases),
                     "change_median": statistics.median(changes),
                     "change_spread": spread(changes),
                     "won": sum(_beats(c, b, direction) for b, c in sides),
                     "pairs": len(sides), "verdict": reading})
    return rows


def summary_lines(pairs: list[tuple[dict, dict]], better: dict[str, str],
                  bounds: dict[str, float]) -> list[str]:
    """The metric_rows as a table; then the pairs in which both runs were
    correct, each side's median CPU speed over the runs that printed one,
    and the steady pairs with the indices of the drifted ones; when fewer
    than MIN_BETTER_PAIRS were steady, a last line says that no metric could
    read "better"."""
    lines = [f"{'metric':14} {'better':6} {'base median':>12} {'spread':>7} "
             f"{'change median':>14} {'spread':>7} {'change won':>10} verdict"]
    for row in metric_rows(pairs, better, bounds):
        won = f"{row['won']}/{row['pairs']}"
        lines.append(f"{row['metric']:14} {row['better']:6} {row['base_median']:12.6g} "
                     f"{row['base_spread']:7.3f} {row['change_median']:14.6g} "
                     f"{row['change_spread']:7.3f} {won:>10} {row['verdict']}")
    correct = sum(base["correct"] and change["correct"] for base, change in pairs)
    drifted = drifted_pairs(pairs)
    lines.append(f"pairs with both runs correct: {correct}/{len(pairs)}")
    medians = []
    for side, index in (("base", 0), ("change", 1)):
        speeds = [pair[index]["speed"] for pair in pairs if pair[index]["speed"] is not None]
        medians.append(f"{side} {statistics.median(speeds):.4g}" if speeds else f"{side} ?")
    lines.append("median CPU speed of the reference: " + ", ".join(medians))
    steady = drifted.count(False)
    drifts = ", ".join(str(index) for index, drift in enumerate(drifted, 1) if drift)
    lines.append(f"steady pairs: {steady}/{len(pairs)}; drifted: {drifts or 'none'}")
    if steady < MIN_BETTER_PAIRS:
        lines.append(f"no metric could read better from {steady} steady pairs, fewer than "
                     f"{MIN_BETTER_PAIRS}: more seeds are needed")
    return lines


def module_lines(root: Path) -> dict[str, int]:
    """{file name: newline count} of src/spectral_torsion/*.py under root, as
    `wc -l` counts each file."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in (root / "src" / "spectral_torsion").glob("*.py")}


def line_counts(base_root: Path, change_root: Path) -> dict:
    """The module_lines totals of two trees (the totals `wc -l` prints), their
    difference and {module: [base count, change count]} for each module whose
    count changed, in name order, a module missing from one tree counted as 0."""
    base, change = module_lines(base_root), module_lines(change_root)
    total_base, total_change = sum(base.values()), sum(change.values())
    return {"base": total_base, "change": total_change, "difference": total_change - total_base,
            "changed": {name: [base.get(name, 0), change.get(name, 0)]
                        for name in sorted(base.keys() | change.keys())
                        if base.get(name, 0) != change.get(name, 0)}}


def lines_line(counts: dict) -> str:
    """The line printed for line_counts."""
    changed = [f"{name} {old} -> {new}" for name, (old, new) in counts["changed"].items()]
    return (f"src/spectral_torsion/*.py lines: base {counts['base']}, change {counts['change']}, "
            f"difference {counts['difference']:+d}; changed: {', '.join(changed) or 'none'}")


def record(base: str, change: dict, workload: str, seeds: list[int], seconds: float,
           pairs: list[tuple[dict, dict]], better: dict[str, str], bounds: dict[str, float],
           counts: dict) -> dict:
    """One invocation as JSON data: the base commit, the change ({"commit",
    "dirty"}), the run settings, each pair, the metric_rows and the
    line_counts."""
    def side(result):
        return {"correct": result["correct"], "failed": result["failed"],
                "attempted": result["attempted"], "speed": result["speed"],
                "metrics": {name: value for name, value in _values(result).items()
                            if name in better}}
    return {"base": base, "change": change, "workload": workload, "seeds": seeds,
            "seconds": seconds,
            "pairs": [{"seed": seed, "steady": not drift, "base": side(b), "change": side(c)}
                      for seed, (b, c), drift in zip(seeds, pairs, drifted_pairs(pairs))],
            "metrics": metric_rows(pairs, better, bounds), "lines": counts}


def append_record(path: Path, entry: dict) -> None:
    """entry appended to the JSON list in path, which is made when missing."""
    records = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(records + [entry], indent=1) + "\n")


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def run_command(workload: str, seed: int, seconds: float) -> list[str]:
    return [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]


def _run(checkout: Path, command: list[str]) -> dict:
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command[1:])} in {checkout} exited "
                           f"{done.returncode}:\n{done.stderr[-2000:]}")
    return parse_result(done.stdout)


def _extract(revision: str, target: Path) -> None:
    """The tree of `revision` as plain files under target."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:  # pragma: no cover - interpreters without extraction filters
            tar.extractall(target)


def _copy_worktree(target: Path) -> None:
    """The working tree's tracked and untracked, not ignored, files, as plain
    files under target, leaving out deleted files and any ``__pycache__``."""
    listed = subprocess.run(["git", "ls-files", "-co", "--exclude-standard", "-z"], cwd=ROOT,
                            capture_output=True, check=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        source = ROOT / name
        if "__pycache__" in Path(name).parts or not source.is_file():
            continue
        (target / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(source, target / name)


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare the working tree against")
    parser.add_argument("--workload", required=True,
                        choices=[workload["name"] for workload in benchmark["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--record", type=Path, metavar="PATH",
                        help="append a JSON record of this invocation to the list in PATH")
    args = parser.parse_args(argv)
    base = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{args.base}^{{commit}}"],
                          cwd=ROOT, capture_output=True, text=True)
    if base.returncode != 0:
        parser.error(f"base: {args.base!r} is not a commit that git knows")
    better, bounds = better_directions(benchmark), declared_bounds(benchmark)
    base_dir = Path(tempfile.mkdtemp(prefix="bench-base-"))
    change_dir = Path(tempfile.mkdtemp(prefix="bench-change-"))
    pairs = []
    try:
        _extract(args.base, base_dir)
        _copy_worktree(change_dir)
        counts = line_counts(base_dir, change_dir)
        for index, seed in enumerate(args.seeds, 1):
            command = run_command(args.workload, seed, args.seconds)
            order = [("base", base_dir), ("change", change_dir)]
            results = {side: _run(checkout, command)
                       for side, checkout in (order if index % 2 else order[::-1])}
            pairs.append((results["base"], results["change"]))
            print("\n".join(pair_lines(index, seed, *pairs[-1], better)), flush=True)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
        shutil.rmtree(change_dir, ignore_errors=True)
    print("\n".join(summary_lines(pairs, better, bounds)))
    print(lines_line(counts))
    if args.record:
        change = {"commit": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain"))}
        append_record(args.record, record(base.stdout.strip(), change, args.workload, args.seeds,
                                          args.seconds, pairs, better, bounds, counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
