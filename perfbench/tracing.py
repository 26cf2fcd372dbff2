"""Per-layer tracing from outside the library, plus layer microkernels.

``Tracer`` replaces selected public functions with timing wrappers.  A
function bound by ``from .clifford import mv_mul`` in another module is a
separate name for the same object, so the tracer patches every name, in every
loaded ``spectral_torsion`` module, that is bound to the original function.
Each wrapper records calls, total time and self time (total minus the time
of traced calls made inside it) and, for some functions, work counts taken
from the arguments or the result.  ``check_layers`` makes a traced run fail
when a layer that has to run on a workload recorded no calls.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import sys
import timeit
from collections import Counter
from time import perf_counter


def _mv_mul_counts(counts, args, result):
    a, b = args
    counts["blade_pairs"] += len(a.coeffs) * len(b.coeffs)
    counts["out_blades"] += len(result.coeffs)


def _integrate_counts(counts, args, result):
    counts["xi_terms"] += len(args[1].terms)


def _sigma_counts(counts, args, result):
    counts["blade_coeffs"] += sum(len(mv.coeffs) for mv in result.terms.values())


def _verify_counts(counts, args, result):
    counts["rows_mismatched"] += sum(not row.matches for row in result)


def _render_counts(counts, args, result):
    counts["output_bytes"] += len(result.encode("utf-8"))


# (module, function, work counter) for every traced function
TARGETS = (
    ("clifford", "mv_mul", _mv_mul_counts),
    ("clifford", "trace", None),
    ("forms", "to_clifford", None),
    ("moments", "integrate_sphere", _integrate_counts),
    ("moments", "moment", None),
    ("symbols", "sigma_minus2m", _sigma_counts),
    ("symbols", "interior_density", None),
    ("halfline", "boundary_density", None),
    ("torsion", "spectral_torsion", None),
    ("torsion", "theorem_value", None),
    ("verify", "verify_suite", _verify_counts),
    ("cli", "run_compute", None),
    ("cli", "run_verify", None),
    ("cli", "render_output", _render_counts),
)

# Catalog row ids, and their metric-name spelling (names are ASCII).
ROW_IDS = (
    "L4.3a", "L4.3b", "E4.17", "E4.18", "E4.19", "E4.20", "L4.9", "E4.31",
    "E4.34", "E4.36", "E4.37", "E4.39", "E4.41", "E4.42", "E4.49", "E4.55",
    "E4.56", "E4.57", "E4.60", "E4.61", "E4.62", "E4.63", "T4.5", "R4.7",
    "T4.8γ", "T4.10", "T4.11n4", "T4.11n6", "T4.13",
)


def row_metric_id(row_id: str) -> str:
    return row_id.replace("γ", "g")


DENSITY_LAYERS = (
    "clifford.mv_mul", "clifford.trace", "forms.to_clifford",
    "moments.integrate_sphere", "moments.moment", "symbols.sigma_minus2m",
    "symbols.interior_density", "halfline.boundary_density",
    "torsion.spectral_torsion", "torsion.theorem_value",
)
CLI_LAYERS = ("verify.verify_suite", "cli.run_compute", "cli.run_verify",
              "cli.render_output")


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: Counter = dataclasses.field(default_factory=Counter)


class Tracer:
    """Install with ``with Tracer() as tracer:``; statistics stay readable after."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._child_time: list[float] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, counter):
        stats = self.stats.setdefault(name, SpanStats())
        child_time = self._child_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - inner
            if counter is not None:
                counter(stats.counts, args, result)
            return result
        return traced

    def __enter__(self) -> "Tracer":
        import spectral_torsion.cli  # noqa: F401  (load every module first)
        modules = [mod for key, mod in sys.modules.items()
                   if key == "spectral_torsion" or key.startswith("spectral_torsion.")]
        for module_name, fn_name, counter in TARGETS:
            original = getattr(sys.modules[f"spectral_torsion.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        verify = sys.modules["spectral_torsion.verify"]
        self._restore.append((verify, "CATALOG", verify.CATALOG))
        verify.CATALOG = tuple(
            dataclasses.replace(ident, run=self._wrap(
                f"verify.row.{row_metric_id(ident.id)}", ident.run, None))
            for ident in verify.CATALOG)
        return self

    def __exit__(self, *exc_info):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())


def check_layers(tracer: Tracer, workload: str) -> list[str]:
    """Layers that must run on ``workload`` but recorded no calls, and vice versa."""
    required = DENSITY_LAYERS + (CLI_LAYERS if workload == "cli_jobs" else ())
    errors = [f"layer {name} recorded no calls on {workload}"
              for name in required if tracer.get(name).calls == 0]
    if workload != "cli_jobs" and tracer.get("verify.verify_suite").calls:
        errors.append(f"verify.verify_suite ran on {workload}")
    return errors


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metric values (by metric name) from one traced pass."""
    g = tracer.get
    metrics = {
        "clifford.mv_mul.calls": g("clifford.mv_mul").calls,
        "clifford.mv_mul.self_s": g("clifford.mv_mul").self_s,
        "clifford.mv_mul.blade_pairs": g("clifford.mv_mul").counts["blade_pairs"],
        "clifford.mv_mul.out_blades": g("clifford.mv_mul").counts["out_blades"],
        "clifford.trace.calls": g("clifford.trace").calls,
        "forms.to_clifford.calls": g("forms.to_clifford").calls,
        "forms.to_clifford.self_s": g("forms.to_clifford").self_s,
        "moments.integrate_sphere.self_s": g("moments.integrate_sphere").self_s,
        "moments.integrate_sphere.xi_terms":
            g("moments.integrate_sphere").counts["xi_terms"],
        "moments.moment.calls": g("moments.moment").calls,
        "symbols.sigma_minus2m.self_s": g("symbols.sigma_minus2m").self_s,
        "symbols.sigma_minus2m.blade_coeffs":
            g("symbols.sigma_minus2m").counts["blade_coeffs"],
        "symbols.interior_density.total_s": g("symbols.interior_density").total_s,
        "halfline.boundary_density.calls": g("halfline.boundary_density").calls,
        "halfline.boundary_density.total_s": g("halfline.boundary_density").total_s,
        "torsion.spectral_torsion.total_s": g("torsion.spectral_torsion").total_s,
        "torsion.theorem_value.total_s": g("torsion.theorem_value").total_s,
        "verify.verify_suite.calls": g("verify.verify_suite").calls,
        "verify.verify_suite.total_s": g("verify.verify_suite").total_s,
        "verify.rows_mismatched": g("verify.verify_suite").counts["rows_mismatched"],
        "cli.run_compute.total_s": g("cli.run_compute").total_s,
        "cli.run_verify.total_s": g("cli.run_verify").total_s,
        "cli.render_output.self_s": g("cli.render_output").self_s,
        "cli.output_bytes": g("cli.render_output").counts["output_bytes"],
    }
    for row_id in ROW_IDS:
        name = f"verify.row.{row_metric_id(row_id)}"
        metrics[f"{name}.total_s"] = g(name).total_s
    return metrics


# ---------------------------------------------------------------------------
# microkernels on fixed operands
# ---------------------------------------------------------------------------


# (metric, statement, calls per repeat, repeats); the metric's suffix gives its unit
KERNELS = (
    ("scalars.rational_mul_ns", "p * q", 10000, 5),
    ("scalars.rational_add_ns", "p + q", 10000, 5),
    ("scalars.gaussian_mul_ns", "x * y", 2000, 5),
    ("scalars.symscalar_mul_ns", "s * t", 500, 5),
    ("scalars.symscalar_add_ns", "s + t", 2000, 5),
    ("clifford.blade_product_ns", "blade_product(0b10110101, 0b01101110)", 20000, 5),
    ("clifford.mv_mul_cl8_dense_ms", "mv_mul(dense_a, dense_b)", 1, 3),
)


def microkernels() -> dict:
    """Scalar and blade kernels on fixed operands: median time per call."""
    import random

    from spectral_torsion.clifford import Multivector, blade_product, mv_mul
    from spectral_torsion.scalars import (GaussianRational, Rational, SymScalar,
                                          vol_sphere)

    p, q = Rational(355, 113), Rational(-22, 7)
    x, y = GaussianRational(p, q), GaussianRational(Rational(-4, 3), Rational(2, 9))
    rng = random.Random(0)
    dense_a, dense_b = (
        Multivector(8, {mask: GaussianRational(Rational(rng.randint(1, 9), rng.randint(1, 5)),
                                               Rational(rng.randint(-9, 9), rng.randint(1, 5)))
                        for mask in range(256)})
        for _ in range(2))
    env = {"p": p, "q": q, "x": x, "y": y,
           "s": SymScalar.from_coeff(x) + SymScalar.from_atom(vol_sphere(3), y),
           "t": SymScalar.from_atom(vol_sphere(3), x) + SymScalar.from_atom(vol_sphere(5), y),
           "blade_product": blade_product, "mv_mul": mv_mul,
           "dense_a": dense_a, "dense_b": dense_b}
    metrics = {}
    for name, stmt, number, repeat in KERNELS:
        per_call_s = statistics.median(
            timeit.Timer(stmt, globals=env).repeat(repeat, number)) / number
        metrics[name] = per_call_s * (1e9 if name.endswith("_ns") else 1e3)
    return metrics
