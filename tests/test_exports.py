"""Every export of the package, and the +, * and == of its value types, on
ill-typed and out-of-range arguments: each call returns a value or raises
one of the documented errors, never an AttributeError or an IndexError from
reading an argument the function does not take."""

from __future__ import annotations

import inspect
import operator

from hypothesis import HealthCheck, given, seed, settings, strategies as st

import spectral_torsion
from spectral_torsion import (
    GaussianRational,
    Grading,
    ManifoldSpec,
    MissingAtom,
    Multivector,
    OneForm,
    Poly,
    Rational,
    ThreeForm,
    TorsionVector,
    XiPolynomialMV,
    XiRational,
    sym,
    xi_monomial,
)

# ValueError covers DimensionMismatch, OddDimension, UnsupportedDimension and
# NonIntegrable
DOCUMENTED = (TypeError, ValueError, ZeroDivisionError, MissingAtom)

# one value of each value type, at n = 4, where most calls take another
VALUES = [
    GaussianRational(1, 2), sym(3), Rational(1, 3), Multivector.generator(4, 1),
    OneForm.basis(4, 2), ThreeForm(4, {(1, 2, 3): 1}), Poly((1, 2)),
    XiRational(Poly((1,)), 1, 1), XiPolynomialMV(4, {xi_monomial(4): Multivector(4, {0: 1})}),
    ManifoldSpec(4), Grading(), TorsionVector(ThreeForm(4), OneForm.basis(4, 1)),
]

# bounded ints keep every call short: no dimension, moment degree or
# derivative order past 64
ARGUMENTS = st.one_of(
    st.none(), st.booleans(), st.integers(-64, 64), st.floats(), st.text(max_size=4),
    st.lists(st.one_of(st.integers(-64, 64), st.text(max_size=2), st.none()), max_size=6),
    st.sampled_from(VALUES),
)


def _arity(fn) -> tuple[int, int]:
    """The fewest and the most positional arguments that fn takes, counting
    *args as up to three; an exception class takes a message."""
    if isinstance(fn, type) and issubclass(fn, Exception):
        return 0, 1
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD, p.VAR_POSITIONAL)]
    required = sum(p.default is p.empty and p.kind is not p.VAR_POSITIONAL for p in params)
    varargs = any(p.kind is p.VAR_POSITIONAL for p in params)
    return required, len(params) + 2 * varargs


# Rational is fractions.Fraction, whose contract is the standard library's
# (Fraction(float("inf")) is an OverflowError); its operators are still called
EXPORTS = {name: getattr(spectral_torsion, name) for name in sorted(dir(spectral_torsion))
           if not name.startswith("_") and name != "Rational"
           and callable(getattr(spectral_torsion, name))
           and not inspect.ismodule(getattr(spectral_torsion, name))}
CALLS = ([(name, fn, _arity(fn)) for name, fn in EXPORTS.items()]
         + [(f"operator.{op.__name__}", op, (2, 2))
            for op in (operator.add, operator.mul, operator.eq)])


@seed(41)
@settings(max_examples=400, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_exports_return_a_value_or_a_documented_error(data):
    name, fn, (fewest, most) = data.draw(st.sampled_from(CALLS), label="call")
    if name.startswith("operator."):  # one operand a value, on either side
        args = [data.draw(st.sampled_from(VALUES)), data.draw(ARGUMENTS)]
        if data.draw(st.booleans(), label="swap"):
            args.reverse()
    else:
        args = data.draw(st.lists(ARGUMENTS, min_size=fewest, max_size=most), label="args")
    try:
        fn(*args)
    except DOCUMENTED:
        pass
