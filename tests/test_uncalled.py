"""The report of tools/uncalled.py, on a canned module; the probe over the
command line is not run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "uncalled.py"
_SPEC = importlib.util.spec_from_file_location("uncalled", _PATH)
uncalled = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(uncalled)

CANNED = '''\
import functools


def used(x):
    def inner(y):
        return y + 1
    return inner(x)


@functools.cache
def cached(x):
    return x


def unused():
    pass


class Value:
    def __eq__(self, other):
        return True

    @property
    def size(self):
        return 1

    def grow(self):
        return self


if True:
    def guarded():
        pass
'''


def test_defined_functions_names_every_def_by_its_first_line():
    assert uncalled.defined_functions(CANNED) == {
        4: "used", 5: "used.<locals>.inner", 10: "cached", 15: "unused",
        20: "Value.__eq__", 23: "Value.size", 27: "Value.grow", 32: "guarded"}


def test_record_and_report_on_a_canned_module():
    namespace: dict = {}
    exec(compile(CANNED, "canned.py", "exec"), namespace)

    def drive():
        value = namespace["Value"]()
        namespace["used"](1)
        namespace["cached"](2)
        return value.size

    ran = uncalled.record(drive, {"canned.py": "canned"})
    assert ran == {("canned", 4), ("canned", 5), ("canned", 10), ("canned", 23)}
    defined = {"canned": uncalled.defined_functions(CANNED)}
    # __eq__ is value-type protocol, so it is left out although it never ran
    assert uncalled.uncalled(defined, ran) == [
        "canned.Value.grow", "canned.guarded", "canned.unused"]


def test_a_code_object_from_another_file_is_not_recorded():
    namespace: dict = {}
    exec(compile("def f():\n    return 1\n", "other.py", "exec"), namespace)
    assert uncalled.record(namespace["f"], {"canned.py": "canned"}) == set()
