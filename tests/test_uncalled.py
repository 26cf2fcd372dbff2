"""The report of tools/uncalled.py, on a canned module; the probe over the
command line is not run."""

from __future__ import annotations

import importlib.util
import re
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

    called, lines = uncalled.record(drive, {"canned.py": "canned"})
    assert called == {("canned", 4), ("canned", 5), ("canned", 10), ("canned", 23)}
    assert lines == {("canned", 5), ("canned", 6), ("canned", 7), ("canned", 12),
                     ("canned", 25)}
    defined = {"canned": uncalled.defined_functions(CANNED)}
    # __eq__ is value-type protocol, so it is left out although it never ran
    assert uncalled.uncalled(defined, called) == [
        "canned.Value.grow", "canned.guarded", "canned.unused"]


def test_a_code_object_from_another_file_is_not_recorded():
    namespace: dict = {}
    exec(compile("def f():\n    return 1\n", "other.py", "exec"), namespace)
    assert uncalled.record(namespace["f"], {"canned.py": "canned"}) == (set(), set())


BRANCHES = '''\
def run(x):
    """A docstring, which runs no line."""
    total = [
        x,
    ]
    if x > 0:
        total.append(1)
    else:
        total.append(-1)
    if x > 9:
        raise ValueError(x)
    try:
        total.append(int(x))
    except TypeError:
        total.append(0)
    return total


def unused(x):
    return x


class Value:
    def __repr__(self):
        if self:
            return "Value()"
        return "?"
'''


def test_unreached_reports_each_statement_that_never_ran():
    namespace: dict = {}
    exec(compile(BRANCHES, "branches.py", "exec"), namespace)

    def drive():
        namespace["run"](1)
        repr(namespace["Value"]())

    called, lines = uncalled.record(drive, {"branches.py": "branches"})
    called = {first for _, first in called}
    lines = {line for _, line in lines}
    # the else branch never ran.  Left out: the docstring, the raise, the
    # except body, the body of unused, which never ran, and the value-type
    # protocol method __repr__, whose last statement never ran
    assert uncalled.unreached(BRANCHES, called, lines) == [(9, "run", "total.append(-1)")]


def test_unreached_reads_a_statement_at_its_first_line():
    source = "def f():\n    @g\n    def h():\n        pass\n    for x in y:\n        pass\n"
    # only the decorator's line and the loop's header ran; h never ran
    assert uncalled.unreached(source, {1}, {2, 5}) == [(6, "f", "pass")]
    assert uncalled.unreached(source, {1}, set()) == [
        (2, "f", "@g"), (5, "f", "for x in y:"), (6, "f", "pass")]


# "``file.py`` in ``qualname``: ``text``", with more texts joined by "and"
_TEXT = r"``(?!\w+\.py``)[^`]+``"
_ENTRY = re.compile(rf"``(\w+\.py)`` in ``([\w.<>]+)``:\s+({_TEXT}(?:\s+and\s+{_TEXT})*)")


def test_the_docstring_list_names_statements_of_their_functions():
    """Each statement that the script's docstring lists, by its first source
    line, is a statement of the function that the entry names."""
    doc = uncalled.__doc__
    entries = _ENTRY.findall(doc)
    assert entries and len(entries) == len(re.findall(r"``\w+\.py`` in", doc))
    known = {}
    for name, qualname, texts in entries:
        if name not in known:
            source = (uncalled.PACKAGE / name).read_text(encoding="utf-8")
            known[name] = {(q, text) for _, _, q, text in uncalled.statements(source)}
        for text in re.findall(r"``([^`]+)``", texts):
            assert (qualname, text) in known[name], (name, qualname, text)


def test_statements_reads_each_statement_by_its_first_line():
    assert [(q, text) for _, _, q, text in uncalled.statements(BRANCHES)] == [
        ("run", "total = ["), ("run", "if x > 0:"), ("run", "total.append(1)"),
        ("run", "total.append(-1)"), ("run", "if x > 9:"), ("run", "try:"),
        ("run", "total.append(int(x))"), ("run", "return total"), ("unused", "return x")]
