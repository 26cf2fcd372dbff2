"""The README's library layout names only what the modules define, and its
list of known reference discrepancies is the one the verify ledger reports."""

from __future__ import annotations

import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# symbolic atoms named in the text, not Python attributes
ATOM_NAMES = {"pi", "dim_F"}


def layout_rows() -> list[tuple[str, str]]:
    """(module, contents cell) for each `spectral_torsion.X` row of the
    "Library layout" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library layout", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `spectral_torsion\.(\w+)`\s*\|(.*)\|\s*$", section, re.M)


def undefined_names(module_name: str, cell: str) -> list[str]:
    """Backticked Python identifiers in the cell that are neither attributes
    of the module nor of a class it defines."""
    module = importlib.import_module(f"spectral_torsion.{module_name}")
    classes = [value for value in vars(module).values()
               if inspect.isclass(value) and value.__module__ == module.__name__]
    return [name for name in re.findall(r"`([^`]+)`", cell)
            if re.fullmatch(r"[A-Za-z_]\w*", name) and name not in ATOM_NAMES
            and not hasattr(module, name)
            and not any(hasattr(cls, name) for cls in classes)]


def test_layout_table_lists_every_module():
    modules = {path.stem for path in (ROOT / "src" / "spectral_torsion").glob("*.py")}
    assert {name for name, _ in layout_rows()} == modules - {"__init__"}


def test_layout_table_names_only_defined_attributes():
    missing = [f"spectral_torsion.{module}: {name}"
               for module, cell in layout_rows()
               for name in undefined_names(module, cell)]
    assert missing == []


def test_undefined_names_flags_a_removed_helper():
    assert undefined_names("clifford", "`mv_mul`, `times_generator`") == ["times_generator"]
    assert undefined_names("halfline", "`boundary_pieces`, `pi`, `XiRational`") == \
        ["boundary_pieces"]
    assert undefined_names("scalars", "`SymScalar` (`evaluate`)") == []


def test_known_discrepancies_are_the_flagged_rows():
    """The rows the README lists as known discrepancies are exactly the rows
    verify_suite flags at n=4 and 6."""
    from spectral_torsion import ManifoldSpec, verify_suite

    text = README.read_text(encoding="utf-8")
    section = text.split("### Known reference discrepancies", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([A-Z]\d+\.\d+\w*)`", section))
    flagged = {row.id for n in (4, 6) for row in verify_suite(ManifoldSpec(n))
               if not row.matches}
    assert listed == flagged
