"""The README's library layout names only what the modules define, the names
it lists as removed are gone, and its list of known reference discrepancies
is the one the verify ledger reports."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
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


def removed_names() -> list[str]:
    """Backticked names of the README's "Removed public names" list."""
    text = README.read_text(encoding="utf-8")
    section = text.split("Removed public names", 1)[1].split("\n\n", 2)[1]
    return re.findall(r"`([^`]+)`", section)


def resolves(name: str) -> bool:
    """Whether the package or one of its modules has `name`, a dotted name
    followed attribute by attribute (`Multivector.generator`)."""
    package = importlib.import_module("spectral_torsion")
    modules = [package] + [importlib.import_module(f"spectral_torsion.{info.name}")
                           for info in pkgutil.iter_modules(package.__path__)]
    for module in modules:
        value = module
        try:
            for part in name.split("."):
                value = getattr(value, part)
        except AttributeError:
            continue
        return True
    return False


def test_removed_names_are_gone():
    names = removed_names()
    assert "Multivector.parse" in names and "wedge" in names
    assert [name for name in names if resolves(name)] == []


def test_resolves_follows_dotted_names():
    assert resolves("Multivector.generator") and resolves("mv_mul")
    assert resolves("SymScalar.to_terms") and resolves("clifford._check_dim")
    assert not resolves("Multivector.wedge") and not resolves("wedge")


def test_known_discrepancies_are_the_flagged_rows():
    """The rows the README lists as known discrepancies are exactly the rows
    verify_suite flags at n=4 and 6."""
    from spectral_torsion import verify_suite

    text = README.read_text(encoding="utf-8")
    section = text.split("### Known reference discrepancies", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"`([A-Z]\d+\.\d+\w*)`", section))
    flagged = {row.id for n in (4, 6) for row in verify_suite(n)
               if not row.matches}
    assert listed == flagged
