"""Every name that a docstring or comment in ``src/lucaskit`` quotes in double backquotes exists,
and so does every name README.md quotes in single backquotes.

A ``module.name`` reference, where module is a lucaskit module, needs that
module to have the name; a bare ``_name`` reference needs some lucaskit
module to define it.  So moving or renaming a private helper or a constant
without its references fails here.  Other quoted text (parameters, public
names, formulas, command lines) is not checked.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import lucaskit

SOURCES = sorted(Path(lucaskit.__file__).parent.glob("*.py"))
MODULES = {
    info.name: importlib.import_module(f"lucaskit.{info.name}")
    for info in pkgutil.iter_modules(lucaskit.__path__)
    if info.name != "__main__"
}
README = Path(__file__).resolve().parents[1] / "README.md"
QUOTED = re.compile(r"``(.+?)``", re.DOTALL)
# Markdown quotes code in single backquotes, on one line.
MARKDOWN_QUOTED = re.compile(r"`([^`\n]+)`")
# An optional module prefix, a name, and an optional call: ``levels.holds``, ``_iota(n, k, ...)``.
REFERENCE = re.compile(r"(?:(\w+)\.)?(\w+)(?:\(.*\))?", re.DOTALL)


def references(path: Path, quoted: re.Pattern = QUOTED) -> list[tuple[str | None, str]]:
    """The (module, name) references ``quoted`` in ``path``; module is None for a bare ``_name``."""
    found = []
    for text in quoted.findall(path.read_text()):
        match = REFERENCE.fullmatch(text)
        if match is None:
            continue
        prefix, name = match.groups()
        if prefix in MODULES:
            found.append((prefix, name))
        elif prefix is None and name.startswith("_") and not name.startswith("__"):
            found.append((None, name))
    return found


def test_the_check_finds_references():
    found = [ref for path in SOURCES for ref in references(path)]
    assert ("involution", "_iota") in found and (None, "_class_weight") in found
    assert len(found) >= 40


def unresolved(found: list[tuple[str | None, str]]) -> list[str]:
    """The references in ``found`` whose module lacks the name, or, bare, that no module defines."""
    return [
        f"{prefix}.{name}" if prefix else name
        for prefix, name in found
        if not (hasattr(MODULES[prefix], name) if prefix else any(hasattr(m, name) for m in MODULES.values()))
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_quoted_reference_resolves(path):
    assert unresolved(references(path)) == []


def test_every_readme_reference_resolves():
    found = references(README, MARKDOWN_QUOTED)
    assert ("levels", "MAX_LEVEL_N") in found and (None, "_bottom_table") in found
    assert len(found) >= 6
    assert unresolved(found) == []
