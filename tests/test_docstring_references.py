"""Every name that a docstring or comment in ``src/lucaskit`` quotes in double backquotes exists.

A ``module.name`` reference, where module is a lucaskit module, needs that
module to have the name; a bare ``_name`` reference needs some lucaskit
module to define it.  So moving or renaming a private helper without its
references fails here.  Other quoted text (parameters, public names,
formulas) is not checked.
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
QUOTED = re.compile(r"``(.+?)``", re.DOTALL)
# An optional module prefix, a name, and an optional call: ``levels.holds``, ``_iota(n, k, ...)``.
REFERENCE = re.compile(r"(?:(\w+)\.)?(\w+)(?:\(.*\))?", re.DOTALL)


def references(path: Path) -> list[tuple[str | None, str]]:
    """The (module, name) references quoted in ``path``; module is None for a bare ``_name``."""
    found = []
    for text in QUOTED.findall(path.read_text()):
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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_quoted_reference_resolves(path):
    missing = [
        f"{prefix}.{name}" if prefix else name
        for prefix, name in references(path)
        if not (hasattr(MODULES[prefix], name) if prefix else any(hasattr(m, name) for m in MODULES.values()))
    ]
    assert missing == []
