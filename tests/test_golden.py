"""Pinned CLI output: the exit code and the exact stdout of fixed commands.

Each ``.txt`` file under ``tests/golden/`` holds ``exit <code>`` on its first
line and the command's stdout after it; the ``.json`` files there are the
documents that commands read with ``--input``.  After an intended output
change, regenerate the ``.txt`` files with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from lucaskit import cli
from lucaskit.polyring import Poly2

GOLDEN = Path(__file__).parent / "golden"
# A "{name}" argument stands for this input document under tests/golden/.
INPUTS = {
    "{extended}": "extended-7-5-2.json",
    "{tiling}": "tiling-skew-5-3-2-2-1.json",
    "{binomial}": "partial-binomial-6-3.json",
    "{catalan}": "partial-catalan-3.json",
    "{fuss}": "partial-fuss-2-2.json",
    "{ddivisible}": "partial-ddivisible-4-2-2.json",
}
RENDERED = [
    ["--shape", "skew:5.3.2/2.1"],
    ["--shape", "delta:1"],
    *(["--input", name] for name in INPUTS if name != "{extended}"),
]

QUANTITY_COMMANDS = [
    ["lucas", "--n", "6"],
    ["lucastorial", "--n", "4"],
    ["lucasnomial", "--n", "6", "--k", "3"],
    ["dlucasnomial", "--n", "4", "--k", "2", "--d", "2"],
    ["catalan", "--n", "4"],
    ["fuss", "--n", "3", "--k", "2"],
    ["narayana", "--n", "6", "--k", "3"],
    ["rational", "--a", "3", "--b", "5"],
]

COMMANDS = [
    *([*command, "--format", fmt] for command in QUANTITY_COMMANDS for fmt in ("pretty", "json", "csv")),
    ["rational", "--a", "4", "--b", "6"],
    ["coxeter", "--type", "A", "--n", "3"],
    ["coxeter", "--type", "B", "--n", "3", "--fuss-k", "2"],
    ["coxeter", "--type", "D", "--n", "4", "--format", "json"],
    ["coxeter", "--type", "I2", "--m", "5"],
    ["coxeter", "--type", "I2", "--m", "5", "--fuss-k", "3", "--format", "csv"],
    ["coxeter", "--type", "H3"],
    ["coxeter", "--type", "F4", "--fuss-k", "2"],
    ["coxeter", "--type", "B"],
    ["coxeter", "--type", "I2", "--n", "5"],
    ["analyze", "--expr", "lucas:6"],
    ["analyze", "--expr", "lucastorial:4"],
    ["analyze", "--expr", "lucasnomial:6:3"],
    ["analyze", "--expr", "dlucasnomial:4:2:2"],
    ["analyze", "--expr", "catalan:4", "--format", "json"],
    ["analyze", "--expr", "fuss:3:2"],
    ["analyze", "--expr", "narayana:6:3", "--format", "csv"],
    ["analyze", "--expr", "rational:3:5"],
    ["analyze", "--expr", "coxeter:H3"],
    ["analyze", "--expr", "coxeter:B:3"],
    ["analyze", "--expr", "coxeter:I2:5:2"],
    ["analyze", "--expr", "coxeter:F4:2"],
    ["analyze", "--expr", "nonsense:3"],
    ["tilings", "partition", "--variant", "binomial", "--n", "5", "--k", "2", "--format", "json"],
    ["tilings", "partition", "--variant", "catalan", "--n", "3", "--format", "json"],
    ["tilings", "partition", "--variant", "fuss", "--n", "2", "--k", "2", "--format", "json"],
    ["tilings", "partition", "--variant", "ddivisible", "--n", "3", "--k", "1", "--d", "2", "--format", "json"],
    ["tilings", "partition", "--variant", "catalan", "--n", "3"],
    ["tilings", "partition", "--variant", "binomial", "--n", "5", "--k", "2"],
    ["tilings", "partition", "--variant", "fuss", "--n", "2", "--k", "2"],
    ["tilings", "partition", "--variant", "ddivisible", "--n", "3", "--k", "1", "--d", "2"],
    ["tilings", "partition", "--variant", "catalan", "--n", "4"],
    ["tilings", "partition", "--variant", "fuss", "--n", "3", "--k", "2", "--format", "json"],
    ["tilings", "partition", "--variant", "ddivisible", "--n", "4", "--k", "2", "--d", "3"],
    ["tilings", "enumerate", "--shape", "delta:4"],
    ["tilings", "enumerate", "--shape", "delta:4", "--format", "json"],
    *(["tilings", "render", *source, "--format", fmt] for source in RENDERED for fmt in ("ascii", "svg")),
    ["involution", "apply", "--input", "{extended}"],
    ["involution", "apply", "--input", "{extended}", "--format", "json"],
    ["involution", "verify", "--n", "6", "--k", "3", "--r", "2", "--format", "json"],
    ["verify", "involution", "--max-n", "8"],
    ["verify", "involution", "--max-n", "8", "--format", "json"],
    ["findings", "narayana", "--max-n", "12"],
    ["findings", "rational", "--max-ab", "12"],
    ["findings", "exceptional-fuss", "--max-k", "2"],
]


def golden_path(argv: list[str]) -> Path:
    return GOLDEN / (re.sub(r"[^A-Za-z0-9]+", "-", " ".join(argv)).strip("-") + ".txt")


def run(argv: list[str]) -> str:
    """``exit <code>`` and then the command's stdout, as the golden files hold them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(GOLDEN / INPUTS[arg]) if arg in INPUTS else arg for arg in argv])
    return f"exit {code}\n{out.getvalue()}"


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_matches_golden(argv):
    assert run(argv) == golden_path(argv).read_bytes().decode()


def polynomial_documents(value):
    """Every polynomial ({"terms": ...}) inside a JSON value."""
    if isinstance(value, dict):
        if "terms" in value:
            yield value
        else:
            for item in value.values():
                yield from polynomial_documents(item)
    elif isinstance(value, list):
        for item in value:
            yield from polynomial_documents(item)


def test_golden_polynomials_parse_strictly():
    # The strict reader takes back every polynomial the JSON commands wrote.
    found = 0
    for path in sorted(GOLDEN.glob("*-format-json.txt")):
        for doc in polynomial_documents(json.loads(path.read_text().split("\n", 1)[1])):
            assert Poly2.from_json_dict(doc).to_json_dict() == doc, path.name
            found += 1
    assert found >= 19


if __name__ == "__main__":
    for argv in COMMANDS:
        golden_path(argv).write_bytes(run(argv).encode())
    print(f"wrote {len(COMMANDS)} files to {GOLDEN}", file=sys.stderr)
