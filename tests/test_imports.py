"""The library imports only the standard library: no undeclared numeric package, and no ``fractions``.

It also imports the level check only when an involution is verified, not
when a sweep is refused past its reach.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = f"""
import importlib, json, pkgutil, sys
sys.path.insert(0, {str(SRC)!r})
import lucaskit
names = sorted(m.name for m in pkgutil.iter_modules(lucaskit.__path__, "lucaskit."))
for name in names:
    importlib.import_module(name)
print(json.dumps({{"imported": names, "loaded": sorted(sys.modules)}}))
"""

CLI_SCRIPT = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
import lucaskit.cli
code = lucaskit.cli.main(["verify", "involution", "--max-n", "18"])
print(json.dumps({{"code": code, "loaded": list(sys.modules)}}))
"""


def test_no_undeclared_numeric_package_is_imported():
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert "lucaskit.polyring" in result["imported"] and "lucaskit.cli" in result["imported"]
    roots = {name.partition(".")[0] for name in result["loaded"]}
    assert roots.isdisjoint({"sympy", "numpy", "mpmath"})
    assert "fractions" not in result["loaded"]  # every coefficient is an int


def test_cli_leaves_the_level_check_unloaded():
    # ``involution`` imports ``levels`` on first use: compiling it costs every
    # other command a few milliseconds of start-up where bytecode is not cached.
    # The reach the CLI refuses past lives in ``involution``, so a refused sweep loads no level check either.
    done = subprocess.run([sys.executable, "-c", CLI_SCRIPT], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "error: n = 18; the involution check proves levels up to n = 17\n"
    result = json.loads(done.stdout)
    assert result["code"] == 1
    loaded = set(result["loaded"])
    assert "lucaskit.involution" in loaded
    assert "lucaskit.levels" not in loaded
