"""The library imports only the standard library: no undeclared numeric package, and no ``fractions``."""

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


def test_no_undeclared_numeric_package_is_imported():
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert "lucaskit.polyring" in result["imported"] and "lucaskit.cli" in result["imported"]
    roots = {name.partition(".")[0] for name in result["loaded"]}
    assert roots.isdisjoint({"sympy", "numpy", "mpmath"})
    assert "fractions" not in result["loaded"]  # every coefficient is an int
