"""The library imports only the standard library: no undeclared numeric package, and no ``fractions``.

A fresh process also refuses an involution sweep past the level check's
reach before it checks any level.
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
from lucaskit import involution, levels
code = lucaskit.cli.main(["verify", "involution", "--max-n", "18"])
caches = [involution._checked_pair, levels.holds, levels._class_weight, levels._bottom_table]
print(json.dumps({{"code": code, "cached": sum(cache.cache_info().currsize for cache in caches)}}))
"""


def test_no_undeclared_numeric_package_is_imported():
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert "lucaskit.polyring" in result["imported"] and "lucaskit.cli" in result["imported"]
    roots = {name.partition(".")[0] for name in result["loaded"]}
    assert roots.isdisjoint({"sympy", "numpy", "mpmath"})
    assert "fractions" not in result["loaded"]  # every coefficient is an int


def test_cli_refuses_past_the_reach_before_any_work():
    # The reach lives in ``levels``, which ``involution`` imports; a refused sweep proves no level.
    done = subprocess.run([sys.executable, "-c", CLI_SCRIPT], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr == "error: n = 18; the involution check proves levels up to n = 17\n"
    assert json.loads(done.stdout) == {"code": 1, "cached": 0}
