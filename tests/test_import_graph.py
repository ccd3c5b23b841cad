"""scipy stays out of the runs that do not use it.  aeronav owns the
ellipsoid root-finder, and only the tunnel KD-trees (the tunnel clouds and
robust perception) import scipy.spatial, at the first tree.  Each check runs
in a fresh interpreter: this test process has loaded scipy already."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

LOADED = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_modules(task: str) -> list[str]:
    """The scipy modules in sys.modules after task ran in a child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    child = subprocess.run([sys.executable, "-c", task + LOADED], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", ["coverage-sweep", "flock-n4", "planar-trap",
                                  "reactive3d-ellipsoids"])
def test_runs_without_a_tunnel_never_load_scipy(name):
    task = ("import aeronav.cli\n"
            "from aeronav.harness.runner import run\n"
            "from aeronav.harness.scenarios import stock\n"
            f"run({{**stock({name!r}), 'duration': 1.0}})\n")
    assert _scipy_modules(task) == []


def test_tunnels_load_scipy_spatial_and_never_scipy_optimize():
    task = ("from aeronav.harness.runner import run\n"
            "from aeronav.harness.scenarios import stock\n"
            "run({**stock('tunnel-narrowing-robust'), 'duration': 1.0})\n")
    loaded = _scipy_modules(task)
    assert "scipy.spatial" in loaded
    assert not [m for m in loaded if m.startswith("scipy.optimize")]
