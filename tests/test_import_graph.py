"""No run loads scipy: aeronav owns the ellipsoid root-finder and the cell
grid over each tunnel cloud, and scipy is only the tests' oracle.  Each
check runs in a fresh interpreter: this test process has loaded scipy
already."""
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


def test_no_stock_run_and_no_gen_tunnel_loads_scipy(tmp_path):
    """Every stock config for a second (each tunnel generates its whole
    cloud and axis check first), then `aeronav gen-tunnel`, in one child."""
    task = ("from aeronav.cli import main\n"
            "from aeronav.harness.runner import run\n"
            "from aeronav.harness.scenarios import all_scenarios\n"
            "configs = all_scenarios()\n"
            "assert len(configs) == 23\n"
            "for cfg in configs.values():\n"
            "    run({**cfg, 'duration': 1.0})\n"
            f"assert main(['gen-tunnel', 'helix', '--out', {str(tmp_path / 'h.xyz')!r}]) == 0\n")
    assert _scipy_modules(task) == []
    assert (tmp_path / "h.xyz").stat().st_size > 0
