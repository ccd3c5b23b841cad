"""Golden run-log digests: every stock scenario must reproduce, byte for
byte, the run log, metrics and events recorded in tests/golden/digests.json
(regenerate with `PYTHONPATH=src python tests/golden/regen.py`).  The
coverage digests, and the frames of a tilted coverage plane, must also hold
in child processes that emulate lower hosts: numpy's SIMD dispatch held
back, OpenBLAS on older kernels."""
import ctypes
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from aeronav.harness.runner import run

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402

GOLDEN = json.loads(regen.GOLDEN.read_text())
CONFIGS = regen.golden_configs()


def test_golden_covers_every_scenario():
    assert sorted(GOLDEN["scenarios"]) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digest(name):
    want = GOLDEN["scenarios"][name]
    cfg = CONFIGS[name]
    assert cfg["duration"] == want["duration"]
    got = {"duration": cfg["duration"], **regen.digest(run(cfg))}
    recorded = {k: GOLDEN.get(k) for k in regen.versions()}
    assert got == want, (
        f"{name}: {', '.join(regen.differ(want, got))} differ from the golden digests, which "
        f"were recorded under {recorded}; this is {regen.versions()}")


def test_regen_check_and_named_entries(tmp_path, monkeypatch, capsys):
    """--check reports the differing parts and writes nothing; named
    scenarios are rewritten and every other entry is left as it is."""
    short = {name: dict(CONFIGS[name], duration=0.5)
             for name in ("deform-quad-tracking", "planar-static")}
    monkeypatch.setattr(regen, "golden_configs",
                        lambda: {k: dict(v) for k, v in short.items()})
    monkeypatch.setattr(regen, "GOLDEN", tmp_path / "digests.json")
    assert regen.main([]) == 0
    fresh = regen.GOLDEN.read_text()
    assert regen.main(["--check"]) == 0
    data = json.loads(fresh)
    data["scenarios"]["planar-static"].update(csv_sha256="0", duration=1.0)
    data["scenarios"]["deform-quad-tracking"]["events_sha256"] = "0"
    tampered = json.dumps(data, indent=2, sort_keys=True) + "\n"
    regen.GOLDEN.write_text(tampered)
    capsys.readouterr()
    assert regen.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "deform-quad-tracking: events differ" in out
    assert "planar-static: csv, duration differ" in out
    assert regen.GOLDEN.read_text() == tampered
    assert regen.main(["planar-static"]) == 0
    data = json.loads(regen.GOLDEN.read_text())
    assert data["scenarios"]["planar-static"] == json.loads(fresh)["scenarios"]["planar-static"]
    assert data["scenarios"]["deform-quad-tracking"]["events_sha256"] == "0"


COVERAGE = ("coverage-barrier-n20", "coverage-sweep", "coverage-agent-removal",
            "coverage-plane-deform")

# Lower hosts this one can stand in for: numpy's run-time SIMD dispatch held
# below a feature group, and OpenBLAS made to pick an older core's kernels.
EMULATED_HOSTS = {
    "numpy-no-x86-v4": {"NPY_DISABLE_CPU_FEATURES": "X86_V4"},
    "numpy-no-x86-v3": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 X86_V3"},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "avx2-host": {"NPY_DISABLE_CPU_FEATURES": "X86_V4", "OPENBLAS_CORETYPE": "Haswell"},
}
# the instructions each OpenBLAS core type's kernels execute
CORE_NEEDS = {"Haswell": ("AVX2", "FMA3"), "Sandybridge": ("AVX",)}

# A child asserts that its emulation took, then runs its task.
CHILD = """
import ctypes, json, sys
from numpy._core._multiarray_umath import __cpu_features__
spec = json.loads(sys.argv[1])
for feature in spec["off"]:
    assert not __cpu_features__[feature], f"{feature} is still on"
if spec["openblas"]:
    lib, symbol, core = spec["openblas"]
    get_core = getattr(ctypes.CDLL(lib), symbol)
    get_core.argtypes, get_core.restype = [], ctypes.c_char_p
    assert get_core().decode() == core, f"OpenBLAS runs {get_core()}, not {core}"
"""
REGEN_CHECK = f"""
sys.path.insert(0, {str(regen.GOLDEN.parent)!r})
import regen
sys.exit(regen.main(["--check", *{list(COVERAGE)!r}]))
"""
# sha256 of the boundaries of a 10 m square scaled and tilted about 2,000
# seeded random axes, which have inexact norms (the stock axis has exact ones)
RESHAPED_SHA = """
import hashlib
import numpy as np
from aeronav.coverage import BarrierFrame
frame = BarrierFrame.from_vertices(np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0],
                                             [10.0, 10.0, 0.0], [0.0, 10.0, 0.0]]))
sha = hashlib.sha256()
for axis in np.random.default_rng(0).standard_normal((2000, 3)):
    sha.update(frame.reshaped(0.9, axis, 0.25).boundary_world.tobytes())
print(sha.hexdigest())
"""


def _openblas_corename():
    """(library path, symbol) of the corename query of numpy's OpenBLAS, or
    None where numpy does not ship the scipy-openblas build."""
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas*.so"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            if hasattr(ctypes.CDLL(str(lib)), symbol):
                return str(lib), symbol
    return None


def _child(task: str, emulation: dict) -> subprocess.CompletedProcess:
    """Run task in a child process under the emulation, a value of
    EMULATED_HOSTS or {} for this host; skips where this host cannot
    emulate it."""
    off = emulation.get("NPY_DISABLE_CPU_FEATURES", "").split()
    for feature in off:
        if feature not in __cpu_dispatch__:
            pytest.skip(f"this numpy has no {feature} kernels to disable")
    openblas = None
    core = emulation.get("OPENBLAS_CORETYPE")
    if core:
        missing = [f for f in CORE_NEEDS[core] if not __cpu_features__[f]]
        if missing:
            pytest.skip(f"this CPU lacks {', '.join(missing)} for OpenBLAS's {core} kernels")
        query = _openblas_corename()
        if query is None:
            pytest.skip("numpy's OpenBLAS cannot report the core type it runs")
        openblas = [*query, core]
    env = {k: v for k, v in os.environ.items()
           if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    spec = {"off": off, "openblas": openblas}
    return subprocess.run([sys.executable, "-c", CHILD + task, json.dumps(spec)],
                          env={**env, **emulation}, capture_output=True, text=True,
                          timeout=600)


@pytest.mark.parametrize("host", sorted(EMULATED_HOSTS))
def test_coverage_digests_on_emulated_hosts(host):
    """The coverage digests do not depend on numpy's SIMD kernels or
    OpenBLAS's: each emulated host, in a child process of its own, checks
    them against digests.json."""
    emulation = EMULATED_HOSTS[host]
    child = _child(REGEN_CHECK, emulation)
    assert child.returncode == 0, f"{host} {emulation}:\n{child.stdout}{child.stderr}"


@functools.cache
def _reshaped_sha_here() -> str:
    child = _child(RESHAPED_SHA, {})
    assert child.returncode == 0, child.stderr
    return child.stdout


@pytest.mark.parametrize("host", sorted(EMULATED_HOSTS))
def test_tilted_frames_on_emulated_hosts(host):
    """A coverage plane tilted about a general axis gets the same frame on
    every emulated host as on this one."""
    emulation = EMULATED_HOSTS[host]
    child = _child(RESHAPED_SHA, emulation)
    assert child.returncode == 0, f"{host} {emulation}:\n{child.stderr}"
    assert child.stdout == _reshaped_sha_here(), f"{host} {emulation}"
