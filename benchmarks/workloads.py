"""Workload definitions for the aeronav benchmark.

A workload is a fixed list of stock scenario instances.  Each instance is a
stock builder from `aeronav.harness.scenarios`, called with its stock
parameters, and run for a fixed prefix (its horizon, in simulated seconds)
of the stock duration.  The horizons keep one pass over a workload to a few
seconds of host time on a 2-core machine, so that a run holds ten or more
passes, and each horizon is long enough to reach the events the instance is
there for (deformations, agent removals, plane resizes, replans, avoidance
manoeuvres).  The two workloads split the layers: `swarm` runs flocking and
coverage and nothing of the single-vehicle stack, `vehicle` the reverse.

Workload seed 0 reproduces every builder's stock seed.  Any other workload
seed derives one seed per instance from (workload seed, instance name).
"""
from __future__ import annotations

import hashlib
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Monitors that judge a run prefix: each holds on every prefix of a passing
# run.  The others (goal reached, replan count, final speeds, final centroid
# error, final lattice, final sweep consensus) judge the end of a full-length
# run and cannot be applied to a run cut at the horizon.
PREFIX_MONITORS = ("d_safe", "min_pair", "wall_margin", "progress_window",
                   "cost_non_increasing")

# Logged or reported clearances: NaN in any of them fails the instance, +inf
# (no obstacle, single agent) is allowed.
CLEARANCE_METRICS = ("min_d_obs", "min_pair_d", "min_wall_distance")


def pin_threads() -> None:
    """One BLAS/OpenMP thread: must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_aeronav():
    """Import aeronav from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "aeronav" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no aeronav sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import aeronav
    if Path(aeronav.__file__).resolve().parent != SRC / "aeronav":
        raise SystemExit(f"benchmark: imported aeronav from {aeronav.__file__}, "
                         f"not from {SRC}")
    return aeronav


@dataclass(frozen=True)
class Instance:
    name: str
    builder: str        # function name in aeronav.harness.scenarios
    args: tuple         # positional arguments before the seed
    horizon: float      # simulated seconds (capped at the stock duration)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instances: tuple


WORKLOADS = {w.name: w for w in (
    Workload(
        "swarm",
        "flocking and Voronoi coverage at n=20, where per-agent control and "
        "n(n-1) half-plane clips dominate, and at n<=12 with sweep, removal "
        "and plane resize, where fixed per-tick cost dominates",
        (Instance("flock-n20", "flock_scenario", (20,), 10.0),
         Instance("coverage-barrier-n20", "coverage_barrier", (), 4.0),
         Instance("flock-n4", "flock_scenario", (4,), 20.0),
         Instance("coverage-sweep", "coverage_sweep", (), 3.0),
         Instance("coverage-agent-removal", "coverage_agent_removal", (), 12.5),
         Instance("coverage-plane-deform", "coverage_plane_deform", (), 15.5))),
    Workload(
        "vehicle",
        "single vehicles with no swarm code: Bezier paths and deformation, "
        "distance queries, quadrotor, raycasts, RRT, tunnel clouds, slicing "
        "and robust perception",
        (Instance("deform-static-cylinders", "deform_static_cylinders", (), 2.0),
         Instance("deform-dynamic-gamma1.5", "deform_dynamic_intercept", (1.5,), 13.5),
         Instance("deform-dynamic-gamma2.5", "deform_dynamic_intercept", (2.5,), 13.5),
         Instance("deform-quad-tracking", "deform_quad_tracking", (), 1.5),
         Instance("reactive3d-ellipsoids", "reactive3d_ellipsoid_field", (), 4.0),
         Instance("planar-static", "planar_static_field", (), 8.0),
         Instance("planar-dynamic", "planar_dynamic_crossers", (), 8.0),
         Instance("planar-trap", "planar_trap_wall", (), 8.0),
         *(Instance(name, "tunnel_scenario", (name[7],), 5.0)
           for name in ("tunnel-a-smooth-bend", "tunnel-b-torus",
                        "tunnel-c-helix", "tunnel-d-sharp-bends",
                        "tunnel-e-s-shape", "tunnel-f-rectangular",
                        "tunnel-g-pipeline")),
         Instance("tunnel-narrowing-robust", "tunnel_narrowing_robust", (), 3.0))),
)}


def instance_seed(workload_seed: int, inst: Instance) -> int | None:
    """None keeps the builder's stock seed."""
    if workload_seed == 0:
        return None
    digest = hashlib.sha256(f"{workload_seed}:{inst.name}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def build_configs(workload: Workload, workload_seed: int) -> list[dict]:
    """Stock configs with the derived seed, cut at the horizon and keeping
    only the prefix monitors; validated like any other config."""
    from aeronav.harness import scenarios
    from aeronav.harness.config import validate_config
    out = []
    for inst in workload.instances:
        seed = instance_seed(workload_seed, inst)
        kwargs = {} if seed is None else {"seed": seed}
        cfg = getattr(scenarios, inst.builder)(*inst.args, **kwargs)
        if cfg["name"] != inst.name:
            raise ValueError(f"builder {inst.builder} made {cfg['name']!r}, "
                             f"expected {inst.name!r}")
        cfg["duration"] = min(float(cfg["duration"]), inst.horizon)
        cfg["monitors"] = {k: v for k, v in cfg.get("monitors", {}).items()
                           if k in PREFIX_MONITORS}
        out.append(validate_config(cfg))
    return out


def agent_ticks(cfg: dict, log) -> int:
    """Agents x control ticks actually simulated (removed agents stop
    counting from their removal tick)."""
    if not log.records:
        return 0
    ticks = log.records[-1]["tick"] + 1
    n = int(cfg.get("agents", {}).get("count", 1))
    removals = cfg.get("params", {}).get("coverage", {}).get("removals", [])
    return n * ticks - sum(max(0, ticks - int(r["tick"])) for r in removals)


def check_instance(result) -> list[str]:
    """Reasons the finished instance is wrong; empty when it is correct.
    Unlike the monitors, NaN here is a failure and +inf is not."""
    bad = [f"monitor {m.name}: {m.detail}" for m in result.monitors if not m.passed]
    for r in result.log.records:
        if math.isnan(r["d_obs"]) or math.isnan(r["min_pair"]):
            bad.append(f"NaN clearance logged at tick {r['tick']}")
            break
    for key in CLEARANCE_METRICS:
        v = result.metrics.get(key)
        if v is not None and math.isnan(v):
            bad.append(f"metric {key} is NaN")
    return bad
