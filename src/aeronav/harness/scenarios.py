"""The stock scenario battery: the JSON configs in `configs/` at the root of
the source tree, keyed by file stem.  A seed overrides the stored one, and a
config's `world.random_discs` field is drawn again from it."""
from __future__ import annotations

from functools import partial
from pathlib import Path

from .config import load_config, validate_config

CONFIGS = Path(__file__).resolve().parents[3] / "configs"


def stock(name: str, seed: int | None = None) -> dict:
    """The validated config `configs/<name>.json`, with `seed` if given."""
    cfg = load_config(CONFIGS / f"{name}.json")
    return cfg if seed is None else validate_config({**cfg, "seed": seed})


def all_scenarios() -> dict:
    return {path.stem: load_config(path) for path in sorted(CONFIGS.glob("*.json"))}


# The builders: `stock` by another name.  Their only caller is
# `benchmarks/workloads.py`, which names its instances by them and derives
# their seeds; they go, and the seed derivation moves here, with the next
# change to the benchmark.
planar_static_field = partial(stock, "planar-static")
planar_dynamic_crossers = partial(stock, "planar-dynamic")
planar_trap_wall = partial(stock, "planar-trap")
reactive3d_ellipsoid_field = partial(stock, "reactive3d-ellipsoids")
deform_static_cylinders = partial(stock, "deform-static-cylinders")
deform_quad_tracking = partial(stock, "deform-quad-tracking")
tunnel_narrowing_robust = partial(stock, "tunnel-narrowing-robust")
coverage_barrier = partial(stock, "coverage-barrier-n20")
coverage_sweep = partial(stock, "coverage-sweep")
coverage_agent_removal = partial(stock, "coverage-agent-removal")
coverage_plane_deform = partial(stock, "coverage-plane-deform")


def deform_dynamic_intercept(gamma: float, seed: int | None = None) -> dict:
    return stock(f"deform-dynamic-gamma{gamma}", seed)


def tunnel_scenario(col: str, seed: int | None = None) -> dict:
    """Column `col` (a-g) of the tunnel parameter table."""
    (path,) = CONFIGS.glob(f"tunnel-{col}-*.json")
    return stock(path.stem, seed)


def flock_scenario(n: int, seed: int | None = None) -> dict:
    return stock(f"flock-n{n}", seed)
