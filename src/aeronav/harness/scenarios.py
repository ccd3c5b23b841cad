"""The stock scenario battery: the JSON configs in `configs/` at the root of
the source tree, keyed by file stem.  Each builder loads one of them.  A seed
overrides the stored one; only the two random obstacle fields also draw their
obstacles again from it (at the stored seed, the stored obstacles)."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .config import load_config, validate_config

CONFIGS = Path(__file__).resolve().parents[3] / "configs"


def stock(name: str, seed: int | None = None) -> dict:
    """The validated config `configs/<name>.json`, with `seed` if given."""
    cfg = load_config(CONFIGS / f"{name}.json")
    return cfg if seed is None else validate_config({**cfg, "seed": seed})


def all_scenarios() -> dict:
    return {path.stem: load_config(path) for path in sorted(CONFIGS.glob("*.json"))}


def _random_discs(seed, n, low, high, radii, keepout, keepout_gap, gap) -> list:
    """n (center, radius) discs, uniform in the box [low, high] and `radii`,
    rejected unless `keepout_gap` off each keepout point and `gap` apart."""
    rng = np.random.default_rng(seed)
    out, attempts = [], 0
    while len(out) < n:
        attempts += 1
        if attempts > 200_000:
            raise RuntimeError("disc sampling over-constrained for the region")
        c = rng.uniform(low, high)
        r = float(rng.uniform(*radii))
        if not (any(np.linalg.norm(c - k) < r + keepout_gap for k in keepout)
                or any(np.linalg.norm(c - c2) < r + r2 + gap for c2, r2 in out)):
            out.append((c, r))
    return out


def planar_static_field(seed: int | None = None) -> dict:
    """Thirty unknown static discs between two known walls."""
    cfg = stock("planar-static", seed)
    if seed is not None:
        obstacles = cfg["world"]["obstacles"]
        walls = [o for o in obstacles if o["type"] == "wall"]
        discs = _random_discs(seed, len(obstacles) - len(walls), [4.0, -9.0],
                              [44.0, 9.0], (0.2, 0.6), [cfg["start"], cfg["goal"]],
                              keepout_gap=2.2, gap=2.6)
        cfg["world"]["obstacles"] = [
            {"type": "sphere", "center": c.tolist(), "radius": r, "known": False}
            for c, r in discs] + walls
    return cfg


def planar_dynamic_crossers(seed: int | None = None) -> dict:
    """Four unknown crossers, all slower than the vehicle."""
    return stock("planar-dynamic", seed)


def planar_trap_wall(seed: int | None = None) -> dict:
    """Trap wall across the planned route: exactly one replan expected."""
    return stock("planar-trap", seed)


def reactive3d_ellipsoid_field(seed: int | None = None) -> dict:
    """Five ellipsoids, 3D reactive avoidance with the reference design."""
    return stock("reactive3d-ellipsoids", seed)


def deform_static_cylinders(seed: int | None = None) -> dict:
    """Thirty random vertical cylinders, small safety factor."""
    cfg = stock("deform-static-cylinders", seed)
    if seed is not None:
        obstacles = cfg["world"]["obstacles"]
        discs = _random_discs(seed, len(obstacles), [3.0, 3.0], [24.0, 24.0],
                              (0.35, 0.7), [cfg["start"][:2], cfg["goal"][:2]],
                              keepout_gap=2.5, gap=2.3)
        cfg["world"]["obstacles"] = [
            {**obstacles[0], "base": [*c.tolist(), 0.0], "radius": r}
            for c, r in discs]
    return cfg


def deform_dynamic_intercept(gamma: float, seed: int | None = None) -> dict:
    """One sphere crossing the route; gamma is the safety factor (1.5, 2.5)."""
    return stock(f"deform-dynamic-gamma{gamma}", seed)


def deform_quad_tracking(seed: int | None = None) -> dict:
    """Quadrotor tracking a deformed trajectory at 0.5 m/s."""
    return stock("deform-quad-tracking", seed)


def tunnel_scenario(col: str, seed: int | None = None) -> dict:
    """Column `col` (a-g) of the tunnel parameter table."""
    (path,) = CONFIGS.glob(f"tunnel-{col}-*.json")
    return stock(path.stem, seed)


def tunnel_narrowing_robust(seed: int | None = None) -> dict:
    """Narrowing tunnel with the robust perception pipeline."""
    return stock("tunnel-narrowing-robust", seed)


def flock_scenario(n: int, seed: int | None = None) -> dict:
    """Flocking with n = 4 (one obstacle, goal reached), 20 or 100 agents."""
    return stock(f"flock-n{n}", seed)


def coverage_barrier(seed: int | None = None) -> dict:
    """Twenty agents settling on a bounded barrier."""
    return stock("coverage-barrier-n20", seed)


def coverage_sweep(seed: int | None = None) -> dict:
    """Twelve agents sweeping a plane at 1.5 m/s."""
    return stock("coverage-sweep", seed)


def coverage_agent_removal(seed: int | None = None) -> dict:
    """The sweep with nine agents, four of them removed on the way."""
    return stock("coverage-agent-removal", seed)


def coverage_plane_deform(seed: int | None = None) -> dict:
    """The sweep with six agents while the plane is resized and tilted."""
    return stock("coverage-plane-deform", seed)
