"""Scenario configuration: a single JSON tree, schema-versioned, validated
fail-fast with unknown keys rejected."""
from __future__ import annotations

import json
import math
from numbers import Integral, Real
from pathlib import Path

SCHEMA_VERSION = 1

KINDS = ("hybrid2d", "reactive3d", "deform3d", "deform3d_quad", "tunnel",
         "flocking", "coverage")

_TOP_KEYS = {"version", "name", "seed", "kind", "duration", "control_dt",
             "plant_dt", "start", "goal", "heading", "world", "tunnel",
             "agents", "params", "monitors", "output"}
_WORLD_KEYS = {"bounds", "obstacles"}
_OBSTACLE_KEYS = {"type", "center", "radius", "known", "motion", "semi",
                  "rotation", "base", "axis", "height", "vertices", "loop"}
_MOTION_KEYS = {"kind", "velocity", "direction", "amplitude", "omega", "phase"}
_TUNNEL_KEYS = {"shape", "radius", "length", "density", "ds", "noise_sigma",
                "start_radius", "end_radius", "ring_radius", "helix_radius",
                "pitch", "turns", "bend_radius", "corner_smoothing"}
_AGENT_KEYS = {"count", "spawn", "min_spacing"}
_MONITOR_KEYS = {"d_safe", "min_pair", "expect_replans", "require_goal",
                 "lattice_spacing", "lattice_tol", "max_speed_final",
                 "centroid_tol", "cost_non_increasing", "progress_window",
                 "wall_margin", "sweep_speed", "sweep_tol"}
_OUTPUT_KEYS = {"dir", "csv", "jsonl", "svg"}


class ConfigError(Exception):
    pass


def _reject_unknown(section: dict, allowed: set, where: str):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_number(value, where: str, positive: bool) -> None:
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not math.isfinite(value) or value < 0 or (positive and value == 0)):
        bound = "> 0" if positive else ">= 0"
        raise ConfigError(f"{where} must be a finite number {bound}, got {value!r}")


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    _reject_unknown(cfg, _TOP_KEYS, "top level")
    if cfg.get("version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {cfg.get('version')!r}")
    if "seed" not in cfg:
        raise ConfigError("seed is mandatory")
    if not _is_int(cfg["seed"]):
        raise ConfigError(f"seed must be an integer, got {cfg['seed']!r}")
    if cfg.get("kind") not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}")
    for key, positive in (("duration", False), ("control_dt", True),
                          ("plant_dt", True)):
        if key in cfg:
            _check_number(cfg[key], key, positive)
    for key in ("world", "tunnel", "agents", "monitors", "output", "params"):
        if key in cfg and not isinstance(cfg[key], dict):
            raise ConfigError(f"{key} must be a mapping")
    if "world" in cfg:
        if not isinstance(cfg["world"].get("obstacles", []), list):
            raise ConfigError("world.obstacles must be a list")
        _reject_unknown(cfg["world"], _WORLD_KEYS, "world")
        for i, ob in enumerate(cfg["world"].get("obstacles", [])):
            _reject_unknown(ob, _OBSTACLE_KEYS, f"world.obstacles[{i}]")
            if "motion" in ob and ob["motion"] is not None:
                _reject_unknown(ob["motion"], _MOTION_KEYS,
                                f"world.obstacles[{i}].motion")
    if "tunnel" in cfg:
        _reject_unknown(cfg["tunnel"], _TUNNEL_KEYS, "tunnel")
    if "agents" in cfg:
        _reject_unknown(cfg["agents"], _AGENT_KEYS, "agents")
        count = cfg["agents"].get("count", 1)
        if not _is_int(count) or count < 1:
            raise ConfigError(f"agents.count must be an integer >= 1, got {count!r}")
    if "monitors" in cfg:
        _reject_unknown(cfg["monitors"], _MONITOR_KEYS, "monitors")
    if "output" in cfg:
        _reject_unknown(cfg["output"], _OUTPUT_KEYS, "output")
    return cfg


def load_config(path) -> dict:
    with open(Path(path)) as fh:
        cfg = json.load(fh)
    return validate_config(cfg)


def save_config(cfg: dict, path) -> None:
    validate_config(cfg)
    with open(Path(path), "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
