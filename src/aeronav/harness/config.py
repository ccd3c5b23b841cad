"""Scenario configuration: a single JSON tree, schema-versioned, validated
fail-fast with unknown keys rejected."""
from __future__ import annotations

import json
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


def validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    _reject_unknown(cfg, _TOP_KEYS, "top level")
    if cfg.get("version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {cfg.get('version')!r}")
    if "seed" not in cfg:
        raise ConfigError("seed is mandatory")
    if cfg.get("kind") not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}")
    if "world" in cfg:
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
    if "monitors" in cfg:
        _reject_unknown(cfg["monitors"], _MONITOR_KEYS, "monitors")
    if "output" in cfg:
        _reject_unknown(cfg["output"], _OUTPUT_KEYS, "output")
    if "params" in cfg and not isinstance(cfg["params"], dict):
        raise ConfigError("params must be a mapping")
    float(cfg.get("duration", 0.0))
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
