"""Scenario configuration: a single JSON tree, schema-versioned, validated
fail-fast.  Every value the runner reads is checked for its type and range,
and a bad one raises ConfigError naming the key."""
from __future__ import annotations

import dataclasses
import json
import math
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from ..coverage import BarrierFrame, FrameError
from ..deform import DeformParams
from ..geom import norm
from ..flocking import FlockParams
from ..hybrid2d import HybridParams
from ..planner2d import RrtParams
from ..reactive3d import Reactive3DParams
from ..tunnel_nav import TunnelParams
from ..tunnels import SHAPES
from .monitors import MONITORS, judged

SCHEMA_VERSION = 1

KINDS = ("hybrid2d", "reactive3d", "deform3d", "deform3d_quad", "tunnel",
         "flocking", "coverage")


class ConfigError(Exception):
    pass


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_integer(value) -> bool:
    return _is_number(value) and isinstance(value, Integral)


def _fail(where: str, want: str, value):
    raise ConfigError(f"{where or 'config'} must be {want}, got {value!r}")


def _array(*shape: int, ok=None, want: str = ""):
    """Check for (nested) lists of finite numbers of this shape, passing
    ok(value) if given."""
    def check(value, where):
        arr = np.asarray(value, dtype=object)
        if not (isinstance(value, list) and arr.shape == shape
                and all(_is_number(x) for x in arr.flat) and (ok is None or ok(value))):
            _fail(where, f"finite numbers of shape {shape}{want}", value)
    return check


def _points(dim: int, at_least: int, box: bool = False):
    """Check for a list of points; a box is [low, high] with low <= high."""
    def check(value, where):
        _check(value, [_array(dim)], where)
        if len(value) < at_least or box and (
                len(value) != 2 or any(lo > hi for lo, hi in zip(*value))):
            _fail(where, "[low, high] with low <= high" if box
                  else f"at least {at_least} points", value)
    return check


def _probes(value, where):
    _check(value, ["pos"], where)
    if len(value) < 2:
        _fail(where, "at least two distances", value)


_NONZERO = {"ok": any, "want": ", not all zero"}
_POSITIVE = {"ok": lambda v: min(v) > 0, "want": ", all > 0"}
# A spec is a scalar name, a tuple of allowed strings, a dict (a mapping with
# at most these keys), a one-item list (a list of such items), a dataclass (a
# params section of its fields), a check f(value, where), or None for a value
# that validate_config checks by kind.
_SCALARS = {"pos": ("a finite number > 0", lambda x: _is_number(x) and x > 0),
            "num": ("a finite number >= 0", lambda x: _is_number(x) and x >= 0),
            "real": ("a finite number", _is_number),
            "int": ("an integer >= 0", lambda x: _is_integer(x) and x >= 0),
            "int+": ("an integer >= 1", lambda x: _is_integer(x) and x >= 1),
            "bool": ("true or false", lambda x: isinstance(x, bool)),
            "str": ("a string", lambda x: isinstance(x, str))}

_WORLD_KEYS = {"bounds", "obstacles", "random_discs"}
# fields the runner reads for each obstacle type
_OBSTACLE_FIELDS = {"sphere": ("center", "radius"),
                    "cylinder": ("base", "axis", "radius", "height"),
                    "ellipsoid": ("center", "semi"),
                    "wall": ("vertices",)}
_OBSTACLE_KEYS = {"type", "known", "motion", *(f for fields in _OBSTACLE_FIELDS.values()
                                              for f in fields)}
_MOTION_KEYS = {"velocity"}
# obstacle types a kind's navigator can handle: the planar one raycasts
# discs and walls, the reactive one resolves tangents to static ellipsoids
_KIND_OBSTACLES = {"hybrid2d": ("sphere", "wall"), "reactive3d": ("ellipsoid",)}
# the obstacle types a kind's random discs may become: a disc on the plane,
# a cylinder or a sphere at z = 0 in 3D; other kinds take none
_KIND_DISCS = {"hybrid2d": ("sphere",), "deform3d": ("cylinder", "sphere"),
               "deform3d_quad": ("cylinder", "sphere")}
# the fields of a random disc that are drawn, not taken from its template
_DRAWN_FIELDS = ("center", "base", "radius")
_RANDOM_DISC_KEYS = {"count": "int+", "box": _points(2, 2, box=True),
                     "radius": _array(2, ok=lambda v: 0 < v[0] <= v[1],
                                      want=", 0 < min <= max"),
                     "keepout_gap": "num", "gap": "num", "obstacle": None}
# dimension of points for the single-vehicle kinds; the others are 3D
_VEHICLE_DIM = {"hybrid2d": 2, "reactive3d": 3, "deform3d": 3, "deform3d_quad": 3}
_TUNNEL_KEYS = {"shape": SHAPES, "radius": "pos", "length": "pos", "density": "pos",
                "noise_sigma": "num", "end_radius": "pos", "helix_radius": "pos",
                "pitch": "pos", "turns": "pos"}
_AGENT_KEYS = {"count": "int+", "spawn": _points(3, 2, box=True), "min_spacing": "num"}
_MONITOR_KEYS = {m.key: m.spec for m in MONITORS}
_OUTPUT_KEYS = {"dir": "str", "csv": "bool", "jsonl": "bool", "svg": "bool"}
_REMOVAL_KEYS = {"tick": "int", "agent": "int"}
_SWEEP_EVENT_KEYS = {"t": "num", "kind": ("resize", "tilt"), "scale": "pos",
                     "tilt_axis": _array(3, **_NONZERO), "tilt_angle": "real"}
# the fields of the other kind, which an event of a kind may not carry
_SWEEP_EVENT_FOREIGN = {"resize": ("tilt_axis", "tilt_angle"), "tilt": ("scale",)}
_SWEEP_KEYS = {"g0": "num", "min_area_per_agent": "num", "events": [_SWEEP_EVENT_KEYS]}
_COVERAGE_KEYS = {"boundary": _points(3, 3), "k": _array(3, **_POSITIVE),
                  "r_c": "pos", "record_every": "int+", "removals": [_REMOVAL_KEYS],
                  "sweep": _SWEEP_KEYS}
_PARAMS_KEYS = {
    "hybrid2d": {"hybrid": HybridParams, "rrt": RrtParams, "trap_range": "pos"},
    "reactive3d": {"reactive3d": Reactive3DParams},
    "deform3d": {"deform": DeformParams},
    "deform3d_quad": {"deform": DeformParams},
    "tunnel": {"tunnel_nav": TunnelParams, "pipeline": ("slices", "robust"),
               "probe_distances": _probes},
    "flocking": {"flock": FlockParams, "record_every": "int+"},
    "coverage": {"coverage": _COVERAGE_KEYS},
}
_TOP_KEYS = {"version": None, "name": "str", "seed": "int", "kind": KINDS,
             "duration": "num", "control_dt": "pos", "plant_dt": "pos",
             "start": None, "goal": None, "heading": None, "world": None,
             "tunnel": _TUNNEL_KEYS, "agents": _AGENT_KEYS, "params": None,
             "monitors": _MONITOR_KEYS, "output": _OUTPUT_KEYS}
# the spec of a dataclass field: a number is positive unless its default is
# zero; the one array field, the flock's goal, is a 3D point
_FIELD_SPECS = {("float", False): "pos", ("float", True): "num",
                ("int", False): "int+", ("str", False): "str"}
_ARRAY_FIELDS = {"goal": _array(3)}


def _reject_unknown(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where or 'top level'}")


def _require(section: dict, keys, where: str) -> None:
    missing = [k for k in keys if k not in section]
    if missing:
        raise ConfigError(f"{where} lacks required key(s) {missing}")


def _check(value, spec, where: str) -> None:
    if isinstance(spec, dict):
        if not isinstance(value, dict):
            _fail(where, "a mapping", value)
        _reject_unknown(value, spec, where)
        for key in value:
            _check(value[key], spec[key], f"{where}.{key}" if where else key)
    elif isinstance(spec, list):
        if not isinstance(value, list):
            _fail(where, "a list", value)
        for i, item in enumerate(value):
            _check(item, spec[0], f"{where}[{i}]")
    elif isinstance(spec, tuple):
        if not (isinstance(value, str) and value in spec):
            _fail(where, f"one of {spec}", value)
    elif isinstance(spec, type):
        dataclass_params(spec, value, where)
    elif callable(spec):
        spec(value, where)
    elif spec is not None and not _SCALARS[spec][1](value):
        _fail(where, _SCALARS[spec][0], value)


def dataclass_params(cls, section: dict, where: str):
    """The dataclass built from a params section whose keys are its fields,
    each checked by its type; array fields are given as nested lists.  The
    dataclass's own checks raise ConfigError too."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    _check(section, {name: _ARRAY_FIELDS[name] if f.type == "np.ndarray"
                     else _FIELD_SPECS[f.type, f.default == 0]
                     for name, f in fields.items()}, where)
    try:
        return cls(**{k: np.asarray(v, dtype=float) if fields[k].type == "np.ndarray"
                      else v for k, v in section.items()})
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def validate_config(cfg: dict) -> dict:
    _check(cfg, _TOP_KEYS, "")
    if cfg.get("version") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {cfg.get('version')!r}")
    _require(cfg, ("seed", "kind", "duration"), "config")
    kind = cfg["kind"]
    _check_world(cfg.get("world", {}), kind)
    _check(cfg.get("params", {}), _PARAMS_KEYS[kind], "params")
    if kind in _VEHICLE_DIM:
        for key in ("start", "goal"):
            _array(_VEHICLE_DIM[kind])(cfg.get(key), key)
        if cfg["start"] == cfg["goal"]:
            raise ConfigError("start and goal must differ")
        heading = {"hybrid2d": _array(1), "reactive3d": _array(3, **_NONZERO)}.get(kind)
        if heading and "heading" in cfg:
            heading(cfg["heading"], "heading")
    elif kind == "tunnel":
        _require(cfg.get("tunnel", {}), ("shape",), "tunnel")
        params = cfg.get("params", {})
        if "probe_distances" in params and params.get("pipeline", "slices") != "robust":
            raise ConfigError('params.probe_distances: only the "robust" pipeline reads it; '
                              'the slices pipeline probes at tunnel_nav.d1 and d2')
        auto = [cfg.get(key) == "auto" for key in ("start", "heading")]
        if any(auto) and not all(auto):
            raise ConfigError('start and heading: set both to "auto" or neither')
        if not any(auto):
            _array(3)(cfg.get("start"), "start")
            _array(3, **_NONZERO)(cfg.get("heading"), "heading")
    else:
        _require(cfg.get("agents", {}), ("count", "spawn"), "agents")
        if kind == "coverage":
            _require(cfg.get("params", {}), ("coverage",), "params")
            _check_coverage(cfg["params"]["coverage"], cfg["agents"]["count"])
    for m in MONITORS:
        if m.key in cfg.get("monitors", {}) and m not in judged(cfg):
            raise ConfigError(f"monitors.{m.key}: this run reports no {m.metric}")
    return cfg


def _check_world(world: dict, kind: str) -> None:
    dim = _VEHICLE_DIM.get(kind, 3)
    field_specs = {"type": _KIND_OBSTACLES.get(kind, tuple(_OBSTACLE_FIELDS)),
                   "known": "bool", "motion": dict.fromkeys(_MOTION_KEYS, _array(dim)),
                   "center": _array(dim), "radius": "pos", "height": "pos",
                   "semi": _array(3, **_POSITIVE), "base": _array(3),
                   "axis": _array(3, **_NONZERO), "vertices": _points(dim, 2)}

    def obstacle(ob, where):
        _check(ob, {key: field_specs[key] for key in _OBSTACLE_KEYS}, where)
        _require(ob, ("type",), where)
        fields = _OBSTACLE_FIELDS[ob["type"]]
        _reject_unknown(ob, {"type", "known", "motion", *fields}, where)
        _require(ob, fields, where)
        if "motion" in ob:
            _require(ob["motion"], _MOTION_KEYS, f"{where}.motion")
            if kind == "reactive3d":
                raise ConfigError(f"{where}: kind 'reactive3d' takes static obstacles")

    def random_discs(spec, where):
        if kind not in _KIND_DISCS:
            raise ConfigError(f"{where}: kind {kind!r} takes no random discs")
        _check(spec, _RANDOM_DISC_KEYS, where)
        _require(spec, _RANDOM_DISC_KEYS, where)
        template, where = spec["obstacle"], f"{where}.obstacle"
        _check(template, {**{key: field_specs[key] for key in ("known", "axis", "height")},
                          "type": _KIND_DISCS[kind]}, where)
        _require(template, ("type",), where)
        fields = [f for f in _OBSTACLE_FIELDS[template["type"]] if f not in _DRAWN_FIELDS]
        _reject_unknown(template, {"type", "known", *fields}, where)
        _require(template, fields, where)

    world_specs = {"bounds": _points(dim, 2, box=True), "obstacles": [obstacle],
                   "random_discs": random_discs}
    _check(world, {key: world_specs[key] for key in _WORLD_KEYS}, "world")


def _check_coverage(cov: dict, count: int) -> None:
    """What the key specs cannot see: required keys, a planar boundary, the
    agents removed, the sweep speed against the agents' speed limit and the
    fields of each sweep event's kind."""
    where = "params.coverage"
    _require(cov, ("boundary",), where)
    try:
        BarrierFrame.from_vertices(np.asarray(cov["boundary"], dtype=float))
    except FrameError as exc:
        raise ConfigError(f"{where}.boundary: {exc}") from None
    for r in cov.get("removals", []):
        _require(r, _REMOVAL_KEYS, f"{where}.removals")
    removed = {r["agent"] for r in cov.get("removals", [])}
    if removed and (max(removed) >= count or len(removed) >= count):
        raise ConfigError(f"{where}.removals must name agents below agents.count "
                          f"{count} and leave one, got {sorted(removed)}")
    u_max = norm(cov.get("k", [2.5, 0.5, 0.5]))
    sweep = cov.get("sweep", {})
    if sweep.get("g0", 1.5) > u_max:
        raise ConfigError(f"{where}.sweep.g0 exceeds the agents' speed limit {u_max:.3f}")
    for ev in sweep.get("events", []):
        _require(ev, ("t", "kind"), f"{where}.sweep.events")
        foreign = [k for k in _SWEEP_EVENT_FOREIGN[ev["kind"]] if k in ev]
        if foreign:
            raise ConfigError(f"{where}.sweep.events: a {ev['kind']!r} event "
                              f"takes no {foreign}")


def load_config(path) -> dict:
    with open(Path(path)) as fh:
        cfg = json.load(fh)
    return validate_config(cfg)


def save_config(cfg: dict, path) -> None:
    validate_config(cfg)
    with open(Path(path), "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True)
        fh.write("\n")
