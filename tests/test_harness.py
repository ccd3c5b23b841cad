import dataclasses
import json
import math
import operator
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeronav import deform
from aeronav.harness import monitors
from aeronav.harness.config import ConfigError, load_config, save_config, validate_config
from aeronav.harness.runlog import CSV_HEADER, RunLog, emit
from aeronav.harness import runner
from aeronav.harness.runner import ENGINES, Engine, build_world, run
from aeronav.harness import scenarios


MISSING = object()  # minimal_cfg(key=MISSING) drops the key


def minimal_cfg(**over):
    cfg = {"version": 1, "name": "t", "seed": 1, "kind": "hybrid2d",
           "duration": 1.0, "start": [0.0, 0.0], "goal": [2.0, 0.0],
           "world": {"obstacles": []}}
    cfg.update(over)
    return {k: v for k, v in cfg.items() if v is not MISSING}


def obstacle_cfg(**spec):
    return {"world": {"obstacles": [spec]}}


def obstacle3d_cfg(**spec):
    """One obstacle in a 3D world (hybrid2d takes only discs and walls)."""
    return {"kind": "deform3d", "start": [0.0, 0.0, 0.0], "goal": [2.0, 0.0, 0.0],
            **obstacle_cfg(**spec)}


def sweep_cfg(**event):
    """A coverage config whose sweep has one event."""
    cfg = scenarios.stock("coverage-sweep")
    cfg["params"]["coverage"]["sweep"]["events"] = [{"t": 0.2, **event}]
    return cfg


def test_validate_ok():
    validate_config(minimal_cfg())
    validate_config(minimal_cfg(duration=0.0))   # builds, runs no tick
    validate_config(sweep_cfg(kind="resize", scale=0.5))
    validate_config(sweep_cfg(kind="tilt", tilt_axis=[0.0, 1.0, 0.0], tilt_angle=0.2))


def test_unknown_top_key_rejected():
    with pytest.raises(ConfigError):
        validate_config(minimal_cfg(horse="yes"))


def test_unknown_nested_key_rejected():
    cfg = minimal_cfg()
    cfg["world"]["obstacles"] = [{"type": "sphere", "center": [0, 0],
                                  "radius": 1.0, "color": "red"}]
    with pytest.raises(ConfigError):
        validate_config(cfg)
    with pytest.raises(ConfigError):
        validate_config(minimal_cfg(monitors={"goal_tol": 0.3}))


def test_missing_seed_rejected():
    cfg = minimal_cfg()
    del cfg["seed"]
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_wrong_version_rejected():
    with pytest.raises(ConfigError):
        validate_config(minimal_cfg(version=99))


def test_bad_kind_rejected():
    with pytest.raises(ConfigError):
        validate_config(minimal_cfg(kind="warp-drive"))


@pytest.mark.parametrize("over", [
    pytest.param({"duration": "long"}, id="duration-non-numeric"),
    pytest.param({"duration": -1.0}, id="duration-negative"),
    pytest.param({"duration": float("nan")}, id="duration-nan"),
    pytest.param({"control_dt": 0.0}, id="control_dt-zero"),
    pytest.param({"control_dt": -0.1}, id="control_dt-negative"),
    pytest.param({"plant_dt": 0.0}, id="plant_dt-zero"),
    pytest.param({"plant_dt": -0.01}, id="plant_dt-negative"),
    pytest.param({"seed": 1.5}, id="seed-float"),
    pytest.param({"seed": "7"}, id="seed-string"),
    pytest.param({"seed": True}, id="seed-bool"),
    pytest.param({"agents": {"count": 0}}, id="agents-count-zero"),
    pytest.param({"agents": {"count": 2.5}}, id="agents-count-float"),
    pytest.param({"agents": {"count": True}}, id="agents-count-bool"),
    pytest.param({"world": []}, id="world-list"),
    pytest.param({"world": {"obstacles": {}}}, id="world-obstacles-mapping"),
    pytest.param({"tunnel": []}, id="tunnel-list"),
    pytest.param({"agents": []}, id="agents-list"),
    pytest.param({"monitors": []}, id="monitors-list"),
    pytest.param({"output": []}, id="output-list"),
    pytest.param({"start": MISSING}, id="hybrid2d-start-missing"),
    pytest.param({"goal": MISSING}, id="hybrid2d-goal-missing"),
    pytest.param({"start": [0.0, 0.0, 0.0]}, id="hybrid2d-start-3d"),
    pytest.param({"goal": [2.0, "0"]}, id="hybrid2d-goal-string"),
    pytest.param({"kind": "reactive3d", "goal": [2.0, 0.0, 0.0]},
                 id="reactive3d-start-2d"),
    pytest.param({"kind": "deform3d", "start": [0.0, 0.0, 0.0]},
                 id="deform3d-goal-2d"),
    pytest.param({"kind": "deform3d_quad", "start": [0.0, 0.0, 0.0],
                  "goal": MISSING}, id="deform3d_quad-goal-missing"),
    pytest.param({"kind": "tunnel", "start": "auto", "tunnel": {"radius": 1.5}},
                 id="tunnel-shape-missing"),
    pytest.param({"kind": "tunnel", "start": "auto"}, id="tunnel-section-missing"),
    pytest.param({"kind": "tunnel", "start": [0.0, 0.0, 0.0],
                  "tunnel": {"shape": "straight"}}, id="tunnel-heading-missing"),
    pytest.param({"kind": "tunnel", "start": [50.0, 50.0, 50.0], "heading": "auto",
                  "tunnel": {"shape": "straight"}}, id="tunnel-start-explicit-heading-auto"),
    pytest.param({"kind": "tunnel", "start": "garbage", "heading": "auto",
                  "tunnel": {"shape": "straight"}}, id="tunnel-start-garbage-heading-auto"),
    pytest.param({"kind": "tunnel", "start": "auto", "heading": [1.0, 0.0, 0.0],
                  "tunnel": {"shape": "straight"}}, id="tunnel-start-auto-heading-explicit"),
    pytest.param({"kind": "tunnel", "start": "auto", "tunnel": {"shape": "straight"}},
                 id="tunnel-start-auto-heading-missing"),
    pytest.param({"kind": "tunnel", "start": "auto", "heading": "auto",
                  "tunnel": {"shape": "straight"}, "params": {"probe_distances": [5, 9, 13]}},
                 id="tunnel-probe-distances-on-slices"),
    pytest.param({"kind": "flocking"}, id="flocking-agents-missing"),
    pytest.param({"kind": "flocking", "agents": {"count": 4}},
                 id="flocking-spawn-missing"),
    pytest.param({"kind": "coverage", "agents": {"spawn": [[0.0, 0.0, 0.0]]}},
                 id="coverage-count-missing"),
    pytest.param({"kind": "coverage",
                  "agents": {"count": 2, "spawn": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]},
                  "params": {"coverage": {"k": [2.5, 0.5, 0.5]}}},
                 id="coverage-boundary-missing"),
    pytest.param(obstacle_cfg(type="sphere", center=[1.0, 1.0]),
                 id="sphere-radius-missing"),
    pytest.param(obstacle_cfg(type="sphere", radius=1.0), id="sphere-center-missing"),
    pytest.param(obstacle3d_cfg(type="cylinder", base=[0.0, 0.0, 0.0],
                                axis=[0.0, 0.0, 1.0], radius=1.0),
                 id="cylinder-height-missing"),
    pytest.param(obstacle3d_cfg(type="cylinder", axis=[0.0, 0.0, 1.0], radius=1.0,
                                height=2.0), id="cylinder-base-missing"),
    pytest.param(obstacle3d_cfg(type="ellipsoid", center=[0.0, 0.0, 0.0]),
                 id="ellipsoid-semi-missing"),
    pytest.param(obstacle_cfg(type="wall"), id="wall-vertices-missing"),
    pytest.param(obstacle_cfg(center=[1.0, 1.0], radius=1.0), id="obstacle-type-missing"),
    pytest.param(obstacle_cfg(type="cone", center=[1.0, 1.0], radius=1.0),
                 id="obstacle-type-unknown"),
    pytest.param(sweep_cfg(kind="resize", scale=0.5, tilt_angle=0.2),
                 id="sweep-resize-with-tilt-angle"),
    pytest.param(sweep_cfg(kind="resize", tilt_axis=[0.0, 1.0, 0.0]),
                 id="sweep-resize-with-tilt-axis"),
    pytest.param(sweep_cfg(kind="tilt", tilt_axis=[0.0, 1.0, 0.0], tilt_angle=0.2,
                           scale=0.5), id="sweep-tilt-with-scale"),
])
def test_bad_value_rejected(over):
    with pytest.raises(ConfigError):
        validate_config(minimal_cfg(**over))


@pytest.mark.parametrize("pipeline", [{}, {"pipeline": "slices"}])
def test_probe_distances_refused_off_the_robust_pipeline(pipeline):
    """The slices pipeline probes at d1 and d2 and would ignore the key."""
    cfg = minimal_cfg(kind="tunnel", start="auto", heading="auto",
                      tunnel={"shape": "straight"},
                      params={"probe_distances": [5, 9, 13], **pipeline})
    with pytest.raises(ConfigError, match=r"params\.probe_distances"):
        validate_config(cfg)
    validate_config({**cfg, "params": {"probe_distances": [5, 9, 13], "pipeline": "robust"}})


@pytest.mark.parametrize("start, heading", [([50.0, 50.0, 50.0], "auto"),
                                            ("auto", [1.0, 0.0, 0.0])])
def test_tunnel_mixed_auto_names_both_keys(start, heading):
    """"auto" places the vehicle by the tunnel axis, which sets both keys."""
    cfg = minimal_cfg(kind="tunnel", start=start, heading=heading,
                      tunnel={"shape": "straight"})
    with pytest.raises(ConfigError, match="start and heading"):
        validate_config(cfg)


def test_config_roundtrip(tmp_path):
    cfg = scenarios.stock("planar-trap")
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == json.loads(json.dumps(cfg))  # identical tree


def test_stock_configs_canonical(tmp_path):
    """Each stock config is stored as `save_config` writes it, under its name."""
    paths = sorted(scenarios.CONFIGS.glob("*.json"))
    assert len(paths) == 23
    for path in paths:
        cfg = load_config(path)
        assert cfg["name"] == path.stem
        save_config(cfg, tmp_path / path.name)
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


RANDOM_FIELDS = ("planar-static", "deform-static-cylinders")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(RANDOM_FIELDS), seed=st.integers(0, 2**32 - 1),
       count=st.integers(1, 30), sphere=st.booleans())
def test_random_discs_keep_their_distances(name, seed, count, sphere):
    """Every drawn disc lies in the box and the radius range, clears the start
    and goal xy by r + keepout_gap and every other disc by r1 + r2 + gap, and
    becomes the template with its centre (a cylinder's base) at z = 0 in 3D."""
    cfg = scenarios.stock(name, seed)
    spec = cfg["world"]["random_discs"]
    spec["count"] = count
    if sphere:
        spec["obstacle"] = {"type": "sphere", "known": False}
    discs = runner.random_discs(validate_config(cfg))
    assert len(discs) == count
    (x0, y0), (x1, y1) = spec["box"]
    at = "base" if spec["obstacle"]["type"] == "cylinder" else "center"
    for i, disc in enumerate(discs):
        x, y, *z = disc[at]
        r = disc["radius"]
        assert {k: v for k, v in disc.items() if k not in (at, "radius")} == spec["obstacle"]
        assert z == [0.0][:len(cfg["start"]) - 2]
        assert x0 <= x <= x1 and y0 <= y <= y1
        assert spec["radius"][0] <= r <= spec["radius"][1]
        for point in (cfg["start"], cfg["goal"]):
            assert math.dist((x, y), point[:2]) >= r + spec["keepout_gap"]
        for other in discs[:i]:
            assert math.dist((x, y), other[at][:2]) >= r + other["radius"] + spec["gap"]


def _one_draw_per_candidate(cfg) -> list:
    """The reference sampler: a `uniform` call for each candidate's centre
    and one for its radius, distances by `np.linalg.norm`."""
    spec = cfg["world"]["random_discs"]
    rng = np.random.default_rng(cfg["seed"])
    keepout = [cfg["start"][:2], cfg["goal"][:2]]
    out = []
    while len(out) < spec["count"]:
        c = rng.uniform(*spec["box"])
        r = float(rng.uniform(*spec["radius"]))
        if not (any(np.linalg.norm(c - k) < r + spec["keepout_gap"] for k in keepout)
                or any(np.linalg.norm(c - c2) < r + r2 + spec["gap"] for c2, r2 in out)):
            out.append((c, r))
    return [(c.tolist(), r) for c, r in out]


@pytest.mark.parametrize("name", RANDOM_FIELDS)
@pytest.mark.parametrize("seed_offset", [0, 1, 2, 3])
def test_random_discs_match_the_reference_sampler(name, seed_offset):
    cfg = scenarios.stock(name, scenarios.stock(name)["seed"] + seed_offset)
    at = "base" if name == "deform-static-cylinders" else "center"
    assert [(d[at][:2], d["radius"]) for d in runner.random_discs(cfg)] == \
        _one_draw_per_candidate(cfg)


@pytest.mark.parametrize("name", RANDOM_FIELDS)
def test_edited_seed_redraws_the_field(name, tmp_path, monkeypatch):
    """A config file whose seed was edited runs in a field drawn from that
    seed: as many discs, in the same place in the obstacle list, with other
    radii."""
    worlds = []

    def spy(cfg):
        worlds.append(build_world(cfg))
        return worlds[-1]

    monkeypatch.setattr(runner, "build_world", spy)
    cfg = scenarios.stock(name)
    path = tmp_path / "cfg.json"
    for seed in (cfg["seed"], cfg["seed"] + 1):
        save_config({**cfg, "seed": seed, "duration": 0.0}, path)
        run(load_config(path))
    stored, edited = ([(type(o).__name__, getattr(o, "radius", None)) for o in w.obstacles]
                      for w in worlds)
    assert [kind for kind, _ in edited] == [kind for kind, _ in stored]
    drawn = cfg["world"]["random_discs"]["count"]
    assert all(a != b for (_, a), (_, b) in zip(stored[:drawn], edited[:drawn]))
    assert stored[drawn:] == edited[drawn:]


def test_unfillable_random_discs_are_a_config_error():
    cfg = scenarios.stock("planar-static")
    cfg["world"]["random_discs"].update(count=2, box=[[4.0, -1.0], [5.0, 1.0]])
    with pytest.raises(ConfigError, match="world.random_discs"):
        run({**cfg, "duration": 0.0})


def test_build_obstacles():
    w = build_world({"world": {"obstacles": [
        {"type": "sphere", "center": [1, 2], "radius": 0.5},
        {"type": "wall", "vertices": [[0, 0], [1, 0]]},
        {"type": "cylinder", "base": [0, 0, 0], "axis": [0, 0, 1],
         "radius": 1.0, "height": 2.0},
        {"type": "ellipsoid", "center": [0, 0, 0], "semi": [1, 2, 3]},
        {"type": "sphere", "center": [5, 5], "radius": 0.5,
         "motion": {"velocity": [0.1, 0.0]}},
    ]}})
    assert len(w.obstacles) == 5


def test_obstacles_are_known_by_default():
    """A sphere, a wall and a moving sphere whose spec leaves out `known`
    are known, so the planar planner's world holds all three."""
    specs = [{"type": "sphere", "center": [4.0, 0.5], "radius": 1.0},
             {"type": "wall", "vertices": [[8.0, -2.0], [8.0, 2.0]]},
             {"type": "sphere", "center": [12.0, 3.0], "radius": 0.5,
              "motion": {"velocity": [0.0, -0.2]}}]
    obstacles = [runner.build_obstacle(spec) for spec in specs]
    assert [o.known for o in obstacles] == [True, True, True]
    assert isinstance(obstacles[2], runner.Moving)
    cfg = scenarios.stock("planar-trap")
    cfg["world"]["obstacles"] = specs
    cfg["world"].pop("random_discs", None)
    planner_world = ENGINES["hybrid2d"](validate_config(cfg)).nav.known
    assert len(planner_world.obstacles) == 3
    assert all(a.known and type(a) is type(b)
               for a, b in zip(planner_world.obstacles, obstacles))


def test_runlog_csv_roundtrip(tmp_path):
    log = RunLog()
    log.add(0, 0.1, 0, [1.0, 2.0, 3.0], [0.1, 0.0, -0.1], "M1", 1.5, 2.5)
    log.add(1, 0.2, 0, [1.1, 2.0, 3.0], [0.1, 0.0, -0.1], "M2", 1.4, 2.4,
            extra="q=0.5")
    path = emit(log, "csv", tmp_path / "log.csv")
    loaded = RunLog.from_csv(path)
    assert len(loaded.records) == 2
    assert loaded.records[1]["mode"] == "M2"
    assert loaded.records[1]["extra"] == "q=0.5"
    assert np.allclose(loaded.records[0]["pos"], [1.0, 2.0, 3.0])


def test_runlog_jsonl_row_count_matches_csv():
    log = RunLog()
    for k in range(5):
        log.add(k, 0.1 * k, 0, [k, 0, 0], [1, 0, 0], "m", 1.0, 2.0)
    csv_rows = log.to_csv().strip().split("\n")[1:]
    jsonl_rows = log.to_jsonl().strip().split("\n")
    assert len(csv_rows) == len(jsonl_rows) == 5


def test_runlog_monotone_tick_enforced():
    log = RunLog()
    log.add(5, 0.5, 0, [0, 0], [0, 0], "m", 1.0, 1.0)
    with pytest.raises(ValueError):
        log.add(4, 0.4, 0, [0, 0], [0, 0], "m", 1.0, 1.0)


def test_empty_log_csv_emit_refused(tmp_path):
    with pytest.raises(ValueError):
        emit(RunLog(), "csv", tmp_path / "x.csv")


def test_empty_svg_allowed(tmp_path):
    path = emit(RunLog(), "svg", tmp_path / "x.svg")
    text = path.read_text()
    assert "<svg" in text and "line" in text  # axes only


def test_svg_orbit_bounding_box():
    """Closed circular orbit: the plotted polyline's bounding box is a square
    of side ~ 2(r+d0) mapped to the drawing area."""
    log = RunLog()
    r = 2.0
    for k, th in enumerate(np.linspace(0, 2 * np.pi, 100)):
        log.add(k, 0.1 * k, 0, [r * np.cos(th), r * np.sin(th), 0.0],
                [0, 0, 0], "orbit", 1.0, np.inf)
    svg = log.to_svg(width=640, height=480)
    import re
    pts = re.findall(r'points="([^"]+)"', svg)[0].split()
    xy = np.array([[float(a) for a in p.split(",")] for p in pts])
    w = xy[:, 0].max() - xy[:, 0].min()
    h = xy[:, 1].max() - xy[:, 1].min()
    # equal physical spans map to the same plotted aspect up to axis scaling
    assert w > 0 and h > 0
    span = 2 * r / (2 * r + 2.0)  # data span over padded span
    assert w == pytest.approx((640 - 40) * span, rel=0.02)
    assert h == pytest.approx((480 - 40) * span, rel=0.02)


def test_zero_duration_run_has_header_only():
    cfg = minimal_cfg(duration=0.0, world={"obstacles": [
        {"type": "sphere", "center": [10.0, 10.0], "radius": 1.0}]})
    res = run(cfg)
    assert res.log.records == []
    assert res.log.to_csv().startswith(CSV_HEADER)
    assert res.metrics["min_d_obs"] == np.inf


def test_monitors_fail_nan_clearance_pass_inf():
    mons = {"d_safe": 0.5, "min_pair": 1.0}
    record = monitors.SafetyRecord(("min_d_obs", "min_pair_d"), mons)
    record.add(0, {"min_d_obs": np.inf, "min_pair_d": np.inf})
    assert [m.passed for m in monitors.evaluate(record, mons, {})] == [True, True]
    record.add(1, {"min_d_obs": np.nan, "min_pair_d": np.nan})
    record.add(2, {"min_d_obs": 1.0, "min_pair_d": 2.0})
    results = monitors.evaluate(record, mons, {})
    assert [(m.name, m.passed, m.first_violation_tick) for m in results] == [
        ("d_safe", False, 1), ("min_pair", False, 1)]


def test_lattice_and_sweep_monitors_judge_the_params():
    """The lattice and sweep monitors run on their tolerance alone and
    name the param their metric is measured against; a spacing or sweep
    speed of their own would be checked by nothing, so none is accepted."""
    mons = {"lattice_tol": 0.5, "sweep_tol": 0.05}
    results = monitors.evaluate(monitors.SafetyRecord((), mons), mons,
                                {"lattice_err": 0.6, "sweep_speed_err": 0.01})
    assert [(m.name, m.passed) for m in results] == [
        ("quasi_lattice", False), ("sweep_consensus", True)]
    assert "params.flock.d_ij" in results[0].detail
    assert "params.coverage.sweep.g0" in results[1].detail
    for key in ("lattice_spacing", "sweep_speed"):
        with pytest.raises(ConfigError, match=key):
            validate_config(minimal_cfg(monitors={key: 5.0}))


def stub_engine(samples, record_every=1):
    """An engine factory whose tick k has clearance samples[k], which its
    rows log."""
    class Stub(Engine):
        n_ticks = len(samples)

        def __init__(self, cfg):
            super().__init__(0.1, {"min_d_obs": np.inf})
            self.record_every = record_every

        def step(self, tick):
            self.clearance = {"min_d_obs": samples[tick]}

        def rows(self, tick):
            return [(tick, 0.1 * (tick + 1), 0, [0.0, 0.0], [0.0, 0.0], "stub",
                     self.clearance["min_d_obs"], np.inf)]

        def metrics(self, events):
            return {}
    return Stub


def test_violation_on_an_unlogged_tick_fails(monkeypatch):
    """The monitors see every control tick: a dip below d_safe on a tick the
    log decimates away fails the run, at that tick."""
    samples = [2.0] * 25
    samples[13] = 0.1
    monkeypatch.setitem(ENGINES, "hybrid2d", stub_engine(samples, record_every=10))
    res = run(minimal_cfg(monitors={"d_safe": 0.5}))
    assert [r["tick"] for r in res.log.records] == [0, 10, 20, 24]
    assert min(r["d_obs"] for r in res.log.records) == 2.0
    assert res.metrics["min_d_obs"] == 0.1
    assert [(m.name, m.passed, m.first_violation_tick) for m in res.monitors] == [
        ("d_safe", False, 13)]
    assert not res.passed


def test_run_minimum_keeps_a_nan_sample(monkeypatch):
    """A NaN clearance stays in the metric, whatever the later samples, and
    fails d_safe at its tick."""
    monkeypatch.setitem(ENGINES, "hybrid2d", stub_engine([2.0, np.nan, 1.0]))
    res = run(minimal_cfg(monitors={"d_safe": 0.5}))
    assert np.isnan(res.metrics["min_d_obs"])
    assert [(m.passed, m.first_violation_tick) for m in res.monitors] == [(False, 1)]


def test_wall_margin_reports_first_violation_tick():
    cfg = scenarios.stock("tunnel-a-smooth-bend")
    cfg["duration"] = 0.5
    cfg["monitors"] = {"wall_margin": 0.0}
    assert run(cfg).passed
    cfg["monitors"] = {"wall_margin": 100.0}
    res = run(cfg)
    assert [(m.name, m.passed, m.first_violation_tick) for m in res.monitors] == [
        ("wall_margin", False, 0)]


def test_tunnel_goal_reports_its_time():
    """A tunnel run that completes reports the time of its last tick, which
    require_goal prints."""
    cfg = scenarios.stock("tunnel-g-pipeline")
    cfg["monitors"]["require_goal"] = True
    res = run(cfg)
    t = res.log.records[-1]["time_s"]
    assert res.metrics["goal_reached"] and res.metrics["goal_time"] == t
    assert [m.detail for m in res.monitors if m.name == "goal_reached"] == [
        f"goal reached at t={t}"]


def test_clearance_monitor_of_a_metric_the_kind_lacks_rejected():
    """A tunnel logs its wall distance in the d_obs column but reports no
    min_d_obs, so d_safe there would check nothing; nor would a clearance
    monitor on any other run that does not sample its metric."""
    for name, key in [("tunnel-a-smooth-bend", "d_safe"), ("tunnel-a-smooth-bend", "min_pair"),
                      ("planar-trap", "min_pair"), ("planar-trap", "wall_margin"),
                      ("coverage-sweep", "d_safe"), ("flock-n4", "wall_margin")]:
        cfg = _stock(name)
        cfg["monitors"] = {key: 0.1}
        with pytest.raises(ConfigError, match=f"monitors.{key}"):
            validate_config(cfg)
        with pytest.raises(ConfigError, match=f"monitors.{key}"):
            run(cfg)


# monitors whose metric the run does not report: each passed without measuring
# anything or failed on a missing metric, before the config check refused them
@pytest.mark.parametrize("name, key, value", [
    pytest.param("coverage-barrier-n20", "sweep_tol", 0.0, id="sweep_tol-no-sweep"),
    pytest.param("coverage-sweep", "cost_non_increasing", True, id="lloyd-sweep"),
    pytest.param("coverage-sweep", "require_goal", True, id="goal-coverage"),
    pytest.param("flock-n4", "expect_replans", 0, id="replans-flocking"),
    pytest.param("planar-trap", "lattice_tol", 0.5, id="lattice-hybrid2d"),
    pytest.param("planar-trap", "centroid_tol", 0.05, id="centroid-hybrid2d"),
    pytest.param("planar-trap", "sweep_tol", 0.05, id="sweep-hybrid2d"),
    pytest.param("planar-trap", "progress_window", 5.0, id="progress-hybrid2d"),
    pytest.param("tunnel-a-smooth-bend", "max_speed_final", 0.05, id="speed-tunnel"),
])
def test_monitor_of_a_metric_the_run_lacks_rejected(name, key, value):
    cfg = _stock(name)
    cfg["monitors"][key] = value
    with pytest.raises(ConfigError, match=f"monitors.{key}"):
        validate_config(cfg)


@pytest.mark.parametrize("name", sorted(p.stem for p in scenarios.CONFIGS.glob("*.json")))
def test_monitor_kinds_match_the_metrics_each_run_reports(name):
    """The table's kinds column against the engines: a stock config, run for
    no tick, may set exactly the monitors whose metric its run reports."""
    cfg = _stock(name)
    cfg["duration"] = 0.0
    metrics = run(cfg).metrics
    assert monitors.judged(cfg) == [m for m in monitors.MONITORS if m.metric in metrics]


# each monitor's verdict on value v at threshold t, written out per key
_VERDICTS = {"d_safe": operator.ge, "min_pair": operator.ge, "wall_margin": operator.gt,
             "require_goal": lambda v, t: v == v and v != 0,
             "progress_window": lambda v, t: v == v and v != 0,
             "expect_replans": operator.eq, "centroid_tol": operator.lt,
             "max_speed_final": operator.lt, "lattice_tol": operator.le,
             "cost_non_increasing": lambda v, t: v <= 1e-6, "sweep_tol": operator.le}


@settings(derandomize=True, max_examples=400, deadline=None)
@given(data=st.data())
def test_margin_sign_is_the_verdict(data):
    """Every monitor passes exactly when its margin is >= 0 (> 0 for a
    strict test), on NaN, infinite and tied values too: NaN has a NaN margin
    and fails, +inf (no obstacle, one agent) passes a clearance."""
    m = data.draw(st.sampled_from(monitors.MONITORS))
    setting = {"bool": st.just(True), "int": st.integers(0, 5)}.get(
        m.spec, st.floats(0.0, 10.0) if m.spec == "num" else st.floats(0.1, 10.0))
    setting = data.draw(setting)
    t = 1e-6 if m.key == "cost_non_increasing" else float(setting)
    v = data.draw(st.sampled_from([math.nan, math.inf, -math.inf, t, 0.0, 1.0])
                  | st.floats(allow_nan=True, allow_infinity=True))
    mons = {m.key: setting}
    record = monitors.SafetyRecord((m.metric,) if m.per_tick else (), mons)
    if m.per_tick:
        record.add(0, {m.metric: v})
    (res,) = monitors.evaluate(record, mons, {m.metric: v})
    strict = m.key in ("wall_margin", "centroid_tol", "max_speed_final")
    assert res.passed == (res.margin > 0 if strict else res.margin >= 0)
    assert res.passed == bool(_VERDICTS[m.key](v, t))
    if math.isnan(v):
        assert math.isnan(res.margin) and not res.passed
    elif m.test == "true":
        assert res.margin in (1.0, -1.0)
    elif m.test == "==":
        assert res.margin == -abs(v - t)
    if v == math.inf and m.per_tick:
        assert res.passed
    if m.per_tick:
        assert res.first_violation_tick == (None if res.passed else 0)


def test_hover_reaches_the_log(monkeypatch):
    """A static blockage the capped deformation loop leaves just ahead holds
    the vehicle, and each held tick is a hover event after its deform."""
    monkeypatch.setattr(deform, "MAX_DEFORMS_PER_CHECK", 1)
    cfg = {"version": 1, "name": "hover", "seed": 0, "kind": "deform3d",
           "duration": 0.3, "start": [0.0, 0.0, 0.0], "goal": [20.0, 0.0, 0.0],
           "world": {"obstacles": [{"type": "sphere", "center": [2.5, 0.0, 0.0],
                                    "radius": 1.5}]}}
    res = run(cfg)
    assert [(e["tick"], e["kind"]) for e in res.log.events] == [
        (0, "deform"), (0, "hover"), (1, "deform"), (1, "hover"),
        (2, "deform"), (2, "hover")]
    assert res.metrics["deform_count"] == 3


def test_quadrotor_deformations_reach_the_log():
    """The quadrotor-tracked deformable path records its deformations as
    the kinematic one does: stock deform-quad-tracking deforms 9 times on
    its first tick."""
    cfg = scenarios.stock("deform-quad-tracking")
    cfg["duration"] = 0.5
    res = run(cfg)
    assert res.log.events == [{"tick": 0, "kind": "deform", "count": 9}]
    assert res.metrics["deform_count"] == 9


def test_quadrotor_deforms_once_per_tick_on_its_first_plant_step(monkeypatch):
    """The quadrotor engine deforms the path once per tick, before the
    tick's first plant step (plant step tick * n_sub), from the reference
    position that step starts from."""
    refs, calls = [], []
    ref_step, deform_ahead = runner.reference_model_step, deform.DeformNavigator.deform_ahead

    def counted_ref_step(ref, *args):
        refs.append(ref_step(ref, *args))
        return refs[-1]

    def recorded_deform(nav, p, t, tick):
        calls.append((tick, len(refs), p.copy()))
        return deform_ahead(nav, p, t, tick)

    monkeypatch.setattr(runner, "reference_model_step", counted_ref_step)
    monkeypatch.setattr(deform.DeformNavigator, "deform_ahead", recorded_deform)
    cfg = scenarios.stock("deform-quad-tracking")
    cfg["duration"] = 0.5
    run(cfg)
    n_sub = round(cfg["control_dt"] / cfg["plant_dt"])
    assert len(refs) == 5 * n_sub
    assert [(tick, k) for tick, k, _ in calls] == [(tick, tick * n_sub) for tick in range(5)]
    for _, k, p in calls:
        start = refs[k - 1].p if k else np.asarray(cfg["start"], dtype=float)
        assert p.tobytes() == start.tobytes()


def test_coincident_guard_reaches_the_log(monkeypatch):
    """Agents that coincide at run time are nudged apart, and the log says
    which pair at which tick."""
    class CoincidentStart(runner.FlockSim):
        def __init__(self, q0, *args, **kw):
            q0 = q0.copy()
            q0[1] = q0[0]
            super().__init__(q0, *args, **kw)

    monkeypatch.setattr(runner, "FlockSim", CoincidentStart)
    cfg = scenarios.stock("flock-n4")
    cfg["duration"] = 0.3
    res = run(cfg)
    assert [e for e in res.log.events if e["kind"] == "coincident_guard"] == [
        {"tick": 0, "kind": "coincident_guard", "agents": [0, 1]},
        {"tick": 0, "kind": "coincident_guard", "agents": [1, 0]}]


OBSTACLE_KINDS = {"hybrid2d": "planar-trap", "reactive3d": "reactive3d-ellipsoids",
                  "deform3d": "deform-static-cylinders",
                  "deform3d_quad": "deform-quad-tracking"}


@pytest.mark.parametrize("kind", sorted(OBSTACLE_KINDS))
def test_obstacle_free_world(kind):
    """Kinds whose navigator needs an obstacle refuse an empty world with a
    ConfigError naming the kind; the others log +inf clearance."""
    cfg = scenarios.stock(OBSTACLE_KINDS[kind])
    cfg["world"]["obstacles"] = []
    cfg["world"].pop("random_discs", None)
    cfg["duration"] = 1.0
    if kind in ("hybrid2d", "reactive3d"):
        with pytest.raises(ConfigError, match=kind):
            run(cfg)
        return
    res = run(cfg)
    assert res.log.records
    assert all(r["d_obs"] == np.inf for r in res.log.records)
    assert res.metrics["min_d_obs"] == np.inf
    assert [m.passed for m in res.monitors if m.name == "d_safe"] == [True]


def test_goal_tick_is_logged():
    """A run that stops at its goal logs the stop tick even when
    record_every would skip it."""
    cfg = {"version": 1, "name": "flock-goal", "seed": 0, "kind": "flocking",
           "duration": 30.0, "control_dt": 0.1, "plant_dt": 0.01,
           "agents": {"count": 2, "spawn": [[10.55, -0.5, -0.5], [10.65, 0.5, 0.5]],
                      "min_spacing": 0.5},
           "world": {"obstacles": []},
           "params": {"flock": {"k_ij": 0.05, "k_goal": 0.1, "goal": [0.0, 0.0, 0.0],
                                "goal_radius": 10.0}, "record_every": 10}}
    res = run(cfg)
    stop_tick = int(round(res.metrics["goal_time"] / 0.1)) - 1
    assert 0 < stop_tick < 299 and stop_tick % 10
    assert [r["tick"] for r in res.log.records[-2:]] == [stop_tick, stop_tick]


def test_coverage_events_reach_the_log():
    """Out-of-range bisectors that cut a cell are logged once per state, with
    their tick and agents, and the metric counts the same events."""
    cfg = scenarios.stock("coverage-sweep")
    cfg["duration"] = 1.0
    cfg["params"]["coverage"]["r_c"] = 3.0
    res = run(cfg)
    found = [e for e in res.log.events if e["kind"] == "comm_range_violation"]
    assert found and res.metrics["comm_violations"] == len(found)
    keys = [(e["tick"], e["agent"], e["neighbor"]) for e in found]
    assert len(set(keys)) == len(keys)
    assert {t for t, _, _ in keys} <= set(range(10))


def test_refused_resize_reaches_the_log():
    """A resize below the agents' minimum area is refused, and the log says
    so at the tick that refused it, with the event's time and scale."""
    cfg = sweep_cfg(kind="resize", scale=0.1)   # 1 m^2 left for 12 agents
    cfg["duration"] = 0.5
    res = run(cfg)
    assert [e for e in res.log.events if e["kind"] == "sweep_rejected"] == [
        {"tick": 1, "kind": "sweep_rejected", "t": 0.2, "scale": 0.1}]
    cfg = sweep_cfg(kind="resize", scale=0.5)
    cfg["duration"] = 0.5
    assert not [e for e in run(cfg).log.events if e["kind"] == "sweep_rejected"]


def test_run_determinism_byte_identical():
    cfg = scenarios.stock("planar-trap")
    a = run(cfg).log.to_csv()
    b = run(cfg).log.to_csv()
    assert a == b


def test_monitor_failure_marks_run():
    cfg = scenarios.stock("planar-trap")
    cfg = json.loads(json.dumps(cfg))
    cfg["monitors"]["d_safe"] = 50.0  # impossible bound
    res = run(cfg)
    assert not res.passed
    failed = [m for m in res.monitors if not m.passed]
    assert failed and failed[0].first_violation_tick is not None


def test_monitors_non_intrusive():
    cfg = scenarios.stock("planar-trap")
    with_mon = run(cfg).log.to_csv()
    cfg2 = json.loads(json.dumps(cfg))
    cfg2["monitors"] = {}
    without = run(cfg2).log.to_csv()
    assert with_mon == without


def _cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "aeronav.cli", *args],
                          capture_output=True, text=True, **kw)


def test_cli_run_and_exit_code(tmp_path):
    from aeronav.harness.config import save_config
    cfg = scenarios.stock("planar-trap")
    cfg["output"] = {"csv": True, "svg": True}
    path = tmp_path / "trap.json"
    save_config(cfg, path)
    proc = _cli(["run", str(path), "--out", str(tmp_path / "runs")])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "runs" / "planar-trap.csv").exists()
    assert (tmp_path / "runs" / "planar-trap.svg").exists()
    assert "PASS" in proc.stdout
    summary = json.loads((tmp_path / "runs" / "planar-trap.summary.json").read_text())
    mons = summary["monitors"]
    assert [(m["name"], m["first_violation_tick"]) for m in mons] == [
        ("d_safe", None), ("goal_reached", None), ("replans", None)]
    assert mons[0]["margin"] > 0 and [m["margin"] for m in mons[1:]] == [1.0, 0.0]
    for m in mons:
        assert f"  [ok] {m['name']}: {m['detail']} (margin {m['margin']:.4g})\n" in proc.stdout


def test_cli_gen_tunnel_and_plot(tmp_path):
    proc = _cli(["gen-tunnel", "straight", "--radius", "1.0", "--length", "6",
                 "--out", str(tmp_path / "t.xyz")])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "t.xyz").exists()
    assert (tmp_path / "t.json").exists()
    # plot an actual run log
    from aeronav.harness.runner import run as run_scn
    from aeronav.harness.runlog import emit as emit_log
    res = run_scn(scenarios.stock("planar-trap"))
    csv_path = tmp_path / "r.csv"
    emit_log(res.log, "csv", csv_path)
    proc = _cli(["plot", str(csv_path)])
    assert proc.returncode == 0, proc.stderr
    assert csv_path.with_suffix(".svg").exists()


def test_cli_gen_tunnel_refuses_zero_density(tmp_path):
    """--density 0 is refused like --radius 0, not replaced by the default."""
    for flag in ("--density", "--radius"):
        proc = _cli(["gen-tunnel", "straight", flag, "0", "--length", "6",
                     "--out", str(tmp_path / "t.xyz")])
        assert proc.returncode != 0
        assert "must be positive" in proc.stderr
    assert not (tmp_path / "t.xyz").exists()


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON (RFC 8259)")
    return json.loads(text, parse_constant=refuse)


def test_json_outputs_are_strict(tmp_path):
    """Run logs and summaries parse as strict JSON; +inf (a lone vehicle's
    pair distance, an obstacle-free flock's clearance) is the string "inf"."""
    from aeronav.cli import main
    for name, duration in (("reactive3d-ellipsoids", 2.0), ("flock-n20", 1.0)):
        cfg = {**scenarios.stock(name), "duration": duration, "output": {"jsonl": True}}
        save_config(cfg, tmp_path / f"{name}.json")
        main(["run", str(tmp_path / f"{name}.json"), "--out", str(tmp_path / "out")])
        rows = [_strict_json(line)
                for line in (tmp_path / "out" / f"{name}.jsonl").read_text().splitlines()]
        summary = _strict_json((tmp_path / "out" / f"{name}.summary.json").read_text())
        if name == "flock-n20":
            assert summary["metrics"]["min_d_obs"] == "inf"
        else:
            assert {r["min_pair_d"] for r in rows} == {"inf"}


def test_cli_suite_directory(tmp_path):
    from aeronav.harness.config import save_config
    save_config(scenarios.stock("planar-trap"), tmp_path / "a.json")
    save_config(scenarios.stock("tunnel-a-smooth-bend"), tmp_path / "b.json")
    proc = _cli(["suite", str(tmp_path), "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert "2/2 scenarios passed" in proc.stdout
    assert "margin" not in proc.stdout
    # a failing scenario lists its failed monitors, with their margins
    cfg = {**scenarios.stock("tunnel-a-smooth-bend"), "name": "c-fail", "duration": 0.5,
           "monitors": {"progress_window": 5.0, "wall_margin": 100.0}}
    save_config(cfg, tmp_path / "c.json")
    proc = _cli(["suite", str(tmp_path), "--out", str(tmp_path / "out")])
    assert proc.returncode == 1, proc.stderr
    assert "2/3 scenarios passed" in proc.stdout
    assert re.search(r"^c: FAILED \(.*\)\n  \[FAIL\] wall_margin: violated at tick 0 "
                     r"\(margin -9\d\.\d+\)\n2/3", proc.stdout, re.M), proc.stdout
    summary = json.loads((tmp_path / "out" / "c-fail.summary.json").read_text())
    assert [(m["name"], m["passed"], m["first_violation_tick"]) for m in summary["monitors"]] \
        == [("progress", True, None), ("wall_margin", False, 0)]


def test_cli_output_dir_env(tmp_path, monkeypatch):
    from aeronav.harness.config import save_config
    cfg = scenarios.stock("planar-trap")
    path = tmp_path / "c.json"
    save_config(cfg, path)
    env_dir = tmp_path / "envout"
    import os
    env = dict(os.environ, AERONAV_OUTPUT_DIR=str(env_dir))
    proc = subprocess.run([sys.executable, "-m", "aeronav.cli", "run", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (env_dir / "planar-trap.summary.json").exists()


def _stock(name):
    return json.loads(json.dumps(scenarios.stock(name)))


def _set(cfg, path, value):
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[path[-1]] = value
    return cfg


# options that no stock scenario set, now deleted: each is an unknown key
@pytest.mark.parametrize("name, path, value", [
    pytest.param("reactive3d-ellipsoids", ("world", "obstacles", 0, "rotation"),
                 [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], id="rotation"),
    pytest.param("planar-trap", ("world", "obstacles", 0, "loop"), True, id="loop"),
    *(pytest.param("planar-dynamic", ("world", "obstacles", 0, "motion", key), value,
                   id=f"motion-{key}")
      for key, value in (("kind", "linear"), ("direction", [0.0, 1.0]),
                         ("amplitude", 1.0), ("omega", 0.5), ("phase", 0.0))),
    *(pytest.param("tunnel-a-smooth-bend", ("tunnel", key), value, id=f"tunnel-{key}")
      for key, value in (("ds", 0.1), ("bend_radius", 10.0), ("ring_radius", 6.0),
                         ("corner_smoothing", 12), ("start_radius", 2.0))),
    pytest.param("coverage-barrier-n20", ("params", "coverage", "bounded"), True,
                 id="coverage-bounded"),
    pytest.param("coverage-barrier-n20", ("params", "coverage", "k_bar"),
                 [0.3, 0.3, 0.3], id="coverage-k_bar"),
    pytest.param("coverage-barrier-n20", ("params", "coverage", "gamma"), 1.0,
                 id="coverage-gamma"),
    pytest.param("coverage-sweep", ("params", "coverage", "sweep", "legs"),
                 [[[1.0, 0.0, 0.0], 2.0]], id="sweep-legs"),
    pytest.param("deform-static-cylinders", ("params", "u_max"), 3.0, id="params-u_max"),
    pytest.param("deform-quad-tracking", ("params", "flatness"), {"mu": 1.0},
                 id="params-flatness"),
])
def test_deleted_key_rejected(name, path, value):
    validate_config(_stock(name))
    with pytest.raises(ConfigError, match="unknown key"):
        validate_config(_set(_stock(name), path, value))


@pytest.mark.parametrize("name, path, value", [
    pytest.param("planar-trap", ("params", "hybrid", "v_maxx"), 1.0,
                 id="hybrid-unknown-field"),
    pytest.param("planar-trap", ("params", "hybrid", "v_max"), "fast",
                 id="hybrid-string-field"),
    pytest.param("planar-trap", ("params", "hybrid", "d_safe"), 5.0,
                 id="hybrid-cross-field-rule"),
    pytest.param("planar-static", ("params", "rrt", "max_iters"), 0.5,
                 id="rrt-float-for-int"),
    pytest.param("planar-static", ("params", "rrt", "goal_bias"), 1.5,
                 id="rrt-goal-bias-range"),
    pytest.param("planar-trap", ("params", "trap_range"), -1.0, id="trap-range-negative"),
    pytest.param("planar-trap", ("params", "flock"), {}, id="section-of-other-kind"),
    pytest.param("reactive3d-ellipsoids", ("params", "reactive3d", "big_c"), 0.0,
                 id="reactive3d-zero"),
    pytest.param("deform-static-cylinders", ("params", "deform", "v"), float("inf"),
                 id="deform-inf"),
    pytest.param("planar-static", ("params", "rrt", "max_iters"), True,
                 id="rrt-bool-for-int"),
    pytest.param("tunnel-a-smooth-bend", ("params", "tunnel_nav", "d1"), 9.0,
                 id="tunnel-nav-cross-field-rule"),
    pytest.param("tunnel-narrowing-robust", ("params", "pipeline"), "fast",
                 id="pipeline-unknown"),
    pytest.param("tunnel-narrowing-robust", ("params", "probe_distances"), [1.0],
                 id="probe-distances-one"),
    pytest.param("flock-n4", ("params", "flock", "goal"), [1.0, 2.0], id="flock-goal-2d"),
    pytest.param("flock-n4", ("params", "flock", "alpha_neighbors"), 3,
                 id="flock-neighbors-int"),
    pytest.param("flock-n4", ("params", "record_every"), 0, id="record-every-zero"),
    pytest.param("coverage-sweep", ("params", "coverage", "colour"), "red",
                 id="coverage-unknown-key"),
    pytest.param("coverage-sweep", ("params", "coverage", "k"), [1.0, -1.0, 1.0],
                 id="coverage-k-negative"),
    pytest.param("coverage-sweep", ("params", "coverage", "sweep", "g0"), 9.0,
                 id="sweep-faster-than-agents"),
    pytest.param("coverage-sweep", ("params", "coverage", "sweep", "events", 0, "kind"),
                 "spin", id="sweep-event-kind"),
    pytest.param("coverage-agent-removal", ("params", "coverage", "removals", 0, "agent"),
                 99, id="removal-agent-out-of-range"),
    pytest.param("coverage-barrier-n20", ("params", "coverage", "boundary"),
                 [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
                 id="coverage-boundary-collinear"),
    pytest.param("reactive3d-ellipsoids", ("world", "obstacles", 0),
                 {"type": "sphere", "center": [5.0, 3.0, -3.0], "radius": 2.0},
                 id="reactive3d-sphere"),
    pytest.param("reactive3d-ellipsoids", ("world", "obstacles", 0, "motion"),
                 {"velocity": [0.1, 0.0, 0.0]}, id="reactive3d-moving-ellipsoid"),
    pytest.param("planar-trap", ("world", "obstacles", 0),
                 {"type": "ellipsoid", "center": [5.0, 0.0], "semi": [1.0, 1.0]},
                 id="hybrid2d-ellipsoid"),
    pytest.param("planar-dynamic", ("world", "obstacles", 0, "motion"), {},
                 id="motion-velocity-missing"),
    pytest.param("planar-static", ("world", "random_discs", "count"), 0,
                 id="random-discs-count-zero"),
    pytest.param("planar-static", ("world", "random_discs", "box"),
                 [[44.0, -9.0], [4.0, 9.0]], id="random-discs-box-unordered"),
    pytest.param("planar-static", ("world", "random_discs", "radius"), [0.6, 0.2],
                 id="random-discs-radius-unordered"),
    pytest.param("planar-static", ("world", "random_discs", "radius"), [0.0, 0.2],
                 id="random-discs-radius-zero"),
    pytest.param("planar-static", ("world", "random_discs", "gap"), -1.0,
                 id="random-discs-gap-negative"),
    pytest.param("planar-static", ("world", "random_discs", "obstacle"),
                 {"type": "cylinder", "axis": [0.0, 0.0, 1.0], "height": 1.0},
                 id="random-discs-cylinder-on-the-plane"),
    pytest.param("deform-static-cylinders", ("world", "random_discs", "obstacle", "type"),
                 "wall", id="random-discs-wall"),
    pytest.param("deform-static-cylinders", ("world", "random_discs", "obstacle", "base"),
                 [0.0, 0.0, 0.0], id="random-discs-template-sets-a-drawn-field"),
    pytest.param("deform-static-cylinders", ("world", "random_discs", "obstacle"),
                 {"type": "sphere", "height": 1.0}, id="random-discs-sphere-with-height"),
    pytest.param("deform-static-cylinders", ("world", "random_discs", "obstacle"),
                 {"type": "cylinder", "axis": [0.0, 0.0, 1.0]},
                 id="random-discs-cylinder-without-height"),
    pytest.param("reactive3d-ellipsoids", ("world", "random_discs"),
                 _stock("deform-static-cylinders")["world"]["random_discs"],
                 id="random-discs-reactive3d"),
    pytest.param("flock-n4", ("world", "random_discs"),
                 _stock("deform-static-cylinders")["world"]["random_discs"],
                 id="random-discs-flocking"),
    pytest.param("tunnel-a-smooth-bend", ("tunnel", "shape"), "klein-bottle",
                 id="tunnel-shape-unknown"),
    pytest.param("tunnel-a-smooth-bend", ("monitors", "progress_window"), 0.01,
                 id="progress-window-under-half-a-period"),
    pytest.param("flock-n4", ("params", "flock", "alpha_neighbors"), "nearest3",
                 id="flock-alpha-neighbors-unknown"),
    pytest.param("tunnel-a-smooth-bend", ("monitors", "wall_margin"), "0.3",
                 id="monitor-string"),
    pytest.param("tunnel-a-smooth-bend", ("output", "svg"), "yes", id="output-string"),
])
def test_bad_params_rejected(name, path, value):
    validate_config(_stock(name))
    with pytest.raises(ConfigError):
        validate_config(_set(_stock(name), path, value))


def _key_paths(node, path=()):
    """Every dict key and list index below `node`, as paths."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _key_paths(child, path + (key,))


_FUZZ_VALUES = [None, True, False, 0, 1, 3, -1, 0.5, 2.5, -0.5, float("nan"),
                float("inf"), "", "auto", "x", [], [1.0], [1.0, 2.0],
                [0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]],
                {}]
_STOCK_NAMES = sorted(path.stem for path in scenarios.CONFIGS.glob("*.json"))


@st.composite
def mutated_configs(draw):
    """A stock config at duration 0 with one to three keys dropped or set
    to another value."""
    cfg = _stock(draw(st.sampled_from(_STOCK_NAMES)))
    cfg["duration"] = 0.0
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_key_paths(cfg))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = json.loads(json.dumps(draw(st.sampled_from(_FUZZ_VALUES))))
    return cfg


@settings(max_examples=150, deadline=None)
@given(cfg=mutated_configs())
def test_mutated_stock_configs_are_rejected_or_run(cfg):
    """A mutated or truncated stock config either fails with a ConfigError
    naming the bad key, or builds and runs at duration 0: never a bare
    KeyError, TypeError or any other exception."""
    try:
        run(cfg)
    except ConfigError:
        pass


# keys of the schema that no stock config sets, with the reason each stays
_UNSET_ALLOWED = {
    **{("output", key): "deployment setting, chosen per run"
       for key in ("dir", "csv", "jsonl", "svg")},
    **{("tunnel", key): "helix geometry kept for fixing the self-meeting stock helix"
       for key in ("helix_radius", "pitch", "turns")},
    ("coverage", "r_c"): "the distributed communication-range model, covered by "
                         "the coverage property tests",
}


def test_every_schema_key_is_set_by_a_stock_config():
    """An option no stock scenario sets either gets a scenario, joins the
    allowlist with its reason, or is deleted.  A params dataclass's field
    counts as set if a stock config of any kind that takes the class sets
    it."""
    from aeronav.harness import config as C
    cfgs = list(scenarios.all_scenarios().values())
    classes = {spec for keys in C._PARAMS_KEYS.values() for spec in keys.values()
               if isinstance(spec, type)}
    # a drawn obstacle sets its template's keys
    obstacles = [o for c in cfgs
                 for o in runner.random_discs(c) + c.get("world", {}).get("obstacles", [])]
    random_discs = [c["world"]["random_discs"] for c in cfgs
                    if "random_discs" in c.get("world", {})]
    coverage = [c["params"]["coverage"] for c in cfgs if c["kind"] == "coverage"]
    sweeps = [c["sweep"] for c in coverage if "sweep" in c]
    sections = {
        "top": (C._TOP_KEYS, cfgs),
        "world": (C._WORLD_KEYS, [c["world"] for c in cfgs if "world" in c]),
        "obstacle": (C._OBSTACLE_KEYS, obstacles),
        "random_discs": (C._RANDOM_DISC_KEYS, random_discs),
        "motion": (C._MOTION_KEYS, [o["motion"] for o in obstacles if "motion" in o]),
        "tunnel": (C._TUNNEL_KEYS, [c["tunnel"] for c in cfgs if "tunnel" in c]),
        "agents": (C._AGENT_KEYS, [c["agents"] for c in cfgs if "agents" in c]),
        "monitors": (C._MONITOR_KEYS, [c["monitors"] for c in cfgs if "monitors" in c]),
        "output": (C._OUTPUT_KEYS, [c["output"] for c in cfgs if "output" in c]),
        "coverage": (C._COVERAGE_KEYS, coverage),
        "removals": (C._REMOVAL_KEYS, [r for c in coverage for r in c.get("removals", [])]),
        "sweep": (C._SWEEP_KEYS, sweeps),
        "sweep.events": (C._SWEEP_EVENT_KEYS, [e for s in sweeps for e in s.get("events", [])]),
        **{f"params[{kind}]": (keys, [c.get("params", {}) for c in cfgs if c["kind"] == kind])
           for kind, keys in C._PARAMS_KEYS.items()},
        **{cls.__name__: ([f.name for f in dataclasses.fields(cls)],
                          [c["params"][key] for c in cfgs
                           for key, spec in C._PARAMS_KEYS[c["kind"]].items()
                           if spec is cls and key in c.get("params", {})])
           for cls in classes},
    }
    unset = {(name, key) for name, (keys, found) in sections.items() for key in keys
             if not any(key in f for f in found)}
    allowed = set(_UNSET_ALLOWED)
    assert unset == allowed, (f"set by no stock config: {sorted(unset - allowed)}; "
                              f"allowed but set: {sorted(allowed - unset)}")


def test_cost_increase_leaves_out_the_removal_jump(monkeypatch):
    """Without a sweep, `cost_max_increase` is the largest rise of the
    multicenter cost from one tick to the next, except into a removal tick
    and out of it: removing an agent raises the cost by construction."""
    costs = []
    cost = runner.CoverageSim.multicenter_cost

    def recorded(sim):
        costs.append(cost(sim))
        return costs[-1]

    monkeypatch.setattr(runner.CoverageSim, "multicenter_cost", recorded)
    cfg = scenarios.stock("coverage-agent-removal")
    del cfg["params"]["coverage"]["sweep"], cfg["monitors"]["sweep_tol"]
    cfg["duration"] = 5.0
    cfg["params"]["coverage"]["removals"] = [{"agent": 2, "tick": 40}]
    res = run(cfg)
    assert [e["tick"] for e in res.log.events if e["kind"] == "agent_removed"] == [40]
    rises = np.diff(costs)
    assert rises[39] > 1.0          # into tick 40: the removal jump
    kept = max(0.0, *np.delete(rises, [39, 40]).tolist())
    assert res.metrics["cost_max_increase"] == kept < 1e-6


def _progress(q_unwrapped, window=5):
    """`progress_monotone` of a tunnel run whose unwrapped arc length went
    through q_unwrapped, judged over `window` ticks."""
    engine = object.__new__(ENGINES["tunnel"])
    Engine.__init__(engine, 0.1, {})
    engine.q_unwrapped, engine.window = list(q_unwrapped), window
    return engine.metrics([])["progress_monotone"]


def test_progress_monitor_boundaries():
    """Progress must grow over every `window` ticks: a stall of exactly
    `window` ticks fails, one tick less passes, and a run of at most
    `window` samples has no window to judge."""
    rising = [0.1 * k for k in range(12)]
    assert _progress(rising)
    stalled = rising[:4] + [rising[3]] * 5 + [rising[3] + 0.1 * k for k in range(1, 4)]
    assert not _progress(stalled)               # q[8] - q[3] == 0 over 5 ticks
    assert _progress(stalled[:4] + stalled[5:])   # the same stall of 4 ticks
    assert not _progress([1.0] * 6)             # window + 1 samples, no progress
    assert _progress([1.0, 1.0, 1.0, 1.0, 1.0, 1.1])
    assert _progress([1.0] * 5)                 # window samples: nothing to judge
    assert _progress([2.0, 1.0, 0.5, 0.25, 0.1])
