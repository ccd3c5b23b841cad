import json
import subprocess
import sys

import numpy as np
import pytest

from aeronav.harness import monitors
from aeronav.harness.config import ConfigError, load_config, save_config, validate_config
from aeronav.harness.runlog import CSV_HEADER, RunLog, emit
from aeronav.harness.runner import build_obstacle, build_world, run
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


def test_validate_ok():
    validate_config(minimal_cfg())
    validate_config(minimal_cfg(duration=0.0))   # builds, runs no tick


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
    pytest.param({"kind": "flocking"}, id="flocking-agents-missing"),
    pytest.param({"kind": "flocking", "agents": {"count": 4}},
                 id="flocking-spawn-missing"),
    pytest.param({"kind": "coverage", "agents": {"spawn": [[0.0, 0.0, 0.0]]}},
                 id="coverage-count-missing"),
    pytest.param({"kind": "coverage",
                  "agents": {"count": 2, "spawn": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]},
                  "params": {"coverage": {"gamma": 1.0}}},
                 id="coverage-boundary-missing"),
    pytest.param(obstacle_cfg(type="sphere", center=[1.0, 1.0]),
                 id="sphere-radius-missing"),
    pytest.param(obstacle_cfg(type="sphere", radius=1.0), id="sphere-center-missing"),
    pytest.param(obstacle_cfg(type="cylinder", base=[0.0, 0.0, 0.0],
                              axis=[0.0, 0.0, 1.0], radius=1.0),
                 id="cylinder-height-missing"),
    pytest.param(obstacle_cfg(type="cylinder", axis=[0.0, 0.0, 1.0], radius=1.0,
                              height=2.0), id="cylinder-base-missing"),
    pytest.param(obstacle_cfg(type="ellipsoid", center=[0.0, 0.0, 0.0]),
                 id="ellipsoid-semi-missing"),
    pytest.param(obstacle_cfg(type="wall", loop=True), id="wall-vertices-missing"),
    pytest.param(obstacle_cfg(center=[1.0, 1.0], radius=1.0), id="obstacle-type-missing"),
    pytest.param(obstacle_cfg(type="cone", center=[1.0, 1.0], radius=1.0),
                 id="obstacle-type-unknown"),
])
def test_bad_value_rejected(over):
    with pytest.raises(ConfigError):
        validate_config(minimal_cfg(**over))


def test_config_roundtrip(tmp_path):
    cfg = scenarios.planar_trap_wall()
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


@pytest.mark.parametrize("builder", [scenarios.planar_static_field,
                                     scenarios.deform_static_cylinders])
def test_random_field_redraw_matches_stored(builder):
    """Drawing the random obstacles again at the stored seed gives the
    stored obstacles; another seed gives others."""
    stored = builder()
    assert builder(seed=stored["seed"]) == stored
    other = builder(seed=stored["seed"] + 1)
    assert other["world"]["obstacles"] != stored["world"]["obstacles"]
    assert len(other["world"]["obstacles"]) == len(stored["world"]["obstacles"])


def test_build_obstacles():
    w = build_world({"world": {"obstacles": [
        {"type": "sphere", "center": [1, 2], "radius": 0.5},
        {"type": "wall", "vertices": [[0, 0], [1, 0]]},
        {"type": "cylinder", "base": [0, 0, 0], "axis": [0, 0, 1],
         "radius": 1.0, "height": 2.0},
        {"type": "ellipsoid", "center": [0, 0, 0], "semi": [1, 2, 3]},
        {"type": "sphere", "center": [5, 5], "radius": 0.5,
         "motion": {"kind": "linear", "velocity": [0.1, 0.0]}},
    ]}})
    assert len(w.obstacles) == 5


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


def test_monitors_fail_nan_clearance_pass_inf():
    log = RunLog()
    log.add(0, 0.1, 0, [0.0, 0.0], [0.0, 0.0], "m", np.inf, np.inf)
    log.add(1, 0.2, 0, [0.0, 0.0], [0.0, 0.0], "m", np.nan, np.nan)
    results = monitors.evaluate(log, {"d_safe": 0.5, "min_pair": 1.0}, {})
    assert [(m.name, m.passed, m.first_violation_tick) for m in results] == [
        ("d_safe", False, 1), ("min_pair", False, 1)]


OBSTACLE_KINDS = {"hybrid2d": scenarios.planar_trap_wall,
                  "reactive3d": scenarios.reactive3d_ellipsoid_field,
                  "deform3d": scenarios.deform_static_cylinders,
                  "deform3d_quad": scenarios.deform_quad_tracking}


@pytest.mark.parametrize("kind", sorted(OBSTACLE_KINDS))
def test_obstacle_free_world(kind):
    """Kinds whose navigator needs an obstacle refuse an empty world with a
    ConfigError naming the kind; the others log +inf clearance."""
    cfg = OBSTACLE_KINDS[kind]()
    cfg["world"]["obstacles"] = []
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
    cfg = scenarios.coverage_sweep()
    cfg["duration"] = 1.0
    cfg["params"]["coverage"]["r_c"] = 3.0
    res = run(cfg)
    found = [e for e in res.log.events if e["kind"] == "comm_range_violation"]
    assert found and res.metrics["comm_violations"] == len(found)
    keys = [(e["tick"], e["agent"], e["neighbor"]) for e in found]
    assert len(set(keys)) == len(keys)
    assert {t for t, _, _ in keys} <= set(range(10))


def test_run_determinism_byte_identical():
    cfg = scenarios.planar_trap_wall()
    a = run(cfg).log.to_csv()
    b = run(cfg).log.to_csv()
    assert a == b


def test_monitor_failure_marks_run():
    cfg = scenarios.planar_trap_wall()
    cfg = json.loads(json.dumps(cfg))
    cfg["monitors"]["d_safe"] = 50.0  # impossible bound
    res = run(cfg)
    assert not res.passed
    failed = [m for m in res.monitors if not m.passed]
    assert failed and failed[0].first_violation_tick is not None


def test_monitors_non_intrusive():
    cfg = scenarios.planar_trap_wall()
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
    cfg = scenarios.planar_trap_wall()
    cfg["output"] = {"csv": True, "svg": True}
    path = tmp_path / "trap.json"
    save_config(cfg, path)
    proc = _cli(["run", str(path), "--out", str(tmp_path / "runs")])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "runs" / "planar-trap.csv").exists()
    assert (tmp_path / "runs" / "planar-trap.svg").exists()
    assert "PASS" in proc.stdout


def test_cli_gen_tunnel_and_plot(tmp_path):
    proc = _cli(["gen-tunnel", "straight", "--radius", "1.0", "--length", "6",
                 "--out", str(tmp_path / "t.xyz")])
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "t.xyz").exists()
    assert (tmp_path / "t.json").exists()
    # plot an actual run log
    from aeronav.harness.runner import run as run_scn
    from aeronav.harness.runlog import emit as emit_log
    res = run_scn(scenarios.planar_trap_wall())
    csv_path = tmp_path / "r.csv"
    emit_log(res.log, "csv", csv_path)
    proc = _cli(["plot", str(csv_path)])
    assert proc.returncode == 0, proc.stderr
    assert csv_path.with_suffix(".svg").exists()


def test_cli_suite_directory(tmp_path):
    from aeronav.harness.config import save_config
    save_config(scenarios.planar_trap_wall(), tmp_path / "a.json")
    save_config(scenarios.tunnel_scenario("a"), tmp_path / "b.json")
    proc = _cli(["suite", str(tmp_path), "--out", str(tmp_path / "out")])
    assert proc.returncode == 0, proc.stderr
    assert "2/2 scenarios passed" in proc.stdout


def test_cli_output_dir_env(tmp_path, monkeypatch):
    from aeronav.harness.config import save_config
    cfg = scenarios.planar_trap_wall()
    path = tmp_path / "c.json"
    save_config(cfg, path)
    env_dir = tmp_path / "envout"
    import os
    env = dict(os.environ, AERONAV_OUTPUT_DIR=str(env_dir))
    proc = subprocess.run([sys.executable, "-m", "aeronav.cli", "run", str(path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (env_dir / "planar-trap.summary.json").exists()
