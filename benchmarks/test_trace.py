"""Self-checks of the benchmark's tracing.

    python3 -m pytest benchmarks/test_trace.py -q

One untraced and one traced pass of every workload at the stock seed.  Each
per-layer counter must be positive on the workloads that exercise its layer
and zero on those that never call it; a wrapper that misses a name bound by
`from ... import` (the plant steppers in `harness.runner`, `sense_points` in
`tunnel_nav`) shows up here as a zero.
"""
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402

W.pin_threads()
W.import_aeronav()

from run import END_TO_END, Runner  # noqa: E402
from tracing import Tracer, layer_table, pass_seconds, reported  # noqa: E402

SWARM, VEHICLE = ("swarm",), ("vehicle",)
ALL = SWARM + VEHICLE

# metric -> (workloads where it must be > 0, workloads where it must be 0)
EXPECT = {
    "flocking.tick_calls": (SWARM, VEHICLE),
    "flocking.agent_controls": (SWARM, VEHICLE),
    "coverage.tick_calls": (SWARM, VEHICLE),
    "coverage.voronoi_calls": (SWARM, VEHICLE),
    "coverage.clip_calls": (SWARM, VEHICLE),
    "plants.step_calls": (ALL, ()),
    "plants.flock_batch_s": (SWARM, VEHICLE),
    "plants.quad_step_s": (VEHICLE, SWARM),
    "bezier.closest_param_calls": (VEHICLE, SWARM),
    "bezier.point_ahead_calls": (VEHICLE, SWARM),
    "bezier.point_calls": (VEHICLE, SWARM),
    "bezier.sample_calls": (VEHICLE, SWARM),
    "bezier.replace_window_calls": (VEHICLE, SWARM),
    "deform.until_safe_calls": (VEHICLE, SWARM),
    "deform.find_unsafe_calls": (VEHICLE, SWARM),
    "deform.deformations": (VEHICLE, SWARM),
    "quadrotor.step_calls": (VEHICLE, SWARM),
    "reactive3d.control_calls": (VEHICLE, SWARM),
    "reactive3d.tangent_calls": (VEHICLE, SWARM),
    # flock-n4 flies around one sphere: the swarm makes nearest-obstacle
    # queries but no other world query
    "world.nearest_calls": (ALL, ()),
    "world.batch_points": (VEHICLE, SWARM),
    "world.raycast_rays": (VEHICLE, SWARM),
    "world.segment_clear_calls": (VEHICLE, SWARM),
    "world.sense_in_points": (VEHICLE, SWARM),
    "tunnels.cloud_points": (VEHICLE, SWARM),
    "tunnels.query_calls": (VEHICLE, SWARM),
    "tunnel_nav.control_calls": (VEHICLE, SWARM),
    "tunnel_nav.voxel_in_points": (VEHICLE, SWARM),
    "tunnel_nav.voxel_out_points": (VEHICLE, SWARM),
    "planner2d.rrt_calls": (VEHICLE, SWARM),
    "hybrid2d.control_calls": (VEHICLE, SWARM),
    "harness.runlog_rows": (ALL, ()),
}


@pytest.fixture(scope="module")
def traced():
    """workload -> (layer table, traced pass seconds) of one traced pass."""
    out = {}
    for name, workload in W.WORKLOADS.items():
        runner = Runner(workload, 0)
        runner.one_pass()
        tracer = Tracer()
        tracer.install()
        try:
            runner.one_pass(tracer, 1)
        finally:
            tracer.uninstall()
        # the traced pass must reproduce the untraced run-log digests
        assert runner.failed == 0, runner.problems
        out[name] = (layer_table(tracer, 1), pass_seconds(tracer, 1))
    return out


@pytest.mark.parametrize("metric", sorted(EXPECT))
def test_counter_positive_and_zero_where_expected(traced, metric):
    positive, zero = EXPECT[metric]
    for wl in positive:
        assert traced[wl][0][metric][0] > 0, f"{metric} is 0 on {wl}"
    for wl in zero:
        assert traced[wl][0][metric][0] == 0, f"{metric} is not 0 on {wl}"


def test_self_times_add_up_to_pass_time(traced):
    for wl, (table, wall) in traced.items():
        total = sum(v for k, (v, _) in table.items()
                    if k.count(".") == 1 and k.endswith(".self_s"))
        assert total == pytest.approx(wall, rel=1e-9), wl


def test_uninstall_restores_every_binding():
    from aeronav import plants
    from aeronav.harness import runner
    from aeronav.world import World
    originals = (runner.step_unicycle, plants.step_unicycle, World.nearest_obstacle)
    tracer = Tracer()
    tracer.install()
    assert runner.step_unicycle is plants.step_unicycle
    assert runner.step_unicycle is not originals[0]
    tracer.uninstall()
    assert (runner.step_unicycle, plants.step_unicycle, World.nearest_obstacle) == originals


def test_benchmark_json_names_the_reported_metrics(traced):
    bench = json.loads((W.ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == [HERE.name]
    assert {w["name"] for w in bench["workloads"]} == set(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    table, wall = traced["swarm"]
    table = dict(table, **{"trace.overhead_frac": (0.0, "ratio")})
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == {k: u for k, (_, u) in reported(table, wall).items()})
