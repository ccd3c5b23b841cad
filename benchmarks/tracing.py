"""Outside-in tracing of aeronav's layers for the benchmark's traced run.

`Tracer.install()` replaces public functions and methods of the aeronav
modules with wrappers defined here, and `uninstall()` puts the originals
back; nothing under `src/` knows about tracing.  A module-level function is
replaced in its defining module and in every aeronav module that bound the
same object by `from ... import`, because such a binding would otherwise
bypass the wrapper (`harness.runner` binds the plant steppers this way and
`tunnel_nav` binds `sense_points`).

Two kinds of wrapper:
- a span records name, start, end, parent span and instance id, and adds
  its duration to the parent's child time so that self time is the span's
  duration minus the time of its child spans;
- a counter only counts (calls, points, outcomes).  Hot leaves such as
  `PiecewisePath.point` and `clip_halfplane` are counted, not spanned, and
  `geom` is not wrapped at all: its helpers cost less than a wrapper, so
  their time stays in the callers' self time.

Spans are kept in memory and written out once, at the end of the run.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import math
import sys
import weakref
from array import array
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  Several targets may share a span name.
SPANS = (
    ("aeronav.flocking", "FlockSim.tick", "flocking.tick"),
    ("aeronav.flocking", "FlockSim.min_pairwise", "flocking.min_pairwise"),
    ("aeronav.flocking", "neighbor_lists", "flocking.neighbor"),
    ("aeronav.coverage", "CoverageSim.tick", "coverage.tick"),
    ("aeronav.coverage", "voronoi_cells", "coverage.voronoi"),
    ("aeronav.coverage", "CoverageSim.multicenter_cost", "coverage.cost"),
    ("aeronav.coverage", "CoverageSim.velocities", "coverage.velocities"),
    ("aeronav.plants", "step_unicycle", "plants.step"),
    ("aeronav.plants", "step_heading3d", "plants.step"),
    ("aeronav.plants", "step_angles3d", "plants.step"),
    ("aeronav.plants", "step_quadrotor", "plants.quad_step"),
    ("aeronav.plants", "step_flock_batch", "plants.flock_batch"),
    ("aeronav.bezier", "PiecewisePath.closest_param", "bezier.closest_param"),
    ("aeronav.bezier", "PiecewisePath.point_ahead", "bezier.point_ahead"),
    ("aeronav.deform", "deform_until_safe", "deform.until_safe"),
    ("aeronav.deform", "find_unsafe", "deform.find_unsafe"),
    ("aeronav.deform", "reference_model_step", "deform.ref_step"),
    ("aeronav.deform", "DeformNavigator.control", "deform.control"),
    ("aeronav.quadrotor", "QuadrotorTracker.step", "quadrotor.step"),
    ("aeronav.reactive3d", "Reactive3DNavigator.control", "reactive3d.control"),
    ("aeronav.reactive3d", "tangent_to_ellipsoid", "reactive3d.tangent"),
    ("aeronav.world", "World.nearest_obstacle", "world.nearest"),
    ("aeronav.world", "World.batch_distance", "world.batch"),
    ("aeronav.world", "World.raycast_2d", "world.raycast"),
    ("aeronav.world", "World.segment_clear", "world.segment_clear"),
    ("aeronav.world", "sense_points", "world.sense"),
    ("aeronav.tunnels", "generate_tunnel", "tunnels.generate"),
    ("aeronav.tunnels", "TunnelCloud.wall_distance", "tunnels.query"),
    ("aeronav.tunnels", "TunnelCloud.curvilinear", "tunnels.query"),
    ("aeronav.tunnel_nav", "TunnelNavigator.control", "tunnel_nav.control"),
    ("aeronav.tunnel_nav", "slice_centroids", "tunnel_nav.slice"),
    ("aeronav.tunnel_nav", "slice_points", "tunnel_nav.slice"),
    ("aeronav.tunnel_nav", "perceive_robust", "tunnel_nav.robust"),
    ("aeronav.tunnel_nav", "voxel_downsample", "tunnel_nav.voxel"),
    ("aeronav.planner2d", "rrt_plan", "planner2d.rrt"),
    ("aeronav.planner2d", "prune_path", "planner2d.prune"),
    ("aeronav.planner2d", "smooth_path", "planner2d.smooth"),
    ("aeronav.hybrid2d", "HybridNavigator.control", "hybrid2d.control"),
    ("aeronav.harness.config", "validate_config", "harness.validate"),
    ("aeronav.harness.runlog", "RunLog.add", "harness.runlog"),
    ("aeronav.harness.monitors", "evaluate", "harness.monitors"),
)

# The benchmark's own span around each `runner.run(cfg)` call.
RUN_SPAN = "harness.run"

LAYERS = ("flocking", "coverage", "plants", "bezier", "deform", "quadrotor",
          "reactive3d", "world", "tunnels", "tunnel_nav", "planner2d",
          "hybrid2d", "harness")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per finished span, in finishing order
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_self = array("d")
        self.span_instance = array("i")
        self.counts: dict[str, float] = defaultdict(float)
        self.instance = -1
        self._stack: list[list] = []     # [span id, name id, start, child time]
        self._next_id = 0
        self._installed: list[tuple] = []
        self._last_per_segment = weakref.WeakKeyDictionary()

    # -- spans ---------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, nid: int) -> None:
        self._stack.append([self._next_id, nid, perf_counter(), 0.0])
        self._next_id += 1

    def _exit(self) -> None:
        end = perf_counter()
        sid, nid, start, child = self._stack.pop()
        dur = end - start
        parent = -1
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.span_id.append(sid)
        self.span_parent.append(parent)
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)
        self.span_self.append(dur - child)
        self.span_instance.append(self.instance)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name."""
        self._enter(self.name_id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    def _span_wrapper(self, fn, name, hook):
        nid = self.name_id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def spanned(*a, **k):
            enter(nid)
            try:
                out = fn(*a, **k)
            finally:
                exit_()
            if hook is not None:
                hook(a, k, out)
            return out
        return spanned

    @staticmethod
    def _count_wrapper(fn, hook):
        @functools.wraps(fn)
        def counted(*a, **k):
            out = fn(*a, **k)
            hook(a, k, out)
            return out
        return counted

    # -- counting hooks ------------------------------------------------------

    def _hooks(self, np, per_segment_default):
        c = self.counts
        last = self._last_per_segment

        def clip(a, k, out):
            c["coverage.clip_calls"] += 1
            poly = a[0]
            if out.shape != poly.shape or out.tobytes() != poly.tobytes():
                c["coverage.clip_useful"] += 1

        def sample(a, k, out):
            path = a[0]
            per_segment = a[1] if len(a) > 1 else k.get("per_segment", per_segment_default)
            c["bezier.sample_calls"] += 1
            if last.get(path) != per_segment:
                c["bezier.sample_recompute"] += 1
            last[path] = per_segment

        def find_unsafe(a, k, out):
            c["deform.unsafe_found"] += out is not None

        def batch(a, k, out):
            c["world.batch_points"] += len(out)

        def raycast(a, k, out):
            c["world.raycast_rays"] += len(out)

        def sense(a, k, out):
            c["world.sense_in_points"] += len(a[1])
            c["world.sense_out_points"] += len(out)

        def generate(a, k, out):
            c["tunnels.cloud_points"] += len(out.points)

        def voxel(a, k, out):
            c["tunnel_nav.voxel_in_points"] += len(a[0])
            c["tunnel_nav.voxel_out_points"] += len(out)

        def robust(a, k, out):
            c["tunnel_nav.robust_fail"] += out is None

        def rrt(a, k, out):
            c["planner2d.rrt_success"] += bool(out.success)

        def counter(key):
            def hook(a, k, out):
                c[key] += 1
            return hook

        span_hooks = {
            "find_unsafe": find_unsafe, "World.batch_distance": batch,
            "World.raycast_2d": raycast, "sense_points": sense,
            "generate_tunnel": generate, "voxel_downsample": voxel,
            "perceive_robust": robust, "rrt_plan": rrt,
        }
        counters = (
            ("aeronav.flocking", "flocking_control", counter("flocking.agent_controls")),
            ("aeronav.coverage", "clip_halfplane", clip),
            ("aeronav.bezier", "PiecewisePath.point", counter("bezier.point_calls")),
            ("aeronav.bezier", "PiecewisePath.sample", sample),
            ("aeronav.bezier", "PiecewisePath.replace_window",
             counter("bezier.replace_window_calls")),
            ("aeronav.deform", "deform", counter("deform.deformations")),
        )
        return span_hooks, counters

    # -- installation --------------------------------------------------------

    def _replace(self, modname: str, attr: str, make) -> None:
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            self._installed.append((cls, meth, orig))
            return
        orig = getattr(mod, attr)
        new = make(orig)
        for name, other in list(sys.modules.items()):
            if other is None or not (name == "aeronav" or name.startswith("aeronav.")):
                continue
            for key, val in list(vars(other).items()):
                if val is orig:
                    setattr(other, key, new)
                    self._installed.append((other, key, orig))

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        import importlib

        import numpy as np
        for modname, _, _ in SPANS:
            importlib.import_module(modname)
        path_cls = sys.modules["aeronav.bezier"].PiecewisePath
        per_segment = inspect.signature(path_cls.sample).parameters["per_segment"].default
        span_hooks, counters = self._hooks(np, per_segment)
        for modname, attr, name in SPANS:
            hook = span_hooks.get(attr)
            self._replace(modname, attr,
                          lambda fn, name=name, hook=hook: self._span_wrapper(fn, name, hook))
        for modname, attr, hook in counters:
            self._replace(modname, attr,
                          lambda fn, hook=hook: self._count_wrapper(fn, hook))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._installed):
            setattr(owner, key, orig)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, inclusive seconds, self seconds)."""
        calls = [0] * len(self.names)
        incl = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for nid, s, e, own_s in zip(self.span_name, self.span_start,
                                    self.span_end, self.span_self):
            calls[nid] += 1
            incl[nid] += e - s
            own[nid] += own_s
        return {n: (calls[i], incl[i], own[i]) for i, n in enumerate(self.names)}

    def durations(self, name: str) -> list[float]:
        nid = self._name_ids.get(name)
        return [e - s for n, s, e in zip(self.span_name, self.span_start, self.span_end)
                if n == nid]

    def write_spans(self, path, instance_names: dict[int, str]) -> None:
        """Gzipped CSV, one finished span a line."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_s,end_s,self_s,instance\n")
            for sid, par, nid, s, e, own, inst in zip(
                    self.span_id, self.span_parent, self.span_name, self.span_start,
                    self.span_end, self.span_self, self.span_instance):
                fh.write(f"{sid},{par},{self.names[nid]},{s!r},{e!r},{own!r},"
                         f"{instance_names.get(inst, '')}\n")


def _p99_ms(durations: list[float]) -> float:
    if not durations:
        return 0.0
    d = sorted(durations)
    return 1e3 * d[min(len(d) - 1, math.ceil(0.99 * len(d)) - 1)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_table(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass: name -> (value, unit).  Counts
    are per pass, `_s` are seconds per pass, `_self_s` exclude child spans,
    `_ms` are span percentiles, and `ratio` is dimensionless."""
    tot = tracer.totals()
    cnt = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0] / passes

    def incl(name):
        return tot.get(name, (0, 0.0, 0.0))[1] / passes

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2] / passes

    def count(key):
        return cnt.get(key, 0.0) / passes

    s, n, r, ms = "s", "count", "ratio", "ms"
    t = {
        "flocking.tick_calls": (calls("flocking.tick"), n),
        "flocking.tick_self_s": (own("flocking.tick"), s),
        "flocking.tick_p99_ms": (_p99_ms(tracer.durations("flocking.tick")), ms),
        "flocking.agent_controls": (count("flocking.agent_controls"), n),
        "flocking.neighbor_s": (incl("flocking.neighbor"), s),
        "flocking.min_pairwise_s": (incl("flocking.min_pairwise"), s),
        "coverage.tick_calls": (calls("coverage.tick"), n),
        "coverage.voronoi_calls": (calls("coverage.voronoi"), n),
        "coverage.voronoi_per_tick": (_ratio(calls("coverage.voronoi"),
                                             calls("coverage.tick")), r),
        "coverage.voronoi_s": (incl("coverage.voronoi"), s),
        "coverage.clip_calls": (count("coverage.clip_calls"), n),
        "coverage.clip_useful_ratio": (_ratio(count("coverage.clip_useful"),
                                              count("coverage.clip_calls")), r),
        "coverage.cost_s": (incl("coverage.cost"), s),
        "coverage.velocities_s": (incl("coverage.velocities"), s),
        "plants.step_calls": (calls("plants.step") + calls("plants.quad_step")
                              + calls("plants.flock_batch"), n),
        "plants.step_s": (incl("plants.step") + incl("plants.quad_step")
                          + incl("plants.flock_batch"), s),
        "plants.flock_batch_s": (incl("plants.flock_batch"), s),
        "plants.quad_step_s": (incl("plants.quad_step"), s),
        "bezier.closest_param_calls": (calls("bezier.closest_param"), n),
        "bezier.closest_param_s": (incl("bezier.closest_param"), s),
        "bezier.point_ahead_calls": (calls("bezier.point_ahead"), n),
        "bezier.point_ahead_s": (incl("bezier.point_ahead"), s),
        "bezier.point_calls": (count("bezier.point_calls"), n),
        "bezier.sample_calls": (count("bezier.sample_calls"), n),
        "bezier.sample_recompute_ratio": (_ratio(count("bezier.sample_recompute"),
                                                 count("bezier.sample_calls")), r),
        "bezier.replace_window_calls": (count("bezier.replace_window_calls"), n),
        "deform.until_safe_calls": (calls("deform.until_safe"), n),
        "deform.until_safe_s": (incl("deform.until_safe"), s),
        "deform.find_unsafe_calls": (calls("deform.find_unsafe"), n),
        "deform.find_unsafe_s": (incl("deform.find_unsafe"), s),
        "deform.unsafe_found_ratio": (_ratio(count("deform.unsafe_found"),
                                             calls("deform.find_unsafe")), r),
        "deform.deformations": (count("deform.deformations"), n),
        "deform.ref_step_s": (incl("deform.ref_step"), s),
        "deform.control_p99_ms": (_p99_ms(tracer.durations("deform.control")), ms),
        "quadrotor.step_calls": (calls("quadrotor.step"), n),
        "quadrotor.step_self_s": (own("quadrotor.step"), s),
        "reactive3d.control_calls": (calls("reactive3d.control"), n),
        "reactive3d.control_self_s": (own("reactive3d.control"), s),
        "reactive3d.tangent_calls": (calls("reactive3d.tangent"), n),
        "reactive3d.tangent_s": (incl("reactive3d.tangent"), s),
        "world.nearest_calls": (calls("world.nearest"), n),
        "world.nearest_s": (incl("world.nearest"), s),
        "world.batch_points": (count("world.batch_points"), n),
        "world.batch_s": (incl("world.batch"), s),
        "world.raycast_rays": (count("world.raycast_rays"), n),
        "world.raycast_s": (incl("world.raycast"), s),
        "world.segment_clear_calls": (calls("world.segment_clear"), n),
        "world.segment_clear_s": (incl("world.segment_clear"), s),
        "world.sense_in_points": (count("world.sense_in_points"), n),
        "world.sense_keep_ratio": (_ratio(count("world.sense_out_points"),
                                          count("world.sense_in_points")), r),
        "world.sense_s": (incl("world.sense"), s),
        "tunnels.generate_s": (incl("tunnels.generate"), s),
        "tunnels.cloud_points": (count("tunnels.cloud_points"), n),
        "tunnels.query_calls": (calls("tunnels.query"), n),
        "tunnels.query_s": (incl("tunnels.query"), s),
        "tunnel_nav.control_calls": (calls("tunnel_nav.control"), n),
        "tunnel_nav.control_self_s": (own("tunnel_nav.control"), s),
        # slice_centroids calls slice_points: self times add up without overlap
        "tunnel_nav.slice_s": (own("tunnel_nav.slice"), s),
        "tunnel_nav.robust_s": (incl("tunnel_nav.robust"), s),
        "tunnel_nav.voxel_in_points": (count("tunnel_nav.voxel_in_points"), n),
        "tunnel_nav.voxel_out_points": (count("tunnel_nav.voxel_out_points"), n),
        "tunnel_nav.robust_fail_ratio": (_ratio(count("tunnel_nav.robust_fail"),
                                                calls("tunnel_nav.robust")), r),
        "planner2d.rrt_calls": (calls("planner2d.rrt"), n),
        "planner2d.rrt_s": (incl("planner2d.rrt"), s),
        "planner2d.rrt_success_ratio": (_ratio(count("planner2d.rrt_success"),
                                               calls("planner2d.rrt")), r),
        "planner2d.prune_s": (incl("planner2d.prune"), s),
        "planner2d.smooth_s": (incl("planner2d.smooth"), s),
        "hybrid2d.control_calls": (calls("hybrid2d.control"), n),
        "hybrid2d.control_self_s": (own("hybrid2d.control"), s),
        "hybrid2d.control_p99_ms": (_p99_ms(tracer.durations("hybrid2d.control")), ms),
        "harness.validate_s": (incl("harness.validate"), s),
        "harness.runlog_rows": (calls("harness.runlog"), n),
        "harness.runlog_s": (incl("harness.runlog"), s),
        "harness.monitors_s": (incl("harness.monitors"), s),
        "harness.runner_self_s": (own(RUN_SPAN), s),
    }
    layer_self = defaultdict(float)
    for name, (_, _, own_s) in tot.items():
        layer_self[name.split(".")[0]] += own_s / passes
    wall = incl(RUN_SPAN)
    for layer in LAYERS:
        t[f"{layer}.self_s"] = (layer_self[layer], s)
        t[f"{layer}.self_share"] = (_ratio(layer_self[layer], wall), r)
    return t


def pass_seconds(tracer: Tracer, passes: int) -> float:
    """Mean host time of one traced pass (sum of its run spans)."""
    return tracer.totals().get(RUN_SPAN, (0, 0.0, 0.0))[1] / passes


def reported(table: dict[str, tuple[float, str]], wall_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the result line.  Seconds become shares of
    the traced pass time (`_s` -> `_share`), so that a layer a workload
    never calls reads 0 as a ratio rather than as a time; percentiles in ms
    and absolute seconds stay in the full table."""
    out = {}
    for name, (value, unit) in table.items():
        if unit == "s":
            share = name[:-2] + "_share"
            if share not in table:
                out[share] = (_ratio(value, wall_s), "ratio")
        elif unit != "ms":
            out[name] = (value, unit)
    return out
