"""Scenario runner: builds the world from a validated config, executes the
selected engine deterministically under the config seed, and scores every
tick's clearance and the final metrics with the configured monitors.  Every
kind runs through the one tick loop in `run()`, driving an `Engine` built
from the config."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..coverage import (BarrierFrame, CoverageGains, CoverageSim, SweepEvent,
                        SweepPlan)
from ..deform import (DeformNavigator, DeformParams, RefModelState,
                      ref_acceleration, ref_velocity, reference_model_step)
from ..flocking import FlockParams, FlockSim, neighbor_lists
from ..geom import dot3, norm3, unit
from ..hybrid2d import GOAL_TOL, HybridNavigator, HybridParams
from ..planner2d import RrtParams
from ..plants import (Angle3DState, Heading3DState, LimitSet, QuadrotorState,
                      Unicycle2DState, flock_direction, step_angles3d,
                      step_heading3d, step_unicycle)
from ..quadrotor import FlatSample, QuadrotorTracker
from ..reactive3d import Reactive3DNavigator, Reactive3DParams
from ..tunnel_nav import TunnelNavigator, TunnelParams
from ..tunnels import TunnelGenerationError, generate_tunnel
from ..world import (Cylinder, Ellipsoid, Moving, SensingModel, Sphere, Wall,
                     World)
from . import monitors as monitors_mod
from .config import ConfigError, dataclass_params, validate_config
from .runlog import RunLog

GOAL = "goal"
TERMINATED = "terminated"


@dataclass
class RunResult:
    log: RunLog
    metrics: dict
    monitors: list
    passed: bool


def build_obstacle(spec: dict):
    kind = spec["type"]
    known = bool(spec.get("known", True))
    if kind == "sphere":
        ob = Sphere(np.asarray(spec["center"], dtype=float),
                    float(spec["radius"]), known=known)
    elif kind == "cylinder":
        ob = Cylinder(np.asarray(spec["base"], dtype=float),
                      np.asarray(spec["axis"], dtype=float),
                      float(spec["radius"]), float(spec["height"]), known=known)
    elif kind == "ellipsoid":
        ob = Ellipsoid(np.asarray(spec["center"], dtype=float),
                       np.asarray(spec["semi"], dtype=float), known=known)
    elif kind == "wall":
        ob = Wall(np.asarray(spec["vertices"], dtype=float), known=known)
    else:
        raise ConfigError(f"unknown obstacle type {kind!r}")
    motion = spec.get("motion")
    if motion:
        ob = Moving(ob, np.asarray(motion["velocity"], dtype=float), known=known)
    return ob


# random discs are drawn in blocks of candidates, up to this many in all
_DISC_BLOCK, _DISC_ATTEMPTS = 1000, 200_000


def random_discs(cfg: dict) -> list[dict]:
    """The obstacles `world.random_discs` draws from the run's seed: discs
    uniform in `box` and `radius`, a candidate kept unless it comes within
    r + keepout_gap of the start or goal xy or within r1 + r2 + gap of a kept
    disc, each made from the `obstacle` template with its centre (a
    cylinder's base) at z = 0 in 3D."""
    spec = cfg.get("world", {}).get("random_discs")
    if spec is None:
        return []
    (x0, y0), (x1, y1) = spec["box"]
    r0, r1 = spec["radius"]
    sx, sy, sr = x1 - x0, y1 - y0, r1 - r0
    keepout = [cfg[key][:2] for key in ("start", "goal")]
    keepout_gap, gap, count = spec["keepout_gap"], spec["gap"], spec["count"]
    rng = np.random.default_rng(cfg["seed"])
    discs = []
    for _ in range(_DISC_ATTEMPTS // _DISC_BLOCK):
        for ux, uy, ur in rng.random((_DISC_BLOCK, 3)).tolist():
            x, y, r = x0 + sx * ux, y0 + sy * uy, r0 + sr * ur
            if not (any(math.sqrt((x - a) * (x - a) + (y - b) * (y - b)) < r + keepout_gap
                        for a, b in keepout)
                    or any(math.sqrt((x - a) * (x - a) + (y - b) * (y - b)) < r + r2 + gap
                           for a, b, r2 in discs)):
                discs.append((x, y, r))
                if len(discs) == count:
                    template = spec["obstacle"]
                    at = "base" if template["type"] == "cylinder" else "center"
                    dim = len(cfg["start"])
                    return [{**template, at: [x, y, 0.0][:dim], "radius": r}
                            for x, y, r in discs]
    raise ConfigError(f"world.random_discs: {count} discs do not fit in "
                      f"{_DISC_ATTEMPTS} draws")


def build_world(cfg: dict) -> World:
    """Drawn obstacles first, then the listed ones: a tie for the nearest
    obstacle goes to the lower index."""
    spec = cfg.get("world", {})
    obstacles = [build_obstacle(o) for o in random_discs(cfg) + spec.get("obstacles", [])]
    bounds = spec.get("bounds")
    return World(obstacles, None if bounds is None else np.asarray(bounds, dtype=float))


@dataclass
class Engine:
    """One scenario kind as `run()` drives it: step(tick) advances one control
    period and returns None, GOAL (log this tick, then stop) or TERMINATED
    (stop unsampled and unlogged); sample() is the tick's clearance keyed by
    the metric it bounds (before the first tick, it names them); run() drains
    the (tick, kind, data) lists in events into the log after every step;
    rows(tick) are the tick's log rows, logged every record_every ticks and
    on the last and the GOAL tick; metrics(logged events) are read at the
    end.  n_ticks defaults to duration / control_dt."""
    control_dt: float
    step: Callable[[int], str | None]
    sample: Callable[[], dict]
    rows: Callable[[int], list]
    metrics: Callable[[list], dict]
    events: tuple = ()
    record_every: int = 1
    n_ticks: int | None = None


def run(cfg: dict) -> RunResult:
    validate_config(cfg)
    kind = cfg["kind"]
    engine = ENGINES[kind](cfg)
    n_ticks = (engine.n_ticks if engine.n_ticks is not None
               else int(round(cfg["duration"] / engine.control_dt)))
    log = RunLog(name=cfg.get("name", kind))
    monitors = cfg.get("monitors", {})
    record = monitors_mod.SafetyRecord(engine.sample(), monitors)
    for tick in range(n_ticks):
        status = engine.step(tick)
        for source in engine.events:
            for ev_tick, name, data in source:
                log.event(ev_tick, name, **data)
            source.clear()
        if status == TERMINATED:
            break
        record.add(tick, engine.sample())
        if status == GOAL or tick % engine.record_every == 0 or tick == n_ticks - 1:
            for row in engine.rows(tick):
                log.add(*row)
        if status == GOAL:
            break
    metrics = {key: float(v) for key, v in record.minima.items()}
    metrics.update(engine.metrics(log.events))
    results = monitors_mod.evaluate(record, monitors, metrics)
    passed = all(r.passed for r in results)
    metrics["passed"] = passed
    log.metrics = metrics
    return RunResult(log, metrics, results, passed)


def _clearance(world: World, p, t: float) -> float:
    """Distance from p to the nearest obstacle; +inf in an empty world."""
    return world.nearest_obstacle(p, t)[0] if world.obstacles else np.inf


def _world_with_obstacles(cfg: dict) -> World:
    """For navigators that query the nearest obstacle on every tick."""
    world = build_world(cfg)
    if not world.obstacles:
        raise ConfigError(f"kind {cfg['kind']!r} needs an obstacle in world.obstacles")
    return world


def _vehicle(cfg, world, nav, state, stepper, limits, goal_tol, control_dt,
             mode=None, extra=lambda events: {}, watch=None) -> Engine:
    """A navigator commanding a plant stepper every control period, stopping
    within goal_tol of the goal.  mode overrides the navigator's logged mode,
    extra(events) adds metrics, watch(state) sees the state after every tick."""
    plant_dt = cfg.get("plant_dt", 0.01)
    n_sub = max(1, int(round(control_dt / plant_dt)))
    goal = np.asarray(cfg["goal"], dtype=float)
    t, d, cmd, goal_time = 0.0, np.inf, None, None

    def step(tick):
        nonlocal state, t, d, cmd, goal_time
        cmd = nav.control(state, t, tick)
        for _ in range(n_sub):
            state = stepper(state, *cmd, plant_dt, limits=limits)
            t += plant_dt
        d = _clearance(world, state.position, t)
        if watch is not None:
            watch(state)
        if np.linalg.norm(state.position - goal) < goal_tol:
            goal_time = t
            return GOAL
        return None

    def rows(tick):
        return [(tick, t, 0, state.position, cmd[0] * state.heading,
                 mode or nav.mode.value, d, np.inf)]

    def metrics(events):
        return {"goal_reached": goal_time is not None, "goal_time": goal_time,
                **extra(events)}

    return Engine(control_dt, step, lambda: {"min_d_obs": d}, rows, metrics,
                  (nav.events,))


def _count(events, *kinds) -> int:
    return sum(1 for e in events if e["kind"] in kinds)


def _hybrid2d(cfg: dict) -> Engine:
    world = _world_with_obstacles(cfg)
    params = cfg.get("params", {})
    p = HybridParams(**params.get("hybrid", {}))
    control_dt = cfg.get("control_dt", 0.1)
    nav = HybridNavigator(p, world, np.asarray(cfg["goal"], dtype=float),
                          RrtParams(**params.get("rrt", {})),
                          np.random.default_rng(cfg["seed"]),
                          bounds=world.bounds, control_dt=control_dt,
                          trap_range=params.get("trap_range"))
    start = np.asarray(cfg["start"], dtype=float)
    state = Unicycle2DState(start[0], start[1], float(cfg.get("heading", [0.0])[0]))
    return _vehicle(
        cfg, world, nav, state, step_unicycle,
        LimitSet(v_max=p.v_max, u_max=p.u_max), GOAL_TOL, control_dt,
        extra=lambda events: {"replan_count": nav.replan_count,
                              "mode_switches": _count(events, "R1", "R2")})


def _reactive3d(cfg: dict) -> Engine:
    world = _world_with_obstacles(cfg)
    p = Reactive3DParams(**cfg.get("params", {}).get("reactive3d", {}))
    goal = np.asarray(cfg["goal"], dtype=float)
    control_dt = cfg.get("control_dt", 0.05)
    nav = Reactive3DNavigator(p, world, goal, control_dt=control_dt)
    start = np.asarray(cfg["start"], dtype=float)
    heading = cfg.get("heading")
    a0 = unit(goal - start) if heading is None else unit(np.asarray(heading, dtype=float))
    plane_resid = 0.0

    def watch(state):
        # how far the vehicle strays from its plane of avoidance
        nonlocal plane_resid
        if nav.mode.value == "avoid" and nav.plane is not None:
            plane_resid = max(plane_resid, abs(nav.plane.signed_distance(state.p)))

    return _vehicle(
        cfg, world, nav, Heading3DState(start, a0), step_heading3d,
        LimitSet(v_max=p.v_bar, u_max=p.omega_max), 0.3, control_dt, watch=watch,
        extra=lambda events: {"plane_residual": float(plane_resid),
                              "encounters": _count(events, "R1")})


def _deform_setup(cfg: dict):
    """(world, params, navigator, start, start azimuth toward the goal) of
    either deform kind."""
    world = build_world(cfg)
    p = DeformParams(**cfg.get("params", {}).get("deform", {}))
    goal = np.asarray(cfg["goal"], dtype=float)
    start = np.asarray(cfg["start"], dtype=float)
    direction = goal - start
    return (world, p, DeformNavigator(p, world, start, goal), start,
            float(np.arctan2(direction[1], direction[0])))


def _deform3d(cfg: dict) -> Engine:
    world, p, nav, start, beta0 = _deform_setup(cfg)
    state = Angle3DState(start.copy(), beta0, 0.0)
    return _vehicle(
        cfg, world, nav, state, step_angles3d,
        LimitSet(v_max=p.v, u_max=3.0), 0.3,
        cfg.get("control_dt", 0.1), mode="track",
        extra=lambda events: {"deform_count": _deform_count(events)})


def _deform_count(events) -> int:
    return sum(e["count"] for e in events if e["kind"] == "deform")


def _deform3d_quad(cfg: dict) -> Engine:
    """Deformable path tracked by the quadrotor through the third-order
    reference model.  Deformation and the log row follow the first plant step
    of a tick; the tick's clearance is the minimum over its plant steps, and
    the goal is checked at every plant step."""
    world, p, nav, start, beta0 = _deform_setup(cfg)
    v_max = max(2.0 * p.v, 1.0)
    ref = RefModelState(start.copy(), beta0, 0.0, 0.0, 0.0, 0.0, 0.0)
    tracker = QuadrotorTracker(
        QuadrotorState(start.copy(), np.zeros(3), np.eye(3), np.zeros(3)))
    plant_dt = cfg.get("plant_dt", 0.01)
    n_sub = max(1, int(round(cfg.get("control_dt", 0.1) / plant_dt)))
    # the plant step count is fixed, so the last tick may be a partial one
    n_steps = int(round(cfg["duration"] / plant_dt))
    t, d_tick, errs, goal_time, row = 0.0, np.inf, [], None, None

    def step(tick):
        nonlocal ref, t, d_tick, goal_time, row
        first = tick * n_sub
        d_tick = np.inf
        for k in range(first, min(first + n_sub, n_steps)):
            if k == first:
                nav.deform_ahead(ref.p, t, tick)
            ref = reference_model_step(ref, nav.path, p.v, v_max, plant_dt)
            st = tracker.step(FlatSample(ref.p.copy(), ref_velocity(ref),
                                         ref_acceleration(ref)), plant_dt)
            t += plant_dt
            errs.append(float(np.linalg.norm(st.p - ref.p)))
            d = _clearance(world, st.p, t)
            d_tick = monitors_mod.min_keep_nan(d_tick, d)
            if k == first:
                row = (tick, t, 0, st.p, st.v, "track", d, np.inf)
            if np.linalg.norm(st.p - nav.goal) < 0.4:
                goal_time = t
                return GOAL
        return None

    def metrics(events):
        rms = float(np.sqrt(np.mean(np.square(errs)))) if errs else 0.0
        return {"goal_reached": goal_time is not None, "goal_time": goal_time,
                "tracking_rms": rms, "deform_count": _deform_count(events)}

    return Engine(n_sub * plant_dt, step, lambda: {"min_d_obs": d_tick},
                  lambda tick: [row], metrics, (nav.events,), n_ticks=-(-n_steps // n_sub))


def _tunnel(cfg: dict) -> Engine:
    """Constant-speed tunnel following through a point cloud; clearance is
    the distance to the cloud's wall."""
    tcfg = dict(cfg.get("tunnel", {}))
    sigma = float(tcfg.pop("noise_sigma", 0.0))
    try:
        cloud = generate_tunnel(tcfg.pop("shape"), **tcfg)
    except TunnelGenerationError as exc:
        # geometry the schema cannot see, e.g. a tube that meets itself
        raise ConfigError(f"tunnel: {exc}") from None
    params = cfg.get("params", {})
    p = TunnelParams(**params.get("tunnel_nav", {}))
    if cfg.get("start") == "auto":      # validated: heading is "auto" too
        # deploy a little inside the tunnel, roughly along the axis tangent
        k0 = min(8, len(cloud.axis) - 2)
        c = cloud.axis[k0].copy()
        heading = unit(cloud.axis[k0 + 1] - cloud.axis[k0 - 1])
    else:
        c = np.asarray(cfg["start"], dtype=float)
        heading = np.asarray(cfg["heading"], dtype=float)
    nav = TunnelNavigator(p, cloud.points, heading,
                          sensing=SensingModel(d_sensing=p.d_sensing, sigma=sigma),
                          rng=np.random.default_rng(cfg["seed"]),
                          pipeline=params.get("pipeline", "slices"),
                          probe_distances=params.get("probe_distances"),
                          grid=cloud.grid)
    t, v, dw, goal_time = 0.0, None, np.inf, None
    q_prev = cloud.curvilinear(c)
    q_unwrapped = [q_prev]
    # closed tunnels complete after one full loop, open ones near the end
    target = cloud.length * (1.0 if cloud.closed else 0.86)

    def step(tick):
        nonlocal c, t, v, dw, q_prev, goal_time
        v = nav.control(c)
        if nav.terminated:
            return TERMINATED
        c = c + v * p.delta
        t += p.delta
        dw = cloud.wall_distance(c)
        q_now = cloud.curvilinear(c)
        dq = q_now - q_prev
        if cloud.closed:
            dq = (dq + 0.5 * cloud.length) % cloud.length - 0.5 * cloud.length
        q_unwrapped.append(q_unwrapped[-1] + dq)
        q_prev = q_now
        if q_unwrapped[-1] - q_unwrapped[0] >= target:
            goal_time = t
            return GOAL
        return None

    def rows(tick):
        return [(tick, t, 0, c, v, nav.mode, dw, np.inf, f"q={q_unwrapped[-1]:.3f}")]

    def metrics(events):
        q_arr = np.asarray(q_unwrapped)
        window = int(round(float(cfg.get("monitors", {}).get("progress_window", 5.0))
                           / p.delta))
        monotone = len(q_arr) <= window or bool(
            np.all(q_arr[window:] - q_arr[:-window] > 0.0))
        return {"progress_monotone": monotone, "progress": float(q_arr[-1] - q_arr[0]),
                "goal_reached": goal_time is not None, "goal_time": goal_time}

    return Engine(p.delta, step, lambda: {"min_wall_distance": dw}, rows, metrics)


def _flocking(cfg: dict) -> Engine:
    world = build_world(cfg)
    p = dataclass_params(FlockParams, cfg.get("params", {}).get("flock", {}),
                         "params.flock")
    rng = np.random.default_rng(cfg["seed"])
    agents = cfg["agents"]
    n = int(agents["count"])
    spawn = np.asarray(agents["spawn"], dtype=float)
    min_spacing = float(agents.get("min_spacing", 1.5))
    q0 = np.empty((n, 3))
    placed = attempts = 0
    while placed < n:
        attempts += 1
        if attempts > 1000 * n:
            raise ConfigError(f"agents.spawn holds no {n} agents {min_spacing} m apart")
        cand = rng.uniform(spawn[0], spawn[1])
        if placed == 0 or np.min(np.linalg.norm(q0[:placed] - cand, axis=1)) > min_spacing:
            q0[placed] = cand
            placed += 1
    sim = FlockSim(q0, np.zeros((n, 2)), p, world=world if world.obstacles else None,
                   control_dt=cfg.get("control_dt", 0.1),
                   plant_dt=cfg.get("plant_dt", 0.01), rng=rng)
    mp, d_obs, goal_time = np.inf, np.inf, None

    def step(tick):
        nonlocal mp, d_obs, goal_time
        sim.tick()
        mp = sim.min_pairwise()
        if world.obstacles:
            d_obs = min(d for d, _, _ in sim.nearest_obstacles())
        gd = np.linalg.norm(sim.snapshot.q - p.goal, axis=1)
        if np.all(gd <= p.goal_radius + 0.5) and np.max(sim.speeds()) < 0.05:
            goal_time = sim.t
            return GOAL
        return None

    def rows(tick):
        snap = sim.snapshot
        vel = snap.nu[:, :1] * flock_direction(snap.theta)
        return [(tick, sim.t, i, snap.q[i], vel[i], "flock", d_obs, mp) for i in range(n)]

    def metrics(events):
        q = sim.snapshot.q
        nb = neighbor_lists(sim.snapshot, p.r_c)
        lattice_err = 0.0
        for i in range(n):
            if len(nb[i]):
                dists = np.linalg.norm(q[nb[i]] - q[i], axis=1)
                lattice_err = max(lattice_err, abs(float(np.min(dists)) - p.d_ij))
        return {"goal_reached": goal_time is not None, "goal_time": goal_time,
                "final_max_speed": float(np.max(sim.speeds())),
                "lattice_err": float(lattice_err),
                "adjacency_full_rank": sim.adjacency_full_rank()}

    return Engine(sim.control_dt, step, lambda: {"min_pair_d": mp, "min_d_obs": d_obs},
                  rows, metrics, (sim.events,),
                  record_every=int(cfg.get("params", {}).get("record_every", 10)))


def _coverage(cfg: dict) -> Engine:
    """Voronoi barrier or sweep coverage; a scheduled agent removal happens
    before the tick it is scheduled for."""
    pcfg = cfg.get("params", {}).get("coverage", {})
    frame = BarrierFrame.from_vertices(np.asarray(pcfg["boundary"], dtype=float))
    gains = CoverageGains(k=np.diag(pcfg.get("k", [2.5, 0.5, 0.5])))
    rng = np.random.default_rng(cfg["seed"])
    agents = cfg["agents"]
    n = int(agents["count"])
    spawn = np.asarray(agents["spawn"], dtype=float)
    q0 = rng.uniform(spawn[0], spawn[1], size=(n, 3))
    sweep = None
    if "sweep" in pcfg:
        s = pcfg["sweep"]
        sweep = SweepPlan(frame, g0=float(s.get("g0", 1.5)),
                          events=[SweepEvent(**e) for e in s.get("events", [])],
                          min_area_per_agent=float(s.get("min_area_per_agent", 1.0)),
                          n_agents=n, u_max=gains.u_max)
    sim = CoverageSim(q0, frame, gains, sweep=sweep,
                      control_dt=cfg.get("control_dt", 0.1), r_c=pcfg.get("r_c"))
    removals = {int(r["tick"]): int(r["agent"]) for r in pcfg.get("removals", [])}
    # agent removals and the plane resizes the sweep refused, at their ticks
    logged, costs, mp = [], [], np.inf

    def step(tick):
        nonlocal mp
        if tick in removals:
            sim.remove_agent(removals[tick])
            logged.append((tick, "agent_removed", {"agent": removals[tick]}))
        n_rejected = 0 if sweep is None else len(sweep.rejected)
        sim.tick()
        if sweep is not None:
            logged.extend((tick, "sweep_rejected", {"t": ev.t, "scale": ev.scale})
                          for ev in sweep.rejected[n_rejected:])
        costs.append(sim.multicenter_cost())
        mp = sim.min_pairwise()
        return None

    def rows(tick):
        vels = sim.velocities()
        return [(tick, sim.t, int(i), sim.q[i], vels[i], "cover", np.inf, mp)
                for i in np.nonzero(sim.active)[0]]

    def metrics(events):
        cents, _ = sim.centroids()
        act = np.nonzero(sim.active)[0]
        err = float(np.max(np.linalg.norm(cents[act] - sim.q[act], axis=1)))
        vels = sim.velocities()
        final_max_speed = float(np.max(np.linalg.norm(vels[act], axis=1)))
        out = {"final_centroid_err": err, "final_max_speed": final_max_speed,
               "comm_violations": _count(events, "comm_range_violation")}
        # Lloyd descent is asserted for static barriers only; removal ticks jump
        # by construction and a moving/deforming plane re-centers the cost
        if sweep is None:
            increase = 0.0
            for k in range(1, len(costs)):
                if k not in removals and k - 1 not in removals:
                    increase = max(increase, float(costs[k] - costs[k - 1]))
            return {**out, "cost_max_increase": increase}
        a3, sweep_err = sim.frame.a3, 0.0
        for i in act:
            along = dot3(vels[i], a3)
            sweep_err = max(sweep_err, norm3(vels[i] - along * a3))
            sweep_err = max(sweep_err, abs(along - sweep.g0))
        return {**out, "sweep_speed_err": float(sweep_err)}

    # a tick's removal and refused resizes come before the events of the
    # state the sim ticked from
    return Engine(sim.control_dt, step, lambda: {"min_pair_d": mp}, rows, metrics,
                  (logged, sim.events), record_every=int(pcfg.get("record_every", 5)))


ENGINES = {"hybrid2d": _hybrid2d, "reactive3d": _reactive3d, "deform3d": _deform3d,
           "deform3d_quad": _deform3d_quad, "tunnel": _tunnel,
           "flocking": _flocking, "coverage": _coverage}
