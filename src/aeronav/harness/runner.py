"""Scenario runner: builds the world from a validated config, executes the
selected engine deterministically under the config seed, and scores every
tick's clearance and the final metrics with the configured monitors.  Every
kind runs through the one tick loop in `run()`, driving an `Engine` built
from the config."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..coverage import (BarrierFrame, CoverageGains, CoverageSim, SweepEvent,
                        SweepPlan)
from ..deform import (DeformNavigator, DeformParams, RefModelState,
                      ref_acceleration, ref_velocity, reference_model_step)
from ..flocking import FlockParams, FlockSim, neighbor_lists
from ..geom import dot3, norm, norm3, row_norms, unit
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
from .config import ConfigError, dataclass_params, progress_window, validate_config
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


class Engine:
    """One scenario kind as `run()` drives it, its attributes the whole run
    state: a pickled or deep-copied engine resumes byte for byte.  step(tick)
    advances one control period and returns None, GOAL (log this tick, then
    stop; at_goal() returns it, noting t as goal_time) or TERMINATED (stop
    unsampled and unlogged); clearance is the tick's clearance keyed by the
    metric it bounds (before the first tick, it names them); run() drains the
    (tick, kind, data) lists in events into the log after every step;
    rows(tick) are the tick's log rows, logged every record_every ticks and on
    the last and the GOAL tick; metrics(logged events) are read at the end.
    n_ticks defaults to duration / control_dt."""
    events = ()
    record_every = 1
    n_ticks = None

    def __init__(self, control_dt: float, clearance: dict):
        self.control_dt, self.clearance = control_dt, clearance
        self.t, self.goal_time = 0.0, None

    def at_goal(self) -> str:
        self.goal_time = self.t
        return GOAL

    def metrics(self, events) -> dict:
        return {"goal_reached": self.goal_time is not None, "goal_time": self.goal_time}


def run(cfg: dict) -> RunResult:
    validate_config(cfg)
    kind = cfg["kind"]
    engine = ENGINES[kind](cfg)
    n_ticks = (engine.n_ticks if engine.n_ticks is not None
               else int(round(cfg["duration"] / engine.control_dt)))
    log = RunLog(name=cfg.get("name", kind))
    monitors = cfg.get("monitors", {})
    record = monitors_mod.SafetyRecord(engine.clearance, monitors)
    for tick in range(n_ticks):
        status = engine.step(tick)
        for source in engine.events:
            for ev_tick, name, data in source:
                log.event(ev_tick, name, **data)
            source.clear()
        if status == TERMINATED:
            break
        record.add(tick, engine.clearance)
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


class _Vehicle(Engine):
    """A navigator commanding a plant stepper every control period, one
    stepper call for the period's plant steps, stopping within goal_tol of
    the goal; a row logs the navigator's mode."""

    def __init__(self, cfg, world, nav, state, stepper, limits, goal_tol, control_dt):
        super().__init__(control_dt, {"min_d_obs": np.inf})
        self.world, self.nav, self.state, self.stepper = world, nav, state, stepper
        self.limits, self.goal_tol, self.cmd = limits, goal_tol, None
        self.plant_dt = cfg.get("plant_dt", 0.01)
        self.n_sub = max(1, int(round(control_dt / self.plant_dt)))
        self.goal = np.asarray(cfg["goal"], dtype=float)
        self.events = (nav.events,)

    @property
    def mode(self) -> str:
        return self.nav.mode.value

    def step(self, tick):
        self.cmd = self.nav.control(self.state, self.t, tick)
        self.state = self.stepper(self.state, *self.cmd, self.plant_dt, limits=self.limits,
                                  steps=self.n_sub)
        for _ in range(self.n_sub):
            self.t += self.plant_dt
        self.clearance = {"min_d_obs": _clearance(self.world, self.state.position, self.t)}
        if norm(self.state.position - self.goal) < self.goal_tol:
            return self.at_goal()
        return None

    def rows(self, tick):
        return [(tick, self.t, 0, self.state.position, self.cmd[0] * self.state.heading,
                 self.mode, self.clearance["min_d_obs"], np.inf)]


def _count(events, *kinds) -> int:
    return sum(1 for e in events if e["kind"] in kinds)


class _Hybrid2D(_Vehicle):
    def __init__(self, cfg: dict):
        world = _world_with_obstacles(cfg)
        params = cfg.get("params", {})
        p = HybridParams(**params.get("hybrid", {}))
        control_dt = cfg.get("control_dt", 0.1)
        nav = HybridNavigator(p, world, np.asarray(cfg["goal"], dtype=float),
                              RrtParams(**params.get("rrt", {})),
                              np.random.default_rng(cfg["seed"]), control_dt=control_dt,
                              trap_range=params.get("trap_range"))
        start = np.asarray(cfg["start"], dtype=float)
        state = Unicycle2DState(start[0], start[1], float(cfg.get("heading", [0.0])[0]))
        super().__init__(cfg, world, nav, state, step_unicycle,
                         LimitSet(v_max=p.v_max, u_max=p.u_max), GOAL_TOL, control_dt)

    def metrics(self, events):
        return {**super().metrics(events), "replan_count": self.nav.replan_count,
                "mode_switches": _count(events, "R1", "R2")}


class _Reactive3D(_Vehicle):
    def __init__(self, cfg: dict):
        world = _world_with_obstacles(cfg)
        p = Reactive3DParams(**cfg.get("params", {}).get("reactive3d", {}))
        goal = np.asarray(cfg["goal"], dtype=float)
        control_dt = cfg.get("control_dt", 0.05)
        nav = Reactive3DNavigator(p, world, goal, control_dt=control_dt)
        start = np.asarray(cfg["start"], dtype=float)
        heading = cfg.get("heading")
        a0 = unit(goal - start) if heading is None else unit(np.asarray(heading, dtype=float))
        super().__init__(cfg, world, nav, Heading3DState(start, a0), step_heading3d,
                         LimitSet(v_max=p.v_bar, u_max=p.omega_max), 0.3, control_dt)
        self.plane_resid = 0.0

    def step(self, tick):
        status = super().step(tick)
        # how far the vehicle strays from its plane of avoidance
        if self.mode == "avoid" and self.nav.plane is not None:
            self.plane_resid = max(self.plane_resid,
                                   abs(self.nav.plane.signed_distance(self.state.p)))
        return status

    def metrics(self, events):
        return {**super().metrics(events), "plane_residual": float(self.plane_resid),
                "encounters": _count(events, "R1")}


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


def _deform_count(events) -> int:
    return sum(e["count"] for e in events if e["kind"] == "deform")


class _Deform3D(_Vehicle):
    mode = "track"          # the path tracker's one mode, in place of nav.mode

    def __init__(self, cfg: dict):
        world, p, nav, start, beta0 = _deform_setup(cfg)
        super().__init__(cfg, world, nav, Angle3DState(start.copy(), beta0, 0.0),
                         step_angles3d, LimitSet(v_max=p.v, u_max=3.0), 0.3,
                         cfg.get("control_dt", 0.1))

    def metrics(self, events):
        return {**super().metrics(events), "deform_count": _deform_count(events)}


class _Deform3DQuad(Engine):
    """Deformable path tracked by the quadrotor through the third-order
    reference model.  Deformation and the log row follow the first plant step
    of a tick; the tick's clearance is the minimum over its plant steps, and
    the goal is checked at every plant step."""

    def __init__(self, cfg: dict):
        self.world, self.p, self.nav, start, beta0 = _deform_setup(cfg)
        self.plant_dt = cfg.get("plant_dt", 0.01)
        self.n_sub = max(1, int(round(cfg.get("control_dt", 0.1) / self.plant_dt)))
        super().__init__(self.n_sub * self.plant_dt, {"min_d_obs": np.inf})
        self.v_max = max(2.0 * self.p.v, 1.0)
        self.ref = RefModelState(start.copy(), beta0, 0.0, 0.0, 0.0, 0.0, 0.0)
        self.tracker = QuadrotorTracker(
            QuadrotorState(start.copy(), np.zeros(3), np.eye(3), np.zeros(3)))
        # the plant step count is fixed, so the last tick may be a partial one
        self.n_steps = int(round(cfg["duration"] / self.plant_dt))
        self.n_ticks = -(-self.n_steps // self.n_sub)
        self.errs, self.row = [], None
        self.events = (self.nav.events,)

    def step(self, tick):
        first = tick * self.n_sub
        status, d_tick = None, np.inf
        for k in range(first, min(first + self.n_sub, self.n_steps)):
            if k == first:
                self.nav.deform_ahead(self.ref.p, self.t, tick)
            self.ref = ref = reference_model_step(self.ref, self.nav.path, self.p.v,
                                                  self.v_max, self.plant_dt)
            st = self.tracker.step(FlatSample(ref.p.copy(), ref_velocity(ref),
                                              ref_acceleration(ref)), self.plant_dt)
            self.t += self.plant_dt
            self.errs.append(norm(st.p - ref.p))
            d = _clearance(self.world, st.p, self.t)
            d_tick = monitors_mod.min_keep_nan(d_tick, d)
            if k == first:
                self.row = (tick, self.t, 0, st.p, st.v, "track", d, np.inf)
            if norm(st.p - self.nav.goal) < 0.4:
                status = self.at_goal()
                break
        self.clearance = {"min_d_obs": d_tick}
        return status

    def rows(self, tick):
        return [self.row]

    def metrics(self, events):
        rms = float(np.sqrt(np.mean(np.square(self.errs)))) if self.errs else 0.0
        return {**super().metrics(events), "tracking_rms": rms,
                "deform_count": _deform_count(events)}


class _Tunnel(Engine):
    """Constant-speed tunnel following through a point cloud; clearance is
    the distance to the cloud's wall."""

    def __init__(self, cfg: dict):
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
        super().__init__(p.delta, {"min_wall_distance": np.inf})
        self.nav = TunnelNavigator(p, cloud.points, heading,
                                   sensing=SensingModel(d_sensing=p.d_sensing, sigma=sigma),
                                   rng=np.random.default_rng(cfg["seed"]),
                                   pipeline=params.get("pipeline", "slices"),
                                   probe_distances=params.get("probe_distances"),
                                   grid=cloud.grid)
        self.cloud, self.c, self.v = cloud, c, None
        self.q_prev = cloud.curvilinear(c)
        self.q_unwrapped = [self.q_prev]
        # closed tunnels complete after one full loop, open ones near the end
        self.target = cloud.length * (1.0 if cloud.closed else 0.86)
        self.window = progress_window(cfg)

    def step(self, tick):
        cloud = self.cloud
        self.v = self.nav.control(self.c)
        if self.nav.terminated:
            return TERMINATED
        self.c = self.c + self.v * self.control_dt
        self.t += self.control_dt
        self.clearance = {"min_wall_distance": cloud.wall_distance(self.c)}
        q_now = cloud.curvilinear(self.c)
        dq = q_now - self.q_prev
        if cloud.closed:
            dq = (dq + 0.5 * cloud.length) % cloud.length - 0.5 * cloud.length
        self.q_unwrapped.append(self.q_unwrapped[-1] + dq)
        self.q_prev = q_now
        if self.q_unwrapped[-1] - self.q_unwrapped[0] >= self.target:
            return self.at_goal()
        return None

    def rows(self, tick):
        return [(tick, self.t, 0, self.c, self.v, self.nav.mode,
                 self.clearance["min_wall_distance"], np.inf,
                 f"q={self.q_unwrapped[-1]:.3f}")]

    def metrics(self, events):
        q_arr, window = np.asarray(self.q_unwrapped), self.window
        monotone = bool(np.all(q_arr[window:] - q_arr[:-window] > 0.0))
        return {"progress_monotone": monotone, "progress": float(q_arr[-1] - q_arr[0]),
                **super().metrics(events)}


class _Flocking(Engine):
    def __init__(self, cfg: dict):
        self.world = build_world(cfg)
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
        self.sim = FlockSim(q0, np.zeros((n, 2)), p,
                            world=self.world if self.world.obstacles else None,
                            control_dt=cfg.get("control_dt", 0.1),
                            plant_dt=cfg.get("plant_dt", 0.01), rng=rng)
        super().__init__(self.sim.control_dt, {"min_pair_d": np.inf, "min_d_obs": np.inf})
        self.events = (self.sim.events,)
        self.record_every = int(cfg.get("params", {}).get("record_every", 10))

    def step(self, tick):
        sim = self.sim
        sim.tick()
        self.t = sim.t
        d_obs = (min(d for d, _, _ in sim.nearest_obstacles()) if self.world.obstacles
                 else np.inf)
        self.clearance = {"min_pair_d": sim.min_pairwise(), "min_d_obs": d_obs}
        p = sim.params
        gd = row_norms(sim.snapshot.q - p.goal)
        if np.all(gd <= p.goal_radius + 0.5) and np.max(sim.speeds()) < 0.05:
            return self.at_goal()
        return None

    def rows(self, tick):
        snap = self.sim.snapshot
        vel = snap.nu[:, :1] * flock_direction(snap.theta)
        d_obs, mp = self.clearance["min_d_obs"], self.clearance["min_pair_d"]
        return [(tick, self.t, i, snap.q[i], vel[i], "flock", d_obs, mp)
                for i in range(len(snap.q))]

    def metrics(self, events):
        sim = self.sim
        d = sim.pairs()[1]
        lattice_err = 0.0
        for i, nb in enumerate(neighbor_lists(d, sim.params.r_c)):
            if len(nb):
                lattice_err = max(lattice_err, abs(float(np.min(d[i, nb])) - sim.params.d_ij))
        return {**super().metrics(events), "final_max_speed": float(np.max(sim.speeds())),
                "lattice_err": float(lattice_err),
                "adjacency_full_rank": sim.adjacency_full_rank()}


class _Coverage(Engine):
    """Voronoi barrier or sweep coverage; a scheduled agent removal happens
    before the tick it is scheduled for."""

    def __init__(self, cfg: dict):
        pcfg = cfg.get("params", {}).get("coverage", {})
        frame = BarrierFrame.from_vertices(np.asarray(pcfg["boundary"], dtype=float))
        gains = CoverageGains(k=np.diag(pcfg.get("k", [2.5, 0.5, 0.5])))
        rng = np.random.default_rng(cfg["seed"])
        agents = cfg["agents"]
        n = int(agents["count"])
        spawn = np.asarray(agents["spawn"], dtype=float)
        q0 = rng.uniform(spawn[0], spawn[1], size=(n, 3))
        self.sweep = None
        if "sweep" in pcfg:
            s = pcfg["sweep"]
            self.sweep = SweepPlan(frame, g0=float(s.get("g0", 1.5)),
                                   events=[SweepEvent(**e) for e in s.get("events", [])],
                                   min_area_per_agent=float(s.get("min_area_per_agent", 1.0)),
                                   n_agents=n, u_max=gains.u_max)
        self.sim = CoverageSim(q0, frame, gains, sweep=self.sweep,
                               control_dt=cfg.get("control_dt", 0.1), r_c=pcfg.get("r_c"))
        super().__init__(self.sim.control_dt, {"min_pair_d": np.inf})
        self.removals = {int(r["tick"]): int(r["agent"]) for r in pcfg.get("removals", [])}
        # agent removals and the plane resizes the sweep refused, at their
        # ticks, come before the events of the state the sim ticked from
        self.logged, self.costs = [], []
        self.events = (self.logged, self.sim.events)
        self.record_every = int(pcfg.get("record_every", 5))

    def step(self, tick):
        sim, sweep = self.sim, self.sweep
        if tick in self.removals:
            sim.remove_agent(self.removals[tick])
            self.logged.append((tick, "agent_removed", {"agent": self.removals[tick]}))
        n_rejected = 0 if sweep is None else len(sweep.rejected)
        sim.tick()
        if sweep is not None:
            self.logged.extend((tick, "sweep_rejected", {"t": ev.t, "scale": ev.scale})
                               for ev in sweep.rejected[n_rejected:])
        self.costs.append(sim.multicenter_cost())
        self.clearance = {"min_pair_d": sim.min_pairwise()}
        return None

    def rows(self, tick):
        sim = self.sim
        vels = sim.velocities()
        return [(tick, sim.t, int(i), sim.q[i], vels[i], "cover", np.inf,
                 self.clearance["min_pair_d"]) for i in np.nonzero(sim.active)[0]]

    def metrics(self, events):
        sim, sweep, costs = self.sim, self.sweep, self.costs
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
                if k not in self.removals and k - 1 not in self.removals:
                    increase = max(increase, float(costs[k] - costs[k - 1]))
            return {**out, "cost_max_increase": increase}
        a3, sweep_err = sim.frame.a3, 0.0
        for i in act:
            along = dot3(vels[i], a3)
            sweep_err = max(sweep_err, norm3(vels[i] - along * a3))
            sweep_err = max(sweep_err, abs(along - sweep.g0))
        return {**out, "sweep_speed_err": float(sweep_err)}


ENGINES = {"hybrid2d": _Hybrid2D, "reactive3d": _Reactive3D, "deform3d": _Deform3D,
           "deform3d_quad": _Deform3DQuad, "tunnel": _Tunnel,
           "flocking": _Flocking, "coverage": _Coverage}
