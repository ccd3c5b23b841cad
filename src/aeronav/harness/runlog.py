"""Tick-indexed run log with CSV / JSONL / SVG emission.

CSV columns are fixed: tick,time_s,agent,x,y,z,vx,vy,vz,mode,d_obs,
min_pair_d,extra.  Floats are written with shortest round-trip formatting
(repr), so identical runs produce byte-identical files.  JSON output is
strict (RFC 8259): a non-finite float is the string the CSV writes for it,
"inf", "-inf" or "nan".
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CSV_HEADER = "tick,time_s,agent,x,y,z,vx,vy,vz,mode,d_obs,min_pair_d,extra"


def _f(x) -> str:
    return repr(float(x))


def json_safe(x):
    """x with every non-finite float in it, at any depth, replaced by its
    CSV spelling, for `json.dumps(..., allow_nan=False)`."""
    if isinstance(x, float):
        return x if math.isfinite(x) else _f(x)
    if isinstance(x, dict):
        return {k: json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [json_safe(v) for v in x]
    return x


@dataclass
class RunLog:
    records: list = field(default_factory=list)
    events: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    name: str = "run"

    def add(self, tick: int, time_s: float, agent: int, pos, vel, mode: str,
            d_obs: float, min_pair: float, extra: str = ""):
        if self.records and tick < self.records[-1]["tick"]:
            raise ValueError("tick index must be monotone")
        pos = np.asarray(pos, dtype=float)
        vel = np.asarray(vel, dtype=float)
        p3 = np.zeros(3)
        v3 = np.zeros(3)
        p3[:len(pos)] = pos
        v3[:len(vel)] = vel
        self.records.append({"tick": tick, "time_s": float(time_s),
                             "agent": int(agent), "pos": p3, "vel": v3,
                             "mode": mode, "d_obs": float(d_obs),
                             "min_pair": float(min_pair), "extra": extra})

    def event(self, tick: int, kind: str, **data):
        self.events.append({"tick": int(tick), "kind": kind, **data})

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.records:
            p, v = r["pos"], r["vel"]
            lines.append(",".join([
                str(r["tick"]), _f(r["time_s"]), str(r["agent"]),
                _f(p[0]), _f(p[1]), _f(p[2]), _f(v[0]), _f(v[1]), _f(v[2]),
                r["mode"], _f(r["d_obs"]), _f(r["min_pair"]), r["extra"],
            ]))
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        out = []
        for r in self.records:
            out.append(json.dumps(json_safe({
                "tick": r["tick"], "time_s": r["time_s"], "agent": r["agent"],
                "x": r["pos"][0], "y": r["pos"][1], "z": r["pos"][2],
                "vx": r["vel"][0], "vy": r["vel"][1], "vz": r["vel"][2],
                "mode": r["mode"], "d_obs": r["d_obs"],
                "min_pair_d": r["min_pair"], "extra": r["extra"],
            }), sort_keys=True, allow_nan=False))
        return "\n".join(out) + ("\n" if out else "")

    def to_svg(self, width: int = 640, height: int = 480,
               axes: tuple[int, int] = (0, 1)) -> str:
        """2D-projected trajectory plot (one polyline per agent)."""
        ai, aj = axes
        pts_by_agent: dict[int, list] = {}
        for r in self.records:
            pts_by_agent.setdefault(r["agent"], []).append(
                (r["pos"][ai], r["pos"][aj]))
        if pts_by_agent:
            allp = np.array([p for pts in pts_by_agent.values() for p in pts])
            lo = allp.min(axis=0) - 1.0
            hi = allp.max(axis=0) + 1.0
        else:
            lo, hi = np.array([0.0, 0.0]), np.array([10.0, 10.0])
        span = np.maximum(hi - lo, 1e-9)

        def map_pt(p):
            x = (p[0] - lo[0]) / span[0] * (width - 40) + 20
            y = height - ((p[1] - lo[1]) / span[1] * (height - 40) + 20)
            return x, y

        parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
                 f'height="{height}" viewBox="0 0 {width} {height}">',
                 f'<line x1="20" y1="{height - 20}" x2="{width - 20}" '
                 f'y2="{height - 20}" stroke="black"/>',
                 f'<line x1="20" y1="20" x2="20" y2="{height - 20}" stroke="black"/>']
        palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
                   "#8c564b", "#17becf", "#7f7f7f"]
        for k, (agent, pts) in enumerate(sorted(pts_by_agent.items())):
            coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in map(map_pt, pts))
            color = palette[k % len(palette)]
            parts.append(f'<polyline fill="none" stroke="{color}" '
                         f'stroke-width="1.2" points="{coords}"/>')
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    @classmethod
    def from_csv(cls, path) -> "RunLog":
        log = cls()
        with open(path) as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError("unrecognized run log header")
            for line in fh:
                f = line.rstrip("\n").split(",")
                log.add(int(f[0]), float(f[1]), int(f[2]),
                        [float(f[3]), float(f[4]), float(f[5])],
                        [float(f[6]), float(f[7]), float(f[8])],
                        f[9], float(f[10]), float(f[11]),
                        ",".join(f[12:]))
        return log


def emit(log: RunLog, fmt: str, path) -> Path:
    """Write the log in csv/jsonl/svg form; csv and jsonl require records."""
    path = Path(path)
    if fmt in ("csv", "jsonl") and not log.records:
        raise ValueError(f"cannot emit empty log as {fmt}")
    if fmt == "csv":
        text = log.to_csv()
    elif fmt == "jsonl":
        text = log.to_jsonl()
    elif fmt == "svg":
        text = log.to_svg()
    else:
        raise ValueError(f"unknown format {fmt!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)
    return path
