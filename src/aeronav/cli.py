"""Command-line front end.

  aeronav run <config.json>        run one scenario, write logs, exit 0 on PASS
  aeronav suite <dir>              run every config in a directory as a
                                   regression (`configs/`: the stock battery)
  aeronav plot <runlog.csv>        render an SVG trajectory plot
  aeronav gen-tunnel <shape>       synthesize a tunnel cloud to an .xyz file

AERONAV_OUTPUT_DIR overrides the output directory.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from .harness.config import load_config
from .harness.runlog import RunLog, emit, json_safe
from .harness.runner import run
from .tunnels import TunnelGenerationError, generate_tunnel


def _out_dir(cfg_output: dict, override: str | None) -> Path:
    env = os.environ.get("AERONAV_OUTPUT_DIR")
    base = override or env or cfg_output.get("dir") or "runs"
    return Path(base)


def _write_outputs(result, cfg, out_dir: Path) -> list[Path]:
    name = cfg.get("name", "run")
    written = []
    out = cfg.get("output", {})
    if out.get("csv", True) and result.log.records:
        written.append(emit(result.log, "csv", out_dir / f"{name}.csv"))
    if out.get("jsonl") and result.log.records:
        written.append(emit(result.log, "jsonl", out_dir / f"{name}.jsonl"))
    if out.get("svg"):
        written.append(emit(result.log, "svg", out_dir / f"{name}.svg"))
    summary = {"name": name, "passed": result.passed, "metrics": result.metrics,
               "monitors": [dataclasses.asdict(m) for m in result.monitors]}
    spath = out_dir / f"{name}.summary.json"
    spath.parent.mkdir(parents=True, exist_ok=True)
    with open(spath, "w") as fh:
        json.dump(json_safe(summary), fh, indent=2, sort_keys=True, default=str,
                  allow_nan=False)
        fh.write("\n")
    written.append(spath)
    return written


def _monitor_line(m) -> str:
    status = "ok" if m.passed else "FAIL"
    return f"  [{status}] {m.name}: {m.detail} (margin {m.margin:.4g})"


def _run_and_report(cfg, label: str, out_dir: Path, every_monitor: bool) -> bool:
    """Run one config, write its outputs and print its status line under
    label, then each monitor (or only the failed ones); True on PASS."""
    t0 = time.perf_counter()
    result = run(cfg)
    wall = time.perf_counter() - t0
    _write_outputs(result, cfg, out_dir)
    print(f"{label}: {'PASS' if result.passed else 'FAILED'} ({wall:.1f}s)")
    for m in result.monitors:
        if every_monitor or not m.passed:
            print(_monitor_line(m))
    return result.passed


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    out_dir = _out_dir(cfg.get("output", {}), args.out)
    return 0 if _run_and_report(cfg, cfg.get("name", "run"), out_dir, True) else 1


def cmd_suite(args) -> int:
    configs = {path.stem: load_config(path)
               for path in sorted(Path(args.dir).glob("*.json"))}
    out_dir = _out_dir({}, args.out)
    failures = sum(not _run_and_report(cfg, name, out_dir, False)
                   for name, cfg in configs.items())
    print(f"{len(configs) - failures}/{len(configs)} scenarios passed")
    return 0 if failures == 0 else 1


def cmd_plot(args) -> int:
    log = RunLog.from_csv(args.runlog)
    out = Path(args.out) if args.out else Path(args.runlog).with_suffix(".svg")
    emit(log, "svg", out)
    print(out)
    return 0


def cmd_gen_tunnel(args) -> int:
    kw = {} if args.density is None else {"density": args.density}
    try:
        cloud = generate_tunnel(args.shape, radius=args.radius, length=args.length, **kw)
    except TunnelGenerationError as exc:
        print(f"gen-tunnel: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out or f"{args.shape}.xyz")
    cloud.save_xyz(out)
    meta = {"shape": cloud.shape, "points": int(len(cloud.points)),
            "axis_length": cloud.length, "nominal_radius": cloud.nominal_radius,
            "closed": cloud.closed}
    with open(out.with_suffix(".json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    print(f"{out} ({len(cloud.points)} points, axis {cloud.length:.1f} m)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="aeronav",
                                     description="navigation scenario engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("suite", help="run a directory of configs")
    p_suite.add_argument("dir")
    p_suite.add_argument("--out", default=None)
    p_suite.set_defaults(func=cmd_suite)

    p_plot = sub.add_parser("plot", help="render a run log as SVG")
    p_plot.add_argument("runlog")
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(func=cmd_plot)

    p_gen = sub.add_parser("gen-tunnel", help="write a synthetic tunnel cloud")
    p_gen.add_argument("shape")
    p_gen.add_argument("--radius", type=float, default=2.0)
    p_gen.add_argument("--length", type=float, default=40.0)
    p_gen.add_argument("--density", type=float, default=None)
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen_tunnel)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
