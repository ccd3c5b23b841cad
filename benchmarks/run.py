#!/usr/bin/env python3
"""aeronav benchmark: closed-loop runs of stock scenario instances.

    python3 benchmarks/run.py --workload swarm --seed 0 --seconds 45 --trace 0

One client in one process and one thread runs the workload's instances
through `aeronav.harness.runner.run(cfg)`, one after the other; the next
instance starts when the previous one has returned.  A pass is one run of
every instance.  After one warm-up pass, passes repeat until `--seconds`
have elapsed.

`--trace 0` reports the end-to-end metrics (wall_s, agent_ticks_per_s,
setup_s, peak_rss_mb); `--trace 1` alternates untraced and traced passes
and reports the per-layer metrics and the tracing overhead.  Every
instance run is checked; the last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  The full result goes
to `--out` (default `benchmarks/results/`), spans of a traced run beside it.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from tracing import RUN_SPAN, Tracer, layer_table, pass_seconds, reported  # noqa: E402

W.pin_threads()

# name -> unit, in the order of the result line (trace 0)
END_TO_END = {"wall_s": "s", "agent_ticks_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}
SETUP_SAMPLES = 3
MIN_PASSES = 3


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (W.ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=W.ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted(W.SRC.rglob("*.py")):
        src.update(str(path.relative_to(W.SRC)).encode())
        src.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "git_commit": commit, "src_sha256": src.hexdigest()}


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up time from fresh interpreters (see setup_time.py)."""
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_time.py"), "--workload", workload,
             "--seed", str(seed)],
            cwd=W.ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value); None with ten samples or fewer."""
    n = len(samples)
    k = n - 10
    if k < 1:
        return None
    return int(100 * k / n), sorted(samples)[k - 1]


class Runner:
    """Runs passes and checks every instance run: the monitors that apply to
    a prefix, NaN clearances, and the run-log digest, which must repeat in
    every pass of the invocation."""

    def __init__(self, workload: W.Workload, seed: int):
        from aeronav.harness.runner import run
        self.run = run
        self.cfgs = W.build_configs(workload, seed)
        self.digests: dict[str, str] = {}
        self.agent_ticks: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self, tracer=None, pass_index: int = 0) -> list[float]:
        """Host seconds spent inside run(cfg), per instance."""
        gc.collect()                       # every pass starts from a clean heap
        times = []
        for k, cfg in enumerate(self.cfgs):
            name = cfg["name"]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    res = self.run(cfg)
                else:
                    tracer.instance = pass_index * len(self.cfgs) + k
                    res = tracer.call(RUN_SPAN, self.run, cfg)
            except Exception as exc:   # a failing instance is counted, not fatal
                times.append(time.perf_counter() - t0)
                self._fail(name, f"raised {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - t0)
            reasons = W.check_instance(res)
            digest = hashlib.sha256(res.log.to_csv().encode()).hexdigest()
            if self.digests.setdefault(name, digest) != digest:
                reasons.append("run-log digest differs from the first pass")
            self.agent_ticks.setdefault(name, W.agent_ticks(cfg, res.log))
            if reasons:
                self._fail(name, "; ".join(reasons))
        return times

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 50:
            self.problems.append(f"{name}: {why}")

    def passes(self, seconds: float) -> list[list[float]]:
        """Per-instance times of each pass, until `seconds` have elapsed."""
        out = []
        deadline = time.perf_counter() + seconds
        while len(out) < MIN_PASSES or time.perf_counter() < deadline:
            out.append(self.one_pass())
        return out

    def traced_passes(self, seconds: float, tracer) -> tuple[list[float], list[float]]:
        """Alternate untraced and traced passes until `seconds` have
        elapsed, so that both see the same machine; pass times of each."""
        base, traced = [], []
        deadline = time.perf_counter() + seconds
        while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
            base.append(sum(self.one_pass()))
            tracer.install()
            try:
                traced.append(sum(self.one_pass(tracer, len(traced) + 1)))
            finally:
                tracer.uninstall()
        return base, traced


def fmt_timing(samples: list[float], unit: str) -> str:
    t = tail(samples)
    extra = (f"; p{t[0]} {t[1]:.6g} {unit}" if t else "; no percentile with 10 beyond")
    return f"median of {len(samples)}{extra}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 keeps every builder's stock seed")
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=HERE / "results")
    args = ap.parse_args(argv)

    W.import_aeronav()
    workload = W.WORKLOADS[args.workload]
    env = environment()
    setup = [] if args.trace else measure_setup(args.workload, args.seed)

    runner = Runner(workload, args.seed)
    runner.one_pass()                      # warm-up: lazy imports, caches
    instance_s = {}
    result = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "env": env}
    if args.trace:
        tracer = Tracer()
        base, traced = runner.traced_passes(args.seconds, tracer)
        table = layer_table(tracer, len(traced))
        table["trace.overhead_frac"] = (statistics.median(traced)
                                        / statistics.median(base) - 1.0, "ratio")
        metrics = reported(table, pass_seconds(tracer, len(traced)))
        result.update(untraced_pass_s=base, traced_pass_s=traced,
                      layers={k: v for k, (v, _) in table.items()})
        timings = {"untraced pass": base, "traced pass": traced}
    else:
        per_instance = runner.passes(args.seconds)
        passes = [sum(p) for p in per_instance]
        for k, cfg in enumerate(runner.cfgs):
            instance_s[cfg["name"]] = statistics.median(p[k] for p in per_instance)
        ticks = sum(runner.agent_ticks.values())
        rate = [ticks / t for t in passes]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": statistics.median(passes),
                  "agent_ticks_per_s": statistics.median(rate),
                  "setup_s": statistics.median(setup), "peak_rss_mb": rss_mb}
        metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}
        result.update(pass_s=passes, setup_s=setup, agent_ticks_per_pass=ticks)
        timings = {"wall_s": passes, "agent_ticks_per_s": rate, "setup_s": setup}

    fail_frac = runner.failed / runner.attempted
    correct = runner.failed == 0
    result.update(instances=[{"name": c["name"], "seed": c["seed"],
                              "duration": c["duration"],
                              "agent_ticks": runner.agent_ticks.get(c["name"]),
                              "median_s": instance_s.get(c["name"]),
                              "digest": runner.digests.get(c["name"])}
                             for c in runner.cfgs],
                  attempted=runner.attempted, failed=runner.failed,
                  fail_frac=fail_frac, problems=runner.problems, correct=correct,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})

    args.out.mkdir(parents=True, exist_ok=True)
    stem = (f"{workload.name}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    (args.out / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        n = len(runner.cfgs)
        tracer.write_spans(args.out / f"{stem}.spans.csv.gz",
                           {p * n + k: f"pass{p}:{c['name']}"
                            for p in range(1, len(traced) + 1)
                            for k, c in enumerate(runner.cfgs)})

    print(f"aeronav benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}, {args.seconds:g} s")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for inst in result["instances"]:
        took = "" if inst["median_s"] is None else f"  median {inst['median_s']:.4f} s"
        print(f"  {inst['name']:<26} seed {inst['seed']:<10} {inst['duration']:>6g} s sim  "
              f"{inst['agent_ticks']} agent-ticks  {inst['digest']}{took}")
    for p in runner.problems:
        print(f"  FAIL {p}")
    if args.trace:
        print(f"{'layer metric':<34} {'value':>14}  unit")
        for name, (value, unit) in table.items():
            print(f"{name:<34} {value:>14.6g}  {unit}")
    else:
        for name, (value, unit) in metrics.items():
            how = fmt_timing(timings[name], unit) if name in timings else "process peak"
            print(f"{name:<18} {value:>12.6g} {unit:<4} {how}")
    print(f"{'fail_frac':<18} {fail_frac:>12.6g} ratio  {runner.failed} of "
          f"{runner.attempted} instance runs failed")
    for name, samples in timings.items():
        print(f"{name}: " + " ".join(f"{x:.4f}" for x in samples))
    print(f"result: {args.out / (stem + '.json')}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
