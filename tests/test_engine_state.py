"""Engine state is data: an engine pickled or deep-copied mid-run resumes
byte for byte.

Each test registers a wrapper engine that runs the real one and, at half the
run, replaces it by a copy; the run log, metrics and events must digest
exactly as a plain `run()` of the same config in this process."""
import copy
import pickle
import sys
from pathlib import Path

import pytest

from aeronav.harness import runner
from aeronav.harness.runner import GOAL, TERMINATED, run

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402

CONFIGS = regen.golden_configs()
ONE_PER_KIND = {}
for _name, _cfg in sorted(CONFIGS.items()):
    ONE_PER_KIND.setdefault(_cfg["kind"], _name)


class Swap:
    """Runs an engine and, before stepping tick `at`, replaces it by
    swap(engine, at); every other attribute is the current engine's."""

    def __init__(self, engine, at, swap):
        self.engine, self.at, self.swap, self.swapped = engine, at, swap, False

    def __getattr__(self, name):
        return getattr(self.engine, name)

    def step(self, tick):
        if tick == self.at:
            self.engine, self.swapped = self.swap(self.engine, tick), True
        return self.engine.step(tick)


def assert_swap_keeps_digests(monkeypatch, cfg, swap):
    """A run whose engine swap() replaced at half its ticks digests as the
    plain run."""
    plain = run(cfg)
    half = (plain.log.records[-1]["tick"] + 1) // 2
    build, built = runner.ENGINES[cfg["kind"]], []

    def build_swapping(c):
        built.append(Swap(build(c), half, swap))
        return built[-1]

    monkeypatch.setitem(runner.ENGINES, cfg["kind"], build_swapping)
    swapped = run(cfg)
    assert half > 0 and built[0].swapped
    assert regen.digest(swapped) == regen.digest(plain)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pickled_engine_resumes_byte_for_byte(monkeypatch, name):
    assert_swap_keeps_digests(monkeypatch, CONFIGS[name],
                              lambda engine, tick: pickle.loads(pickle.dumps(engine)))


@pytest.mark.parametrize("name", sorted(ONE_PER_KIND.values()))
def test_forked_engine_shares_no_state(monkeypatch, name):
    """The original engine runs on to the end of its ticks, its output
    discarded, before its deep copy takes over."""
    cfg = CONFIGS[name]

    def fork(engine, tick):
        copied = copy.deepcopy(engine)
        n_ticks = (engine.n_ticks if engine.n_ticks is not None
                   else int(round(cfg["duration"] / engine.control_dt)))
        for k in range(tick, n_ticks):
            if engine.step(k) in (GOAL, TERMINATED):
                break
        return copied

    assert_swap_keeps_digests(monkeypatch, cfg, fork)
