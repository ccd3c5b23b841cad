"""Golden run-log digests: every stock scenario must reproduce, byte for
byte, the run log, metrics and events recorded in tests/golden/digests.json
(regenerate with `PYTHONPATH=src python tests/golden/regen.py`)."""
import json
import sys
from pathlib import Path

import pytest

from aeronav.harness.runner import run

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
import regen  # noqa: E402

GOLDEN = json.loads(regen.GOLDEN.read_text())
CONFIGS = regen.golden_configs()


def test_golden_covers_every_scenario():
    assert sorted(GOLDEN["scenarios"]) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digest(name):
    want = GOLDEN["scenarios"][name]
    cfg = CONFIGS[name]
    assert cfg["duration"] == want["duration"]
    got = {"duration": cfg["duration"], **regen.digest(run(cfg))}
    recorded = {k: GOLDEN[k] for k in regen.versions()}
    differ = [k for k in sorted(want.keys() | got.keys()) if got.get(k) != want.get(k)]
    assert got == want, (
        f"{name}: {', '.join(differ)} differ from the golden digests, which "
        f"were recorded under {recorded}; this is {regen.versions()}")
