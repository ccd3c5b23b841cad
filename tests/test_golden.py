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
    assert got == want, (
        f"{name}: {', '.join(regen.differ(want, got))} differ from the golden digests, which "
        f"were recorded under {recorded}; this is {regen.versions()}")


def test_regen_check_and_named_entries(tmp_path, monkeypatch, capsys):
    """--check reports the differing parts and writes nothing; named
    scenarios are rewritten and every other entry is left as it is."""
    short = {name: dict(CONFIGS[name], duration=0.5)
             for name in ("deform-quad-tracking", "planar-static")}
    monkeypatch.setattr(regen, "golden_configs",
                        lambda: {k: dict(v) for k, v in short.items()})
    monkeypatch.setattr(regen, "GOLDEN", tmp_path / "digests.json")
    assert regen.main([]) == 0
    fresh = regen.GOLDEN.read_text()
    assert regen.main(["--check"]) == 0
    data = json.loads(fresh)
    data["scenarios"]["planar-static"].update(csv_sha256="0", duration=1.0)
    data["scenarios"]["deform-quad-tracking"]["events_sha256"] = "0"
    tampered = json.dumps(data, indent=2, sort_keys=True) + "\n"
    regen.GOLDEN.write_text(tampered)
    capsys.readouterr()
    assert regen.main(["--check"]) == 1
    out = capsys.readouterr().out
    assert "deform-quad-tracking: events differ" in out
    assert "planar-static: csv, duration differ" in out
    assert regen.GOLDEN.read_text() == tampered
    assert regen.main(["planar-static"]) == 0
    data = json.loads(regen.GOLDEN.read_text())
    assert data["scenarios"]["planar-static"] == json.loads(fresh)["scenarios"]["planar-static"]
    assert data["scenarios"]["deform-quad-tracking"]["events_sha256"] == "0"
