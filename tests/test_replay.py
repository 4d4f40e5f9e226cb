"""scripts/replay.py, imported by path: every corpus family hashes to the value
in scripts/replay_hashes.json, the file the script itself checks against."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "replay.py"
_spec = importlib.util.spec_from_file_location("replay", SCRIPT)
replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(replay)

RECORDED = json.loads(replay.HASHES.read_text())


def test_the_record_names_every_family():
    assert set(RECORDED) == set(replay.FAMILIES)


@pytest.mark.parametrize("family", replay.FAMILIES)
def test_family_hash_matches_its_record(family):
    assert replay.family_hash(family) == RECORDED[family]


def test_the_cli_goldens_replay(monkeypatch):
    monkeypatch.setenv("POSBOUNDS_TOL", "1e-1000")  # the replay runs at the default tolerance
    assert replay.golden_mismatches() == []
