"""Tests for scripts/compare_thresholds.py, imported by path."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_thresholds.py"
_spec = importlib.util.spec_from_file_location("compare_thresholds", SCRIPT)
compare_thresholds = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_thresholds)
compare = compare_thresholds.compare


def test_compare_profiles():
    rows = compare(
        [{"name": "surface", "n": 2, "mu": 1, "Ln": 1, "LK": 0}],
        ["siu-jets", "jet-multiples"],
    )
    assert rows[0]["thresholds"] == {"jet-multiples": 48, "siu-jets": 23}
    assert rows[0]["minimal"] == "siu-jets"
    assert compare([], ["siu-jets"]) == []
    rows = compare([{"name": "big-mu", "n": 2, "mu": 1000, "Ln": 1, "LK": 0}], ["siu-jets", "jet-multiples"])
    assert rows[0]["minimal"] == "jet-multiples"
