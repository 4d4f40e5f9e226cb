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


# The script's output at the three built-in profiles, byte for byte
STDOUT = """\
| profile | siu-jets | jet-multiples | matsusaka | minimal |
|---|---|---|---|---|
| minimal-surface | 23 | 48 | 18496 | siu-jets |
| surface-mu-47 | 23 | 2 | 18496 | jet-multiples |
| polarized-threefold | 122 | 163 | 1271810611888018678689408 | siu-jets |

[
  {
    "profile": "minimal-surface",
    "thresholds": {
      "jet-multiples": 48,
      "matsusaka": 18496,
      "siu-jets": 23
    },
    "minimal": "siu-jets"
  },
  {
    "profile": "surface-mu-47",
    "thresholds": {
      "jet-multiples": 2,
      "matsusaka": 18496,
      "siu-jets": 23
    },
    "minimal": "jet-multiples"
  },
  {
    "profile": "polarized-threefold",
    "thresholds": {
      "jet-multiples": 163,
      "matsusaka": 1271810611888018678689408,
      "siu-jets": 122
    },
    "minimal": "siu-jets"
  }
]
"""


def test_main_stdout_is_pinned(capsys):
    compare_thresholds.main()
    assert capsys.readouterr().out == STDOUT
