#!/usr/bin/env python3
"""Compare very-ampleness thresholds across bound families on a few profiles.

Each profile declares a dimension, a mu lower bound, and surface-style
intersection numbers; the table marks which family gives the smallest
certified multiple.
"""

import json
from fractions import Fraction
from typing import Sequence

from posbounds import adjoint, jumping, matsusaka
from posbounds.report import value_to_json

PROFILES = [
    {"name": "minimal-surface", "n": 2, "mu": 1, "Ln": 1, "LK": 0},
    {"name": "surface-mu-47", "n": 2, "mu": 47, "Ln": 1, "LK": 0},
    {"name": "polarized-threefold", "n": 3, "mu": 2, "Ln": 2, "LK": 3},
]

THEOREMS = ["siu-jets", "jet-multiples", "matsusaka"]


def compare(profiles: Sequence[dict], theorems: Sequence[str]) -> list[dict]:
    """Evaluate each requested threshold on each profile and mark the
    minimal very-ampleness multiple.

    A profile is {"name", "n", "mu", "Ln", "LK"}; supported theorem ids are
    "siu-jets", "jet-multiples", and "matsusaka"."""
    rows = []
    for prof in profiles:
        row: dict = {"profile": prof.get("name", "?")}
        values: dict[str, Fraction] = {}
        for theorem in theorems:
            if theorem == "siu-jets":
                values[theorem] = Fraction(
                    adjoint.siu_jet_threshold(prof["n"], adjoint.JetSpec((1,)))
                )
            elif theorem == "jet-multiples":
                values[theorem] = Fraction(
                    jumping.theorem1117_threshold(prof["n"], 1, prof["mu"])
                )
            elif theorem == "matsusaka":
                inputs = matsusaka.MatsusakaInputs.of(prof["n"], prof["Ln"], 0, prof["LK"])
                values[theorem] = matsusaka.matsusaka_main(inputs).threshold.hi
            else:
                raise ValueError(f"unknown theorem id {theorem!r}")
        row["thresholds"] = {k: values[k] for k in sorted(values)}
        if values:
            best = min(sorted(values), key=lambda k: values[k])
            row["minimal"] = best
        rows.append(row)
    return rows


def main() -> None:
    rows = compare(PROFILES, THEOREMS)
    print(f"| profile | {' | '.join(THEOREMS)} | minimal |")
    print("|---|" + "---|" * (len(THEOREMS) + 1))
    for row in rows:
        cells = [str(row["thresholds"][theorem]) for theorem in THEOREMS]  # exact: "3/2", not 1.5
        print(f"| {row['profile']} | {' | '.join(cells)} | {row['minimal']} |")
    print()
    print(json.dumps([{**r, "thresholds": value_to_json(r["thresholds"])} for r in rows], indent=2))


if __name__ == "__main__":
    main()
