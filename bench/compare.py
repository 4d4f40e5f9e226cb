"""Compare two result files written by ``bench/sweep.py``.

Usage: ``python3 bench/compare.py BASE.json NEW.json``

Prints one row per workload and end-to-end metric: both medians with their
quartiles, the change of the median, the bound, and a status:

- ``unresolved``: the run-to-run spread (quartile distance over the median)
  of either side exceeds the bound, and not every new run beats every base
  run;
- ``worse``: the new median is worse than the base by more than the bound;
- ``better``: the new median is better by more than the bound;
- ``same``: otherwise.

Bounds and directions come from the new file.  Exit code 1 when a metric is
``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from sweep import quartiles, spread  # noqa: E402


def status(base: list[float], new: list[float], bound: float, higher_is_better: bool) -> tuple[float, str]:
    b_med, n_med = quartiles(base)[1], quartiles(new)[1]
    change = (n_med - b_med) / abs(b_med) if b_med else 0.0
    gain = change if higher_is_better else -change
    all_better = (min(new) > max(base)) if higher_is_better else (max(new) < min(base))
    if max(spread(base), spread(new)) > bound and not all_better:
        return change, "unresolved"
    if gain < -bound:
        return change, "worse"
    if gain > bound:
        return change, "better"
    return change, "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    print(f"base {argv[0]}: commit {base['env'].get('commit')}   new {argv[1]}: commit {new['env'].get('commit')}")
    header = f"{'workload':<16} {'metric':<15} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} {'change':>8} {'bound':>6}  status"
    print(header)
    worse = False
    for workload in sorted(set(base["runs"]) & set(new["runs"])):
        for m in new["end_to_end"]:
            name = m["name"]
            b = [r["metrics"][name] for r in base["runs"][workload]]
            n = [r["metrics"][name] for r in new["runs"][workload]]
            change, verdict = status(b, n, m["bound"], m["better"] == "higher")
            worse |= verdict == "worse"
            fmt = lambda v: "{1:.5g} [{0:.5g}, {2:.5g}]".format(*quartiles(v))
            print(f"{workload:<16} {name:<15} {fmt(b):>34} {fmt(n):>34} {change:>+8.2%} {m['bound']:>6}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
