"""Run the benchmark over several seeds and keep every result in one file.

Usage, from the root of a checkout:

    python3 bench/sweep.py --seeds 1-10 [--out FILE]

Runs ``bench/run.py --trace 0`` once per workload and seed, one after
another, for the workloads and ``run_seconds`` in ``BENCHMARK.json``, and
prints for each workload and end-to-end metric the median, the quartiles and
the spread (quartile distance over the median) next to the metric's bound
from ``BENCHMARK.json``.  ``--out`` writes a result file that
``bench/compare.py`` reads: the environment, the bounds and every run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import env_record  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed), "--seconds",
                   str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd], capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n", file=sys.stderr)
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = {name: m["value"] for name, m in result["metrics"].items()}
            runs.setdefault(workload, []).append(
                {"seed": seed, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics})
            shown = [f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
            shown.append(f"error_rate={result['failed'] / result['attempted']:.6g} ratio")
            print(f"{workload} seed {seed}: attempted={result['attempted']} " + ", ".join(shown), flush=True)

    print(f"\n{'workload':<16} {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for workload, items in runs.items():
        for name, m in bounds.items():
            values = [r["metrics"][name] for r in items]
            q1, med, q3 = quartiles(values)
            flag = "" if spread(values) <= m["bound"] / 3 else "  > bound/3"
            print(f"{workload:<16} {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread(values):>8.4f} {m['bound']:>6}{flag}")
    if args.out:
        doc = {"env": env_record(Path.cwd()), "seconds": spec["run_seconds"], "end_to_end": spec["end_to_end"],
               "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
