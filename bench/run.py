"""Layered benchmark for posbounds.

Usage, from the root of a checkout:

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

One closed-loop client, one operation in flight, no threads.  Each
operation is checked outside the timed region; a wrong answer ends the run
with exit code 1.  An exception, a nonzero exit or a traceback on valid input
counts as a failed operation.  A run lasts at least ``--seconds`` and 100
operations and ends on a whole pass, so every run has the same mix.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics from spans.  Spans of a
traced run are written to ``.bench_out/spans-<workload>-seed<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

SETUP_SAMPLES = 25
MIN_OPS = 100
MIN_SCALE_SAMPLES = 3
CHILD_TIMEOUT_S = 60
CLI_STAGES = ("import_core", "import_lelong", "import_cli", "build_parser", "main")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics listed in BENCHMARK.json."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def module_names() -> list[str]:
    """The layers a traced run reports: every module lib_ops traces, plus the CLI."""
    import lib_ops

    return [m.__name__.split(".", 1)[1] for m in lib_ops.MODULES] + ["cli"]


def setup_modules(workload: str) -> list[str]:
    """The posbounds modules a workload's operations import."""
    if workload == "cli-oneshot":
        return ["cli"]
    if workload == "tight-tolerance":
        return ["core", "jumping", "convexity", "report"]
    return module_names()[:-1]


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result)."""


def env_record(root: Path) -> dict:
    from importlib import metadata

    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "commit": commit,
    }


class Children:
    """Runs child processes one at a time, with their rusage via wait4."""

    def __init__(self, root: Path, scratch: Path) -> None:
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(root / "src") + (os.pathsep + path if path else ""))
        self.out = tempfile.TemporaryFile(dir=scratch)
        self.err = tempfile.TemporaryFile(dir=scratch)

    def close(self) -> None:
        self.out.close()
        self.err.close()

    def run(self, argv: list[str]) -> tuple[int, str, str, int, int]:
        """(exit code, stdout, stderr, wall ns, max RSS in KiB)."""
        for f in (self.out, self.err):
            f.seek(0)
            f.truncate()
        start = time.perf_counter_ns()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=self.out, stderr=self.err, env=self.env)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter_ns() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        outputs = []
        for f in (self.out, self.err):
            f.seek(0)
            outputs.append(f.read().decode("utf-8", "replace"))
        return proc.returncode, outputs[0], outputs[1], wall, usage.ru_maxrss


def _on_alarm(signum, frame):
    raise TimeoutError("child process timed out")


def measure_setup(children: Children, workload: str) -> float:
    """Seconds one fresh interpreter takes to import the workload's posbounds modules."""
    mods = ", ".join(f"posbounds.{m}" for m in setup_modules(workload))
    code = f"import time\nt = time.perf_counter()\nimport {mods}\nprint(time.perf_counter() - t)"
    rc, stdout, stderr, _, _ = children.run([sys.executable, "-c", code])
    if rc != 0:
        raise BenchError(f"cannot import posbounds from src/: {stderr.strip().splitlines()[-1:]}")
    return float(stdout)


class Run:
    """State of one closed-loop run."""

    def __init__(self, workload: str, trace: bool) -> None:
        self.workload = workload
        self.trace = trace
        self.tracer = Tracer()
        self.latencies: list[int] = []
        self.setup: list[float] = []
        self.failed = 0
        self.errors: dict[str, str] = {}
        self.pass_latencies: list[tuple[bool, list[int]]] = []
        self.scale: dict[str, list[int]] = {}
        self.encodes: list[tuple[int, int]] = []
        self.counts: dict[str, int] = {}
        self.cli_stages: dict[str, list[int]] = {}
        self.rss_kb = 0

    def fail(self, op, exc_text: str) -> None:
        self.failed += 1
        self.errors.setdefault(op.kind, exc_text)


def check_or_die(op, fn, *args) -> None:
    try:
        fn(*args)
    except checks.CheckFailed as exc:
        raise checks.CheckFailed(f"{exc}; operation {json.dumps(op.to_json())}") from None


# ---------------------------------------------------------------- in-process workloads

def run_lib_op(run: Run, op, traced: bool, out: list[int] | None, curves: bool) -> None:
    """One in-process operation.  Its latency goes to ``out`` unless that is
    None; with ``curves`` (untraced calls only) its call time feeds the growth
    curves and its encode time the ``report.*`` numbers."""
    import lib_ops

    call, check = lib_ops.KINDS[op.kind]
    everything = run.workload == "tight-tolerance"
    tracer = run.tracer
    tracer.op = len(run.latencies)
    start = time.perf_counter_ns()
    try:
        result = call(op.args)
        mid = time.perf_counter_ns()
        if traced:
            with tracer.span("report.encode"):
                text = lib_ops.encode(result, everything)
        else:
            text = lib_ops.encode(result, everything)
        end = time.perf_counter_ns()
    except Exception as exc:  # a failure on valid input is counted, not fatal
        end = time.perf_counter_ns()
        if out is not None:
            out.append(end - start)
            run.fail(op, f"{type(exc).__name__}: {str(exc)[:200]}")
        if curves and op.scale:
            run.scale.setdefault(op.scale, []).append(end - start)
        return
    if out is not None:
        out.append(end - start)
    if curves and op.scale:
        run.scale.setdefault(op.scale, []).append(mid - start)
    if op.scale:
        count = lib_ops.result_count(op.scale, result)
        if count is not None:
            run.counts[op.scale] = count
    if curves and text is not None:
        run.encodes.append((end - mid, len(text.encode())))
    check_or_die(op, check, op.args, result)
    if text is not None:
        check_or_die(op, lib_ops.check_encoded, result, text)


# ---------------------------------------------------------------- CLI workload

def run_cli_op(run: Run, children: Children, op, traced: bool, out: list[int] | None) -> None:
    import cli_ops

    args = cli_ops.argv(op)
    run.tracer.op = len(run.latencies)
    program = [str(BENCH / "cli_traced.py")] if traced else ["-m", "posbounds.cli"]
    with run.tracer.span("cli.process") if traced and out is not None else contextlib.nullcontext():
        parent = len(run.tracer.spans) - 1
        code, stdout, stderr, wall, rss = children.run([sys.executable, *program, *args])
    if out is not None:
        out.append(wall)
        run.rss_kb = max(run.rss_kb, rss)
    if traced and stdout:
        doc = json.loads(stdout.splitlines()[-1])
        stdout = doc["stdout"]
        if out is not None:
            run.tracer.adopt(doc["spans"], parent, run.tracer.op)
        roots = {s[1].split(".", 1)[1]: s[3] - s[2] for s in doc["spans"] if s[4] < 0}
        for stage in CLI_STAGES:
            run.cli_stages.setdefault(stage, []).append(roots[stage])
        run.cli_stages.setdefault("start", []).append(wall - sum(roots.values()))
    if "Traceback" in stderr or code != 0:
        if out is not None:
            run.fail(op, f"exit {code}: {stderr.strip()[:200]}")
        return
    check_or_die(op, cli_ops.check, op, stdout)


# ---------------------------------------------------------------- the loop

def closed_loop(run: Run, children: Children, seed: int, seconds: float) -> None:
    """Passes until ``seconds`` have gone and ``MIN_OPS`` operations are done.
    An untraced run also takes ``SETUP_SAMPLES`` set-up samples between
    operations, one every ``seconds / SETUP_SAMPLES``, so that they span the
    run."""
    import lib_ops

    is_cli = run.workload == "cli-oneshot"
    if not is_cli:
        for op in next(inputs.passes(run.workload, "warm-up")):
            run_lib_op(run, op, False, None, False)
    next_setup = time.monotonic()
    deadline = next_setup + seconds
    for index, ops in enumerate(inputs.passes(run.workload, seed)):
        traced = run.trace and index % 2 == 0
        if traced and not is_cli:
            run.tracer.install(lib_ops.MODULES)
        lat: list[int] = []
        for op in ops:
            if not run.trace and len(run.setup) < SETUP_SAMPLES and time.monotonic() >= next_setup:
                run.setup.append(measure_setup(children, run.workload))
                next_setup += seconds / SETUP_SAMPLES
            if is_cli:
                run_cli_op(run, children, op, traced, lat)
            else:
                run_lib_op(run, op, traced, lat, run.trace and not traced)
            run.latencies.append(lat[-1])
        run.tracer.uninstall()
        run.pass_latencies.append((traced, lat))
        if time.monotonic() >= deadline and len(run.latencies) >= MIN_OPS:
            break
    while not run.trace and len(run.setup) < SETUP_SAMPLES:
        run.setup.append(measure_setup(children, run.workload))


def probe(run: Run, children: Children) -> None:
    """Traced runs only: measure the growth curves, encodes and CLI stages
    that this workload's own loop does not reach."""
    for op in inputs.scaling_ops():
        while len(run.scale.get(op.scale, ())) < MIN_SCALE_SAMPLES:
            run_lib_op(run, op, False, None, True)
    probe_op = inputs.Op("cli.bounds.siu", {"n": 2, "jets": [1]})
    while len(run.cli_stages.get("start", ())) < MIN_SCALE_SAMPLES:
        run_cli_op(run, children, probe_op, True, None)


def _ms(ns: float) -> float:
    return ns / 1e6


def end_to_end(run: Run) -> dict[str, float]:
    lat = run.latencies
    attempted = len(lat)
    done = attempted - run.failed
    return {
        "ops_per_s": done / (sum(lat) / 1e9),
        "latency_p50_ms": _ms(statistics.median(lat)),
        "latency_p90_ms": _ms(statistics.quantiles(lat, n=10)[8]),
        "success_rate": done / attempted,
        "setup_s": statistics.median(run.setup),
        "peak_rss_mb": (run.rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024,
    }


def per_layer(run: Run) -> dict[str, float]:
    out: dict[str, float] = {}
    totals = self_times(run.tracer.spans)
    for m in module_names():
        rec = totals.get(m, {"calls": 0, "self_ns": 0, "failed": 0})
        out.update({f"{m}.calls": rec["calls"], f"{m}.self_s": rec["self_ns"] / 1e9, f"{m}.failed": rec["failed"]})
    out["cli.start_ms"] = _ms(statistics.median(run.cli_stages["start"]))
    for stage in CLI_STAGES:
        out[f"cli.{stage}_ms"] = _ms(statistics.median(run.cli_stages[stage]))
    for key, samples in run.scale.items():
        out[key] = _ms(statistics.median(samples))
    enc = [ns for ns, _ in run.encodes]
    size = [b for _, b in run.encodes]
    out.update({"report.encode_ms.median": _ms(statistics.median(enc)), "report.encode_ms.max": _ms(max(enc)),
                "report.bytes.median": statistics.median(size), "report.bytes.max": max(size)})
    out["matsusaka.m_integer_bits.n-6"] = run.counts["matsusaka.main_ms.n-6"]
    out["core.bracket_den_bits.tol-1000"] = run.counts["core.pow_bracket_ms.tol-1000"]
    on = [x for traced, lat in run.pass_latencies if traced for x in lat]
    off = [x for traced, lat in run.pass_latencies if not traced for x in lat]
    out["trace.latency_p50_ms.on"] = _ms(statistics.median(on))
    out["trace.latency_p50_ms.off"] = _ms(statistics.median(off))
    out["trace.overhead_pct"] = 100 * (statistics.fmean(on) / statistics.fmean(off) - 1)
    return out


def write_spans(run: Run, path: Path) -> None:
    with open(path, "w") as f:
        for module, name, start, end, parent, op, failed in run.tracer.spans:
            f.write(json.dumps({"op": op, "name": name, "start_ns": start, "end_ns": end, "parent": parent,
                                "failed": failed}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "posbounds" / "__init__.py").is_file():
        print("bench: run from the root of a posbounds checkout (src/posbounds not found)", file=sys.stderr)
        return 2
    scratch = root / ".bench_out"
    scratch.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    env = env_record(root)
    children = Children(root, scratch)
    run = Run(args.workload, bool(args.trace))
    sys.path.insert(0, str(root / "src"))
    try:
        closed_loop(run, children, args.seed, args.seconds)
        if run.trace:
            probe(run, children)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    except checks.CheckFailed as exc:
        print(f"bench: WRONG ANSWER: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(1, len(run.latencies)), "failed": run.failed,
                          "metrics": {}}))
        return 1
    finally:
        children.close()

    attempted = len(run.latencies)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"operations attempted {attempted}, failed {run.failed} (error_rate {run.failed / attempted:.4f} ratio); "
          f"{attempted - int(0.9 * attempted)} samples at or beyond p90; setup samples {len(run.setup)}")
    for kind, text in sorted(run.errors.items()):
        print(f"  first failure of {kind}: {text}")
    if run.trace:
        metrics = per_layer(run)
        units = metric_units("per_layer")
        write_spans(run, scratch / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(run)
        units = metric_units("end_to_end")
    print(f"  {'error_rate':<40} {run.failed / attempted:>14.6g} ratio")
    for name in units:
        print(f"  {name:<40} {metrics[name]:>14.6g} {units[name]}")
    print(json.dumps({"correct": True, "attempted": attempted, "failed": run.failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
