"""End-to-end tests for the command line front-end."""

import argparse
import ast
import builtins
import importlib
import inspect
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from posbounds import adjoint, jumping, numpoly
from posbounds.cli import (
    COMMANDS,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_OK,
    main,
    parse_int_map,
    parse_pairs,
    parse_q,
)
from posbounds.core import InputError
from posbounds.report import BoundReport


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_parse_helpers():
    assert parse_q("3/7") == Fraction(3, 7)
    assert parse_q("0.25") == Fraction(1, 4)
    assert parse_int_map("1=3,2=9") == {1: 3, 2: 9}
    assert parse_pairs("1:0,0:-1") == [(1, 0), (0, -1)]
    with pytest.raises(InputError, match="^key 1 is given more than once$"):
        parse_int_map("1=3,1=400,2=9")


def test_bounds_siu(capsys):
    code, doc = run_json(capsys, "bounds", "siu", "--n", "2", "--jets", "1")
    assert code == EXIT_OK
    assert doc["threshold"] == 23 and doc["schema"] == 1


def test_bounds_reider(capsys):
    code, doc = run_json(
        capsys, "bounds", "reider", "--L2", "5", "--mode", "spanned", "--divisors", "1:0"
    )
    assert code == EXIT_OK and doc["verdict"] == "exception"


def test_bounds_bes(capsys):
    code, doc = run_json(capsys, "bounds", "bes", "--L2", "9", "--p", "2", "--divisors", "3:1")
    assert code == EXIT_OK and doc["verdict"] == "exception"


def test_bounds_pluri(capsys):
    code, doc = run_json(capsys, "bounds", "pluri", "--n", "3", "--case", "fano")
    assert code == EXIT_OK and doc["threshold"] == 120


def test_bounds_surface(capsys):
    code, doc = run_json(
        capsys, "bounds", "surface", "--jets", "0", "--L2", "5", "--minLC", "5"
    )
    assert code == EXIT_OK and doc["verdict"] == "satisfied"


def test_jets_table_golden(capsys):
    code, out = run(capsys, "jets", "table", "--s", "0")
    assert code == EXIT_OK
    assert "| spanned | 4 | 2 |" in out
    assert "| separation | 8 | 6 |" in out
    assert "| separation | 9 | 5 |" in out
    assert "| separation | 12 | 4 |" in out
    assert "spanned for m >= 3" in out and "very ample for m >= 5" in out


def test_jets_table_json(capsys):
    code, doc = run_json(capsys, "jets", "table", "--s", "2", "--format", "json")
    assert code == EXIT_OK
    assert doc["details"]["jets"] == [16, 12]


def test_jets_main_round_trip(capsys):
    code, doc = run_json(
        capsys,
        "jets", "main", "--n", "2", "--sigma0", "4", "--a", "0",
        "--beta", "0,1", "--min", "1=3", "--Ln", "5",
    )
    assert code == EXIT_OK and doc["verdict"] == "satisfied"
    report = BoundReport.from_json(doc)
    assert report.verdict == "satisfied"


def test_jets_mu(capsys):
    code, doc = run_json(capsys, "jets", "mu", "--n", "2", "--per-dim", "1=3,2=9")
    assert code == EXIT_OK and doc["threshold"] == {"lo": 3, "hi": 3}


def test_matsusaka(capsys):
    code, doc = run_json(
        capsys, "matsusaka", "--n", "2", "--Ln", "1", "--LK", "2", "--policy", "1"
    )
    assert code == EXIT_OK
    assert doc["threshold"] == {"lo": 144, "hi": 144}
    assert doc["details"]["surface_comparison"]["factor4"] == 144


@pytest.mark.parametrize("argv, flag", [
    (["matsusaka", "--n", "2", "--Ln", "4", "--LK", "-1/2"], "--LK"),
    (["poly", "--coeffs", "-1,0,1", "--window", "a", "--m0", "2", "--N", "5"], "--coeffs"),
    (["bounds", "reider", "--L2", "12", "--mode", "separation", "--divisors", "-1:0"], "--divisors"),
])
def test_a_value_starting_with_minus_reads_as_in_the_equals_form(capsys, argv, flag):
    i = argv.index(flag)
    assert main(argv) == EXIT_OK
    spaced = capsys.readouterr().out
    assert main(argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:]) == EXIT_OK
    assert spaced == capsys.readouterr().out != ""


def test_morse(capsys):
    code, doc = run_json(capsys, "morse", "--n", "2", "--Fn", "2", "--FG", "3")
    assert code == EXIT_OK and doc["threshold"] == 4


def test_mult_ideal(capsys):
    code, doc = run_json(capsys, "mult-ideal", "--alpha", "4,4")
    assert code == EXIT_OK
    assert doc["details"]["generators"] == [[3, 0], [2, 1], [1, 2], [0, 3]]


def test_lelong(capsys):
    code, doc = run_json(capsys, "lelong", "--u", "2", "--v", "3", "--radii", "0.1,0.01")
    assert code == EXIT_OK
    estimates = BoundReport.from_json(doc).details["estimates"]
    assert abs(estimates[-1][1] - 2.0) < 0.05


LOADED_BY_MAIN = """
import contextlib, io, json, sys
from posbounds import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    cli.main(sys.argv[1:])
print(json.dumps(sorted(name for name in sys.modules if name.startswith("posbounds."))))
print("numpy" in sys.modules)
"""


@pytest.mark.parametrize(
    "argv, families",
    [
        (["bounds", "siu", "--n", "2", "--jets", "1"], ["adjoint", "report"]),
        (["jets", "mu", "--n", "2", "--per-dim", "1=4,2=9"], ["jumping", "report"]),
        (["--help"], []),
        (["poly", "--coeffs", "1", "--window", "d", "--m0", "0"], []),
    ],
    ids=["bounds-siu", "jets-mu", "help", "usage-error"],
)
def test_cli_imports_only_the_family_it_runs(argv, families):
    out = fresh_python(LOADED_BY_MAIN, *argv).splitlines()
    expected = sorted(f"posbounds.{name}" for name in ["cli", "core", *families])
    assert json.loads(out[0]) == expected
    assert out[1] == "False"


def src_env() -> dict[str, str]:
    """The environment with posbounds importable from src."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def fresh_python(code, *argv):
    """stdout of code run in a new interpreter that imports posbounds from src."""
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=src_env(), capture_output=True, text=True, check=True).stdout


LOADED_BY_EVERY_FAMILY = """
import importlib, json, sys
before = set(sys.modules)
from posbounds.cli import COMMANDS
for entry in COMMANDS.values():
    importlib.import_module("posbounds." + entry[1].rpartition(".")[0])
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_no_command_loads_dataclasses_or_inspect():
    # each costs milliseconds of import per process (inspect pulls in ast, dis, tokenize)
    loaded = json.loads(fresh_python(LOADED_BY_EVERY_FAMILY))
    assert "posbounds.matsusaka" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)


@pytest.mark.parametrize("path", list(COMMANDS), ids=" ".join)
def test_command_table_resolves(path):
    flags, qualified = COMMANDS[path]
    module, _, name = qualified.rpartition(".")
    report_of = getattr(importlib.import_module(f"posbounds.{module}"), name)
    assert callable(report_of)
    parser = argparse.ArgumentParser()
    dests = {parser.add_argument(flag, **kwargs).dest for flag, kwargs in flags.items()}
    dests.discard("format")  # main consumes --format itself
    signature = inspect.signature(report_of)
    # main reads tol off the code object, which a functools.wraps wrapper would not forward
    code = report_of.__code__
    takes_tol = "tol" in code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    assert takes_tol == ("tol" in signature.parameters)
    assert "tol" not in dests and dests <= signature.parameters.keys()
    # main's call binds: every required parameter is a flag, and tol goes
    # only to a function that takes it
    signature.bind(**dict.fromkeys(dests | ({"tol"} if takes_tol else set())))


def test_window_choices_are_the_numpoly_windows():
    assert COMMANDS[("poly",)][0]["--window"]["choices"] == tuple(numpoly.WINDOWS)


def test_poly_window(capsys):
    code, doc = run_json(
        capsys, "poly", "--coeffs", "0,0,1", "--window", "a", "--m0", "0", "--N", "10"
    )
    assert code == EXIT_OK and doc["threshold"] == 5


def test_ht_diag(capsys):
    code, doc = run_json(capsys, "ht", "diag", "--lambdas", "1,2,3", "--p", "2")
    assert code == EXIT_OK and doc["verdict"] == "holds"


def test_ht_products(capsys):
    code, doc = run_json(capsys, "ht", "products", "--selfints", "4,4", "--mixed", "4")
    assert code == EXIT_OK and doc["verdict"] == "holds"


def test_exit_code_on_bad_subcommand(capsys):
    assert main(["bogus"]) == EXIT_INPUT
    capsys.readouterr()


def test_exit_code_on_bad_rational(capsys, monkeypatch):
    for text in ("x", "1/0"):
        # a usage error that says why the value is not a number
        assert main(["morse", "--n", "2", "--Fn", text, "--FG", "3"]) == EXIT_INPUT
        captured = capsys.readouterr()
        last = captured.err.splitlines()[-1]
        assert captured.out == "" and last.endswith(f"argument --Fn: not a rational number: '{text}'")
        # the same text in POSBOUNDS_TOL is an input error, not a usage error
        monkeypatch.setenv("POSBOUNDS_TOL", text)
        assert main(["morse", "--n", "2", "--Fn", "2", "--FG", "3"]) == EXIT_INPUT
        assert capsys.readouterr().err == f"input error: not a rational number: '{text}'\n"
        monkeypatch.delenv("POSBOUNDS_TOL")


def test_exit_code_on_domain_error(capsys):
    code = main(["jets", "mu", "--n", "2", "--per-dim", "1=3"])
    assert code == EXIT_INPUT
    capsys.readouterr()


def test_empty_lists_exit_2_with_the_argument_named(capsys):
    for argv, name in [
        (["ht", "products", "--selfints", "", "--mixed", "1"], "selfints"),
        (["ht", "diag", "--lambdas", "", "--p", "0"], "lambdas"),
        (["jets", "mu", "--n", "0", "--per-dim", ""], "n must be"),
    ]:
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and name in captured.err


@pytest.mark.parametrize("argv, message", [
    (["bounds", "pluri", "--n", "0", "--case", "fano"], "n must be >= 1, got 0"),
    (["morse", "--n", "0", "--Fn", "1", "--FG", "0"], "n must be >= 1, got 0"),
    (["bounds", "siu", "--n", "2", "--jets", ""], "jets must list at least one jet order"),
    (["bounds", "surface", "--jets", "", "--L2", "1", "--minLC", "1"],
     "jets must list at least one jet order"),
    (["jets", "main", "--n", "2", "--sigma0", "4", "--a", "-1", "--beta", "0,1", "--min", "1=3",
      "--Ln", "5"], "a must be >= 0"),
    (["jets", "main", "--n", "2", "--sigma0", "1", "--a", "0", "--beta", "", "--min", "", "--Ln", "2"],
     "beta must satisfy 0 = beta_1 < ... < beta_n <= 1"),
    (["jets", "mu", "--n", "2", "--per-dim", "1=3,2=9,5=0"],
     "per-dim key must be in 1..2, got 5"),
    (["jets", "main", "--n", "3", "--sigma0", "8", "--a", "1", "--beta", "0,1/27,1",
      "--min", "1=76,2=6,7=1", "--Ln", "64"], "minY key must be in 1..2, got 7"),
    (["jets", "main", "--n", "2", "--sigma0", "1", "--beta", "0,1", "--min", "1=0", "--Ln", "2"],
     "minY must be >= 1, got 0"),
    (["jets", "main", "--n", "2", "--sigma0", "1", "--beta", "0,1", "--min", "1=-1", "--Ln", "2"],
     "minY must be >= 1, got -1"),
    (["jets", "main", "--n", "0", "--sigma0", "1", "--a", "0", "--beta", "", "--min", "", "--Ln", "2"],
     "n must be >= 1, got 0"),
    (["matsusaka", "--n", "1", "--Ln", "4", "--LK", "-1/2"], "n must be >= 2, got 1"),
    (["jets", "mu", "--n", "2", "--per-dim", ""],
     "missing per-dimension minima for 2 of p = 1..2, the first p = 1"),
    (["bounds", "siu", "--n", "2", "--jets", "-1"], "jet order must be >= 0, got -1"),
    (["jets", "table", "--s", "-1"], "jet order must be >= 0, got -1"),
    (["bounds", "bes", "--L2", "10", "--p", "0"], "jet order must be >= 1, got 0"),
])
def test_degenerate_inputs_exit_2(capsys, argv, message):
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("argv, flag", [
    (["jets", "mu", "--n", "2", "--per-dim", "1=3,1=400,2=9"], "--per-dim"),
    (["jets", "main", "--n", "3", "--sigma0", "8", "--a", "1", "--beta", "0,1/27,1",
      "--min", "1=1,1=76,2=6", "--Ln", "64"], "--min"),
])
def test_repeated_map_key_exits_2(capsys, argv, flag):
    # a usage error that names the flag and the repeated key 1
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    last = captured.err.splitlines()[-1]
    assert captured.out == "" and last.endswith(f"argument {flag}: key 1 is given more than once")


def test_poly_window_b_degree_zero_target_is_an_int(capsys):
    code = main(["poly", "--coeffs", "3", "--window", "b", "--m0", "0", "--k", "2"])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == "input error: no m in [0, 0] with P(m) >= 6\n"


def test_tolerance_env_var(capsys, monkeypatch):
    monkeypatch.setenv("POSBOUNDS_TOL", "1/1000")
    code, doc = run_json(
        capsys,
        "jets", "main", "--n", "2", "--sigma0", "4", "--a", "0",
        "--beta", "0,1", "--min", "1=3", "--Ln", "5",
    )
    assert code == EXIT_OK and doc["verdict"] == "satisfied"
    monkeypatch.setenv("POSBOUNDS_TOL", "-1")
    code = main(["morse", "--n", "2", "--Fn", "2", "--FG", "3"])
    assert code == EXIT_INPUT
    capsys.readouterr()


def test_near_degenerate_sigma_ratio_exits_0_with_the_fine_tolerance_verdict(capsys, monkeypatch):
    # sigma0/L^n = 10^-30: sigma's checks need a 103-bit grid, 62 bits finer
    # than the default tolerance asks
    argv = ["jets", "main", "--n", "3", "--sigma0", "1", "--a", "0", "--beta", "0,1/2,1",
            "--min", "1=1,2=1", "--Ln", "1e30"]
    code, doc = run_json(capsys, *argv)
    monkeypatch.setenv("POSBOUNDS_TOL", "1e-60")
    fine_code, fine = run_json(capsys, *argv)
    assert code == fine_code == EXIT_OK
    assert doc["verdict"] == fine["verdict"] == "unsatisfied"


def test_sigma_grid_cap_refuses_the_first_ratio_past_it(capsys):
    # n = 2, sigma0 = 1: the gap bound is g = 1/(8 L^n), so k_max - grid_bits(tol)
    # = bitlen(8 L^n) + 2 - 40 at tol 1e-12, which passes the cap first at
    # L^n = 2^(cap + 35); one less lands on the cap and is bisected
    def argv(Ln):
        return ["jets", "main", "--n", "2", "--sigma0", "1", "--beta", "0,1", "--min", "1=1",
                "--Ln", str(Ln)]

    top = 1 << jumping._SIGMA_CAP + 35
    code, doc = run_json(capsys, *argv(top - 1))
    assert code == EXIT_OK and doc["verdict"] == "satisfied"
    assert main(argv(top)) == EXIT_INPUT
    cap = jumping._SIGMA_CAP
    assert capsys.readouterr().err == (
        f"input error: sigma needs {cap + 1} grid bits past tol; cap {cap}\n")


def test_output_ordering_deterministic(capsys):
    _, out1 = run(capsys, "bounds", "siu", "--n", "3", "--jets", "1")
    _, out2 = run(capsys, "bounds", "siu", "--n", "3", "--jets", "1")
    assert out1 == out2


def internal_error_line(capsys, argv) -> str:
    """The one stderr line of a run that must exit 1 as a bug, printing nothing."""
    assert main(argv) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    line, = captured.err.splitlines()
    return line


@pytest.mark.parametrize("exc", [
    OverflowError("boom"), ZeroDivisionError("boom"), KeyError("boom"), AssertionError("boom"),
], ids=lambda exc: type(exc).__name__)
def test_other_exceptions_exit_1_as_internal_errors(capsys, monkeypatch, exc):
    def report(n, jets):
        raise exc

    monkeypatch.setattr(adjoint, "siu_report", report)
    line = internal_error_line(capsys, ["bounds", "siu", "--n", "2", "--jets", "1"])
    assert line == f"internal error: {type(exc).__name__}: {exc}"


def test_unencodable_report_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(adjoint, "siu_report", lambda n, jets: BoundReport("siu-jets", threshold=0.5))
    line = internal_error_line(capsys, ["bounds", "siu", "--n", "2", "--jets", "1"])
    assert line == "internal error: TypeError: cannot serialize float"


@pytest.mark.parametrize("argv, message", [
    (["matsusaka", "--n", "7", "--Ln", "1", "--LK", "2"],
     "a lower bound on the bits of the threshold's numerator must be in 0..14284, got 21753"),
    (["bounds", "siu", "--n", "6000", "--jets", "1"],
     "bits of a printed integer must be in 0..14284, got 16523"),
    (["bounds", "pluri", "--n", "200", "--case", "fano", "--Kn", "40"],
     "bits of a printed integer must be in 0..14284, got 109347"),
], ids=["matsusaka", "siu", "pluri"])
def test_d1_answer_too_long_to_print_exits_2(capsys, argv, message):
    # D1: the answer holds an integer of more than 4,300 digits, which CPython does not
    # convert to str by default; each once exited 1 with that ValueError
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"input error: {message}\n"


def test_d9_a_closed_stdout_exits_0_with_nothing_on_stderr():
    # D9: the reader closed the pipe before posbounds wrote the answer.  The read
    # end is closed before the spawn, so every write, and the flush at exit, fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "posbounds.cli", "jets", "main", "--n", "3", "--sigma0", "8",
             "--a", "1", "--beta", "0,1/27,1", "--min", "1=76,2=6", "--Ln", "64"],
            stdout=write_end, stderr=subprocess.PIPE, env=src_env(), timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


# Checks on values the program computed itself: their failure is a bug (exit 1)
COMPUTED_VALUE_CHECKS = {
    ("core", "Bracket._check", "ValueError"),
    ("core", "Bracket.dyadic", "ValueError"),
    # a record called with the wrong fields, or a field assigned, is a caller bug
    ("core", "Record.__init__", "TypeError"),
    ("core", "Record.__setattr__", "AttributeError"),
    ("jumping", "beta_schedule", "AssertionError"),
    ("jumping", "cn_constant", "AssertionError"),
    ("jumping", "sigma_sequence", "AssertionError"),
    ("report", "value_to_json", "TypeError"),
}


def raise_sites(path):
    """(module, qualified function, class name) for each raise in a source file."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                yield from walk(child, scope + (child.name,))
            elif isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                yield path.stem, ".".join(scope), exc.id
            else:
                yield from walk(child, scope)

    return set(walk(ast.parse(path.read_text()), ()))


def test_only_computed_value_checks_raise_other_classes():
    package = Path(__file__).resolve().parent.parent / "src" / "posbounds"
    others = set()
    for path in sorted(package.glob("*.py")):
        for site in raise_sites(path):
            module = importlib.import_module(f"posbounds.{site[0]}")
            cls = getattr(module, site[2], None) or getattr(builtins, site[2])
            if not issubclass(cls, InputError):
                others.add(site)
    assert others == COMPUTED_VALUE_CHECKS
