"""Golden stdout for the command line front-end.

Every command in the README's ``## CLI`` block, plus one or more calls for
each subcommand the README leaves out, is run through ``cli.main`` and its
stdout compared byte for byte with ``cli_golden.json``.  Malformed flags
must be refused as usage errors: exit 2, nothing on stdout, no traceback.
"""

import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from posbounds import adjoint, convexity, numpoly
from posbounds.cli import EXIT_INPUT, EXIT_OK, main
from posbounds.report import value_from_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("cli_golden.json")

EXTRA_COMMANDS = [
    "bounds siu --n 3 --jets 0,1,2",
    "bounds reider --L2 5 --mode spanned --divisors 1:0",
    "bounds bes --L2 9 --p 2 --divisors 3:1,5:2",
    "bounds pluri --n 3 --case fano",
    "bounds pluri --n 2 --case general_type --Kn 4",
    "bounds surface --jets 0,1 --L2 40 --minLC 30",
    "jets main --n 3 --sigma0 8 --a 1 --beta 0,1/27,1 --min 1=300 --Ln 64",
    "jets main --n 2 --sigma0 70 --a 0 --beta 0,1 --min 1=3 --Ln 64",
    "jets mu --n 3 --per-dim 1=3,2=9,3=20",
    "jets table",
    "jets table --format json",
    "jets table --s 2 --format json",
    "matsusaka --n 2 --Ln 3 --LK 1/2",
    "matsusaka --n 3 --Ln 2 --LK 3 --LB 1 --policy angehrn-siu",
    "morse --n 3 --Fn 5/2 --FG 7",
    "mult-ideal --alpha 3/2,5/2,7",
    "lelong --u 3 --v 5 --radii 0.5,0.05",
    "poly --coeffs 1,2,1 --window b --m0 0 --k 3",
    "poly --coeffs 0,1 --window c --m0 0 --N 7",
    "ht products --selfints 2,3 --mixed 3",
    "ht products --selfints 4,4 --mixed 4",
    "ht chain --Ln 4 --LH 6 --LnpHp 9 --n 2 --p 2",
    "ht diag --lambdas 1,1,1 --p 1",
]


def readme_commands() -> list[str]:
    """The ``posbounds ...`` lines of the README's ``## CLI`` code block."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [
        shlex.join(shlex.split(line, comments=True)[1:])
        for line in block.splitlines()
        if line.startswith("posbounds ")
    ]


def all_commands() -> list[str]:
    return readme_commands() + EXTRA_COMMANDS


def run(capsys, command: str) -> tuple[int, str, str]:
    code = main(shlex.split(command))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_readme_lists_cli_commands():
    assert len(readme_commands()) >= 10


@pytest.mark.parametrize("command", all_commands())
def test_cli_stdout_matches_golden(capsys, command):
    golden = json.loads(GOLDEN.read_text())
    assert command in golden, f"no golden output for {command!r}"
    code, out, _ = run(capsys, command)
    assert code == EXIT_OK
    assert out == golden[command]


def test_report_functions_print_the_golden_lines():
    golden = json.loads(GOLDEN.read_text())
    for command, report in [
        ("bounds siu --n 3 --jets 0,1,2", adjoint.siu_report(3, [0, 1, 2])),
        ("poly --coeffs 1,2,1 --window b --m0 0 --k 3",
         numpoly.poly_report([1, 2, 1], "b", 0, k=3)),
        ("ht products --selfints 2,3 --mixed 3", convexity.ht_products_report([2, 3], 3)),
    ]:
        assert json.dumps(report.to_json(), sort_keys=True) + "\n" == golden[command], command


@pytest.mark.parametrize(
    "command, env",
    [
        ("bounds reider --L2 10 --mode spanned --divisors 1-2", None),
        ("jets main --n 2 --sigma0 4 --beta 0,1 --min 1:3 --Ln 5", None),
        ("jets main --n 2 --sigma0 4 --beta 0,x --min 1=3 --Ln 5", None),
        ("bounds siu --n 2 --jets a", None),
        ("morse --n 2 --Fn 1/0 --FG 3", None),
        ("morse --n 2 --Fn 2 --FG 3", "abc"),
    ],
)
def test_malformed_input_is_a_usage_error(capsys, monkeypatch, command, env):
    if env is not None:
        monkeypatch.setenv("POSBOUNDS_TOL", env)
    code, out, err = run(capsys, command)
    assert code == EXIT_INPUT
    assert out == ""
    assert "Traceback" not in err


def decimal_root(r: Fraction, q: int, digits: int = 60) -> tuple[Fraction, Fraction]:
    """[t, t + 1] / 10^digits around r^(1/q), t found by integer bisection:
    a reference that shares neither the root code nor the grid of the CLI."""
    a = r.numerator * 10 ** (digits * q) // r.denominator
    lo, hi = 0, 1 << a.bit_length() // q + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**q <= a else (lo, mid)
    return Fraction(lo, 10**digits), Fraction(lo + 1, 10**digits)


def golden_details(command):
    return value_from_json(json.loads(json.loads(GOLDEN.read_text())[command]))


def test_golden_brackets_contain_brackets_at_tol_1e60():
    mu = golden_details("jets mu --n 3 --per-dim 1=3,2=9,3=20")["threshold"]
    lo, hi = decimal_root(Fraction(20), 3)  # 20^(1/3) < 9^(1/2) = 3^(1/1)
    assert mu.lo <= lo and hi <= mu.hi
    slack = golden_details("ht products --selfints 2,3 --mixed 3")["threshold"]
    lo, hi = decimal_root(Fraction(6), 2)  # slack = 3 - sqrt(2) sqrt(3)
    assert slack.lo <= 3 - hi and 3 - lo <= slack.hi


def test_golden_margins_sit_just_below_the_margins_at_tol_1e60():
    """jets main, n = 3, sigma0 = 8, a = 1, beta = (0, 1/27, 1), L^n = 64:
    sigma_p = 64 (1 - (7/8)^(p/3)), rhs_1 = 27 sigma_1 and rhs_2 = (sigma_2 +
    sigma_1/27) 27/26.  A margin minY - rhs.hi may not exceed minY minus the
    reference's upper end, and is at most 100 tol below it."""
    sigma_hi = {p: 64 * (1 - decimal_root(Fraction(7, 8) ** p, 3)[0]) for p in (1, 2)}
    rhs_hi = {1: 27 * sigma_hi[1], 2: (sigma_hi[2] + sigma_hi[1] / 27) * Fraction(27, 26)}
    tol = Fraction(1, 10**12)
    for command, minY in [
        ("jets main --n 3 --sigma0 8 --a 1 --beta 0,1/27,1 --min 1=300 --Ln 64", {1: 300}),
        ("jets main --n 3 --sigma0 8 --a 1 --beta 0,1/27,1 --min 1=300,2=300 --Ln 64",
         {1: 300, 2: 300}),
    ]:
        margins = golden_details(command)["details"]["margins"]
        for p, m in minY.items():
            reference = m - rhs_hi[p]
            assert reference - 100 * tol <= margins[str(p)] <= reference
