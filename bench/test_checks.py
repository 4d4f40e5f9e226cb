"""Tests of the benchmark's own checks and input generation.

Run from the repository root: ``python3 -m pytest -q bench``.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import checks  # noqa: E402
import cli_ops  # noqa: E402
import inputs  # noqa: E402
from posbounds import core, multiplier, numpoly  # noqa: E402


@pytest.mark.parametrize("alpha", [(4, 4), (Fraction(7, 2), Fraction(5, 3), 3), (2, 2, 2, 2)])
def test_dropped_minimal_generator_is_rejected(alpha):
    alpha = [Fraction(a) for a in alpha]
    gens = multiplier.monomial_multiplier_ideal(multiplier.MonomialWeightData.of(*alpha)).generators
    checks.check_multiplier(alpha, gens)
    for g in gens:
        with pytest.raises(checks.CheckFailed):
            checks.check_multiplier(alpha, gens - {g})


def test_non_minimal_generator_is_rejected():
    alpha = [Fraction(4), Fraction(4)]
    gens = multiplier.monomial_multiplier_ideal(multiplier.MonomialWeightData.of(*alpha)).generators
    g = max(gens)
    with pytest.raises(checks.CheckFailed):
        checks.check_multiplier(alpha, (gens - {g}) | {(g[0] + 1, g[1])})


@pytest.mark.parametrize("x, e, tol", [(2, Fraction(1, 7), 12), (Fraction(3, 5), Fraction(-2, 3), 300)])
def test_bracket_below_the_root_is_rejected(x, e, tol):
    x, t = Fraction(x), Fraction(1, 10**tol)
    b = core.pow_bracket(x, e, t)
    checks.check_pow_bracket(x, e, t, b)
    low = core.Bracket(b.lo - (b.hi - b.lo), b.lo)  # hi^q < x^p
    assert low.hi ** e.denominator < x ** e.numerator
    with pytest.raises(checks.CheckFailed):
        checks.check_pow_bracket(x, e, t, low)
    with pytest.raises(checks.CheckFailed):
        checks.check_pow_bracket(x, e, t, core.Bracket(b.lo, b.hi + t))  # wider than tol


def test_wrong_iroot_is_rejected():
    a = 10**600 + 12345
    r, exact = core.iroot(a, 7)
    checks.check_iroot(a, 7, (r, exact))
    for bad in ((r + 1, exact), (r - 1, exact), (r, not exact)):
        with pytest.raises(checks.CheckFailed):
            checks.check_iroot(a, 7, bad)


@pytest.mark.parametrize("window, coeffs, m0, N, k", [
    ("a", (0, 1), 0, 1000, None), ("a", (3, 0, 2), 2, 50, None), ("b", (1, 4, 0, 3), 1, None, 5),
    ("c", (0, 0, 1), 0, 40, None),
])
def test_window_one_too_large_is_rejected(window, coeffs, m0, N, k):
    P = numpoly.NumericalPolynomial(coeffs)
    fn = {"a": numpoly.window_a, "b": numpoly.window_b, "c": numpoly.window_c}[window]
    m = fn(P, m0, k if window == "b" else N)
    target, last = checks.window_spec(window, coeffs, m0, N, k)
    checks.check_window(coeffs, m0, target, last, m)
    if m > m0:
        with pytest.raises(checks.CheckFailed):
            checks.check_window(coeffs, m0, target, last, m + 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_window(coeffs, m0, target + 10**9, last, m)


def test_cli_report_with_wrong_threshold_is_rejected():
    op = inputs.Op("cli.matsusaka", {"n": 2, "Ln": "3", "LK": "1/2", "LB": "0", "policy": "1"})
    good = Fraction(4) * (Fraction(1, 2) + 12) ** 2 / 3
    report = {"schema": 1, "theorem": "matsusaka-main", "verdict": "anything", "inputs": {}, "details": {},
              "threshold": {"lo": {"num": good.numerator, "den": good.denominator},
                            "hi": {"num": good.numerator, "den": good.denominator}}}
    cli_ops.check(op, json.dumps(report))
    report["threshold"]["hi"] = {"num": good.numerator + 1, "den": good.denominator}
    with pytest.raises(checks.CheckFailed):
        cli_ops.check(op, json.dumps(report))


def test_flipped_verdict_is_rejected():
    args = dict(n=3, sigma0=Fraction(8), a=Fraction(1), betas=[Fraction(0), Fraction(1, 27), Fraction(1)],
                Ln=Fraction(64), tol=Fraction(1, 10**12), threshold=Fraction(8))
    checks.check_main_theorem(minY={1: 300, 2: 300}, verdict="satisfied", **args)
    with pytest.raises(checks.CheckFailed):
        checks.check_main_theorem(minY={1: 300, 2: 300}, verdict="unsatisfied", **args)
    with pytest.raises(checks.CheckFailed):
        checks.check_main_theorem(minY={1: 1, 2: 1}, verdict="satisfied", **args)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    def draw(seed):
        gen = inputs.passes(workload, seed)
        return json.dumps([[op.to_json() for op in next(gen)] for _ in range(3)], sort_keys=True).encode()

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_pass_has_the_same_mix(workload):
    gen = inputs.passes(workload, 3)
    mixes = [sorted((op.kind, op.scale or "") for op in next(gen)) for _ in range(4)]
    kinds = [[k for k, _ in mix] for mix in mixes]
    assert all(k == kinds[0] for k in kinds)


def test_benchmark_json_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
