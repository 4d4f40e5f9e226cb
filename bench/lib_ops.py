"""In-process operations: one public posbounds call per operation.

``KINDS[kind]`` holds ``(call, check)``.  ``call(args)`` is the timed call;
it looks functions up on their module at call time, so the tracer's
wrappers see it.  ``check(args, result)`` runs afterwards, untimed.
"""

from __future__ import annotations

import json
from fractions import Fraction as F

import checks
from posbounds import adjoint, convexity, core, jumping, lelong, matsusaka, multiplier, numpoly, projective, report

MODULES = (core, projective, multiplier, lelong, numpoly, convexity, adjoint, jumping, matsusaka, report)


def tol(args) -> F:
    return F(1, 10 ** args["tol"])


def encode(result, everything: bool) -> str | None:
    """Encode a BoundReport with ``to_json`` + ``json.dumps(sort_keys=True)``;
    with ``everything``, encode any other result through ``value_to_json``."""
    result = _report_of(result)
    if isinstance(result, report.BoundReport):
        return json.dumps(result.to_json(), sort_keys=True)
    if not everything:
        return None
    if isinstance(result, jumping.SigmaSequence):
        result = list(result.sigma_p)
    elif isinstance(result, convexity.InequalityResult):
        result = {"verdict": result.verdict.value, "slack": result.slack, "equality": result.equality}
    return json.dumps(report.value_to_json(result), sort_keys=True)


def _report_of(result):
    """The report of an operation that returns (profile, report)."""
    if isinstance(result, tuple) and isinstance(result[-1], report.BoundReport):
        return result[-1]
    return result


def check_encoded(result, text: str) -> None:
    result = _report_of(result)
    if isinstance(result, report.BoundReport):
        checks.check_report_text(text, result.theorem, result.verdict)
    else:
        json.loads(text)


# ---------------------------------------------------------------- calls

def _matsusaka(a):
    inputs = matsusaka.MatsusakaInputs.of(
        a["n"], F(a["Ln"]), F(a["LB"]), F(a["LK"]), int(a["policy"]) if a["policy"].isdigit() else a["policy"]
    )
    return matsusaka.matsusaka_main(inputs)


def _window(a):
    P = numpoly.NumericalPolynomial(tuple(a["coeffs"]))
    fn = {"a": numpoly.window_a, "b": numpoly.window_b, "c": numpoly.window_c}[a["window"]]
    return fn(P, a["m0"], a["k"] if a["window"] == "b" else a["N"])


def _main_theorem_fixture(a):
    space = projective.ProductSpace(tuple(a["dims"]))
    profile = projective.profile_from_fixture(space, projective.DivisorClass(space, tuple(a["coeffs"])))
    minY = {p: v for p, v in profile.per_dim_min.items() if p < profile.n}
    return profile, jumping.main_theorem_check(
        profile.n, F(a["sigma0"]), F(a["a"]), [F(b) for b in a["beta"]], minY, profile.Ln, tol(a)
    )


def _main_theorem(a):
    return jumping.main_theorem_check(
        a["n"], F(a["sigma0"]), F(a["a"]), [F(b) for b in a["beta"]],
        {int(p): v for p, v in a["minY"].items()}, F(a["Ln"]), tol(a),
    )


def _ht_brackets(a):
    sel = [core.Bracket(F(lo), F(hi)) for lo, hi in a["selfints"]]
    return convexity.ht_products(sel, F(a["mixed"]), tol(a))


def _lelong_at(a):
    T = lelong.DivisorCurrent.of(*((F(c), i, {"x": m}) for i, (c, m) in enumerate(a["components"])))
    return lelong.lelong_at(T, "x")


# ---------------------------------------------------------------- checks

def _check_matsusaka(a, r):
    checks.check_matsusaka(a["n"], F(a["Ln"]), F(a["LB"]), F(a["LK"]), a["policy"], r.threshold)


def _check_window(a, m):
    target, last = checks.window_spec(a["window"], a["coeffs"], a["m0"], a.get("N"), a.get("k"))
    checks.check_window(a["coeffs"], a["m0"], target, last, m)


def _check_main_theorem_fixture(a, r):
    profile, rep = r
    checks.check_profile(a["dims"], a["coeffs"], profile)
    minY = {p: v for p, v in profile.per_dim_min.items() if p < profile.n}
    checks.check_main_theorem(profile.n, F(a["sigma0"]), F(a["a"]), [F(b) for b in a["beta"]], minY,
                              F(profile.Ln), tol(a), rep.verdict, rep.threshold)


def _check_main_theorem(a, r):
    checks.check_main_theorem(a["n"], F(a["sigma0"]), F(a["a"]), [F(b) for b in a["beta"]],
                              {int(p): v for p, v in a["minY"].items()}, F(a["Ln"]), tol(a), r.verdict, r.threshold)


def _check_outcome(expected, r):
    outcome, matched = expected
    checks.require(r.outcome.value == outcome and [list(d) for d in r.matched] == matched, "exception check is wrong")


def _check_surface(a, r):
    p, verdict = checks.surface_expected(a["jets"], a["L2"], a["minLC"])
    checks.require(r.threshold == p and r.verdict == verdict, "surface criterion is wrong")


def _check_lelong_at(a, r):
    checks.require(r == sum(F(c) * m for c, m in a["components"]), "Lelong number is wrong")


def _check_seshadri(a, r):
    checks.require(r == min(F(d) / m for d, m in a["curves"]), "Seshadri upper bound is wrong")


KINDS = {
    "core.pow_bracket": (
        lambda a: core.pow_bracket(F(a["x"]), F(a["e"]), tol(a)),
        lambda a, r: checks.check_pow_bracket(F(a["x"]), F(a["e"]), tol(a), r),
    ),
    "core.nth_root_bracket": (
        lambda a: core.nth_root_bracket(F(a["r"]), a["q"], tol(a)),
        lambda a, r: checks.check_root_bracket(F(a["r"]), a["q"], tol(a), r),
    ),
    "core.iroot": (
        lambda a: core.iroot(int(a["a"], 16), a["q"]),
        lambda a, r: checks.check_iroot(int(a["a"], 16), a["q"], r),
    ),
    "matsusaka.main": (_matsusaka, _check_matsusaka),
    "multiplier.ideal": (
        lambda a: multiplier.monomial_multiplier_ideal(multiplier.MonomialWeightData.of(*map(F, a["alpha"]))),
        lambda a, r: checks.check_multiplier([F(x) for x in a["alpha"]], r.generators),
    ),
    "numpoly.window": (_window, _check_window),
    "jumping.cn_constant": (
        lambda a: jumping.cn_constant(a["n"], tol(a)),
        lambda a, r: checks.check_cn(a["n"], tol(a), r),
    ),
    "jumping.sigma_sequence": (
        lambda a: jumping.sigma_sequence(F(a["sigma0"]), F(a["Ln"]), a["n"], tol(a)),
        lambda a, r: checks.check_sigma(F(a["sigma0"]), F(a["Ln"]), a["n"], tol(a), r.sigma_p),
    ),
    "jumping.main_theorem_fixture": (_main_theorem_fixture, _check_main_theorem_fixture),
    "jumping.main_theorem_check": (_main_theorem, _check_main_theorem),
    "jumping.mu_invariant": (
        lambda a: jumping.mu_invariant({int(p): v for p, v in a["per_dim"].items()}, a["n"], tol(a)),
        lambda a, r: checks.check_mu({int(p): v for p, v in a["per_dim"].items()}, a["n"], tol(a), r),
    ),
    "convexity.ht_products_brackets": (
        _ht_brackets,
        lambda a, r: checks.check_ht_brackets([checks.Interval(F(lo), F(hi)) for lo, hi in a["selfints"]],
                                              F(a["mixed"]), r.verdict.value),
    ),
    "convexity.ht_products": (
        lambda a: convexity.ht_products([F(s) for s in a["selfints"]], F(a["mixed"])),
        lambda a, r: checks.check_ht_exact([F(s) for s in a["selfints"]], F(a["mixed"]), r.verdict.value, r.slack),
    ),
    "convexity.diag_form_check": (
        lambda a: convexity.diag_form_check([F(x) for x in a["lambdas"]], a["p"]),
        lambda a, r: checks.check_diag([F(x) for x in a["lambdas"]], a["p"], r.verdict.value, r.slack),
    ),
    "convexity.morse_existence_threshold": (
        lambda a: convexity.morse_existence_threshold(F(a["Fn"]), F(a["FG"]), a["n"]),
        lambda a, r: checks.require(r == checks.morse_expected(a["n"], F(a["Fn"]), F(a["FG"])), "Morse threshold is wrong"),
    ),
    "convexity.ht_mixed_chain": (
        lambda a: convexity.ht_mixed_chain(F(a["Ln"]), F(a["LH"]), F(a["LnpHp"]), a["n"], a["p"]),
        lambda a, r: checks.check_chain(F(a["Ln"]), F(a["LH"]), F(a["LnpHp"]), a["n"], a["p"], r.verdict.value, r.slack),
    ),
    "adjoint.siu_jet_threshold": (
        lambda a: adjoint.siu_jet_threshold(a["n"], adjoint.JetSpec(tuple(a["jets"]))),
        lambda a, r: checks.require(r == checks.siu_expected(a["n"], a["jets"]), "Siu threshold is wrong"),
    ),
    "adjoint.pluricanonical_bounds": (
        lambda a: adjoint.pluricanonical_bounds(a["n"], a["case"], a["Kn"]),
        lambda a, r: checks.require(tuple(r) == checks.pluri_expected(a["n"], a["case"], a["Kn"]), "pluricanonical bound is wrong"),
    ),
    "adjoint.surface_nadel_criterion": (
        lambda a: adjoint.surface_nadel_criterion(adjoint.JetSpec(tuple(a["jets"])), a["L2"], a["minLC"]),
        _check_surface,
    ),
    "adjoint.reider_check": (
        lambda a: adjoint.reider_check(a["L2"], a["mode"], [tuple(d) for d in a["divisors"]]),
        lambda a, r: _check_outcome(checks.reider_expected(a["L2"], a["mode"], a["divisors"]), r),
    ),
    "adjoint.bes_check": (
        lambda a: adjoint.bes_check(a["L2"], a["p"], [tuple(d) for d in a["divisors"]]),
        lambda a, r: _check_outcome(checks.bes_expected(a["L2"], a["p"], a["divisors"]), r),
    ),
    "lelong.lelong_numeric": (
        lambda a: lelong.lelong_numeric(lelong.ParamCurve(a["u"], a["v"]), [0.1, 0.01, 0.001]),
        lambda a, r: checks.check_lelong_numeric(a["u"], [0.1, 0.01, 0.001], r),
    ),
    "lelong.lelong_at": (_lelong_at, _check_lelong_at),
    "lelong.seshadri_upper": (
        lambda a: lelong.seshadri_upper(lelong.CurveData.of(*((F(d), m) for d, m in a["curves"]))),
        _check_seshadri,
    ),
}


def result_count(scale: str, result) -> int | None:
    """Exact counts taken from outputs of fixed-size operations."""
    if scale == "matsusaka.main_ms.n-6":
        return (-(-result.threshold.hi.numerator // result.threshold.hi.denominator)).bit_length()
    if scale == "core.pow_bracket_ms.tol-1000":
        return max(result.lo.denominator, result.hi.denominator).bit_length()
    return None
