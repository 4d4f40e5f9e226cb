"""One table per refusal rule, and one row per other refusal: every raise of
``InputError`` (or the CLI's ``_FlagError``) in ``src/`` is reached here.

Two rules in ``core`` refuse single numbers.  The integer rule,
``core.check_int``, refuses a value that is no int (a bool included) or lies
outside least..most.  Its table, ``INTEGER``, calls every function and record
that takes an integer parameter at least - 1, -1 and -10**5000, at most + 1 and
10**5000 where it has a most, and at three values that are no int (a float, a
bool and a Fraction), each with its whole message; AST walks fail when a
function that takes a dimension n, a jet order s, or an integer p, q, minY, N,
k, m0, mu, Kn, u or v has no entry.  The sign rule, ``core.check_at_least``,
refuses a rational below least, or at least when strict; its table,
``AT_LEAST``, calls each checked value at least - 1 and least - 1/2, and at
least when strict.  A hypothesis test draws each integer argument of the
integer table from ints, bools, floats, Fractions, strings, None and
+-10**5000: every call refuses or returns what the equal int returns.

Every other raise statement has one row in ``ROWS``, with the start of its
message.  The structural tests fail when a raise site has no row, and when a
row reaches another site than the one it names.

The printed-integer budget, ``core.PRINTED_BITS``, refuses through the integer
rule; ``BUDGET`` has a row for each check of it, and a structural test fails
when a function that names the budget has no row.
"""

import ast
import builtins
import importlib
import math
import os
from fractions import Fraction as F
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from posbounds import (
    adjoint, cli, convexity, core, jumping, lelong, matsusaka, multiplier, numpoly, projective,
    report,
)
from posbounds.core import InputError
from test_cli import raise_sites

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posbounds"
FAMILIES = ("adjoint", "convexity", "jumping", "lelong", "matsusaka", "multiplier", "numpoly",
            "projective")
TOL = F(1, 10**12)
P1, P2 = projective.ProductSpace((1,)), projective.ProductSpace((2,))
JET = adjoint.JetSpec((1,))
CONSTANT, LINEAR = numpoly.NumericalPolynomial((1,)), numpoly.NumericalPolynomial((0, 1))
FIELDS = {"schema": 1, "theorem": "x", "inputs": {}, "threshold": None, "verdict": "v",
          "details": {}}
LONG = 10**5000  # past the interpreter's limit of 4,300 digits for int-to-str


# (module, function, message prefix, call): each raise statement but the rules' calls
ROWS = [
    ("adjoint", "JetSpec._check", "jets must list at least one jet order",
     lambda: adjoint.JetSpec(())),
    ("adjoint", "pluricanonical_bounds", "unknown case 'k3'",
     lambda: adjoint.pluricanonical_bounds(2, "k3")),
    ("adjoint", "reider_check", "unknown mode 'x'", lambda: adjoint.reider_check(10, "x")),
    ("cli", "parse_q", "not a rational number: 'x'", lambda: cli.parse_q("x")),
    ("cli", "parse_int_map", "key 1 is given more than once",
     lambda: cli.parse_int_map("1=2,1=3")),
    ("convexity", "ht_products", "selfints must list at least one self-intersection",
     lambda: convexity.ht_products([], 1)),
    ("convexity", "diag_form_check", "lambdas must list at least one eigenvalue",
     lambda: convexity.diag_form_check([], 0)),
    ("convexity", "morse_strong_rhs", "mixed product F^1.G^1 not supplied",
     lambda: convexity.morse_strong_rhs(2, {0: 1}, 1)),
    ("core", "check_int", "n must be >= 1, got 0", lambda: core.check_int("n", 0, 1)),
    ("core", "check_at_least", "a must be >= 0", lambda: core.check_at_least("a", -1, 0)),
    ("core", "iroot", "iroot of negative integer", lambda: core.iroot(-1, 2)),
    ("core", "iroot", "root index must be >= 1", lambda: core.iroot(4, 0)),
    ("core", "pow_bracket", "0 cannot be raised to a negative power",
     lambda: core.pow_bracket(0, -1, TOL)),
    ("jumping", "sigma_sequence", "need 0 < sigma0 < L^n",
     lambda: jumping.sigma_sequence(2, 1, 2)),
    ("jumping", "sigma_sequence", "sigma needs",  # past the cap, as in test_cli
     lambda: jumping.sigma_sequence(1, 1 << jumping._SIGMA_CAP + 35, 2)),
    ("jumping", "recursion_bound", "b_prefix must be nondecreasing and start at 0",
     lambda: jumping.recursion_bound(2, 1, 0, [1], 1, 4)),
    ("jumping", "recursion_bound", "b_prefix needs sigma_2, beyond the sigma sequence for n = 2",
     lambda: jumping.recursion_bound(2, 1, 0, [0, 1], 1, 4)),
    ("jumping", "recursion_bound", "need 0 < sigma0 < L^n",
     lambda: jumping.recursion_bound(2, 0, 0, [0], 1, 4)),
    ("jumping", "main_theorem_check", "beta must satisfy 0 = beta_1 < ... < beta_n <= 1",
     lambda: jumping.main_theorem_check(2, 1, 0, [0], {}, 4)),
    ("jumping", "lemma1115_threshold", "the special threshold applies only to s = 1",
     lambda: jumping.lemma1115_threshold(2, 2, special=True)),
    ("jumping", "mu_invariant", "missing per-dimension minima for 1 of p = 1..2, the first p = 2",
     lambda: jumping.mu_invariant({1: 1}, 2)),
    ("lelong", "ord_at_origin", "zero polynomial has no vanishing order",
     lambda: lelong.ord_at_origin({(1, 0): 0})),
    ("lelong", "ParamCurve._check", "exponents must be coprime", lambda: lelong.ParamCurve(2, 4)),
    ("lelong", "lelong_numeric", "need at least one radius",
     lambda: lelong.lelong_numeric(lelong.ParamCurve(1, 2), [])),
    ("lelong", "lelong_numeric", "radii must lie in (0, 1]",
     lambda: lelong.lelong_numeric(lelong.ParamCurve(1, 2), [2])),
    ("lelong", "lelong_numeric", "radii must be strictly decreasing",
     lambda: lelong.lelong_numeric(lelong.ParamCurve(1, 2), [F(1, 2), F(1, 2)])),
    ("lelong", "seshadri_upper", "need at least one curve",
     lambda: lelong.seshadri_upper(lelong.CurveData(()))),
    ("matsusaka", "lambda_n", "unknown lambda policy 'x'", lambda: matsusaka.lambda_n(2, "x")),
    ("matsusaka", "m0_assembly", "need at least one mbar value",
     lambda: matsusaka.m0_assembly([], 1)),
    ("multiplier", "MonomialWeightData._check", "alpha must list at least one weight exponent",
     lambda: multiplier.MonomialWeightData.of()),
    ("numpoly", "NumericalPolynomial._check", "leading binomial-basis coefficient must be nonzero",
     lambda: numpoly.NumericalPolynomial(())),
    ("numpoly", "poly_report", "window a needs --N", lambda: numpoly.poly_report([1], "a", 0)),
    ("numpoly", "_first_reaching", "no m in [0, 0] with P(m) >= 6",
     lambda: numpoly.window_b(numpoly.NumericalPolynomial((3,)), 0, 2)),
    ("projective", "ProductSpace._check", "factor_dims must list at least one dimension",
     lambda: projective.ProductSpace(())),
    ("projective", "DivisorClass._check", "coefficient count must match the number of factors",
     lambda: projective.DivisorClass(P1, (1, 2))),
    ("projective", "DivisorClass.__add__", "divisor classes live on different spaces",
     lambda: projective.DivisorClass(P1, (1,)) + projective.DivisorClass(P2, (1,))),
    ("projective", "top_intersection", "need at least one class",
     lambda: projective.top_intersection([])),
    ("projective", "top_intersection", "all classes must live on the same space",
     lambda: projective.top_intersection(
         [projective.DivisorClass(P2, (1,)), projective.DivisorClass(P1, (1,))])),
    ("projective", "top_intersection", "need exactly n=2 classes, got 1",
     lambda: projective.top_intersection([projective.DivisorClass(P2, (1,))])),
    ("projective", "strata_minima", "class does not live on the given space",
     lambda: projective.strata_minima(P1, projective.DivisorClass(P2, (1,)))),
    ("report", "value_from_json", "malformed rational",
     lambda: report.value_from_json({"num": 1, "den": 0})),
    ("report", "value_from_json", "malformed bracket",
     lambda: report.value_from_json({"lo": 2, "hi": 1})),
    ("report", "value_from_json", "float 1.5 in report",
     lambda: report.value_from_json(1.5)),
    ("report", "BoundReport.from_json", "unknown report fields: [], missing: ['details']",
     lambda: report.BoundReport.from_json({k: v for k, v in FIELDS.items() if k != "details"})),
    ("report", "BoundReport.from_json", "unsupported schema version 2",
     lambda: report.BoundReport.from_json({**FIELDS, "schema": 2})),
    ("report", "BoundReport.from_json", "report inputs and details must be JSON objects",
     lambda: report.BoundReport.from_json({**FIELDS, "details": 5})),
]

# {(module, function or record): (least, call of n)}, each call valid for n >= least
DIMENSION = {
    ("adjoint", "siu_jet_threshold"): (1, lambda n: adjoint.siu_jet_threshold(n, JET)),
    ("adjoint", "siu_report"): (1, lambda n: adjoint.siu_report(n, [1])),
    ("adjoint", "siu_degree_conditions"): (1, lambda n: adjoint.siu_degree_conditions(n, JET)),
    ("adjoint", "theorem87_conditions"): (1, lambda n: adjoint.theorem87_conditions(n, JET)),
    ("adjoint", "lemma86_transfer"): (1, lambda n: adjoint.lemma86_transfer(1, n, 1)),
    ("adjoint", "pluricanonical_bounds"): (1, lambda n: adjoint.pluricanonical_bounds(n, "fano")),
    ("adjoint", "pluri_report"): (1, lambda n: adjoint.pluri_report(n, "fano")),
    ("convexity", "ht_mixed_chain"): (1, lambda n: convexity.ht_mixed_chain(1, 1, 1, n, 1)),
    ("convexity", "ht_chain_report"): (1, lambda n: convexity.ht_chain_report(1, 1, 1, n, 1)),
    ("convexity", "morse_strong_rhs"): (1, lambda n: convexity.morse_strong_rhs(n, {0: 1}, 0)),
    ("convexity", "morse_existence_threshold"):
        (1, lambda n: convexity.morse_existence_threshold(1, 1, n)),
    ("convexity", "trapani_lower"): (1, lambda n: convexity.trapani_lower(2, 1, n)),
    ("convexity", "morse_report"): (1, lambda n: convexity.morse_report(n, 1, 1)),
    ("convexity", "singular_morse_Aq"): (1, lambda n: convexity.singular_morse_Aq(n, 0, 1, 1)),
    ("jumping", "sigma0_for"): (1, lambda n: jumping.sigma0_for(JET, n)),
    ("jumping", "sigma_sequence"): (1, lambda n: jumping.sigma_sequence(1, 2, n)),
    ("jumping", "recursion_bound"): (1, lambda n: jumping.recursion_bound(n, 1, 0, [0], 1, 4)),
    ("jumping", "main_theorem_check"):
        (1, lambda n: jumping.main_theorem_check(n, 1, 0, [0], {}, 4)),
    ("jumping", "lemma1111_check"): (1, lambda n: jumping.lemma1111_check([1], n)),
    ("jumping", "beta_schedule"): (2, jumping.beta_schedule),
    ("jumping", "cn_constant"): (2, jumping.cn_constant),
    ("jumping", "lemma1115_threshold"): (1, lambda n: jumping.lemma1115_threshold(n, 1)),
    ("jumping", "theorem1117_threshold"): (1, lambda n: jumping.theorem1117_threshold(n, 1, 1)),
    ("jumping", "remark1120_threshold"): (2, lambda n: jumping.remark1120_threshold(n, 1)),
    ("jumping", "mu_invariant"): (1, lambda n: jumping.mu_invariant({1: 1}, n)),
    ("jumping", "mu_report"): (1, lambda n: jumping.mu_report(n, {1: 1})),
    ("lelong", "seshadri_thresholds"): (1, lambda n: lelong.seshadri_thresholds(1, n, 1)),
    ("matsusaka", "prop131_window"): (1, lambda n: matsusaka.prop131_window(n, 1, 1)),
    ("matsusaka", "cor132_window"): (1, lambda n: matsusaka.cor132_window(n, 1, 1, 1)),
    ("matsusaka", "corollary85_threshold"): (1, matsusaka.corollary85_threshold),
    ("matsusaka", "lambda_n"): (2, lambda n: matsusaka.lambda_n(n, "angehrn-siu")),
    ("matsusaka", "MatsusakaInputs._check"):
        (2, lambda n: matsusaka.MatsusakaInputs.of(n, 1, 0, 0)),
    ("matsusaka", "matsusaka_report"): (2, lambda n: matsusaka.matsusaka_report(n, 1, 0)),
    ("matsusaka", "mbar_recursion"): (1, lambda n: matsusaka.mbar_recursion(n, 1, 1, 1)),
    ("multiplier", "skoda_classify"): (1, lambda n: multiplier.skoda_classify(2, n)),
    ("projective", "IntersectionProfile._check"):
        (1, lambda n: projective.IntersectionProfile(n, 1, 1, {})),
}
# {(module, function or record): (least, call of s)}, each call valid for s >= least;
# bes_check's p is the Beltrametti-Sommese jet order
JET_ORDER = {
    ("adjoint", "JetSpec._check"): (0, lambda s: adjoint.JetSpec((1, s))),
    ("adjoint", "siu_report"): (0, lambda s: adjoint.siu_report(2, [s])),
    ("adjoint", "lemma86_transfer"): (0, lambda s: adjoint.lemma86_transfer(1, 2, s)),
    ("adjoint", "bes_check"): (1, lambda p: adjoint.bes_check(10, p)),
    ("adjoint", "bes_report"): (1, lambda p: adjoint.bes_report(10, p)),
    ("adjoint", "surface_report"): (0, lambda s: adjoint.surface_report([s], 10, 10)),
    ("jumping", "lemma1115_threshold"): (1, lambda s: jumping.lemma1115_threshold(2, s)),
    ("jumping", "theorem1117_threshold"): (1, lambda s: jumping.theorem1117_threshold(2, s, 1)),
    ("jumping", "remark1120_threshold"): (0, lambda s: jumping.remark1120_threshold(2, s)),
    ("jumping", "corollary118_table"): (0, jumping.corollary118_table),
    ("jumping", "surface_table_report"): (0, jumping.surface_table_report),
    ("jumping", "lemma1116_consistency"): (0, lambda s: jumping.lemma1116_consistency(s, {})),
    ("lelong", "seshadri_thresholds"): (0, lambda s: lelong.seshadri_thresholds(1, 2, s)),
}
# {(module, function or record, noun): (least, most, call of x)}: the integers other than
# n and s, each call valid for least <= x <= most (None: no bound)
OTHER_INTEGERS = {
    ("adjoint", "lemma86_transfer", "mu"): (1, None, lambda mu: adjoint.lemma86_transfer(mu, 2, 1)),
    ("adjoint", "pluricanonical_bounds", "|K^n|"):
        (1, None, lambda k: adjoint.pluricanonical_bounds(2, "fano", k)),
    ("adjoint", "pluri_report", "|K^n|"): (1, None, lambda k: adjoint.pluri_report(2, "fano", k)),
    ("convexity", "ht_mixed_chain", "p"): (1, 2, lambda p: convexity.ht_mixed_chain(1, 1, 1, 2, p)),
    ("convexity", "ht_chain_report", "p"):
        (1, 2, lambda p: convexity.ht_chain_report(1, 1, 1, 2, p)),
    ("convexity", "diag_form_check", "p"): (0, 1, lambda p: convexity.diag_form_check([1], p)),
    ("convexity", "ht_diag_report", "p"): (0, 1, lambda p: convexity.ht_diag_report([1], p)),
    ("convexity", "morse_strong_rhs", "q"):
        (0, 2, lambda q: convexity.morse_strong_rhs(2, dict.fromkeys(range(3), 1), q)),
    ("convexity", "singular_morse_Aq", "q"):
        (0, 2, lambda q: convexity.singular_morse_Aq(2, q, 1, 1)),
    ("jumping", "recursion_bound", "minY"):
        (1, None, lambda v: jumping.recursion_bound(2, 1, 0, [0], v, 4)),
    ("jumping", "main_theorem_check", "minY key"):
        (1, 1, lambda p: jumping.main_theorem_check(2, 1, 0, [0, 1], {p: 1}, 4)),
    ("jumping", "main_theorem_check", "minY"):
        (1, None, lambda v: jumping.main_theorem_check(2, 1, 0, [0, 1], {1: v}, 4)),
    ("jumping", "mu_invariant", "per-dim key"): (1, 1, lambda p: jumping.mu_invariant({p: 1}, 1)),
    ("jumping", "mu_invariant", "per-dim minimum"):
        (1, None, lambda v: jumping.mu_invariant({1: v}, 1)),
    ("jumping", "lemma1116_consistency", "per-dim key"):
        (1, None, lambda p: jumping.lemma1116_consistency(1, {p: 1})),
    ("jumping", "lemma1116_consistency", "per-dim minimum"):
        (0, None, lambda v: jumping.lemma1116_consistency(1, {1: v})),
    ("lelong", "Component._check", "multiplicity"):
        (0, None, lambda m: lelong.Component(F(1), "D", {"x": m})),
    ("lelong", "ParamCurve._check", "u"): (1, None, lambda u: lelong.ParamCurve(u, 3)),
    ("lelong", "ParamCurve._check", "v"): (2, None, lambda v: lelong.ParamCurve(2, v)),
    ("lelong", "lelong_report", "u"): (1, None, lambda u: lelong.lelong_report(u, 3, [F(1, 2)])),
    ("lelong", "lelong_report", "v"): (2, None, lambda v: lelong.lelong_report(2, v, [F(1, 2)])),
    ("lelong", "CurveData._check", "curve multiplicity"):
        (1, None, lambda m: lelong.CurveData(((F(1), m),))),
    ("matsusaka", "lambda_n", "explicit lambda"): (1, None, lambda x: matsusaka.lambda_n(2, x)),
    ("matsusaka", "matsusaka_report", "explicit lambda"):
        (1, None, lambda x: matsusaka.matsusaka_report(2, 1, 0, 0, x)),
    ("numpoly", "window_a", "m0"): (None, None, lambda m0: numpoly.window_a(CONSTANT, m0, 1)),
    ("numpoly", "window_a", "N"): (0, None, lambda N: numpoly.window_a(CONSTANT, 0, N)),
    ("numpoly", "window_b", "m0"): (None, None, lambda m0: numpoly.window_b(CONSTANT, m0, 1)),
    ("numpoly", "window_b", "k"): (1, None, lambda k: numpoly.window_b(CONSTANT, 0, k)),
    ("numpoly", "window_c", "m0"): (None, None, lambda m0: numpoly.window_c(LINEAR, m0, 2)),
    ("numpoly", "window_c", "N"): (2, None, lambda N: numpoly.window_c(LINEAR, 0, N)),  # 2d^2
    ("numpoly", "poly_report", "m0"): (None, None, lambda m0: numpoly.poly_report([1], "a", m0, 1)),
    ("numpoly", "poly_report", "N"): (0, None, lambda N: numpoly.poly_report([1], "a", 0, N)),
    ("numpoly", "poly_report", "k"): (1, None, lambda k: numpoly.poly_report([1], "b", 0, k=k)),
    ("projective", "ProductSpace._check", "factor dimension"):
        (1, None, lambda k: projective.ProductSpace((k,))),
    ("projective", "IntersectionProfile._check", "per-dim key"):
        (1, 2, lambda p: projective.IntersectionProfile(2, 1, 1, {p: 1})),
    ("projective", "IntersectionProfile._check", "per-dim minimum"):
        (0, None, lambda v: projective.IntersectionProfile(2, 1, 1, {1: v})),
}
# the integer rule's table, core.check_int
INTEGER = {
    **{(module, function, "n"): (least, None, call)
       for (module, function), (least, call) in DIMENSION.items()},
    **{(module, function, "jet order"): (least, None, call)
       for (module, function), (least, call) in JET_ORDER.items()},
    **OTHER_INTEGERS,
}


def _tol_from_the_environment(x):
    with mock.patch.dict(os.environ, {"POSBOUNDS_TOL": str(x)}):
        return cli.default_tol()


# the sign rule's table, core.check_at_least: {(module, function or record, noun):
# (least, strict, call of x)}, each call valid for x >= least, or x > least when strict
AT_LEAST = {
    ("cli", "default_tol", "POSBOUNDS_TOL"): (0, True, _tol_from_the_environment),
    ("convexity", "ht_products", "nef self-intersection"):
        (0, False, lambda x: convexity.ht_products([x], 1)),
    ("convexity", "ht_mixed_chain", "L^n"):
        (0, False, lambda x: convexity.ht_mixed_chain(x, 1, 1, 2, 1)),
    ("convexity", "ht_mixed_chain", "L^(n-1).H"):
        (0, False, lambda x: convexity.ht_mixed_chain(1, x, 1, 2, 1)),
    ("convexity", "ht_mixed_chain", "L^(n-p).H^p"):
        (0, False, lambda x: convexity.ht_mixed_chain(1, 1, x, 2, 1)),
    ("convexity", "diag_form_check", "eigenvalue"):
        (0, True, lambda x: convexity.diag_form_check([x], 0)),
    ("convexity", "morse_existence_threshold", "F^n"):
        (0, True, lambda x: convexity.morse_existence_threshold(x, 1, 2)),
    ("convexity", "morse_existence_threshold", "F^(n-1).G"):
        (0, False, lambda x: convexity.morse_existence_threshold(1, x, 2)),
    ("convexity", "singular_morse_Aq", "jumping value"):
        (0, False, lambda x: convexity.singular_morse_Aq(2, 1, x, 1)),
    ("core", "check_tol", "tolerance"): (0, True, core.check_tol),
    ("core", "nth_root_bracket", "nth root base"):
        (0, False, lambda x: core.nth_root_bracket(x, 2, TOL)),
    ("core", "pow_bracket", "pow_bracket base"): (0, False, lambda x: core.pow_bracket(x, 2, TOL)),
    ("jumping", "recursion_bound", "a"):
        (0, False, lambda x: jumping.recursion_bound(2, 1, x, [0], 1, 4)),
    ("jumping", "main_theorem_check", "a"):
        (0, False, lambda x: jumping.main_theorem_check(2, 1, x, [0, 1], {}, 4)),
    ("jumping", "lemma1111_check", "t_j"): (1, False, lambda x: jumping.lemma1111_check([x], 2)),
    ("jumping", "theorem1117_threshold", "mu(L)"):
        (0, True, lambda x: jumping.theorem1117_threshold(2, 1, x)),
    ("lelong", "Component._check", "component coefficient"):
        (0, True, lambda x: lelong.Component(x, "D", {})),
    ("lelong", "upperlevel_set", "level"):
        (0, True, lambda x: lelong.upperlevel_set(lelong.DivisorCurrent(()), x)),
    ("lelong", "CurveData._check", "nef degree"): (0, False, lambda x: lelong.CurveData(((x, 1),))),
    ("lelong", "seshadri_thresholds", "Seshadri lower bound"):
        (0, False, lambda x: lelong.seshadri_thresholds(x, 2, 1)),
    ("matsusaka", "prop131_window", "L^n"): (1, False, lambda x: matsusaka.prop131_window(2, 0, x)),
    ("matsusaka", "cor132_window", "L^n"):
        (1, False, lambda x: matsusaka.cor132_window(2, 0, 0, x)),
    ("matsusaka", "MatsusakaInputs._check", "L^n"):
        (1, False, lambda x: matsusaka.MatsusakaInputs.of(2, x, 0, 0)),
    ("matsusaka", "fdb_surface_bound", "L^n"):
        (1, False, lambda x: matsusaka.fdb_surface_bound(x, 1)),
    ("matsusaka", "prop131_window", "L^(n-1).B"):
        (0, False, lambda x: matsusaka.prop131_window(2, x, 1)),
    ("matsusaka", "MatsusakaInputs._check", "L^(n-1).B"):
        (0, False, lambda x: matsusaka.MatsusakaInputs.of(2, 1, x, 0)),
    # L.H = lambda (L.K + (n + 2) L^n) = L.K + 4 at n = 2, L^n = 1 and lambda = 1
    ("matsusaka", "matsusaka_main", "L^(n-1).H"): (0, False, lambda x: matsusaka.matsusaka_main(
        matsusaka.MatsusakaInputs.of(2, 1, 0, x - 4, 1))),
    ("matsusaka", "mbar_recursion", "M"): (0, True, lambda x: matsusaka.mbar_recursion(2, x, 1, 1)),
    ("matsusaka", "mbar_recursion", "LH"):
        (0, True, lambda x: matsusaka.mbar_recursion(2, 1, x, 1)),
    ("matsusaka", "mbar_recursion", "L^n"):
        (0, True, lambda x: matsusaka.mbar_recursion(2, 1, 1, x)),
    ("multiplier", "MonomialWeightData._check", "weight exponent"):
        (0, True, lambda x: multiplier.MonomialWeightData.of(x)),
    ("multiplier", "membership_criterion", "weight exponent"):
        (0, True, lambda x: multiplier.membership_criterion([F(x)], [0])),  # ZeroDivisionError once
    ("multiplier", "snc_round_down", "divisor coefficient"):
        (0, False, lambda x: multiplier.snc_round_down([x])),
    ("multiplier", "skoda_classify", "Lelong number"):
        (0, False, lambda x: multiplier.skoda_classify(x, 2)),
}

NON_INTEGERS = (1.5, True, F(3, 2))  # values of other types than int, refused whatever their size


def _shown(x):
    """How a refusal shows x: a long int by its type and bit length."""
    return f"<int of {LONG.bit_length()} bits>" if x in (LONG, -LONG) else repr(x)


def _integer_rows():
    """Each entry of INTEGER called outside least..most and at each of NON_INTEGERS,
    with the whole message."""
    rows = []
    for (module, function, noun), (least, most, call) in INTEGER.items():
        bound = "" if least is None else f" >= {least}" if most is None else f" in {least}..{most}"
        outside = [] if least is None else [least - 1, -1, -LONG]
        outside += [] if most is None else [most + 1, LONG]
        for x in (*dict.fromkeys(outside), *NON_INTEGERS):  # every least is at least 0
            kind = "" if type(x) is int else " an integer"
            rows.append((module, function, f"{noun} must be{kind}{bound}, got {_shown(x)}",
                         partial(call, x)))
    return rows


def _at_least_rows():
    """Each entry of AT_LEAST called at least - 1 and least - 1/2, and at least when
    strict, with the whole message."""
    return [(module, function, f"{noun} must be {'>' if strict else '>='} {least}",
             partial(call, x))
            for (module, function, noun), (least, strict, call) in AT_LEAST.items()
            for x in (least - 1, least - F(1, 2), *[least] * strict)]


# each rule's rows, by the core function that holds its raise statement
RULES = {"check_int": _integer_rows(), "check_at_least": _at_least_rows()}
RULE_ROWS = [(*row, rule) for rule, rows in RULES.items() for row in rows]


def _raised_at(exc):
    """(module, function name, line) of the raise that threw exc."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    return Path(code.co_filename).stem, code.co_name, tb.tb_lineno


def _refuse(call):
    with pytest.raises(InputError) as info:
        call()
    return info.value


@pytest.mark.parametrize("module, function, prefix, call", ROWS,
                         ids=[f"{m}.{f}: {p}" for m, f, p, _ in ROWS])
def test_refusal(module, function, prefix, call):
    exc = _refuse(call)
    assert str(exc).startswith(prefix)
    assert _raised_at(exc)[:2] == (module, function.rpartition(".")[2])


@pytest.mark.parametrize("message, call, rule", [row[2:] for row in RULE_ROWS],
                         ids=[f"{m}.{f}: {message}" for m, f, message, *_ in RULE_ROWS])
def test_rule_refusal(message, call, rule):
    exc = _refuse(call)
    assert str(exc) == message and _raised_at(exc)[:2] == ("core", rule)


def _takers(modules, names):
    """(module, function) of each public function with a parameter in names, and
    (module, record._check) of each record with a field in names."""
    found = set()
    for module in modules:
        loaded = importlib.import_module(f"posbounds.{module}")
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if names & {arg.arg for arg in node.args.args + node.args.kwonlyargs}:
                    found.add((module, node.name))
            elif isinstance(node, ast.ClassDef) and names & set(
                    getattr(getattr(loaded, node.name), "__slots__", ())):
                found.add((module, f"{node.name}._check"))
    return found


# {noun: the names of the parameters and record fields that carry it}
PARAMETERS = {"n": {"n"}, "jet order": {"s", "s_j"}, "p": {"p"}, "q": {"q"}, "minY": {"minY"},
              "N": {"N"}, "k": {"k"}, "m0": {"m0"}, "mu": {"mu"}, "|K^n|": {"Kn", "Kn_abs"},
              "u": {"u"}, "v": {"v"}}
# takers whose parameter of that name is another quantity: the Beltrametti-Sommese p
# is a jet order (in JET_ORDER), and SigmaSequence's k is the grid of a result
OTHER_MEANING = {("adjoint", "bes_check", "p"), ("adjoint", "bes_report", "p"),
                 ("jumping", "SigmaSequence._check", "k")}


@pytest.mark.parametrize("noun", PARAMETERS)
def test_every_function_that_takes_an_integer_has_an_entry(noun):
    takers = {(module, function, noun)
              for module, function in _takers(FAMILIES, PARAMETERS[noun])} - OTHER_MEANING
    entries = {key for key in INTEGER if key[2] == noun}
    assert sorted(takers - entries) == []
    if noun != "jet order":  # whose entries also reach it through JetSpec, jets and bes p
        assert sorted(entries - takers) == []


def _is_refusal(module, cls):
    found = getattr(importlib.import_module(f"posbounds.{module}"), cls, None)
    return issubclass(found or getattr(builtins, cls), InputError)


def test_every_function_that_refuses_has_a_row():
    sites = {(module, function)
             for path in sorted(PACKAGE.glob("*.py"))
             for module, function, cls in raise_sites(path) if _is_refusal(module, cls)}
    assert sorted(sites - {row[:2] for row in ROWS}) == []
    assert sorted({row[:2] for row in ROWS} - sites) == []


def test_every_refusal_statement_is_reached_by_a_row():
    statements = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if _is_refusal(path.stem, exc.id):
                    statements.add((path.stem, node.lineno))
    reached = [_raised_at(_refuse(call)) for *_, call in ROWS]
    assert sorted(statements - {(m, line) for m, _, line in reached}) == []
    assert len(reached) == len(statements)  # one row per raise statement


# entries whose parameter is optional, None its default: no s-jet row, no |K^n|
OPTIONAL = {("jumping", "corollary118_table", "jet order"),
            ("jumping", "surface_table_report", "jet order"),
            ("adjoint", "pluricanonical_bounds", "|K^n|"), ("adjoint", "pluri_report", "|K^n|")}


def _drawn(key):
    """Integer arguments of every type: small ints, bools, floats, Fractions, strings,
    None where it is no default, and +-10**5000 where the entry refuses it (a valid
    long value is work that no cap bounds yet, ROADMAP D4)."""
    least, most, _ = INTEGER[key]
    drawn = [st.integers(-3, 3), st.booleans(), st.floats(), st.fractions(),
             st.sampled_from(["", "1", "2.0", "x"])]
    drawn += [] if key in OPTIONAL else [st.none()]
    drawn += [st.just(x) for x, bound in ((-LONG, least), (LONG, most)) if bound is not None]
    return st.one_of(drawn)


@pytest.mark.parametrize("key", INTEGER, ids=[" ".join(key) for key in INTEGER])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_an_integer_argument_is_refused_or_acts_as_the_equal_int(key, data):
    x = data.draw(_drawn(key))
    call = INTEGER[key][2]
    try:
        got = call(x)
    except InputError:
        return
    if type(x) is not int:
        equal = isinstance(x, (float, F)) and math.isfinite(x) and x == int(x)
        assert equal and got == call(int(x)), (x, got)


# long values in the messages of statements other than the rules', which once
# raised ValueError (int-to-str digit limit) while building the message
LONG_VALUES = {
    "morse_strong_rhs(10**5000, {}, 0)": (lambda: convexity.morse_strong_rhs(LONG, {}, 0),
                                          f"mixed product F^{_shown(LONG)}.G^0 not supplied"),
    "window_a((-1,), 10**5000, 3)":
        (lambda: numpoly.window_a(numpoly.NumericalPolynomial((-1,)), LONG, 3),
         f"no m in [{_shown(LONG)}, {_shown(LONG)}] with P(m) >= 3"),
    "value_from_json({'num': 10**5000, 'den': 0})":
        (lambda: report.value_from_json({"num": LONG, "den": 0}),
         f"malformed rational {{'num': {_shown(LONG)}, 'den': 0}}"),
    "value_from_json({'lo': 10**5000, 'hi': [1]})":
        (lambda: report.value_from_json({"lo": LONG, "hi": [1]}),
         f"malformed bracket {{'lo': {_shown(LONG)}, 'hi': [1]}}"),
    "from_json with schema 10**5000": (lambda: report.BoundReport.from_json({**FIELDS, "schema": LONG}),
                                       f"unsupported schema version {_shown(LONG)}"),
    "pluricanonical_bounds(2, 10**5000)": (lambda: adjoint.pluricanonical_bounds(2, LONG),
                                           f"unknown case {_shown(LONG)}"),
    "reider_check(10, 10**5000)": (lambda: adjoint.reider_check(10, LONG),
                                   f"unknown mode {_shown(LONG)}"),
}


@pytest.mark.parametrize("call, message", LONG_VALUES.values(), ids=LONG_VALUES)
def test_a_long_value_is_shown_by_its_bit_length(call, message):
    assert str(_refuse(call)) == message


# each once raised ZeroDivisionError, except where noted
NEGATIVE_N = {
    "lemma1115(-1, 1)": lambda: jumping.lemma1115_threshold(-1, 1),
    "lemma1115(-2, 1)": lambda: jumping.lemma1115_threshold(-2, 1),  # returned 3.0
    "lemma1115(-1, 1, special)":  # returned -6.0
        lambda: jumping.lemma1115_threshold(-1, 1, special=True),
    "theorem1117(-2, 2, 1)": lambda: jumping.theorem1117_threshold(-2, 2, 1, special=False),
    "sigma0_for(-1)": lambda: jumping.sigma0_for(JET, -1),
    "lemma1111([1, 2], -1)": lambda: jumping.lemma1111_check([1, 2], -1),
    "lambda_n(-1)": lambda: matsusaka.lambda_n(-1, "demailly"),  # math.comb's ValueError
}


@pytest.mark.parametrize("call", NEGATIVE_N.values(), ids=NEGATIVE_N)
def test_paper_thresholds_refuse_n_below_1(call):
    assert str(_refuse(call)).startswith("n must be >= 1, got -")


# each returned an answer (the value noted) before the dimension rule reached it
ANSWERED_OUTSIDE_THE_RULE = {
    "lemma86_transfer(1, -5, 1)": lambda: adjoint.lemma86_transfer(1, -5, 1),  # -3
    "seshadri_thresholds(0, -1, 0)": lambda: lelong.seshadri_thresholds(0, -1, 0),  # both True
    "skoda_classify(2, 0)": lambda: multiplier.skoda_classify(2, 0),  # inside m^3
    "prop131_window(-3, 1, 1)": lambda: matsusaka.prop131_window(-3, 1, 1),  # -5
    "cor132_window(-2, 1, 1, 1)": lambda: matsusaka.cor132_window(-2, 1, 1, 1),  # -2
    "mbar_recursion(0, 1, 1, 1)": lambda: matsusaka.mbar_recursion(0, 1, 1, 1),  # disagreeing
    "trapani_lower(2, 1, -1)": lambda: convexity.trapani_lower(2, 1, -1),  # 3
    "morse_strong_rhs(0, {0: 1}, 0)": lambda: convexity.morse_strong_rhs(0, {0: 1}, 0),  # 1
    "singular_morse_Aq(0, 0, 1, 1)": lambda: convexity.singular_morse_Aq(0, 0, 1, 1),  # 1
    "lambda_n(0, 5)": lambda: matsusaka.lambda_n(0, 5),  # 5
}


@pytest.mark.parametrize("call", ANSWERED_OUTSIDE_THE_RULE.values(), ids=ANSWERED_OUTSIDE_THE_RULE)
def test_calls_outside_the_dimension_rule_refuse(call):
    exc = _refuse(call)
    assert str(exc).startswith("n must be >= 1, got ")
    assert _raised_at(exc)[:2] == ("core", "check_int")


# each returned an answer (the value noted) before the jet-order rule reached it
ANSWERED_OUTSIDE_THE_JET_ORDER_RULE = {
    "remark1120_threshold(3, -7)": (lambda: jumping.remark1120_threshold(3, -7), -7),  # -48
    "remark1120_threshold(2, -5)": (lambda: jumping.remark1120_threshold(2, -5), -5),  # 6
}


@pytest.mark.parametrize("call, s", ANSWERED_OUTSIDE_THE_JET_ORDER_RULE.values(),
                         ids=ANSWERED_OUTSIDE_THE_JET_ORDER_RULE)
def test_calls_outside_the_jet_order_rule_refuse(call, s):
    exc = _refuse(call)
    assert str(exc) == f"jet order must be >= 0, got {s}"
    assert _raised_at(exc)[:2] == ("core", "check_int")


# refusals with no statement of their own: a later check on the same path makes them
LATER_CHECKS = {
    "nth_root_bracket(2, 0)": (lambda: core.nth_root_bracket(2, 0, TOL),
                               ("core", "iroot"), "root index must be >= 1"),
    "mu_invariant({}, 2)": (lambda: jumping.mu_invariant({}, 2), ("jumping", "mu_invariant"),
                            "missing per-dimension minima for 2 of p = 1..2, the first p = 1"),
    "DivisorClass(P1, (1,)) - DivisorClass(P2, (1,))":
        (lambda: projective.DivisorClass(P1, (1,)) - projective.DivisorClass(P2, (1,)),
         ("projective", "__add__"), "divisor classes live on different spaces"),
}


@pytest.mark.parametrize("call, site, message", LATER_CHECKS.values(), ids=LATER_CHECKS)
def test_a_later_check_refuses(call, site, message):
    exc = _refuse(call)
    assert str(exc) == message and _raised_at(exc)[:2] == site


CAP = core.PRINTED_BITS


def _matsusaka(n, Ln, LK):
    return lambda: matsusaka.matsusaka_main(matsusaka.MatsusakaInputs.of(n, Ln, 0, LK))


# each check of the printed-integer budget: (module, function, message, call).  In the
# denominator rows LK = 1 - 8 L^n makes L.H = lambda_6 = 27,120, and 12 lambda_6 is coprime
# to L^n, so the denominator is (L^n)^223: at L^n = 2^67 - 1 its lower bound is 1 + 223 * 66
# bits; at L^n = 19147789569694781441 (65 bits) that bound is 14,273, but it has 14,285 bits
BUDGET = [
    ("report", "value_to_json", f"bits of a printed integer must be in 0..{CAP}, got {CAP + 1}",
     lambda: report.value_to_json([1 << CAP])),
    ("report", "value_to_json", f"bits of a printed integer must be in 0..{CAP}, got {CAP + 1}",
     lambda: report.value_to_json({"x": F(1 << CAP, 3)})),
    ("report", "value_to_json", f"bits of a printed integer must be in 0..{CAP}, got {CAP + 1}",
     lambda: report.value_to_json(core.Bracket.point(F(1, 1 << CAP)))),
    ("adjoint", "siu_report", f"bits of a printed integer must be in 0..{CAP}, got 16523",
     lambda: adjoint.siu_report(6000, [1])),
    ("adjoint", "pluri_report", f"bits of a printed integer must be in 0..{CAP}, got 16523",
     lambda: adjoint.pluri_report(6000, "fano")),
    ("convexity", "morse_report", f"bits of a printed integer must be in 0..{CAP}, got {CAP + 1}",
     lambda: convexity.morse_report(1, 1, 1 << CAP)),
    ("numpoly", "poly_report", f"bits of a printed integer must be in 0..{CAP}, got {CAP + 1}",
     lambda: numpoly.poly_report([1], "a", 1 << CAP, 1)),
    ("lelong", "lelong_report", f"bits of a printed integer must be in 0..{CAP}, got {CAP + 1}",
     lambda: lelong.lelong_report((1 << CAP) + 1, (1 << CAP) + 2, [F(1, 2)])),
    ("matsusaka", "matsusaka_main",
     f"a lower bound on the bits of the threshold's numerator must be in 0..{CAP}, got 21753",
     _matsusaka(7, 1, 2)),
    ("matsusaka", "matsusaka_main",
     f"a lower bound on the bits of the threshold's denominator must be in 0..{CAP}, got 14719",
     _matsusaka(6, 2**67 - 1, 1 - 8 * (2**67 - 1))),  # L.H = lambda_6
    ("matsusaka", "matsusaka_main",
     f"bits of the threshold's numerator must be in 0..{CAP}, got {CAP + 1}",
     _matsusaka(6, 1, 1912566977)),
    ("matsusaka", "matsusaka_main",
     f"bits of the threshold's denominator must be in 0..{CAP}, got {CAP + 1}",
     _matsusaka(6, 19147789569694781441, 1 - 8 * 19147789569694781441)),
]


def _names_the_budget(path):
    """(module, function) of each function or method in path that names
    check_printed or PRINTED_BITS, but core.check_printed."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef) and node.name != "check_printed" and any(
                isinstance(name, ast.Name) and name.id in ("check_printed", "PRINTED_BITS")
                for name in ast.walk(node)):
            found.add((path.stem, node.name))
    return found


@pytest.mark.parametrize("module, function, message, call", BUDGET,
                         ids=[f"{m}.{f}: {message}" for m, f, message, _ in BUDGET])
def test_the_printed_integer_budget_refuses(module, function, message, call):
    exc = _refuse(call)
    assert str(exc) == message and _raised_at(exc)[:2] == ("core", "check_int")
    tb, frames = exc.__traceback__, set()
    while tb is not None:
        frames.add((Path(tb.tb_frame.f_code.co_filename).stem, tb.tb_frame.f_code.co_name))
        tb = tb.tb_next
    assert (module, function) in frames


def test_every_function_that_names_the_budget_has_a_row():
    sites = set().union(*(_names_the_budget(path) for path in sorted(PACKAGE.glob("*.py"))))
    assert sorted(sites ^ {row[:2] for row in BUDGET}) == []


def test_the_budget_is_the_longest_integer_the_interpreter_prints():
    assert len(str((1 << CAP) - 1)) == 4300  # the default limit on int-to-str digits
    assert (1 << CAP + 1) - 1 >= 10**4300  # 4,301 digits: past the limit
    assert report.value_to_json([(1 << CAP) - 1, F(1, (1 << CAP) - 1)]) == [
        (1 << CAP) - 1, {"num": 1, "den": (1 << CAP) - 1}]
