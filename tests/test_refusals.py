"""One row per refusal: every raise of ``InputError`` (or the CLI's ``_FlagError``)
in ``src/`` has a call here that reaches it, with the start of its message.

The structural tests fail when a raise site has no row, so a new refusal
cannot land untested, and when a row reaches another site than the one it
names.  The dimension rule, n an int >= least, has one raise statement, in
``core.check_n``; the dimension table calls every function and record that
takes n at n = least - 1, n = -1 and three values that are no int (a float, a
bool and a Fraction), and an AST walk fails when one is missing.  The
jet-order rule, s an int >= least, is ``core.check_jet_order``, and its table
does the same for every function and record that takes a jet order.
"""

import ast
import builtins
import importlib
import os
from functools import partial
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest

from posbounds import (
    adjoint, cli, convexity, core, jumping, lelong, matsusaka, multiplier, numpoly, projective,
    report,
)
from posbounds.core import InputError
from test_cli import raise_sites

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posbounds"
TOL = F(1, 10**12)
P1, P2 = projective.ProductSpace((1,)), projective.ProductSpace((2,))
JET = adjoint.JetSpec((1,))
FIELDS = {"schema": 1, "theorem": "x", "inputs": {}, "threshold": None, "verdict": "v",
          "details": {}}


# (module, function, message prefix, call)
ROWS = [
    ("adjoint", "JetSpec._check", "jets must list at least one jet order",
     lambda: adjoint.JetSpec(())),
    ("adjoint", "lemma86_transfer", "mu must be a positive integer",
     lambda: adjoint.lemma86_transfer(0, 2, 1)),
    ("adjoint", "pluricanonical_bounds", "unknown case 'k3'",
     lambda: adjoint.pluricanonical_bounds(2, "k3")),
    ("adjoint", "pluricanonical_bounds", "|K^n| must be positive",
     lambda: adjoint.pluricanonical_bounds(2, "fano", 0)),
    ("adjoint", "reider_check", "unknown mode 'x'", lambda: adjoint.reider_check(10, "x")),
    ("cli", "parse_q", "not a rational number: 'x'", lambda: cli.parse_q("x")),
    ("cli", "parse_int_map", "key 1 is given more than once",
     lambda: cli.parse_int_map("1=2,1=3")),
    ("cli", "default_tol", "POSBOUNDS_TOL must be positive",
     mock.patch.dict(os.environ, {"POSBOUNDS_TOL": "0"})(cli.default_tol)),
    ("convexity", "ht_products", "selfints must list at least one self-intersection",
     lambda: convexity.ht_products([], 1)),
    ("convexity", "ht_products", "self-intersections of nef classes must be nonnegative",
     lambda: convexity.ht_products([-1], 1)),
    ("convexity", "ht_mixed_chain", "need 1 <= p <= n",
     lambda: convexity.ht_mixed_chain(1, 1, 1, 2, 3)),
    ("convexity", "ht_mixed_chain", "intersection numbers must be nonnegative",
     lambda: convexity.ht_mixed_chain(-1, 1, 1, 2, 1)),
    ("convexity", "diag_form_check", "lambdas must list at least one eigenvalue",
     lambda: convexity.diag_form_check([], 0)),
    ("convexity", "diag_form_check", "eigenvalues must be positive",
     lambda: convexity.diag_form_check([0], 0)),
    ("convexity", "diag_form_check", "need 0 <= p <= n",
     lambda: convexity.diag_form_check([1], 2)),
    ("convexity", "morse_strong_rhs", "need 0 <= q <= n",
     lambda: convexity.morse_strong_rhs(2, {}, 3)),
    ("convexity", "morse_strong_rhs", "mixed product F^1.G^1 not supplied",
     lambda: convexity.morse_strong_rhs(2, {0: 1}, 1)),
    ("convexity", "morse_existence_threshold", "F^n must be positive (F big)",
     lambda: convexity.morse_existence_threshold(0, 1, 2)),
    ("convexity", "morse_existence_threshold", "F^(n-1).G must be nonnegative",
     lambda: convexity.morse_existence_threshold(1, -1, 2)),
    ("convexity", "singular_morse_Aq", "need 0 <= q <= n",
     lambda: convexity.singular_morse_Aq(2, 3, 1, 1)),
    ("convexity", "singular_morse_Aq", "jumping value must be nonnegative",
     lambda: convexity.singular_morse_Aq(2, 1, -1, 1)),
    ("core", "check_tol", "tolerance must be positive", lambda: core.check_tol(0)),
    ("core", "check_n", "n must be >= 1, got 0", lambda: core.check_n(0)),
    ("core", "check_jet_order", "jet order must be >= 0, got -1",
     lambda: core.check_jet_order(-1)),
    ("core", "iroot", "iroot of negative integer", lambda: core.iroot(-1, 2)),
    ("core", "iroot", "root index must be >= 1", lambda: core.iroot(4, 0)),
    ("core", "nth_root_bracket", "nth root of negative rational",
     lambda: core.nth_root_bracket(-1, 2, TOL)),
    ("core", "pow_bracket", "pow_bracket base must be nonnegative",
     lambda: core.pow_bracket(-1, 2, TOL)),
    ("core", "pow_bracket", "0 cannot be raised to a negative power",
     lambda: core.pow_bracket(0, -1, TOL)),
    ("jumping", "sigma_sequence", "need 0 < sigma0 < L^n",
     lambda: jumping.sigma_sequence(2, 1, 2)),
    ("jumping", "sigma_sequence", "sigma needs",  # past the cap, as in test_cli
     lambda: jumping.sigma_sequence(1, 1 << jumping._SIGMA_CAP + 35, 2)),
    ("jumping", "recursion_bound", "a must be nonnegative",
     lambda: jumping.recursion_bound(2, 1, -1, [0], 1, 4)),
    ("jumping", "recursion_bound", "minY must be a positive integer",
     lambda: jumping.recursion_bound(2, 1, 0, [0], 0, 4)),
    ("jumping", "recursion_bound", "b_prefix must be nondecreasing and start at 0",
     lambda: jumping.recursion_bound(2, 1, 0, [1], 1, 4)),
    ("jumping", "recursion_bound", "b_prefix needs sigma_2, beyond the sigma sequence for n = 2",
     lambda: jumping.recursion_bound(2, 1, 0, [0, 1], 1, 4)),
    ("jumping", "recursion_bound", "need 0 < sigma0 < L^n",
     lambda: jumping.recursion_bound(2, 0, 0, [0], 1, 4)),
    ("jumping", "main_theorem_check", "beta must satisfy 0 = beta_1 < ... < beta_n <= 1",
     lambda: jumping.main_theorem_check(2, 1, 0, [0], {}, 4)),
    ("jumping", "main_theorem_check", "a must be nonnegative",
     lambda: jumping.main_theorem_check(2, 1, -1, [0, 1], {}, 4)),
    ("jumping", "main_theorem_check", "minY for p in [2] outside 1..1",
     lambda: jumping.main_theorem_check(2, 1, 0, [0, 1], {2: 1}, 4)),
    ("jumping", "main_theorem_check", "minY must be a positive integer",
     lambda: jumping.main_theorem_check(2, 1, 0, [0, 1], {1: 0}, 4)),
    ("jumping", "lemma1111_check", "need t_j >= 1", lambda: jumping.lemma1111_check([0], 2)),
    ("jumping", "lemma1115_threshold", "the special threshold applies only to s = 1",
     lambda: jumping.lemma1115_threshold(2, 2, special=True)),
    ("jumping", "theorem1117_threshold", "mu(L) must be positive",
     lambda: jumping.theorem1117_threshold(2, 1, 0)),
    ("jumping", "mu_invariant", "missing per-dimension minima for p in [2]",
     lambda: jumping.mu_invariant({1: 1}, 2)),
    ("jumping", "mu_invariant", "per-dimension minima for p in [3] outside 1..1",
     lambda: jumping.mu_invariant({1: 1, 3: 1}, 1)),
    ("jumping", "mu_invariant", "per-dimension minima must be positive integers",
     lambda: jumping.mu_invariant({1: 0}, 1)),
    ("lelong", "ord_at_origin", "zero polynomial has no vanishing order",
     lambda: lelong.ord_at_origin({(1, 0): 0})),
    ("lelong", "Component._check", "component coefficient must be positive",
     lambda: lelong.Component(F(0), "D", {})),
    ("lelong", "Component._check", "multiplicities must be nonnegative",
     lambda: lelong.Component(F(1), "D", {"x": -1})),
    ("lelong", "upperlevel_set", "level must be positive",
     lambda: lelong.upperlevel_set(lelong.DivisorCurrent(()), 0)),
    ("lelong", "ParamCurve._check", "need 1 <= u <= v", lambda: lelong.ParamCurve(2, 1)),
    ("lelong", "ParamCurve._check", "exponents must be coprime", lambda: lelong.ParamCurve(2, 4)),
    ("lelong", "lelong_numeric", "need at least one radius",
     lambda: lelong.lelong_numeric(lelong.ParamCurve(1, 2), [])),
    ("lelong", "lelong_numeric", "radii must lie in (0, 1]",
     lambda: lelong.lelong_numeric(lelong.ParamCurve(1, 2), [2])),
    ("lelong", "lelong_numeric", "radii must be strictly decreasing",
     lambda: lelong.lelong_numeric(lelong.ParamCurve(1, 2), [F(1, 2), F(1, 2)])),
    ("lelong", "CurveData._check", "curve multiplicity must be >= 1",
     lambda: lelong.CurveData(((F(1), 0),))),
    ("lelong", "CurveData._check", "nef degree must be nonnegative",
     lambda: lelong.CurveData(((F(-1), 1),))),
    ("lelong", "seshadri_upper", "need at least one curve",
     lambda: lelong.seshadri_upper(lelong.CurveData(()))),
    ("lelong", "seshadri_thresholds", "Seshadri lower bound must be nonnegative",
     lambda: lelong.seshadri_thresholds(-1, 2, 1)),
    ("matsusaka", "prop131_window", "L^(n-1).B must be nonnegative for nef B",
     lambda: matsusaka.prop131_window(2, -1, 1)),
    ("matsusaka", "lambda_n", "explicit lambda must be a positive integer",
     lambda: matsusaka.lambda_n(2, 0)),
    ("matsusaka", "lambda_n", "unknown lambda policy 'x'", lambda: matsusaka.lambda_n(2, "x")),
    ("matsusaka", "MatsusakaInputs._check", "L^(n-1).B must be nonnegative",
     lambda: matsusaka.MatsusakaInputs.of(2, 1, -1, 0)),
    ("matsusaka", "matsusaka_main", "L^(n-1).H and L^(n-1).(B+H) must be nonnegative",
     lambda: matsusaka.matsusaka_main(matsusaka.MatsusakaInputs.of(2, 1, 0, -5))),
    ("matsusaka", "mbar_recursion", "M, LH, L^n must be positive",
     lambda: matsusaka.mbar_recursion(2, 0, 1, 1)),
    ("matsusaka", "m0_assembly", "need at least one mbar value",
     lambda: matsusaka.m0_assembly([], 1)),
    ("matsusaka", "_volume", "L^n must be >= 1", lambda: matsusaka.prop131_window(2, 0, 0)),
    ("multiplier", "MonomialWeightData._check", "weight exponents must be positive",
     lambda: multiplier.MonomialWeightData.of(0)),
    ("multiplier", "membership_criterion", "weight exponents must be positive",
     lambda: multiplier.membership_criterion([F(0)], [0])),
    ("multiplier", "snc_round_down", "divisor coefficients must be nonnegative",
     lambda: multiplier.snc_round_down([-1])),
    ("multiplier", "skoda_classify", "Lelong number must be nonnegative",
     lambda: multiplier.skoda_classify(-1, 2)),
    ("numpoly", "NumericalPolynomial._check", "leading binomial-basis coefficient must be nonzero",
     lambda: numpoly.NumericalPolynomial(())),
    ("numpoly", "window_a", "N must be nonnegative",
     lambda: numpoly.window_a(numpoly.NumericalPolynomial((1,)), 0, -1)),
    ("numpoly", "window_b", "k must be >= 1",
     lambda: numpoly.window_b(numpoly.NumericalPolynomial((1,)), 0, 0)),
    ("numpoly", "window_c", "need N >= 2d^2 = 2, got 1",
     lambda: numpoly.window_c(numpoly.NumericalPolynomial((0, 1)), 0, 1)),
    ("numpoly", "poly_report", "window a needs --N", lambda: numpoly.poly_report([1], "a", 0)),
    ("numpoly", "_first_reaching", "no m in [0, 0] with P(m) >= 6",
     lambda: numpoly.window_b(numpoly.NumericalPolynomial((3,)), 0, 2)),
    ("projective", "ProductSpace._check", "factor dimensions must be positive integers",
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
# the rule's raise statement, by the noun its message starts with
RULES = {"n": ("core", "check_n"), "jet order": ("core", "check_jet_order")}


# values of other types than int that the integer rules refuse, whatever their size
NON_INTEGERS = (1.5, True, F(3, 2))


def _rule_rows(noun, table):
    """Each entry of a rule's table called at least - 1, at -1 and at each of
    NON_INTEGERS, with the whole message."""
    return [(module, function, f"{noun} must be {kind}>= {least}, got {x!r}", partial(call, x))
            for (module, function), (least, call) in table.items()
            for x in (*dict.fromkeys((least - 1, -1)), *NON_INTEGERS)
            for kind in ["" if type(x) is int else "an integer "]]


ALL_ROWS = ROWS + _rule_rows("n", DIMENSION) + _rule_rows("jet order", JET_ORDER)


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


@pytest.mark.parametrize("module, function, prefix, call", ALL_ROWS,
                         ids=[f"{m}.{f}: {p}" for m, f, p, _ in ALL_ROWS])
def test_refusal(module, function, prefix, call):
    exc = _refuse(call)
    rule = RULES.get(prefix.partition(" must be ")[0])  # a rule's row names its whole message
    assert str(exc) == prefix if rule else str(exc).startswith(prefix)
    assert _raised_at(exc)[:2] == (rule or (module, function.rpartition(".")[2]))


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


def test_every_function_that_takes_n_is_in_the_dimension_table():
    takes_n = _takers(("adjoint", "convexity", "jumping", "lelong", "matsusaka", "multiplier",
                       "projective"), {"n"})
    assert sorted(takes_n ^ DIMENSION.keys()) == []


def test_every_function_that_takes_s_is_in_the_jet_order_table():
    # JetSpec's orders, bes_check's p and the jets lists of the reports are entries too
    takes_s = _takers(("adjoint", "jumping", "lelong"), {"s", "s_j"})
    assert sorted(takes_s - JET_ORDER.keys()) == []


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
    assert _raised_at(exc)[:2] == ("core", "check_n")


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
    assert _raised_at(exc)[:2] == ("core", "check_jet_order")


# refusals with no statement of their own: a later check on the same path makes them
LATER_CHECKS = {
    "nth_root_bracket(2, 0)": (lambda: core.nth_root_bracket(2, 0, TOL),
                               ("core", "iroot"), "root index must be >= 1"),
    "mu_invariant({}, 2)": (lambda: jumping.mu_invariant({}, 2), ("jumping", "mu_invariant"),
                            "missing per-dimension minima for p in [1, 2]"),
    "DivisorClass(P1, (1,)) - DivisorClass(P2, (1,))":
        (lambda: projective.DivisorClass(P1, (1,)) - projective.DivisorClass(P2, (1,)),
         ("projective", "__add__"), "divisor classes live on different spaces"),
    "cor132_window(2, 0, 0, 0)": (lambda: matsusaka.cor132_window(2, 0, 0, 0),
                                  ("matsusaka", "_volume"), "L^n must be >= 1"),
    "MatsusakaInputs.of(2, 0, 0, 0)": (lambda: matsusaka.MatsusakaInputs.of(2, 0, 0, 0),
                                       ("matsusaka", "_volume"), "L^n must be >= 1"),
    "fdb_surface_bound(0, 1)": (lambda: matsusaka.fdb_surface_bound(0, 1),
                                ("matsusaka", "_volume"), "L^n must be >= 1"),
}


@pytest.mark.parametrize("call, site, message", LATER_CHECKS.values(), ids=LATER_CHECKS)
def test_a_later_check_refuses(call, site, message):
    exc = _refuse(call)
    assert str(exc) == message and _raised_at(exc)[:2] == site


def test_membership_criterion_refuses_a_zero_weight():
    with pytest.raises(InputError, match="^weight exponents must be positive$"):
        multiplier.membership_criterion([F(0)], [0])  # ZeroDivisionError before
