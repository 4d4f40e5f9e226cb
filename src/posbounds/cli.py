"""Command line front-end.

``COMMANDS`` maps each subcommand path to its flags, given as argparse
keyword arguments whose ``type`` parses every value exactly once, and to a
``run(args, tol)`` that returns the ``BoundReport`` to print (None when it
printed a Markdown table itself).  Reports built here echo the parsed flags
as ``inputs``, except the presentation flags ``--format`` and ``--window``;
``jets main``, ``matsusaka`` and ``bounds surface`` print the report their
bound function builds.

Exit codes: 0 when a verdict was computed (including "unsatisfied"), 2 on
input errors (a malformed flag is an argparse usage error), 3 when bracket
certification failed even after refinement.  POSBOUNDS_TOL overrides the
default tolerance 10^-12; numbers may be any rational ("3/7", "0.25", "4").
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from argparse import Namespace
from fractions import Fraction
from typing import Callable, Sequence

from . import adjoint, convexity, jumping, lelong, matsusaka, multiplier, numpoly
from .core import DEFAULT_TOL, InputError  # argparse turns InputError into a usage error
from .report import BoundReport

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BRACKET = 3


def parse_q(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational number: {text!r}") from exc


def parse_q_list(text: str) -> list[Fraction]:
    return [parse_q(part) for part in text.split(",")] if text else []


def parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")] if text else []


def _int_pairs(text: str, sep: str) -> list[tuple[int, int]]:
    # a part without the separator leaves b empty, and int("") raises
    parts = [part.partition(sep) for part in text.split(",")] if text else []
    return [(int(a), int(b)) for a, _, b in parts]


def parse_int_map(text: str) -> dict[int, int]:
    """Parse "1=5,2=9" into {1: 5, 2: 9}."""
    return dict(_int_pairs(text, "="))


def parse_pairs(text: str) -> list[tuple[int, int]]:
    """Parse "1:0,0:-1" into [(1, 0), (0, -1)]."""
    return _int_pairs(text, ":")


def parse_policy(text: str) -> str | int:
    """A named lambda policy, or an explicit integer lambda."""
    return int(text) if text.lstrip("-").isdigit() else text


def default_tol() -> Fraction:
    raw = os.environ.get("POSBOUNDS_TOL")
    if raw is None:
        return DEFAULT_TOL
    tol = parse_q(raw)
    if tol <= 0:
        raise InputError("POSBOUNDS_TOL must be positive")
    return tol


# not echoed into inputs: the subcommand path, its runner, presentation flags
NOT_ECHOED = {"command", "variant", "run", "format", "window"}


def _report(args: Namespace, theorem: str, threshold, verdict: str, **details) -> BoundReport:
    inputs = {k: v for k, v in vars(args).items() if k not in NOT_ECHOED}
    return BoundReport(theorem, inputs, threshold, verdict, details)


def _siu(a: Namespace, tol: Fraction) -> BoundReport:
    m = adjoint.siu_jet_threshold(a.n, adjoint.JetSpec(tuple(a.jets)))
    return _report(a, "siu-jets", m, f"jets generated by 2K+mL+G for m >= {m}")


def _outcome(a: Namespace, theorem: str, threshold: int, res: adjoint.CheckResult) -> BoundReport:
    return _report(a, theorem, threshold, res.outcome.value, matched=res.matched)


def _pluri(a: Namespace, tol: Fraction) -> BoundReport:
    m0, degree = adjoint.pluricanonical_bounds(a.n, a.case, a.Kn)
    verdict = f"{'m' if a.case == 'general_type' else '-m'}K very ample for m >= {m0}"
    return _report(a, "pluricanonical", m0, verdict, embedding_degree=degree)


def _surface_table(a: Namespace, tol: Fraction) -> BoundReport | None:
    table = jumping.corollary118_table(a.s)
    if a.format == "json":
        return _report(a, "surface-table", None, "table", **table)
    print(render_surface_table(table))
    return None


def render_surface_table(table: dict) -> str:
    c = table["constants"]
    rows = [("spanned", *table["spanned"])]
    rows += [("separation", *pair) for pair in table["separation"]]
    rows += [("s-jets", *table["jets"])] if "jets" in table else []
    rows.append(("constants", f"spanned for m >= {c['spanned_m']}",
                 f"very ample for m >= {c['very_ample_m']}"))
    lines = ["| criterion | L^2 > | L.C > |", "|---|---|---|"]
    return "\n".join(lines + [f"| {name} | {l2} | {lc} |" for name, l2, lc in rows])


def _matsusaka(a: Namespace, tol: Fraction) -> BoundReport:
    inputs = matsusaka.MatsusakaInputs.of(a.n, a.Ln, a.LB, a.LK, a.policy)
    report = matsusaka.matsusaka_main(inputs)
    if a.n == 2 and a.LB == 0:
        fdb, factor4 = matsusaka.fdb_surface_bound(a.Ln, a.LK + 4 * a.Ln)
        report.details["surface_comparison"] = {"fdb": fdb, "factor4": factor4}
    return report


def _morse(a: Namespace, tol: Fraction) -> BoundReport:
    m = convexity.morse_existence_threshold(a.Fn, a.FG, a.n)
    return _report(
        a, "morse-existence", m, f"some multiple of mF-G has a section for m >= {m}",
        trapani_lower=convexity.trapani_lower(a.Fn, a.FG, a.n),
    )


def _mult_ideal(a: Namespace, tol: Fraction) -> BoundReport:
    ideal = multiplier.monomial_multiplier_ideal(multiplier.MonomialWeightData.of(*a.alpha))
    verdict = "trivial" if ideal.is_trivial else "nontrivial"
    return _report(a, "monomial-multiplier-ideal", None, verdict,
                   generators=ideal.sorted_generators())


def _lelong(a: Namespace, tol: Fraction) -> BoundReport:
    estimates = lelong.lelong_numeric(lelong.ParamCurve(a.u, a.v), a.radii, tol)
    verdict = f"area ratio tends to the multiplicity {a.u}"
    return _report(a, "density-quadrature", a.u, verdict, estimates=estimates)


# window -> (search, the flag that bounds it)
WINDOWS = {"a": (numpoly.window_a, "N"), "b": (numpoly.window_b, "k"),
           "c": (numpoly.window_c, "N")}


def _poly(a: Namespace, tol: Fraction) -> BoundReport:
    P = numpoly.NumericalPolynomial(tuple(a.coeffs))
    search, flag = WINDOWS[a.window]
    if getattr(a, flag) is None:
        raise InputError(f"window {a.window} needs --{flag}")
    m = search(P, a.m0, getattr(a, flag))
    return _report(a, f"poly-window-{a.window}", m, f"P({m}) meets the window-{a.window} target")


def _inequality(a: Namespace, theorem: str, res: convexity.InequalityResult) -> BoundReport:
    return _report(a, theorem, res.slack, res.verdict.value, equality=res.equality)


INT = {"type": int, "required": True}
Q = {"type": parse_q, "required": True}
Q_LIST = {"type": parse_q_list, "required": True}
DIVISORS = {"type": parse_pairs, "default": "", "help": "L.D:D^2 pairs"}

HELP = {
    "bounds": "adjoint-bundle thresholds",
    "jets": "jumping-value criteria",
    "matsusaka": "very-ampleness multiples",
    "morse": "asymptotic section existence",
    "mult-ideal": "monomial multiplier ideal",
    "lelong": "certified closed-form density for t -> (t^u, t^v)",
    "poly": "numerical polynomial windows",
    "ht": "convexity inequalities for nef data",
}

# subcommand path -> ({flag: argparse kwargs}, run)
COMMANDS: dict[tuple[str, ...], tuple[dict[str, dict], Callable]] = {
    ("bounds", "siu"): (
        {"--n": INT,
         "--jets": {"type": parse_int_list, "default": "1", "help": "comma list of jet orders"}},
        _siu,
    ),
    ("bounds", "reider"): (
        {"--L2": INT, "--mode": {"choices": ["spanned", "separation"], "required": True},
         "--divisors": DIVISORS},
        lambda a, tol: _outcome(a, "reider", 5 if a.mode == "spanned" else 10,
                                adjoint.reider_check(a.L2, a.mode, a.divisors)),
    ),
    ("bounds", "bes"): (
        {"--L2": INT, "--p": INT, "--divisors": DIVISORS},
        lambda a, tol: _outcome(a, "bes-jets", 4 * a.p, adjoint.bes_check(a.L2, a.p, a.divisors)),
    ),
    ("bounds", "pluri"): (
        {"--n": INT, "--case": {"choices": ["general_type", "fano"], "required": True},
         "--Kn": {"type": int, "help": "|K^n|"}},
        _pluri,
    ),
    ("bounds", "surface"): (
        {"--jets": {"type": parse_int_list, "default": "0"}, "--L2": INT, "--minLC": INT},
        lambda a, tol: adjoint.surface_nadel_criterion(adjoint.JetSpec(tuple(a.jets)),
                                                       a.L2, a.minLC),
    ),
    ("jets", "main"): (
        {"--n": INT, "--sigma0": Q, "--a": {"type": parse_q, "default": "0"},
         "--beta": {**Q_LIST, "help": "comma list, 0=b1<...<=1"},
         "--min": {"dest": "minY", "type": parse_int_map, "required": True, "help": "p=minY pairs"},
         "--Ln": Q},
        lambda a, tol: jumping.main_theorem_check(a.n, a.sigma0, a.a, a.beta, a.minY, a.Ln, tol),
    ),
    ("jets", "table"): (
        {"--s": {"type": int}, "--format": {"choices": ["json", "table"], "default": "table"}},
        _surface_table,
    ),
    ("jets", "mu"): (
        {"--n": INT, "--per-dim": {"type": parse_int_map, "required": True, "help": "p=min pairs"}},
        lambda a, tol: _report(a, "mu-invariant", jumping.mu_invariant(a.per_dim, a.n, tol),
                               "upper bound computed from declared minima"),
    ),
    ("matsusaka",): (
        {"--n": INT, "--Ln": Q, "--LK": Q, "--LB": {"type": parse_q, "default": "0"},
         "--policy": {"type": parse_policy, "default": "demailly"}},
        _matsusaka,
    ),
    ("morse",): ({"--n": INT, "--Fn": Q, "--FG": Q}, _morse),
    ("mult-ideal",): ({"--alpha": {**Q_LIST, "help": "comma list of exponents"}}, _mult_ideal),
    ("lelong",): (
        {"--u": INT, "--v": INT, "--radii": {"type": parse_q_list, "default": "0.1,0.01,0.001"}},
        _lelong,
    ),
    ("poly",): (
        {"--coeffs": {"type": parse_int_list, "required": True,
                      "help": "binomial-basis coefficients"},
         "--window": {"choices": WINDOWS, "required": True},
         "--m0": INT, "--N": {"type": int}, "--k": {"type": int}},
        _poly,
    ),
    ("ht", "products"): (
        {"--selfints": {**Q_LIST, "help": "comma list u_j^n"},
         "--mixed": {**Q, "help": "u_1...u_n"}},
        lambda a, tol: _inequality(a, "ht-products",
                                   convexity.ht_products(a.selfints, a.mixed, tol)),
    ),
    ("ht", "chain"): (
        {"--Ln": Q, "--LH": Q, "--LnpHp": Q, "--n": INT, "--p": INT},
        lambda a, tol: _inequality(a, "ht-chain",
                                   convexity.ht_mixed_chain(a.Ln, a.LH, a.LnpHp, a.n, a.p)),
    ),
    ("ht", "diag"): (
        {"--lambdas": Q_LIST, "--p": INT},
        lambda a, tol: _inequality(a, "ht-diag", convexity.diag_form_check(a.lambdas, a.p)),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posbounds", description="Exact-arithmetic positivity bound calculators."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for (name, *variant), (flags, run) in COMMANDS.items():
        if not variant:
            leaf = commands.add_parser(name, help=HELP[name])
        else:
            if name not in groups:
                group = commands.add_parser(name, help=HELP[name])
                groups[name] = group.add_subparsers(dest="variant", required=True)
            leaf = groups[name].add_parser(variant[0])
        for flag, kwargs in flags.items():
            leaf.add_argument(flag, **kwargs)
        leaf.set_defaults(run=run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 after --help
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        report = args.run(args, default_tol())
    except (ValueError, KeyError, ZeroDivisionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"bracket certification failed: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    if report is not None:
        print(json.dumps(report.to_json(), sort_keys=True))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
