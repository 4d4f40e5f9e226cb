"""Command line front-end.

``COMMANDS`` maps each subcommand path to its flags, given as argparse
keyword arguments whose ``type`` parses every value exactly once, and to the
module-qualified name of the family function that returns its report, such
as ``"adjoint.siu_report"``.  ``main`` imports that one module only after
argparse accepts the command line, calls the function with the parsed flags
(plus ``tol`` where it takes one) and prints the report as one JSON line
(``jets table --format table`` prints a Markdown table).

Exit codes: 0 when a verdict was computed (including "unsatisfied", and
when the reader closed stdout before reading it), 2 on input errors (a
malformed flag is an argparse usage error), and 1 on an internal error (a
bug), reported as one line on stderr.  The code that
raises decides: a family module raises ``InputError``, and any other
exception is a bug.  POSBOUNDS_TOL overrides the default tolerance 10^-12;
numbers may be any rational ("3/7", "0.25", "4"), and a value may start
with "-" (``--LK -1/2`` reads as ``--LK=-1/2``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from .core import DEFAULT_TOL, InputError, check_at_least

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2


class _FlagError(InputError, argparse.ArgumentTypeError):
    """A malformed flag value; argparse drops a ValueError's message but prints this one."""


def parse_q(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _FlagError(f"not a rational number: {text!r}") from exc


def parse_q_list(text: str) -> list[Fraction]:
    return [parse_q(part) for part in text.split(",")] if text else []


def parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")] if text else []


def _int_pairs(text: str, sep: str) -> list[tuple[int, int]]:
    # a part without the separator leaves b empty, and int("") raises
    parts = [part.partition(sep) for part in text.split(",")] if text else []
    return [(int(a), int(b)) for a, _, b in parts]


def parse_int_map(text: str) -> dict[int, int]:
    """Parse "1=5,2=9" into {1: 5, 2: 9}; a repeated key is an input error."""
    out: dict[int, int] = {}
    for key, value in _int_pairs(text, "="):
        if key in out:
            raise _FlagError(f"key {key} is given more than once")
        out[key] = value
    return out


def parse_pairs(text: str) -> list[tuple[int, int]]:
    """Parse "1:0,0:-1" into [(1, 0), (0, -1)]."""
    return _int_pairs(text, ":")


def parse_policy(text: str) -> str | int:
    """A named Matsusaka policy such as "demailly", or an explicit integer."""
    return int(text) if text.lstrip("-").isdigit() else text


def default_tol() -> Fraction:
    raw = os.environ.get("POSBOUNDS_TOL")
    if raw is None:
        return DEFAULT_TOL
    tol = parse_q(raw)
    check_at_least("POSBOUNDS_TOL", tol, 0, strict=True)
    return tol


def render_surface_table(table: dict) -> str:
    c = table["constants"]
    rows = [("spanned", *table["spanned"])]
    rows += [("separation", *pair) for pair in table["separation"]]
    rows += [("s-jets", *table["jets"])] if "jets" in table else []
    rows.append(("constants", f"spanned for m >= {c['spanned_m']}",
                 f"very ample for m >= {c['very_ample_m']}"))
    lines = ["| criterion | L^2 > | L.C > |", "|---|---|---|"]
    return "\n".join(lines + [f"| {name} | {l2} | {lc} |" for name, l2, lc in rows])


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

# subcommand path -> ({flag: argparse kwargs}, "module.report_function")
COMMANDS: dict[tuple[str, ...], tuple[dict[str, dict], str]] = {
    ("bounds", "siu"): (
        {"--n": INT,
         "--jets": {"type": parse_int_list, "default": "1", "help": "comma list of jet orders"}},
        "adjoint.siu_report",
    ),
    ("bounds", "reider"): (
        {"--L2": INT, "--mode": {"choices": ["spanned", "separation"], "required": True},
         "--divisors": DIVISORS},
        "adjoint.reider_report",
    ),
    ("bounds", "bes"): ({"--L2": INT, "--p": INT, "--divisors": DIVISORS}, "adjoint.bes_report"),
    ("bounds", "pluri"): (
        {"--n": INT, "--case": {"choices": ["general_type", "fano"], "required": True},
         "--Kn": {"type": int, "help": "|K^n|"}},
        "adjoint.pluri_report",
    ),
    ("bounds", "surface"): (
        {"--jets": {"type": parse_int_list, "default": "0"}, "--L2": INT, "--minLC": INT},
        "adjoint.surface_report",
    ),
    ("jets", "main"): (
        {"--n": INT, "--sigma0": Q, "--a": {"type": parse_q, "default": "0"},
         "--beta": {**Q_LIST, "help": "comma list, 0=b1<...<=1"},
         "--min": {"dest": "minY", "type": parse_int_map, "required": True, "help": "p=minY pairs"},
         "--Ln": Q},
        "jumping.main_theorem_check",
    ),
    ("jets", "table"): (
        {"--s": {"type": int}, "--format": {"choices": ["json", "table"], "default": "table"}},
        "jumping.surface_table_report",
    ),
    ("jets", "mu"): (
        {"--n": INT, "--per-dim": {"type": parse_int_map, "required": True, "help": "p=min pairs"}},
        "jumping.mu_report",
    ),
    ("matsusaka",): (
        {"--n": INT, "--Ln": Q, "--LK": Q, "--LB": {"type": parse_q, "default": "0"},
         "--policy": {"type": parse_policy, "default": "demailly"}},
        "matsusaka.matsusaka_report",
    ),
    ("morse",): ({"--n": INT, "--Fn": Q, "--FG": Q}, "convexity.morse_report"),
    ("mult-ideal",): ({"--alpha": {**Q_LIST, "help": "comma list of exponents"}},
                      "multiplier.mult_ideal_report"),
    ("lelong",): (
        {"--u": INT, "--v": INT, "--radii": {"type": parse_q_list, "default": "0.1,0.01,0.001"}},
        "lelong.lelong_report",
    ),
    ("poly",): (
        {"--coeffs": {"type": parse_int_list, "required": True,
                      "help": "binomial-basis coefficients"},
         "--window": {"choices": ("a", "b", "c"), "required": True},
         "--m0": INT, "--N": {"type": int}, "--k": {"type": int}},
        "numpoly.poly_report",
    ),
    ("ht", "products"): (
        {"--selfints": {**Q_LIST, "help": "comma list u_j^n"},
         "--mixed": {**Q, "help": "u_1...u_n"}},
        "convexity.ht_products_report",
    ),
    ("ht", "chain"): ({"--Ln": Q, "--LH": Q, "--LnpHp": Q, "--n": INT, "--p": INT},
                      "convexity.ht_chain_report"),
    ("ht", "diag"): ({"--lambdas": Q_LIST, "--p": INT}, "convexity.ht_diag_report"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posbounds", description="Exact-arithmetic positivity bound calculators."
    )
    commands = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for (name, *variant), (flags, report) in COMMANDS.items():
        if not variant:
            leaf = commands.add_parser(name, help=HELP[name])
        else:
            if name not in groups:
                group = commands.add_parser(name, help=HELP[name])
                groups[name] = group.add_subparsers(dest="variant", required=True)
            leaf = groups[name].add_parser(variant[0])
        for flag, kwargs in flags.items():
            leaf.add_argument(flag, **kwargs)
        leaf.set_defaults(report=report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    value_flags = {flag for table, _ in COMMANDS.values() for flag in table}
    words: list[str] = []
    for word in sys.argv[1:] if argv is None else argv:  # argparse takes "-1/2" for a flag
        if word[:1] == "-" and word[1:2].isdigit() and words and words[-1] in value_flags:
            word = f"{words.pop()}={word}"
        words.append(word)
    try:
        args = vars(build_parser().parse_args(words))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 after --help
        return EXIT_INPUT if exc.code else EXIT_OK
    module, _, name = args.pop("report").rpartition(".")
    report_of = getattr(importlib.import_module(f".{module}", __package__), name)
    del args["command"]
    args.pop("variant", None)
    as_table = args.pop("format", "json") == "table"
    code = report_of.__code__  # its named parameters come first in co_varnames
    takes_tol = "tol" in code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    try:
        tol = default_tol()  # validated for every command
        report = report_of(**args, tol=tol) if takes_tol else report_of(**args)
        print(render_surface_table(report.details) if as_table
              else json.dumps(report.to_json(), sort_keys=True))
        sys.stdout.flush()
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the answer was computed and the reader stopped reading; stdout goes to
        # devnull so that the flush at exit does not fail again (Python docs, SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except Exception as exc:  # a bug: one line, no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
