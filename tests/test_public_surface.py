"""The public surface: every public top-level name in src/posbounds is reached
from the command line, or pinned here with the reason it stays.

A name is reached when the source of a reached definition mentions it (the
closure over AST names, following the package's relative imports), starting
from ``cli.main`` and the report functions that ``COMMANDS`` names.  A pin
names either a caller outside the package that uses the name, or the paper
statement that the name computes.  A public class is a record that a caller
constructs or reads, so it must be reached from the command line or from a
caller pin: a paper pin alone does not keep it.
"""

import ast
import re
from pathlib import Path

from posbounds.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "posbounds"
CALLERS = ("bench/lib_ops.py", "tests/test_acceptance.py", "scripts/compare_thresholds.py")

PINNED = {
    "adjoint.lemma86_transfer": "paper: Lemma 8.6, mu F needs jets of order mu(n + s_j) + 1",
    "adjoint.siu_degree_conditions":
        "paper: Siu's criterion for 2K + (n+1)L + G, one bound on L^d.Y per dimension d",
    "adjoint.theorem87_conditions": "paper: Theorem 8.7, jets of 2K + L from bounds on L^d.Y",
    "convexity.morse_strong_rhs": "paper: the right side of the asymptotic strong Morse inequality",
    "convexity.singular_morse_Aq":
        "paper: the growth constant A_q of the singular Morse inequalities",
    "jumping.cn_constant": "bench/lib_ops.py",
    "jumping.lemma1111_check": "tests/test_acceptance.py",
    "jumping.lemma1115_threshold": "paper: Lemma 11.15, mu(L') >= 3(n+s)^n gives s-jets of K + L'",
    "jumping.lemma1116_consistency": "paper: Lemma 11.16, F^p.Y >= s^p when F generates s-jets",
    "jumping.recursion_bound": "paper: the recursive bound on the next jumping value",
    "jumping.remark1120_threshold":
        "paper: Remark 11.20, mu(L) >= 6(3n+3+2s)^n gives s-jets of 2K + L",
    "jumping.sigma0_for": "paper: sigma0 = sum (n + s_j)^n, or 2 n^n for 1-jets at one point",
    "jumping.theorem1117_threshold": "scripts/compare_thresholds.py",
    "lelong.lelong_at": "bench/lib_ops.py",
    "lelong.ord_at_origin": "paper: the Lelong number of log|f| at 0 is the vanishing order of f",
    "lelong.seshadri_thresholds":
        "paper: s-jets and very ampleness from a Seshadri constant above n + s and 2n",
    "lelong.seshadri_upper": "bench/lib_ops.py",
    "lelong.upperlevel_set": "paper: the upperlevel sets {nu >= c} of a divisor current",
    "matsusaka.cor132_window": "paper: Corollary 13.2, the window for mL - B with B + K + (n+1)L",
    "matsusaka.m0_assembly": "paper: m0 of the main bound from mbar_n, ..., mbar_2",
    "matsusaka.mbar_recursion": "tests/test_acceptance.py",
    "matsusaka.prop131_window":
        "paper: Proposition 13.1, mL - B has a section for some m <= n LB/L^n + 1 + n",
    "multiplier.membership_criterion": "tests/test_acceptance.py",
    "multiplier.skoda_classify": "tests/test_acceptance.py",
    "multiplier.snc_round_down":
        "paper: the multiplier ideal of a normal-crossing Q-divisor is its round-down",
    "projective.h0": "tests/test_acceptance.py",
    "projective.profile_from_fixture": "bench/lib_ops.py",
}


def _definitions():
    """{"module.name": top-level nodes} and {(module, local name): "module.name"}
    for the package's relative imports."""
    defs, imports = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        module, tree = path.stem, ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    imports[module, alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(f"{module}.{name}", []).append(node)
    return defs, imports


DEFS, IMPORTS = _definitions()
PUBLIC = {q for q in DEFS if not q.split(".")[1].startswith("_")}
CLASSES = {q for q in PUBLIC if any(isinstance(node, ast.ClassDef) for node in DEFS[q])}
CLI_ROOTS = {"cli.main"} | {report for _, report in COMMANDS.values()}


def reached(roots):
    seen, todo = set(), list(roots)
    while todo:
        q = todo.pop()
        if q in seen:
            continue
        seen.add(q)
        module = q.split(".")[0]
        for node in DEFS[q]:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    target = f"{module}.{sub.id}"
                    target = target if target in DEFS else IMPORTS.get((module, sub.id))
                    if target in DEFS:
                        todo.append(target)
    return seen


def test_every_public_name_is_reached_or_pinned():
    assert CLI_ROOTS <= PUBLIC and set(PINNED) <= PUBLIC
    assert sorted(PUBLIC - reached(CLI_ROOTS | set(PINNED))) == []


def test_every_public_class_is_reached_from_a_caller():
    caller_pins = {pin for pin, reason in PINNED.items() if reason in CALLERS}
    assert "matsusaka.MatsusakaInputs" in CLASSES
    assert sorted(CLASSES - reached(CLI_ROOTS | caller_pins)) == []


def test_no_pin_is_reached_without_it():
    for pin in PINNED:
        assert pin not in reached(CLI_ROOTS | set(PINNED) - {pin}), f"{pin} is reached: unpin it"


def test_each_pin_names_a_caller_that_uses_it_or_the_paper():
    for pin, reason in PINNED.items():
        name = pin.split(".")[1]
        if reason in CALLERS:
            text = (ROOT / reason).read_text()
            assert re.search(rf"\b{name}\b", text), f"{reason} does not use {pin}"
        else:
            assert re.fullmatch(r"paper: \S.{10,}", reason), f"{pin}: {reason!r}"
