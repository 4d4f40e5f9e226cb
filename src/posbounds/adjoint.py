"""Effective adjoint-bundle thresholds and surface exception checkers.

Jet thresholds and pluricanonical bounds from the Riemann-Roch / vanishing
method, plus the classical surface criteria (Reider, Beltrametti-Sommese) as
exception checkers over supplied divisor data.  Ampleness/nefness hypotheses
are caller declarations echoed into the report, never verified.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .core import InputError, Record, check_int, check_printed, shown
from .report import BoundReport


class JetSpec(Record):
    """Requested jet orders s_j at finitely many points, a tuple."""

    __slots__ = ("orders",)

    def _check(self) -> None:
        if not self.orders:
            raise InputError("jets must list at least one jet order")
        for s in self.orders:
            check_int("jet order", s, 0)


def siu_jet_threshold(n: int, jets: JetSpec) -> int:
    """m such that 2K+mL+G generates the requested jets:
    m >= 2 + sum C(3n + 2 s_j - 1, n).  Very ampleness reads as JetSpec((1,))
    (1-jets at one point) or JetSpec((0, 0)) (two points)."""
    check_int("n", n, 1)
    return 2 + sum(math.comb(3 * n + 2 * s - 1, n) for s in jets.orders)


def siu_report(n: int, jets: Sequence[int]) -> BoundReport:
    """The siu-jets report for the jet orders ``jets`` at distinct points."""
    m = check_printed(siu_jet_threshold(n, JetSpec(tuple(jets))))
    return BoundReport("siu-jets", {"n": n, "jets": jets}, m,
                       f"jets generated by 2K+mL+G for m >= {m}")


def siu_degree_conditions(n: int, jets: JetSpec) -> dict[int, Fraction]:
    """Per-dimension thresholds for the fixed-multiple criterion: jets are
    generated by 2K+(n+1)L+G provided L^d.Y strictly exceeds
    2^(d-1)/floor(n/d)^d * sum C(3n + 2 s_j - 1, n) for every d."""
    return _degree_conditions(n, siu_jet_threshold(n, jets) - 2)


def theorem87_conditions(n: int, jets: JetSpec) -> dict[int, Fraction]:
    """Per-dimension thresholds for jet generation by 2K+L:
    L^d.Y > 2^(d-1)/floor(n/d)^d * sum C((n+1)(4n+2s_j+1)-2, n)."""
    check_int("n", n, 1)
    return _degree_conditions(
        n, sum(math.comb((n + 1) * (4 * n + 2 * s + 1) - 2, n) for s in jets.orders))


def _degree_conditions(n: int, total: int) -> dict[int, Fraction]:
    """{d: 2^(d-1)/floor(n/d)^d * total} for d = 1..n."""
    return {d: Fraction(2 ** (d - 1), (n // d) ** d) * total for d in range(1, n + 1)}


def lemma86_transfer(mu: int, n: int, s_j: int) -> int:
    """Jet order mu(n + s_j) + 1 required of mu*F so that K+F yields
    s_j-jets."""
    check_int("n", n, 1)
    check_int("mu", mu, 1)
    check_int("jet order", s_j, 0)
    return mu * (n + s_j) + 1


def pluricanonical_bounds(
    n: int, sign: str, Kn_abs: int | None = None
) -> tuple[int, int | None]:
    """(m0, embedding degree): mK very ample for m >= C(3n+1,n)+4 in the
    general-type case, -mK very ample for m >= C(3n+1,n) in the Fano case;
    degree of the embedding is m0^n |K^n| when |K^n| is supplied."""
    check_int("n", n, 1)
    base = math.comb(3 * n + 1, n)
    if sign == "general_type":
        m0 = base + 4
    elif sign == "fano":
        m0 = base
    else:
        raise InputError(f"unknown case {shown(sign)}")
    degree = None
    if Kn_abs is not None:
        check_int("|K^n|", Kn_abs, 1)
        degree = m0 ** n * Kn_abs
    return m0, degree


def pluri_report(n: int, case: str, Kn: int | None = None) -> BoundReport:
    """The pluricanonical report; ``case`` is "general_type" or "fano"."""
    m0, degree = pluricanonical_bounds(n, case, Kn)
    check_printed(m0)
    verdict = f"{'m' if case == 'general_type' else '-m'}K very ample for m >= {m0}"
    return BoundReport("pluricanonical", {"n": n, "case": case, "Kn": Kn}, m0, verdict,
                       {"embedding_degree": degree})


class CheckOutcome(Enum):
    INAPPLICABLE = "inapplicable"
    EXCEPTION = "exception"
    CRITERION_HOLDS = "criterion-holds"


class CheckResult(Record):
    __slots__ = ("outcome", "matched")  # matched: the (L.D, D^2) pairs that are exceptions


REIDER_SPANNED_EXCEPTIONS = ((0, -1), (1, 0))
REIDER_SEPARATION_EXCEPTIONS = ((0, -1), (0, -2), (1, 0), (1, -1), (2, 0))


def reider_check(
    L2: int, mode: str, divisors: Sequence[tuple[int, int]] = ()
) -> CheckResult:
    """Reider's surface criterion: spanned needs L^2 >= 5, separation needs
    L^2 >= 10; the supplied (L.D, D^2) pairs are tested against the printed
    exception lists."""
    if mode == "spanned":
        min_L2, exceptions = 5, REIDER_SPANNED_EXCEPTIONS
    elif mode == "separation":
        min_L2, exceptions = 10, REIDER_SEPARATION_EXCEPTIONS
    else:
        raise InputError(f"unknown mode {shown(mode)}")
    if L2 < min_L2:
        return CheckResult(CheckOutcome.INAPPLICABLE, ())
    matched = tuple(d for d in divisors if tuple(d) in exceptions)
    if matched:
        return CheckResult(CheckOutcome.EXCEPTION, matched)
    return CheckResult(CheckOutcome.CRITERION_HOLDS, ())


def reider_report(
    L2: int, mode: str, divisors: Sequence[tuple[int, int]] = ()
) -> BoundReport:
    """The Reider report; its threshold is the least L^2 the mode needs."""
    res = reider_check(L2, mode, divisors)
    return BoundReport("reider", {"L2": L2, "mode": mode, "divisors": divisors},
                       5 if mode == "spanned" else 10, res.outcome.value, {"matched": res.matched})


def bes_check(L2: int, p: int, divisors: Sequence[tuple[int, int]] = ()) -> CheckResult:
    """Beltrametti-Sommese p-jet criterion: applicable when L^2 > 4p; a
    divisor is exceptional when L.D - p <= D^2 < L.D / 2 (upper bound strict,
    compared exactly at the rational midpoint)."""
    check_int("jet order", p, 1)
    if L2 <= 4 * p:
        return CheckResult(CheckOutcome.INAPPLICABLE, ())
    matched = tuple(
        (LD, D2)
        for LD, D2 in divisors
        if LD - p <= D2 and Fraction(D2) < Fraction(LD, 2)
    )
    if matched:
        return CheckResult(CheckOutcome.EXCEPTION, matched)
    return CheckResult(CheckOutcome.CRITERION_HOLDS, ())


def bes_report(L2: int, p: int, divisors: Sequence[tuple[int, int]] = ()) -> BoundReport:
    """The Beltrametti-Sommese report; its threshold is 4p, which L^2 must exceed."""
    res = bes_check(L2, p, divisors)
    return BoundReport("bes-jets", {"L2": L2, "p": p, "divisors": divisors}, 4 * p,
                       res.outcome.value, {"matched": res.matched})


def surface_nadel_criterion(jets: JetSpec, L2: int, minLC: int) -> BoundReport:
    """Surface jet criterion with p = sum (2 + s_j)^2: satisfied iff both
    L^2 > p and min L.C > p (strict)."""
    p = sum((2 + s) ** 2 for s in jets.orders)
    satisfied = L2 > p and minLC > p
    return BoundReport(
        theorem="surface-nadel",
        inputs={"jets": list(jets.orders), "L2": L2, "minLC": minLC},
        threshold=p,
        verdict="satisfied" if satisfied else "unsatisfied",
        details={"L2_ok": L2 > p, "LC_ok": minLC > p},
    )


def surface_report(jets: Sequence[int], L2: int, minLC: int) -> BoundReport:
    """surface_nadel_criterion for the jet orders ``jets``."""
    return surface_nadel_criterion(JetSpec(tuple(jets)), L2, minLC)
