"""Hovanski-Teissier convexity inequalities and algebraic Morse criteria.

The n-th-root inequalities are decided exactly by raising both sides to an
integer power, for rational and interval inputs alike; the slack that a
report prints is enclosed by the ends of certified root brackets.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .core import (
    DEFAULT_TOL, Bracket, InputError, QLike, Record, check_n, check_tol, dyadic_fraction,
    elem_sym_rows, grid_bits, root_ends,
)
from .report import BoundReport


class Verdict(Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    UNKNOWN = "unknown"


class InequalityResult(Record):
    __slots__ = ("verdict", "slack", "equality")  # slack: LHS minus RHS, a Bracket


def ht_products(
    selfints: Sequence[Union[Bracket, QLike]],
    mixed: QLike,
    tol: QLike = DEFAULT_TOL,
) -> InequalityResult:
    """Certify u_1...u_n >= (u_1^n)^(1/n) ... (u_n^n)^(1/n) for nef classes.

    Decided exactly on powers, for points and intervals alike: unknown only
    when the box of self-intersections straddles the inequality.  The slack
    is one bracket at tol.  A Violated verdict flags nef-inconsistent data.
    """
    n = len(selfints)
    if n == 0:
        raise InputError("selfints must list at least one self-intersection")
    mixed, tol = Fraction(mixed), check_tol(tol)
    brackets = [b if isinstance(b, Bracket) else Bracket.point(b) for b in selfints]
    if any(b.lo < 0 for b in brackets):
        raise InputError("self-intersections of nef classes must be nonnegative")

    # a product of n-th roots is the increasing n-th root of the product: the slack's ends are
    # m/d less t / (c 2^e), the upper end of top^(1/n) and the lower end of bottom^(1/n), each
    # (lo, hi, e, c) over c 2^e (core.root_ends), so on point inputs it is at most tol wide
    bottom, top = math.prod(b.lo for b in brackets), math.prod(b.hi for b in brackets)
    k, m, d = grid_bits(tol), mixed.numerator, mixed.denominator
    low = root_ends(bottom, n, k)
    high = low if top == bottom else root_ends(top, n, k)
    slack = Bracket(*[dyadic_fraction((m * c << e) - d * t, e, d * c)
                      for t, e, c in ((high[1], *high[2:]), (low[0], *low[2:]))])
    # mixed >= g^(1/n)  <=>  mixed^n >= g, for mixed >= 0
    holds, violated = mixed >= 0 and mixed ** n >= top, mixed < 0 or mixed ** n < bottom
    verdict = Verdict.HOLDS if holds else Verdict.VIOLATED if violated else Verdict.UNKNOWN
    return InequalityResult(verdict, slack,
                            verdict is Verdict.HOLDS and mixed ** n == bottom)  # equality


def _inequality_report(theorem: str, inputs: dict, res: InequalityResult) -> BoundReport:
    """An inequality's report: the certified slack is its threshold."""
    return BoundReport(theorem, inputs, res.slack, res.verdict.value, {"equality": res.equality})


def ht_products_report(
    selfints: Sequence[Union[Bracket, QLike]], mixed: QLike, tol: QLike = DEFAULT_TOL
) -> BoundReport:
    """ht_products as a report."""
    return _inequality_report("ht-products", {"selfints": selfints, "mixed": mixed},
                              ht_products(selfints, mixed, tol))


def _at_least(big: Fraction, small: Fraction) -> InequalityResult:
    """The exact inequality big >= small, with slack big - small."""
    verdict = Verdict.HOLDS if big >= small else Verdict.VIOLATED
    return InequalityResult(verdict, Bracket.point(big - small), big == small)  # equality


def ht_mixed_chain(Ln: QLike, LH: QLike, LnpHp: QLike, n: int, p: int) -> InequalityResult:
    """Certify (L^(n-p).H^p)^(1/p) (L^n)^(1-1/p) <= L^(n-1).H.

    Decided exactly: for nonnegative data the inequality is equivalent to
    (L^(n-p).H^p) * (L^n)^(p-1) <= (L^(n-1).H)^p.
    """
    check_n(n)
    if not (1 <= p <= n):
        raise InputError("need 1 <= p <= n")
    Ln, LH, LnpHp = Fraction(Ln), Fraction(LH), Fraction(LnpHp)
    if min(Ln, LH, LnpHp) < 0:
        raise InputError("intersection numbers must be nonnegative")
    return _at_least(LH ** p, LnpHp * Ln ** (p - 1))


def ht_chain_report(Ln: QLike, LH: QLike, LnpHp: QLike, n: int, p: int) -> BoundReport:
    """ht_mixed_chain as a report."""
    return _inequality_report("ht-chain", {"Ln": Ln, "LH": LH, "LnpHp": LnpHp, "n": n, "p": p},
                              ht_mixed_chain(Ln, LH, LnpHp, n, p))


def diag_form_check(lambdas: Sequence[QLike], p: int) -> InequalityResult:
    """Certify p!(n-p)! S_p(lambda) >= n! (lambda_1...lambda_n)^(p/n),
    with exact equality detection (equality iff all lambda equal)."""
    vals = [Fraction(v) for v in lambdas]
    if not vals:
        raise InputError("lambdas must list at least one eigenvalue")
    if any(v <= 0 for v in vals):
        raise InputError("eigenvalues must be positive")
    n = len(vals)
    if not (0 <= p <= n):
        raise InputError("need 0 <= p <= n")
    lhs = math.factorial(p) * math.factorial(n - p) * elem_sym_rows(vals)[-1][p]
    prod = math.prod(vals)
    # lhs >= n! prod^(p/n)  <=>  lhs^n >= (n!)^n prod^p  (both sides positive)
    return _at_least(lhs ** n, Fraction(math.factorial(n)) ** n * prod ** p)


def ht_diag_report(lambdas: Sequence[QLike], p: int) -> BoundReport:
    """diag_form_check as a report."""
    return _inequality_report("ht-diag", {"lambdas": lambdas, "p": p}, diag_form_check(lambdas, p))


def morse_strong_rhs(n: int, values: Mapping[int, QLike], q: int) -> Fraction:
    """Right side of the asymptotic strong Morse inequality (coefficient of
    k^n/n!): sum over j <= q of (-1)^(q-j) C(n,j) F^(n-j).G^j, with
    values[j] = F^(n-j).G^j."""
    check_n(n)
    if not (0 <= q <= n):
        raise InputError("need 0 <= q <= n")
    if missing := [j for j in range(q + 1) if j not in values]:
        raise InputError(f"mixed product F^{n - missing[0]}.G^{missing[0]} not supplied")
    return sum((-1) ** (q - j) * math.comb(n, j) * Fraction(values[j]) for j in range(q + 1))


def morse_existence_threshold(Fn: QLike, FG: QLike, n: int) -> int:
    """Smallest integer m with m > n * F^(n-1).G / F^n (strict); some
    multiple of mF - G then has a section."""
    Fn, FG = Fraction(Fn), Fraction(FG)
    check_n(n)
    if Fn <= 0:
        raise InputError("F^n must be positive (F big)")
    if FG < 0:
        raise InputError("F^(n-1).G must be nonnegative")
    return math.floor(n * FG / Fn) + 1


def trapani_lower(Fn: QLike, FG: QLike, n: int) -> Fraction:
    """Lower bound F^n - n F^(n-1).G for n!(h^0 - h^1)/k^n; positive means
    some multiple of F - G has sections."""
    check_n(n)
    return Fraction(Fn) - n * Fraction(FG)


def morse_report(n: int, Fn: QLike, FG: QLike) -> BoundReport:
    """The morse-existence report, with Trapani's lower bound in its details."""
    m = morse_existence_threshold(Fn, FG, n)
    return BoundReport("morse-existence", {"n": n, "Fn": Fn, "FG": FG}, m,
                       f"some multiple of mF-G has a section for m >= {m}",
                       {"trapani_lower": trapani_lower(Fn, FG, n)})


def singular_morse_Aq(n: int, q: int, b: QLike, cup_uq_times: QLike) -> Fraction:
    """Cohomology growth constant A_q = b^q * [u^q.(c1(L)+b u)^(n-q)] / (q!(n-q)!).

    The cup product u^q.(c1(L)+b u)^(n-q) is caller-supplied; b is the
    jumping value b_(n-q+1).
    """
    check_n(n)
    if not (0 <= q <= n):
        raise InputError("need 0 <= q <= n")
    b = Fraction(b)
    if b < 0:
        raise InputError("jumping value must be nonnegative")
    return b ** q * Fraction(cup_uq_times) / (math.factorial(q) * math.factorial(n - q))
