"""Multiplier ideals of monomial weights and SNC Q-divisors.

The monomial case: for the weight log(|z_1|^a1 + ... + |z_p|^ap) the ideal is
generated by the monomials z^beta with sum_j (beta_j + 1)/a_j > 1, strictly
(the boundary integral diverges).  Its minimal generators come straight from
the staircase of least last exponents, one exact floor per prefix (Howald,
Multiplier ideals of monomial ideals, Trans. AMS 353 (2001)), on a pruned
depth-first walk over the prefixes in decreasing weight, where every leaf is
a generator: O(p^2) per generator, not the box of all prefixes.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .core import InputError, QLike, Record, check_at_least, check_int
from .report import BoundReport


class MonomialWeightData(Record):
    __slots__ = ("alpha",)  # a tuple of positive Fractions

    def _check(self) -> None:
        if not self.alpha:
            raise InputError("alpha must list at least one weight exponent")
        for a in self.alpha:
            check_at_least("weight exponent", a, 0, strict=True)

    @staticmethod
    def of(*alpha: QLike) -> "MonomialWeightData":
        return MonomialWeightData(tuple(Fraction(a) for a in alpha))


class MonomialIdeal(Record):
    """Monomial ideal given by its minimal generators (an antichain), a frozenset."""

    __slots__ = ("generators",)

    def contains(self, beta: Sequence[int]) -> bool:
        return any(all(b >= g for b, g in zip(beta, gen)) for gen in self.generators)

    @property
    def is_trivial(self) -> bool:
        p = len(next(iter(self.generators), ()))
        return tuple(0 for _ in range(p)) in self.generators

    def sorted_generators(self) -> list[tuple[int, ...]]:
        return sorted(self.generators, reverse=True)


def membership_criterion(alpha: Sequence[Fraction], beta: Sequence[int]) -> bool:
    """Strict integrability criterion sum (beta_j + 1)/alpha_j > 1."""
    for a in alpha:
        check_at_least("weight exponent", a, 0, strict=True)
    return sum(Fraction(b + 1, 1) / a for b, a in zip(beta, alpha)) > 1


def monomial_multiplier_ideal(w: MonomialWeightData) -> MonomialIdeal:
    """Minimal generators of the multiplier ideal, read off the staircase.

    With integer weights w_j = L / alpha_j (L the lcm of the numerators) the
    criterion reads E(beta) = sum_j (beta_j + 1) w_j - L > 0, and a member is
    a minimal generator iff E(beta) <= w_j for every j with beta_j > 0, as
    lowering beta_j by one takes w_j off E.  The coordinates are walked in
    order of decreasing weight, so the last has the least weight w_p, and each
    generator is mapped back to the input order.  For a prefix with rest = L -
    sum_(j<p) (beta_j + 1) w_j the least last exponent is least = max(0,
    floor(rest / w_p)), so E = (least + 1) w_p - rest.

    The prefixes are walked depth first on an explicit stack, so p is not
    bounded by the recursion limit.  A prefix's zero completion has excess
    E0 = (sum of w_i after it) - rest; every completion has E >= E0 and a
    minimal one has E <= wmin, the least w_j over the positive prefix entries
    (sum_j w_j if none), so a prefix with E0 > wmin holds no generator.
    Raising beta_j raises E0 by w_j and can only lower wmin, so beta_j is
    raised only while E0 <= wmin; a zero entry keeps both, and the empty
    prefix has E0 = sum_j w_j - L <= wmin.

    So every leaf is a generator: with least > 0, E <= w_p <= every w_j, so E
    <= wmin; with least = 0, E = E0 <= wmin.  Every visited prefix has a leaf
    below it, its zero completion, so the walk visits at most p G prefixes
    for G generators, O(p^2 G) work: 3 prefixes for the 2 generators at alpha
    = (10^7, 2), where the input order would visit 5 10^6.
    """
    alpha = w.alpha
    L = math.lcm(*(a.numerator for a in alpha))
    weights = [a.denominator * (L // a.numerator) for a in alpha]
    order = sorted(range(len(alpha)), key=weights.__getitem__, reverse=True)
    back = sorted(range(len(alpha)), key=order.__getitem__)  # coordinate j is walked at back[j]
    *head, last = walked = [weights[j] for j in order]
    after = [*itertools.accumulate(walked[:0:-1])][::-1]  # after[j] = sum(walked[j+1:])
    generators = []
    stack = [((), L, sum(weights))]  # (prefix, rest, wmin)
    while stack:
        prefix, rest, wmin = stack.pop()
        j = len(prefix)
        if j == len(head):
            beta = prefix + (max(0, rest // last),)
            generators.append(tuple([beta[i] for i in back]))
            continue
        wj = head[j]
        rest -= wj
        stack.append((prefix + (0,), rest, wmin))
        b, rest, wmin = 1, rest - wj, min(wmin, wj)
        while rest + wmin >= after[j]:  # E0 <= wmin for prefix + (b,)
            stack.append((prefix + (b,), rest, wmin))
            b, rest = b + 1, rest - wj
    return MonomialIdeal(frozenset(generators))


def mult_ideal_report(alpha: Sequence[QLike]) -> BoundReport:
    """The monomial-multiplier-ideal report: minimal generators, no threshold."""
    ideal = monomial_multiplier_ideal(MonomialWeightData.of(*alpha))
    return BoundReport("monomial-multiplier-ideal", {"alpha": alpha}, None,
                       "trivial" if ideal.is_trivial else "nontrivial",
                       {"generators": ideal.sorted_generators()})


def snc_round_down(coeffs: Sequence[QLike]) -> tuple[int, ...]:
    """Round-down of a normal-crossing Q-divisor sum a_j D_j: the multiplier
    ideal is the sheaf of functions divisible by prod g_j^{floor(a_j)}."""
    for a in coeffs:
        check_at_least("divisor coefficient", a, 0)
    return tuple(math.floor(a) for a in coeffs)


class SkodaClass(Enum):
    TRIVIAL = "trivial"
    INDETERMINATE = "indeterminate"
    CONTAINED_IN_POWER = "contained_in_power"


class SkodaResult(Record):
    __slots__ = ("kind", "power")  # I(phi) is inside m^power when kind is CONTAINED_IN_POWER


def skoda_classify(nu: QLike, n: int) -> SkodaResult:
    """Classify the local multiplier ideal from the Lelong number alone.

    nu < 1 forces the trivial ideal; nu >= n + s forces containment in the
    (s+1)-st power of the maximal ideal; in between nothing is decided.
    """
    check_int("n", n, 1)
    nu = Fraction(nu)
    check_at_least("Lelong number", nu, 0)
    if nu < 1:
        return SkodaResult(SkodaClass.TRIVIAL, None)
    if nu >= n:
        s = math.floor(nu - n)
        return SkodaResult(SkodaClass.CONTAINED_IN_POWER, s + 1)
    return SkodaResult(SkodaClass.INDETERMINATE, None)
