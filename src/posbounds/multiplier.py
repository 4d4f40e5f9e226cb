"""Multiplier ideals of monomial weights and SNC Q-divisors.

The monomial case: for the weight log(|z_1|^a1 + ... + |z_p|^ap) the ideal is
generated by the monomials z^beta with sum_j (beta_j + 1)/a_j > 1, strictly
(the boundary integral diverges).  Its minimal generators come straight from
the staircase of least last exponents, one exact floor per prefix (Howald,
Multiplier ideals of monomial ideals, Trans. AMS 353 (2001)).
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .core import InputError, QLike, Record, check_n
from .report import BoundReport


class MonomialWeightData(Record):
    __slots__ = ("alpha",)  # a tuple of positive Fractions

    def _check(self) -> None:
        if not self.alpha or any(a <= 0 for a in self.alpha):
            raise InputError("weight exponents must be positive")

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
    if any(a <= 0 for a in alpha):
        raise InputError("weight exponents must be positive")
    return sum(Fraction(b + 1, 1) / a for b, a in zip(beta, alpha)) > 1


def monomial_multiplier_ideal(w: MonomialWeightData) -> MonomialIdeal:
    """Minimal generators of the multiplier ideal, read off the staircase.

    With integer weights w_j = L / alpha_j (L the lcm of the numerators) the
    criterion reads sum_j (beta_j + 1) w_j > L, so for each prefix
    beta_1..beta_{p-1} the least last exponent is
    max(0, floor((L - sum_{j<p} (beta_j + 1) w_j) / w_p)), that is
    floor(alpha_p (1 - sum_{j<p} (beta_j + 1)/alpha_j)) clamped at 0.  The
    prefix with that last exponent is a minimal generator iff lowering any
    positive prefix entry strictly raises the least last exponent.  A minimal
    generator has beta_j <= ceil(alpha_j) (beta_j + 1 > alpha_j alone meets
    the criterion), so only the prefix box is visited: O(prefix box * p).
    """
    alpha = w.alpha
    L = math.lcm(*(a.numerator for a in alpha))
    *head, last = [a.denominator * (L // a.numerator) for a in alpha]
    generators = []
    for prefix in itertools.product(*(range(math.ceil(a) + 1) for a in alpha[:-1])):
        rest = L - sum((b + 1) * wj for b, wj in zip(prefix, head))
        least = max(0, rest // last)
        if all(b == 0 or (rest + wj) // last > least for b, wj in zip(prefix, head)):
            generators.append(prefix + (least,))
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
    if any(a < 0 for a in coeffs):
        raise InputError("divisor coefficients must be nonnegative")
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
    check_n(n)
    nu = Fraction(nu)
    if nu < 0:
        raise InputError("Lelong number must be nonnegative")
    if nu < 1:
        return SkodaResult(SkodaClass.TRIVIAL, None)
    if nu >= n:
        s = math.floor(nu - n)
        return SkodaResult(SkodaClass.CONTAINED_IN_POWER, s + 1)
    return SkodaResult(SkodaClass.INDETERMINATE, None)
