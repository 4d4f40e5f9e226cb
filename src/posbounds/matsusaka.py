"""Effective very-ampleness thresholds for multiples of an ample bundle.

Existence windows for sections of mL - B, the explicit main bound with its
internal recursion, the two published policies for the auxiliary constant
lambda_n, and the surface specialisations.  Every exponent in these bounds
is an integer (see _main_exponents), so they are exact rationals, reported as
point Brackets.  The main bound and the closed-form auxiliary sequence are
assembled over a coprime base of their small integer inputs (_power_product),
so a threshold of tens of thousands of bits is reduced with no gcd of two big
integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .core import Bracket, InputError, QLike, Record, check_n
from .report import BoundReport


def _volume(Ln: QLike) -> Fraction:
    """The volume L^n of an ample L as a Fraction; raises InputError unless L^n >= 1."""
    if (Ln := Fraction(Ln)) < 1:
        raise InputError("L^n must be >= 1")
    return Ln


def prop131_window(n: int, LB: QLike, Ln: QLike) -> int:
    """Some m with a section of mL - B satisfies m <= floor(n LB / L^n) + 1 + n."""
    check_n(n)
    Ln = _volume(Ln)
    LB = Fraction(LB)
    if LB < 0:
        raise InputError("L^(n-1).B must be nonnegative for nef B")
    m0 = math.floor(n * LB / Ln) + 1
    return m0 + n


def cor132_window(n: int, LB: QLike, LK: QLike, Ln: QLike) -> int:
    """Existence window for mL - B with B augmented by K_X + (n+1)L:
    m <= n((LB + LK)/L^n + n + 1), rounded up."""
    check_n(n)
    return math.ceil(n * ((Fraction(LB) + Fraction(LK)) / _volume(Ln) + n + 1))


def corollary85_threshold(n: int) -> int:
    """m(K+(n+2)L)+G is very ample for m >= C(3n+1, n) - 2n."""
    check_n(n)
    return math.comb(3 * n + 1, n) - 2 * n


def lambda_n(n: int, policy: Union[str, int]) -> int:
    """Constant lambda_n with lambda_n(K+(n+2)L) very ample: the binomial
    policy of Corollary 8.5 (corollary85_threshold, C(3n+1, n) - 2n), the
    cubic policy n^3 - n^2 - n - 1 (n >= 2), or an explicit positive integer."""
    check_n(n, 2 if policy == "angehrn-siu" else 1)
    if isinstance(policy, int):
        if type(policy) is not int or policy < 1:  # the integer rule of check_n: no bool
            raise InputError("explicit lambda must be a positive integer")
        return policy
    if policy == "demailly":
        return corollary85_threshold(n)
    if policy == "angehrn-siu":
        return n ** 3 - n ** 2 - n - 1
    raise InputError(f"unknown lambda policy {policy!r}")


class MatsusakaInputs(Record):
    """Intersection data for the main bound: Ln, LB and LK are Fractions."""

    __slots__ = ("n", "Ln", "LB", "LK", "lambda_policy")

    def _check(self) -> None:
        check_n(self.n, 2)
        _volume(self.Ln)
        if self.LB < 0:
            raise InputError("L^(n-1).B must be nonnegative")

    @staticmethod
    def of(
        n: int, Ln: QLike, LB: QLike, LK: QLike, lambda_policy: Union[str, int] = "demailly"
    ) -> "MatsusakaInputs":
        return MatsusakaInputs(n, Fraction(Ln), Fraction(LB), Fraction(LK), lambda_policy)


def _main_exponents(n: int) -> tuple[int, int, int, int]:
    # Every exponent here is an integer: 3^(n-1) is odd, and
    # 3^(n-2)(2n-3) = 1, 3^(n-2)(2n-1) = -1 (mod 4),
    # because mod 4, 3^(n-2) = 3 and 2n = 2 for odd n, 3^(n-2) = 1 and 2n = 0
    # for even n.
    pre = (3 ** (n - 1) - 1) // 2
    ebh = (3 ** (n - 1) + 1) // 2
    eh = (3 ** (n - 2) * (2 * n - 3) - 1) // 4  # 3^(n-2)(n/2 - 3/4) - 1/4
    eln = (3 ** (n - 2) * (2 * n - 1) + 1) // 4  # 3^(n-2)(n/2 - 1/4) + 1/4
    return pre, ebh, eh, eln


def _power_product(factors: Iterable[tuple[QLike, int]]) -> Fraction:
    """The product of x^e over pairs (x, e), x a nonnegative int or Fraction
    (positive where e < 0), in lowest terms with no gcd of two big integers.

    Pairs with e = 0 are dropped, and 0^e = 0 for e > 0.  The numerators
    (exponent e) and denominators (-e) are refined, as for a coprime base
    (Bernstein, J. Algorithms 54, 2005), into the sides num (exponents > 0) and
    den (< 0), each element of one coprime to each of the other: a pending
    (y, e) and a (b, f) of the other side with g = gcd(y, b) > 1, y = g^i y' and
    b = g^j b' (g dividing neither y' nor b'), give way to the pending (b', f),
    (g, ie + jf) and (y', e), the same product; else y joins its side.  Pending
    1s and zero exponents are dropped.  Each split divides the product of all
    values by g^(i+j-1) > 1 and each other step shortens the pending list, so
    the loop ends.  The sides' products then share no factor, so the slots of
    the canonical Fraction are set directly, each side raised in one pass."""
    pending = []
    for x, e in factors:
        if e:
            if not x:
                return Fraction(0)
            pending += (x.numerator, e), (x.denominator, -e)
    num, den = {}, {}
    while pending:
        y, e = pending.pop()
        if y == 1 or not e:
            continue
        side, other = (num, den) if e > 0 else (den, num)
        for b, f in other.items():
            g = math.gcd(y, b)
            if g > 1:
                del other[b]
                k = 0
                while not y % g:
                    y, k = y // g, k + e
                while not b % g:
                    b, k = b // g, k + f
                pending += (b, f), (g, k), (y, e)
                break
        else:
            side[y] = side.get(y, 0) + e
    result = object.__new__(Fraction)
    result._numerator = _simultaneous_power(num)
    result._denominator = _simultaneous_power({b: -e for b, e in den.items()})
    return result


def _simultaneous_power(side: dict[int, int]) -> int:
    """The product of b^e over side's items (e > 0), by one left-to-right pass
    over the exponent bits (Shamir/Straus; Knuth, TAOCP vol. 2, sec. 4.6.3):
    square the running product, then multiply in each base whose bit is set.
    The only big product is the running product's square: multiplying the
    separate big powers together cost more than raising them.  With one base,
    or exponents below 2^7, each b ** e is taken as it is, which is faster
    there."""
    if len(side) < 2 or (top := max(side.values())) < 128:
        return math.prod(b ** e for b, e in side.items())
    result = 1
    for i in range(top.bit_length() - 1, -1, -1):
        result *= result
        for b, e in side.items():
            if e >> i & 1:
                result *= b
    return result


def matsusaka_main(inputs: MatsusakaInputs) -> BoundReport:
    """The explicit bound: mL - B is very ample whenever
    m >= (2n)^((3^(n-1)-1)/2) (LBH)^((3^(n-1)+1)/2) (LH)^(e_H) / (L^n)^(e_L)
    with e_H = 3^(n-2)(n/2 - 3/4) - 1/4 and e_L = 3^(n-2)(n/2 - 1/4) + 1/4,
    where H = lambda_n (K_X + (n+2)L)."""
    n = inputs.n
    lam = lambda_n(n, inputs.lambda_policy)
    LH = lam * (inputs.LK + (n + 2) * inputs.Ln)
    LBH = inputs.LB + LH
    if LH < 0 or LBH < 0:
        raise InputError("L^(n-1).H and L^(n-1).(B+H) must be nonnegative")
    pre, ebh, eh, eln = _main_exponents(n)
    bound = _power_product(((2 * n, pre), (LBH, ebh), (LH, eh), (inputs.Ln, -eln)))
    m_int = math.ceil(bound)
    return BoundReport(
        theorem="matsusaka-main",
        inputs={
            "n": n,
            "Ln": inputs.Ln,
            "LB": inputs.LB,
            "LK": inputs.LK,
            "LH": LH,
            "LBH": LBH,
            "lambda": lam,
        },
        threshold=Bracket.point(bound),
        verdict=f"mL-B very ample for all integers m >= {m_int}",
        details={"m_integer": m_int, "exponents": {"pre": pre, "LBH": ebh, "LH": eh, "Ln": eln}},
    )


def matsusaka_report(
    n: int, Ln: QLike, LK: QLike, LB: QLike = 0, policy: Union[str, int] = "demailly"
) -> BoundReport:
    """matsusaka_main for the given data; for surfaces with B = 0 the details
    add the sharper surface bound and the factor-4 bound as
    ``surface_comparison``."""
    report = matsusaka_main(MatsusakaInputs.of(n, Ln, LB, LK, policy))
    if n == 2 and LB == 0:
        fdb, factor4 = fdb_surface_bound(Ln, LK + 4 * Ln)
        report.details["surface_comparison"] = {"fdb": fdb, "factor4": factor4}
    return report


def mbar_recursion(
    n: int, M: QLike, LH: QLike, Ln: QLike
) -> tuple[list[Fraction], list[Fraction], bool]:
    """Auxiliary sequence for the main bound, both ways.

    Recursive: mbar_n = M/L^n, mbar_p = M (LH)^p / (L^n)^(p-1) *
    (mbar_{p+1} ... mbar_n)^2.  Closed form: mbar_p = M^(3^(n-p))
    (LH)^((3^(n-p-1)(2n-3)+1)/2) / (L^n)^((3^(n-p-1)(2n-1)+1)/2).
    Returns (recursive list for p = n..1, closed-form list, exact-agreement
    flag); all exponents are integers so both paths are exact rationals.
    """
    check_n(n)
    M, LH, Ln = Fraction(M), Fraction(LH), Fraction(Ln)
    if min(M, LH, Ln) <= 0:
        raise InputError("M, LH, L^n must be positive")
    rec = [M / Ln]  # index 0 holds mbar_n
    for p in range(n - 1, 0, -1):
        tail_sq = math.prod(rec) ** 2
        rec.append(M * LH ** p / Ln ** (p - 1) * tail_sq)
    closed = [M / Ln]
    for p in range(n - 1, 0, -1):
        eh = (3 ** (n - p - 1) * (2 * n - 3) + 1) // 2
        el = (3 ** (n - p - 1) * (2 * n - 1) + 1) // 2
        closed.append(_power_product(((M, 3 ** (n - p)), (LH, eh), (Ln, -el))))
    return rec, closed, rec == closed


def m0_assembly(mbars: list[Fraction], LBH: QLike) -> Fraction:
    """m0 = max(mbar_n, ..., mbar_2, (mbar_2 ... mbar_n) * L^(n-1).(B+H))."""
    if not mbars:
        raise InputError("need at least one mbar value")
    vals = [Fraction(m) for m in mbars]
    return max(max(vals), math.prod(vals) * Fraction(LBH))


def fdb_surface_bound(L2: QLike, LKp4L: QLike) -> tuple[Fraction, Fraction]:
    """Surface thresholds for mL very ample: the sharper bound
    ((L.(K+4L) + 1)^2 / L^2 + 3) / 2 (strict), paired with the factor-4
    bound 4 (L.(K+4L))^2 / L^2 from the general formula."""
    L2 = _volume(L2)
    LKp4L = Fraction(LKp4L)
    fdb = ((LKp4L + 1) ** 2 / L2 + 3) / 2
    factor4 = 4 * LKp4L ** 2 / L2
    return fdb, factor4
