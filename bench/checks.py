"""Independent correctness checks, run outside the timed region.

Each check uses exact integer arithmetic written here, golden values from the
acceptance tests, or a structural property of the answer.  None calls
posbounds.  A check raises ``CheckFailed`` when the answer is wrong.

Results are read by duck typing: a bracket is anything with ``lo``/``hi``.
Reports are read only for schema, theorem, verdict and threshold.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import NamedTuple

# Golden values from tests/test_acceptance.py.
SURFACE_TABLE = {"spanned": (4, 2), "separation": ((8, 6), (9, 5), (12, 4)), "spanned_m": 3, "very_ample_m": 5}
GOLDEN_CN = {2: Fraction(1), 3: Fraction(17, 13)}
REIDER = {"spanned": (5, {(0, -1), (1, 0)}),
          "separation": (10, {(0, -1), (0, -2), (1, 0), (1, -1), (2, 0)})}


class CheckFailed(Exception):
    pass


class Interval(NamedTuple):
    lo: Fraction
    hi: Fraction


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---------------------------------------------------------------- arithmetic

def root_floor(a: int, k: int) -> int:
    """floor(a ** (1/k)), verified by its defining inequality."""
    if a < 2 or k == 1:
        return a
    x = 1 << -(-a.bit_length() // k)
    while True:
        y = ((k - 1) * x + a // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > a:
        x -= 1
    while (x + 1) ** k <= a:
        x += 1
    return x


def root_interval(r: Fraction, k: int, digits: int) -> Interval:
    """Rational interval of width 10**-digits around r ** (1/k), r >= 0."""
    scale = 10 ** digits
    t = root_floor(r.numerator * scale ** k // r.denominator, k)
    return Interval(Fraction(t, scale), Fraction(t + 1, scale))


def poly_value(coeffs, m: int) -> int:
    return sum(c * math.comb(m, j) for j, c in enumerate(coeffs))


def elem_sym(values, j: int) -> Fraction:
    return sum((math.prod(c) for c in itertools.combinations(values, j)), Fraction(0))


def bracket_of(threshold) -> Interval:
    """A decoded schema threshold (int, {num, den} or {lo, hi}) as an interval."""
    if isinstance(threshold, dict) and set(threshold) == {"lo", "hi"}:
        return Interval(bracket_of(threshold["lo"]).lo, bracket_of(threshold["hi"]).lo)
    if isinstance(threshold, dict) and set(threshold) == {"num", "den"}:
        x = Fraction(threshold["num"], threshold["den"])
    elif isinstance(threshold, (int, Fraction)) and not isinstance(threshold, bool):
        x = Fraction(threshold)
    else:
        raise CheckFailed(f"threshold is not a number or bracket: {threshold!r}")
    return Interval(x, x)


def check_report_text(text: str, theorem: str, verdict: str) -> None:
    doc = json.loads(text)
    require(isinstance(doc, dict), "report is not an object")
    require(isinstance(doc.get("schema"), int) and doc["schema"] >= 1, "report has no schema version")
    require(doc.get("theorem") == theorem, f"theorem {doc.get('theorem')!r} != {theorem!r}")
    require(doc.get("verdict") == verdict, f"verdict {doc.get('verdict')!r} != {verdict!r}")


# ---------------------------------------------------------------- core

def check_iroot(a: int, k: int, result) -> None:
    r, exact = result
    require(r >= 0 and r ** k <= a < (r + 1) ** k, "iroot is not the floor root")
    require(exact == (r ** k == a), "iroot exactness flag is wrong")


def check_root_bracket(value: Fraction, k: int, tol: Fraction, b) -> None:
    """b encloses value ** (1/k): lo^k <= value <= hi^k, width <= tol."""
    require(0 <= b.lo <= b.hi, "bracket endpoints out of order")
    require(b.lo ** k <= value <= b.hi ** k, "bracket does not enclose the root")
    if b.lo == b.hi:
        require(b.lo ** k == value, "point bracket is not the exact root")
    else:
        require(b.hi - b.lo <= tol, "bracket wider than the tolerance")


def check_pow_bracket(x: Fraction, e: Fraction, tol: Fraction, b) -> None:
    """b encloses x ** (p/q): lo^q <= x^p <= hi^q."""
    if e.denominator == 1:
        require(b.lo == b.hi == x ** e.numerator, "integer power is not exact")
        return
    check_root_bracket(x ** e.numerator, e.denominator, tol, b)


def check_mu(per_dim: dict[int, int], n: int, tol: Fraction, b) -> None:
    """b encloses min_p v_p^(1/p)."""
    require(b.lo >= 0 and all(b.lo ** p <= per_dim[p] for p in range(1, n + 1)), "mu lower end too high")
    require(any(b.hi ** p >= per_dim[p] for p in range(1, n + 1)), "mu upper end too low")
    require(b.hi - b.lo <= tol, "mu bracket wider than the tolerance")


# ---------------------------------------------------------------- jumping

def check_sigma(sigma0: Fraction, Ln: Fraction, n: int, tol: Fraction, brackets) -> None:
    """sigma_p = L^n (1 - q^(p/n)), q = 1 - sigma0/L^n, checked by powers."""
    require(len(brackets) == n - 1, "wrong number of sigma values")
    qq = 1 - sigma0 / Ln
    for p, s in enumerate(brackets, 1):
        top, bottom = 1 - s.lo / Ln, 1 - s.hi / Ln
        require(qq ** p <= top ** n, f"sigma_{p} lower end too high")
        require(bottom < 0 or bottom ** n <= qq ** p, f"sigma_{p} upper end too low")
        require(s.hi - s.lo <= Ln * tol, f"sigma_{p} wider than the tolerance")
        require(sigma0 * p / n < s.lo and s.hi < sigma0, f"sigma_{p} outside (sigma0 p/n, sigma0)")
    require(all(a.hi < b.lo for a, b in zip(brackets, brackets[1:])), "sigma values not increasing")


def _beta_interval(n: int, p: int, digits: int) -> Interval:
    e = Fraction(n * (n - p), p - 1)  # beta_p = n^-e
    root = root_interval(Fraction(n ** e.numerator), e.denominator, digits)
    return Interval(1 / root.hi, 1 / root.lo)


def check_cn(n: int, tol: Fraction, b) -> None:
    """C_n: golden values at n = 2, 3; otherwise 1 <= C_n < 3 and b meets an
    independent enclosure built from increasing factors (1+(2n+1)x)/(1-x)."""
    if n in GOLDEN_CN:
        require(b.lo == b.hi == GOLDEN_CN[n], f"C_{n} is not {GOLDEN_CN[n]}")
        return
    digits = len(str(tol.denominator)) + 8
    lo = hi = Fraction(1)
    for p in range(2, n):
        beta = _beta_interval(n, p, digits)
        lo *= (1 + (2 * n + 1) * beta.lo) / (1 - beta.lo)
        hi *= (1 + (2 * n + 1) * beta.hi) / (1 - beta.hi)
    require(b.lo <= hi and lo <= b.hi, f"C_{n} bracket misses the true value")
    require(1 <= b.lo and b.hi < 3, f"C_{n} bracket outside [1, 3)")
    require(b.hi - b.lo <= 32 * n * (n + 1) * tol, f"C_{n} bracket too wide")


def main_theorem_rhs(n, sigma0, a, betas, Ln, digits) -> list[Interval]:
    """Enclosures of the right-hand sides for p = 1..n-1."""
    qq = 1 - sigma0 / Ln
    sig = {0: Interval(sigma0, sigma0)}
    for p in range(1, n):
        root = root_interval(qq ** p, n, digits)
        sig[p] = Interval(Ln * (1 - root.hi), Ln * (1 - root.lo))
    out = []
    for p in range(1, n):
        prefix = betas[:p]
        denom = math.prod(betas[p] - b for b in prefix)
        coeffs = [elem_sym(prefix, j) * a ** j / denom for j in range(p)]
        out.append(Interval(sum(c * sig[p - j].lo for j, c in enumerate(coeffs)),
                            sum(c * sig[p - j].hi for j, c in enumerate(coeffs))))
    return out


def check_main_theorem(n, sigma0, a, betas, minY: dict[int, int], Ln, tol, verdict: str, threshold) -> None:
    """"satisfied" needs minY_p above every certified lower end; "unsatisfied"
    needs some p where minY_p is not clearly above the upper end plus the
    widest bracket the tolerance allows."""
    require(bracket_of(threshold) == (sigma0, sigma0), "threshold is not sigma0")
    rhs = main_theorem_rhs(n, sigma0, a, betas, Ln, len(str(tol.denominator)) + 8)
    if verdict == "satisfied":
        require(all(minY[p] > r.lo for p, r in enumerate(rhs, 1)), "satisfied, but some minY is below the bound")
        return
    require(verdict == "unsatisfied", f"unknown verdict {verdict!r}")
    slack = [sum(elem_sym(betas[:p], j) * a ** j for j in range(p)) * Ln * tol
             / math.prod(betas[p] - b for b in betas[:p]) for p in range(1, n)]
    require(any(minY[p] <= r.hi + s for p, r, s in zip(range(1, n), rhs, slack)),
            "unsatisfied, but every minY clearly exceeds its bound")


# ---------------------------------------------------------------- matsusaka

def lambda_n(n: int, policy: str) -> int:
    if policy == "demailly":
        return math.comb(3 * n + 1, n) - 2 * n
    if policy == "angehrn-siu":
        return n ** 3 - n ** 2 - n - 1
    return int(policy)


def matsusaka_expected(n: int, Ln: Fraction, LB: Fraction, LK: Fraction, policy: str) -> Fraction:
    """(2n)^((3^(n-1)-1)/2) LBH^((3^(n-1)+1)/2) LH^eH / Ln^eL; every exponent
    is an integer."""
    LH = lambda_n(n, policy) * (LK + (n + 2) * Ln)
    LBH = LB + LH
    e_h = (3 ** (n - 2) * (2 * n - 3) - 1) // 4
    e_l = (3 ** (n - 2) * (2 * n - 1) + 1) // 4
    return (Fraction(2 * n) ** ((3 ** (n - 1) - 1) // 2) * LBH ** ((3 ** (n - 1) + 1) // 2)
            * LH ** e_h / Ln ** e_l)


def check_matsusaka(n, Ln, LB, LK, policy, threshold) -> None:
    b = bracket_of(threshold) if not hasattr(threshold, "lo") else threshold
    expected = matsusaka_expected(n, Ln, LB, LK, policy)
    if n == 2 and LB == 0 and policy == "1":
        require(expected == 4 * (LK + 4 * Ln) ** 2 / Ln, "surface golden formula disagrees")
    require(b.lo == b.hi == expected, f"Matsusaka bound at n={n} is not the exact multiple")


# ---------------------------------------------------------------- multiplier

def minimal_generators(alpha) -> set[tuple[int, ...]]:
    """Minimal exponents beta with sum (beta_j+1)/alpha_j > 1, by integer
    arithmetic over the box beta_j <= ceil(alpha_j)."""
    L = math.lcm(*(a.numerator for a in alpha))
    weights = [a.denominator * (L // a.numerator) for a in alpha]  # L / alpha_j

    def member(beta) -> bool:
        return sum((b + 1) * w for b, w in zip(beta, weights)) > L

    out = set()
    for beta in itertools.product(*(range(math.ceil(a) + 1) for a in alpha)):
        if member(beta) and not any(
            b > 0 and member(beta[:j] + (b - 1,) + beta[j + 1:]) for j, b in enumerate(beta)
        ):
            out.add(beta)
    return out


def check_multiplier(alpha, generators) -> None:
    """Every generator meets the strict criterion, no generator minus e_j
    does, and no minimal generator is missing."""
    got = {tuple(g) for g in generators}
    expected = minimal_generators(alpha)
    require(not got - expected, f"non-minimal or non-member generators {sorted(got - expected)[:3]}")
    require(not expected - got, f"missing minimal generators {sorted(expected - got)[:3]}")


# ---------------------------------------------------------------- numpoly

def check_window(coeffs, m0: int, target: int, last: int, m: int) -> None:
    """m in [m0, last], P(m) >= target, and m = m0 or P(m-1) < target (P is
    nondecreasing on m >= 0 for nonnegative binomial-basis coefficients)."""
    require(m0 <= m <= last, f"window answer {m} outside [{m0}, {last}]")
    require(poly_value(coeffs, m) >= target, f"P({m}) is below the target {target}")
    require(m == m0 or poly_value(coeffs, m - 1) < target, f"P({m - 1}) already meets the target")


def window_spec(window: str, coeffs, m0: int, N, k) -> tuple[int, int]:
    """(target, last admissible m) of a window lemma."""
    d = len(coeffs) - 1
    if window == "a":
        return N, m0 + N * d
    if window == "b":
        return -(-coeffs[-1] * k ** d // 2 ** (d - 1)), m0 + k * d
    return N, m0 + N


# ---------------------------------------------------------------- adjoint, convexity, lelong

def siu_expected(n: int, jets) -> int:
    return 2 + sum(math.comb(3 * n + 2 * s - 1, n) for s in jets)


def pluri_expected(n: int, case: str, Kn) -> tuple[int, int | None]:
    m0 = math.comb(3 * n + 1, n) + (4 if case == "general_type" else 0)
    return m0, None if Kn is None else m0 ** n * Kn


def reider_expected(L2: int, mode: str, divisors) -> tuple[str, list]:
    min_L2, exceptions = REIDER[mode]
    if L2 < min_L2:
        return "inapplicable", []
    matched = [list(d) for d in divisors if tuple(d) in exceptions]
    return ("exception" if matched else "criterion-holds"), matched


def bes_expected(L2: int, p: int, divisors) -> tuple[str, list]:
    if L2 <= 4 * p:
        return "inapplicable", []
    matched = [[ld, d2] for ld, d2 in divisors if ld - p <= d2 and 2 * d2 < ld]
    return ("exception" if matched else "criterion-holds"), matched


def surface_expected(jets, L2: int, minLC: int) -> tuple[int, str]:
    p = sum((2 + s) ** 2 for s in jets)
    return p, "satisfied" if L2 > p and minLC > p else "unsatisfied"


def morse_expected(n: int, Fn: Fraction, FG: Fraction) -> int:
    return math.floor(n * FG / Fn) + 1


def check_ht_exact(selfints, mixed: Fraction, verdict: str, slack) -> None:
    """slack encloses mixed - (prod u_j^n)^(1/n); verdict decided by powers."""
    n, prod = len(selfints), math.prod(selfints)
    holds = mixed >= 0 and mixed ** n >= prod
    require(verdict == ("holds" if holds else "violated"), f"HT verdict {verdict!r} is wrong")
    gm_lo, gm_hi = mixed - slack.hi, mixed - slack.lo
    require(gm_lo <= 0 or gm_lo ** n <= prod, "HT slack upper end too high")
    require(gm_hi >= 0 and gm_hi ** n >= prod, "HT slack lower end too low")


def check_ht_brackets(selfints: list[Interval], mixed: Fraction, verdict: str) -> None:
    """Interval inputs: holds needs mixed^n >= prod hi, violated needs
    mixed^n < prod lo; unknown is allowed unless one side is clear by 1e-6."""
    n = len(selfints)
    top = math.prod(s.hi for s in selfints)
    bottom = math.prod(s.lo for s in selfints)
    m = mixed ** n
    if verdict == "holds":
        require(m >= top, "holds, but mixed is below the largest geometric mean")
    elif verdict == "violated":
        require(m < bottom, "violated, but mixed is not below the smallest geometric mean")
    else:
        require(verdict == "unknown", f"unknown verdict {verdict!r}")
        eps = Fraction(1, 10**6)
        require(m <= top * (1 + eps) and m >= bottom * (1 - eps), "unknown, but the verdict is clear")


def check_chain(Ln, LH, LnpHp, n, p, verdict: str, slack) -> None:
    diff = LH ** p - LnpHp * Ln ** (p - 1)
    require(verdict == ("holds" if diff >= 0 else "violated"), "HT chain verdict is wrong")
    require(slack.lo == slack.hi == diff, "HT chain slack is wrong")


def check_diag(lambdas, p: int, verdict: str, slack) -> None:
    n = len(lambdas)
    lhs = math.factorial(p) * math.factorial(n - p) * elem_sym(lambdas, p)
    diff = lhs ** n - Fraction(math.factorial(n)) ** n * math.prod(lambdas) ** p
    require(diff >= 0 and verdict == "holds", "diagonal form inequality must hold")
    require(slack.lo == slack.hi == diff, "diagonal form slack is wrong")


def check_lelong_numeric(u: int, radii, out) -> None:
    """Acceptance criterion 8: positive estimates, within 5% of u at r <= 1e-3."""
    require([r for r, _ in out] == list(radii), "radii not echoed")
    require(all(math.isfinite(nu) and nu > 0 for _, nu in out), "non-positive density estimate")
    require(all(abs(nu - u) / u < 0.05 for r, nu in out if r <= 1e-3), "density estimate not near u")


def product_space_numbers(dims, coeffs) -> tuple[int, Fraction]:
    """L^n and L^(n-1).K for L = sum c_i H_i on prod P^(k_i), K = -sum (k_i+1) H_i."""
    n = sum(dims)
    mono = math.prod(c ** k for c, k in zip(coeffs, dims))
    denom = math.prod(math.factorial(k) for k in dims)
    Ln = math.factorial(n) * mono // denom
    LK = sum(-(k + 1) * Fraction(math.factorial(n - 1) * k * mono, denom * c) for c, k in zip(coeffs, dims))
    return Ln, LK


def check_profile(dims, coeffs, profile) -> None:
    Ln, LK = product_space_numbers(dims, coeffs)
    require(profile.n == sum(dims) and profile.Ln == Ln and profile.LK == LK, "profile L^n or L^(n-1).K is wrong")
    require(profile.per_dim_min.get(profile.n) == Ln, "top-dimensional minimum is not L^n")
    require(profile.per_dim_min.get(1) == min(coeffs), "curve minimum is not min c_i")
