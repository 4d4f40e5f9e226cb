"""Jumping values of singular metrics: the sigma sequence, the recursive
bound on successive jumps, the main numerical criterion, and the derived
global-generation thresholds.

Sigma values involve the n-th root (1 - sigma0/L^n)^(p/n) and are certified
Brackets; everything downstream keeps the bracket and rounds toward the safe
side of each strict inequality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .core import (
    DEFAULT_TOL, Bracket, InputError, QLike, Record, bisect, check_jet_order, check_n, check_tol,
    dyadic_fraction, elem_sym_rows, floor_powers, floor_root, grid_bits, horner, iroot,
    newton_floor, pow_bracket,
)
from .report import BoundReport

if TYPE_CHECKING:  # annotation only; jets subcommands need not load adjoint
    from .adjoint import JetSpec

_SIGMA_CAP = 4096  # most bits past grid_bits(tol) that sigma_sequence bisects over


class SigmaSequence(Record):
    """Certified brackets for sigma_1..sigma_{n-1}, held as integer pairs ends
    over 2^k; a Bracket is built only when one is read."""

    __slots__ = ("k", "ends")

    @property
    def sigma_p(self) -> tuple[Bracket, ...]:
        return tuple([Bracket.dyadic(lo, hi, self.k) for lo, hi in self.ends])


def sigma0_for(jets: JetSpec, n: int, very_ample_special: bool = False) -> Fraction:
    """sigma0 = sum (n + s_j)^n; the single-point 1-jet case admits the
    sharper value 2 n^n when very_ample_special is requested."""
    check_n(n)
    if very_ample_special and jets.orders == (1,):
        return Fraction(2 * n ** n)
    return Fraction(sum((n + s) ** n for s in jets.orders))


def sigma_sequence(
    sigma0: QLike, Ln: QLike, n: int, tol: QLike = DEFAULT_TOL
) -> SigmaSequence:
    """sigma_p = (1 - (1 - sigma0/L^n)^(p/n)) L^n for p = 1..n-1 (n >= 1), all
    n-1 powers from one integer n-th root (core.floor_powers).

    On integers over 2^k, k > grid_bits(tol): with 2^e > 2 L^n and t_p =
    floor(2^(k+e) q^(p/n)), q = 1 - sigma0/L^n, sigma_p lies in L^n [2^(k+e) -
    t_p - 1, 2^(k+e) - t_p] / 2^(k+e), under 2^-(k+1) wide, whose ends rounded
    outward onto 2^-k are at most two steps apart: width <= 2^(1-k) <= tol.
    Post-checked on the integers, as theorems for x = p/n and eps = 1 - q:
      sigma_p - sigma0 x = L^n h(q) >= L^n x(1-x) eps^2/2, as h = 1 - q^x - x(1-q)
        has h(1) = h'(1) = 0 and h'' = x(1-x) q^(x-2) >= x(1-x) on (0, 1];
      sigma0 - sigma_p = L^n q (q^(x-1) - 1) >= sigma0 q (1-x) and sigma_{p+1} -
        sigma_p = L^n q^x (1 - q^(1/n)) >= q sigma0/n, as the convex q^(x-1) and
        concave q^(1/n) lie above and below their tangents at q = 1.
    As x(1-x) >= (n-1)/n^2 and 1-x >= 1/n, each gap is at least g = (sigma0/n)
    min(eps (n-1)/(2n), q); a check loses at most two widths, so all pass once
    2^(2-k) < g, as at k_max = grid_bits(g) + 2.  Brackets nest as k grows, so
    the coarsest passing k <= k_max is taken, and nests as tol shrinks.  If
    grid_bits(tol) + 1 fails, k_max - grid_bits(tol) > _SIGMA_CAP is refused,
    and each probe j shifts the t_p of k_max right by k_max - j: one more root.
    """
    sigma0, Ln, tol = Fraction(sigma0), Fraction(Ln), check_tol(tol)
    check_n(n)
    a, b, s, d = Ln.numerator, Ln.denominator, sigma0.numerator, sigma0.denominator
    if not 0 < s * b < a * d:
        raise InputError("need 0 < sigma0 < L^n")
    e = (-(-a // b)).bit_length() + 1

    def attempt(k: int, ts: list[int]) -> tuple[bool, list[tuple[int, int]]]:
        one, den = 1 << k + e, b << e
        ends = [(a * (one - t - 1) // den, -(-a * (one - t) // den)) for t in ts]
        ok = all(s * p << k < lo * d * n and hi * d < s << k for p, (lo, hi) in enumerate(ends, 1))
        return ok and all(x[1] < y[0] for x, y in zip(ends, ends[1:])), ends

    k = grid_bits(tol) + 1
    ok, ends = attempt(k, floor_powers(a * d - s * b, a * d, n, k + e))
    if not ok:
        k_max = grid_bits(sigma0 / n * min(sigma0 * (n - 1) / (2 * n * Ln), 1 - sigma0 / Ln)) + 2
        if k_max - k + 1 > _SIGMA_CAP:
            raise InputError(f"sigma needs {k_max - k + 1} grid bits past tol; cap {_SIGMA_CAP}")
        top = floor_powers(a * d - s * b, a * d, n, k_max + e)  # floor(2^j y) = floor(2^k_max y) >> k_max - j
        k = bisect(lambda j: not attempt(j, [t >> k_max - j for t in top])[0], k, k_max) + 1
        ok, ends = attempt(k, [t >> k_max - k for t in top])
        if not ok:
            raise AssertionError(f"sigma checks fail on the proven grid 2^-{k}")
    return SigmaSequence(k, tuple(ends))


def _on_integers(b: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, [D b_j]) for D the lcm of b's denominators."""
    D = math.lcm(*[x.denominator for x in b])
    return D, [x.numerator * (D // x.denominator) for x in b]


def recursion_bound(
    n: int, sigma0: QLike, a: QLike, b_prefix: Sequence[QLike], minY: int, Ln: QLike,
    tol: QLike = DEFAULT_TOL,
) -> Bracket:
    """Bracket, <= tol wide on 2^-k, for the next jumping value: the x > b_p
    with f(x) = prod_j (x - b_j) = sum_j c_j sigma_{p-j} / minY, c_j = S_j(b)
    a^j and p = len(b_prefix) < n, with sigma taken at a tolerance tol_s.

    sigma_sequence always certifies sigma0 i/n < sigma_i < sigma0, which puts
    each right-hand side in (r, C sigma0), r = sigma0 sum c_j (p - j) / (n
    minY), C = sum c_j / minY, so the root is below X = b_p + max(1, C sigma0)
    as f(x) >= (x - b_p)^p.  Past b_p, f' = f sum 1/(x - b_j) >= p f/x > p r/X
    (0 <= b_j <= b_p), so tol_s = tol p r / (2 C X), which makes the right-hand
    side <= C tol_s wide, puts its two roots <= tol/2 apart.  Flooring both
    onto 2^-k, with k = grid_bits(tol) + 2 and the upper end + 1 unless exact,
    adds <= 2^(1-k) <= tol/2.  tol_s is proportional to tol, so sigma, the
    grid and the result nest as tol shrinks.
    """
    check_n(n)
    sigma0, a, tol = Fraction(sigma0), Fraction(a), check_tol(tol)
    b = [Fraction(x) for x in b_prefix]
    if a < 0:
        raise InputError("a must be nonnegative")
    if minY < 1:
        raise InputError("minY must be a positive integer")
    if not b or b[0] != 0 or any(y < x for x, y in zip(b, b[1:])):
        raise InputError("b_prefix must be nondecreasing and start at 0")
    p = len(b)
    if p >= n:
        raise InputError(f"b_prefix needs sigma_{p}, beyond the sigma sequence for n = {n}")
    if sigma0 <= 0:
        raise InputError("need 0 < sigma0 < L^n")
    D, A = _on_integers(b)  # a b_j = a.num A_j / E, so S_j(a b) = S_j(a.num A) / E^j
    E, row = a.denominator * D, elem_sym_rows([a.numerator * x for x in A])[-1]
    scale = E ** (p - 1) * minY  # sum_{j<p} c_j x_j / minY = horner([row_j x_j], E) / scale
    C = Fraction(horner(row[:p], E), scale)
    r = sigma0 * Fraction(horner([s * (p - j) for j, s in enumerate(row[:p])], E), n * scale)
    X = b[-1] + max(1, C * sigma0)
    sigma = sigma_sequence(sigma0, Ln, n, tol * p * r / (2 * C * X))
    rhs = [dyadic_fraction(horner([s * x for s, x in zip(row, e)], E), sigma.k, scale)
           for e in zip(*sigma.ends[p - 1::-1])]
    k = grid_bits(tol) + 2
    (lo, _), (hi, exact) = [_root_floor(b, x, k) for x in rhs]
    return Bracket.dyadic(lo, hi if exact else hi + 1, k)


def _root_floor(b: Sequence[Fraction], target: Fraction, k: int) -> tuple[int, bool]:
    """(floor(2^k x), whether 2^k x is an integer) for the x > b_p with f(x) =
    prod(x - b_j) = target > 0, b nonnegative and nondecreasing.

    With D = lcm of b's denominators and B_j = 2^k D b_j, an integer t has
    f(t/2^k) <= target iff g(t) = den prod(D t - B_j) - num (2^k D)^p <= 0.
    g, increasing and convex past 2^k b_p and -1 up to there, is floored by
    core.newton_floor from ceil(2^k b_p) + floor(2^k target^(1/p)) + 1, above
    the root as f(x) >= (x - b_p)^p.
    """
    D, B = _on_integers(b)
    B = [x << k for x in B]
    num, den, p = target.numerator, target.denominator, len(b)
    scaled = num * (D << k) ** p

    def g(t: int) -> tuple[int, int]:  # and g', by the product rule in one pass
        h, slope = den, 0
        for d in [D * t - x for x in B]:
            h, slope = h * d, slope * d + h * D
        return (h - scaled, slope) if D * t > B[-1] else (-1, 1)

    t, g_t = newton_floor(g, -(-B[-1] // D) + floor_root(num, den, p, k) + 1)
    return t, g_t == 0


def main_theorem_check(
    n: int,
    sigma0: QLike,
    a: QLike,
    beta: Sequence[QLike],
    minY: Mapping[int, int],
    Ln: QLike,
    tol: QLike = DEFAULT_TOL,
) -> BoundReport:
    """Main numerical criterion: L^n > sigma0 and, for each p = 1..n-1,
    the declared min of L^(n-p).Y over p-dimensional subvarieties strictly
    exceeds prod_j (beta_{p+1}-beta_j)^(-1) sum_j S_j(beta) a^j sigma_{p-j}.

    Brackets are rounded up on the threshold side.  A missing minY entry
    makes the report unsatisfied (the inequality cannot be certified).
    """
    check_n(n)
    sigma0, a, Ln, tol = Fraction(sigma0), Fraction(a), Fraction(Ln), check_tol(tol)
    betas = [Fraction(x) for x in beta]
    if len(betas) != n or betas[0] != 0 or any(
        y <= x for x, y in zip(betas, betas[1:])
    ) or betas[-1] > 1:
        raise InputError("beta must satisfy 0 = beta_1 < ... < beta_n <= 1")
    if a < 0:
        raise InputError("a must be nonnegative")
    extra = sorted(p for p in minY if not 1 <= p < n)
    if extra:
        raise InputError(f"minY for p in {extra} outside 1..{n - 1}")
    if any(v < 1 for v in minY.values()):
        raise InputError("minY must be a positive integer")
    details: dict = {"nef_twist": False}  # a schema-1 field: L is taken without a nef twist
    if sigma0 >= Ln:
        details["reason"] = "L^n does not exceed sigma0"
        satisfied = False
    else:
        sigma = sigma_sequence(sigma0, Ln, n, tol)
        D, A = _on_integers(betas)  # as in recursion_bound, with E = a.den D
        margins: dict[str, Fraction | None] = {}
        for p, row in enumerate(elem_sym_rows([a.numerator * x for x in A[:-1]]), 1):
            # rhs = D sum_j S_j E^(p-1-j) sigma_{p-j} / (a.den^(p-1) prod_j (A_{p+1} - A_j) 2^k)
            c = a.denominator ** (p - 1) * math.prod(A[p] - x for x in A[:p])
            rhs = D * horner([s * hi for s, (_, hi) in zip(row, sigma.ends[p - 1::-1])],
                             a.denominator * D)
            margins[str(p)] = (dyadic_fraction((minY[p] * c << sigma.k) - rhs, sigma.k, c)
                               if p in minY else None)
        details["margins"] = margins
        satisfied = all(m is not None and m > 0 for m in margins.values())
    inputs = {"n": n, "sigma0": sigma0, "a": a, "beta": betas,
              "minY": {str(p): v for p, v in minY.items()}, "Ln": Ln}
    return BoundReport("jumping-main", inputs, sigma0,
                       "satisfied" if satisfied else "unsatisfied", details)


def lemma1111_check(t: Sequence[QLike], n: int) -> bool:
    """Exact check of sum (n-1+t_j)^n <= (n-1 + sum t_j)^n for t_j >= 1."""
    check_n(n)
    vals = [Fraction(x) for x in t]
    if any(x < 1 for x in vals):
        raise InputError("need t_j >= 1")
    return sum((n - 1 + x) ** n for x in vals) <= (n - 1 + sum(vals)) ** n


def _beta_exponent(n: int, p: int) -> Fraction:
    return Fraction(n * (n - p), p - 1)


def beta_schedule(n: int, tol: QLike = DEFAULT_TOL) -> list[Bracket]:
    """The standard schedule beta_p = n^(-n(n-p)/(p-1)) for 2 <= p <= n-1,
    with beta_1 = 0 and beta_n = 1.

    Strict monotonicity and the increasing-ratio property are certified on
    the exact exponents (beta_p is a pure power of n), not on the brackets.
    """
    check_n(n, 2)
    tol = check_tol(tol)
    exps = [_beta_exponent(n, p) for p in range(2, n)]
    # beta strictly increasing <=> exponents strictly decreasing; the ratio
    # beta_p/beta_{p+1} = n^-(e_p - e_{p+1}) increases <=> gaps decrease,
    # with the final ratio beta_{n-1}/1 needing e_{n-1} <= e_{n-2} - e_{n-1}.
    if any(b >= a for a, b in zip(exps, exps[1:])):
        raise AssertionError("beta schedule is not strictly increasing")
    gaps = [a - b for a, b in zip(exps, exps[1:])]
    if any(b > a for a, b in zip(gaps, gaps[1:])):
        raise AssertionError("beta ratio is not increasing")
    if len(exps) >= 2 and exps[-1] > exps[-2] - exps[-1]:
        raise AssertionError("beta ratio is not increasing at the top")
    out = [Bracket.point(Fraction(0))]
    for e in exps:
        out.append(pow_bracket(Fraction(1, n), e, tol))
    out.append(Bracket.point(Fraction(1)))
    return out


def cn_constant(n: int, tol: QLike = DEFAULT_TOL) -> Bracket:
    """C_n = prod_{2 <= p <= n-1} (1 + (2n+1) beta_p) / (1 - beta_p) with
    beta_p = n^(-n(n-p)/(p-1)) (beta_1 = 0 makes the p=1 factor 1).  An exact
    point for n <= 4, the only n with integer exponents (p = n-1 needs n-2 | n).

    For n >= 5 all is integers over 2^k, k = grid_bits(tol) + 2 bitlen(n) + 4.
    b = floor(2^k beta_p) gives beta_p in [b, b+1]/2^k (no root is taken when
    n = m^q for q the exponent's denominator: then beta_p = m^-a); the increasing
    factors f(x) = (1 + (2n+1)x)/(1 - x) multiply into the ends rounded outward.
    With hi the upper end, each of the n-2 steps adds at most hi (sup f' + 2)/2^k
    to the width, and beta_p <= 1/5 gives sup f' < 3.2 (n+1), so the width is
    below 3.2 hi n^2 / 2^k < hi tol / 5 <= tol while hi <= 5 (C_n < 3), as asserted.
    """
    if n < 5:
        return Bracket.point(math.prod((1 + (2 * n + 1) * b.lo) / (1 - b.lo)
                                       for b in beta_schedule(n, tol)[1:-1]))
    tol = check_tol(tol)
    k = grid_bits(tol) + 2 * n.bit_length() + 4
    one, c = 1 << k, 2 * n + 1
    lo = hi = one
    for p in range(2, n):
        e = _beta_exponent(n, p)
        m, exact = iroot(n, e.denominator)
        base, q = (m, 1) if exact else (n, e.denominator)  # n = m^q: beta_p = m^-a
        b = floor_root(1, base, q, k, e.numerator)
        lo = lo * (one + c * b) // (one - b)
        hi = -(-hi * (one + c * (b + 1)) // (one - b - 1))
    if (hi - lo) * tol.denominator > tol.numerator << k:
        raise AssertionError(f"C_{n} bracket wider than the tolerance")
    return Bracket.dyadic(lo, hi, k)


def lemma1115_threshold(n: int, s: int, special: bool = False) -> int:
    """mu(L') >= 3(n+s)^n suffices for s-jets of K+L'; for s = 1 the special
    path sharpens this to 6 n^n."""
    check_n(n)
    check_jet_order(s, 1)
    if special:
        if s != 1:
            raise InputError("the special threshold applies only to s = 1")
        return 6 * n ** n
    return 3 * (n + s) ** n


def theorem1117_threshold(n: int, s: int, muL: QLike, special: bool = True) -> int:
    """Smallest m >= 2 with (m-1) mu(L) + s >= 6(n+s)^n; when s = 1 the
    right side improves to 12 n^n (taken by default)."""
    check_n(n)
    check_jet_order(s, 1)
    mu = Fraction(muL)
    if mu <= 0:
        raise InputError("mu(L) must be positive")
    rhs = 12 * n ** n if (special and s == 1) else 6 * (n + s) ** n
    return max(2, math.ceil((rhs - s) / mu) + 1)


def remark1120_threshold(n: int, s: int) -> int:
    """mu(L) >= 6(3n+3+2s)^n suffices for 2K+L to generate s-jets."""
    check_n(n, 2)
    check_jet_order(s)
    return 6 * (3 * n + 3 + 2 * s) ** n


def corollary118_table(s: int | None = None) -> dict:
    """Surface thresholds: spanned, the three separation column pairs, the
    s-jet pair (L^2 > (2+s)^2, L.C > 2+3s+s^2), and the fixed multiples
    (spanned for m >= 3, very ample for m >= 5)."""
    table: dict = {
        "spanned": (4, 2),
        "separation": ((8, 6), (9, 5), (12, 4)),
        "constants": {"spanned_m": 3, "very_ample_m": 5},
    }
    if s is not None:
        check_jet_order(s)
        table["jets"] = ((2 + s) ** 2, 2 + 3 * s + s * s)
    return table


def surface_table_report(s: int | None = None) -> BoundReport:
    """corollary118_table as a report; the table is its details."""
    return BoundReport("surface-table", {"s": s}, None, "table", corollary118_table(s))


def mu_invariant(
    per_dim: Mapping[int, int], n: int, tol: QLike = DEFAULT_TOL
) -> Bracket:
    """mu(F) = min over p = 1..n of (min over p-dimensional Y of F^p.Y)^(1/p).

    Computed from declared minima only, so the result is an upper bound for
    the true infimum.  Homogeneous: scaling F^p.Y by k^p scales mu by k.  The
    minimum is taken over integers on the grid 2^-k, k = grid_bits(tol): the
    floor t of (v 2^(kp))^(1/p) gives [t, t + 1], or the point t when the root
    is exact (v 2^(kp) is a p-th power exactly when v is).  Only the p whose
    floor c on the grid 2^-g, g = min(k, 64), is the least, m, take that root:
    c > m gives v^(1/p) >= (m + 1) 2^-g > the least root, so it sets neither end.
    """
    check_n(n)
    missing = [p for p in range(1, n + 1) if p not in per_dim]
    if missing:
        raise InputError(f"missing per-dimension minima for p in {missing}")
    extra = sorted(p for p in per_dim if not 1 <= p <= n)
    if extra:
        raise InputError(f"per-dimension minima for p in {extra} outside 1..{n}")
    if any(per_dim[p] < 1 for p in range(1, n + 1)):
        raise InputError("per-dimension minima must be positive integers")
    k = grid_bits(check_tol(tol))
    g = min(k, 64)
    coarse = {p: iroot(per_dim[p] << g * p, p) for p in range(1, n + 1)}
    m = min(t for t, _ in coarse.values())
    ends = [iroot(per_dim[p] << k * p, p) if g < k else root
            for p, root in coarse.items() if root[0] == m]
    return Bracket.dyadic(min(t for t, _ in ends), min(t if exact else t + 1 for t, exact in ends), k)


def mu_report(n: int, per_dim: Mapping[int, int], tol: QLike = DEFAULT_TOL) -> BoundReport:
    """The mu-invariant report: mu_invariant as its threshold bracket."""
    return BoundReport("mu-invariant", {"n": n, "per_dim": per_dim}, mu_invariant(per_dim, n, tol),
                       "upper bound computed from declared minima")


def lemma1116_consistency(s: int, per_dim: Mapping[int, int]) -> bool:
    """A bundle generating s-jets everywhere must satisfy F^p.Y >= s^p for
    every p-dimensional subvariety; checks the declared minima."""
    check_jet_order(s)
    return all(v >= s ** p for p, v in per_dim.items())
