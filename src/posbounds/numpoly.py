"""Numerical polynomials in binomial basis and the three window lemmas.

P(m) = sum c_j * C(m, j) with integer c_j maps integers to integers by
construction; C(m, j) is the polynomial m (m-1) ... (m-j+1) / j!, so P is
defined at negative m too.  The window searches assume (caller contract) that
P >= 0 on [m0, infinity); a failed search therefore signals a violated
assertion, not a missing value, and raises InputError.  Each search finds
the least qualifying integer exactly, by bisection on pieces where the integer
polynomial d! (P(x) - target) is monotone: its cost grows with log N, not N.
"""

from __future__ import annotations

import math
from typing import Sequence

from .core import InputError, Record, bisect, check_int, check_printed, horner, shown
from .report import BoundReport


class NumericalPolynomial(Record):
    """Integer-valued polynomial P(m) = sum coeffs[j] * C(m, j), coeffs a tuple."""

    __slots__ = ("coeffs",)

    def _check(self) -> None:
        if not self.coeffs or self.coeffs[-1] == 0:
            raise InputError("leading binomial-basis coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def __call__(self, m: int) -> int:
        return sum(c * _binom_poly(m, j) for j, c in enumerate(self.coeffs))


def _binom_poly(m: int, j: int) -> int:
    """The polynomial m (m-1) ... (m-j+1) / j! at any integer m; math.comb
    refuses negative m, where C(m, j) = (-1)^j C(j - m - 1, j)."""
    return math.comb(m, j) if m >= 0 else (-1) ** j * math.comb(j - m - 1, j)


def window_a(P: NumericalPolynomial, m0: int, N: int) -> int:
    """Smallest m in [m0, m0 + N*d] with P(m) >= N."""
    check_int("m0", m0)
    check_int("N", N, 0)
    return _first_reaching(P, N, m0, m0 + N * P.degree)


def window_b(P: NumericalPolynomial, m0: int, k: int) -> int:
    """Smallest m in [m0, m0 + k*d] with P(m) >= a_d * k^d / 2^(d-1)."""
    check_int("m0", m0)
    check_int("k", k, 1)
    d = P.degree
    bound = -(-2 * P.leading * k ** d // 2 ** d)  # ceil, an int even at d = 0
    return _first_reaching(P, bound, m0, m0 + k * d)


def window_c(P: NumericalPolynomial, m0: int, N: int) -> int:
    """Smallest m in [m0, m0 + N] with P(m) >= N; requires N >= 2 d^2."""
    d = P.degree
    check_int("m0", m0)
    check_int("N", N, 2 * d * d)  # the window needs N >= 2d^2
    return _first_reaching(P, N, m0, m0 + N)


# window -> (search, the argument that bounds it)
WINDOWS = {"a": (window_a, "N"), "b": (window_b, "k"), "c": (window_c, "N")}


def poly_report(
    coeffs: Sequence[int], window: str, m0: int, N: int | None = None, k: int | None = None
) -> BoundReport:
    """The window search ``window`` for P = sum coeffs[j] C(m, j) from m0 on;
    window b is bounded by k, windows a and c by N."""
    P = NumericalPolynomial(tuple(coeffs))
    search, name = WINDOWS[window]
    bound = {"N": N, "k": k}[name]
    if bound is None:
        raise InputError(f"window {window} needs --{name}")
    m = check_printed(search(P, m0, bound))
    return BoundReport(f"poly-window-{window}", {"coeffs": coeffs, "m0": m0, "N": N, "k": k}, m,
                       f"P({m}) meets the window-{window} target")


def _first_reaching(P: NumericalPolynomial, target: int, lo: int, hi: int) -> int:
    """Smallest integer m in [lo, hi] with P(m) >= target.

    q = d! (P - target) has integer coefficients and is monotone on each piece
    [a, b - 1] of _monotone_cuts.  So q >= 0 somewhere on a piece iff at one of
    its ends, and if q(a) < 0 <= q(b - 1), q increases there and the least such
    m is found by bisection.  The cuts cost O(d^2 log(hi - lo)) evaluations.
    """
    q = _shifted_power_coeffs(P, target)
    cuts = _monotone_cuts(q, lo, hi + 1)  # lo <= hi for every window
    for a, b in zip(cuts, cuts[1:]):
        if horner(q, a) >= 0:
            return a
        if b - a > 1 and horner(q, b - 1) >= 0:
            return bisect(lambda x: horner(q, x) < 0, a, b - 1) + 1
    raise InputError(f"no m in [{shown(lo)}, {shown(hi)}] with P(m) >= {shown(target)}")


def _monotone_cuts(q: list[int], lo: int, hi: int) -> list[int]:
    """Integers lo = c_0 < ... < c_r = hi with q monotone on each real interval
    [c_i, c_{i+1} - 1], cut from the linear derivative up to q' (derivative-
    sequence isolation; Collins & Loos, Real zeros of polynomials, 1982).  The
    linear q^(d-1) is monotone on [lo, hi - 1].  If f = q^(j) is monotone on a
    piece, it changes sign there at most once, and a cut just past the change
    leaves f of one sign, so q^(j-1) monotone, on both sides; a piece of one
    integer needs no cut.  Each q^(j) is read off q, one at a time, with
    coefficients at most log2(d!) bits larger than q's."""
    d, cuts = len(q) - 1, [lo, hi]
    for j in range(d - 1, 0, -1):  # f = q^(j), from the linear one up to q'
        f = [c * math.perm(d - i, j) for i, c in enumerate(q[:d + 1 - j])]
        new = [lo]
        for a, b in zip(cuts, cuts[1:]):
            if b - a > 1 and horner(f, a) * (s := horner(f, b - 1)) < 0:
                new.append(bisect(lambda x: horner(f, x) * s <= 0, a, b - 1) + 1)
            new.append(b)
        cuts = new
    return cuts


def _shifted_power_coeffs(P: NumericalPolynomial, target: int) -> list[int]:
    """Power-basis coefficients of d! (P(x) - target), highest degree first."""
    d = P.degree
    out = [0] * (d + 1)  # lowest degree first while building
    falling = [1]  # x (x-1) ... (x-j+1), lowest degree first
    for j, c in enumerate(P.coeffs):
        scale = c * (math.factorial(d) // math.factorial(j))
        for i, f in enumerate(falling):
            out[i] += scale * f
        falling = [a - j * b for a, b in zip([0] + falling, falling + [0])]
    out[0] -= math.factorial(d) * target
    return out[::-1]
