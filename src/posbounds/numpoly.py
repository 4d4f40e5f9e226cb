"""Numerical polynomials in binomial basis and the three window lemmas.

P(m) = sum c_j * C(m, j) with integer c_j maps integers to integers by
construction; C(m, j) is the polynomial m (m-1) ... (m-j+1) / j!, so P is
defined at negative m too.  The window searches assume (caller contract) that
P >= 0 on [m0, infinity); a failed search therefore signals a violated
assertion, not a missing value, and raises InputError.  Each search finds
the least qualifying integer exactly, by Sturm-sequence root isolation of the
integer polynomial d! (P(x) - target): its cost grows with log N, not N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import InputError, bisect, horner
from .report import BoundReport


@dataclass(frozen=True)
class NumericalPolynomial:
    """Integer-valued polynomial P(m) = sum coeffs[j] * C(m, j)."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
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
    if N < 0:
        raise InputError("N must be nonnegative")
    return _first_reaching(P, N, m0, m0 + N * P.degree)


def window_b(P: NumericalPolynomial, m0: int, k: int) -> int:
    """Smallest m in [m0, m0 + k*d] with P(m) >= a_d * k^d / 2^(d-1)."""
    if k < 1:
        raise InputError("k must be >= 1")
    d = P.degree
    bound = -(-2 * P.leading * k ** d // 2 ** d)  # ceil, an int even at d = 0
    return _first_reaching(P, bound, m0, m0 + k * d)


def window_c(P: NumericalPolynomial, m0: int, N: int) -> int:
    """Smallest m in [m0, m0 + N] with P(m) >= N; requires N >= 2 d^2."""
    d = P.degree
    if N < 2 * d * d:
        raise InputError(f"need N >= 2d^2 = {2 * d * d}, got {N}")
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
    m = search(P, m0, bound)
    return BoundReport(f"poly-window-{window}", {"coeffs": coeffs, "m0": m0, "N": N, "k": k}, m,
                       f"P({m}) meets the window-{window} target")


def _first_reaching(P: NumericalPolynomial, target: int, lo: int, hi: int) -> int:
    """Smallest integer m in [lo, hi] with P(m) >= target.

    q = d! (P - target) has integer coefficients.  While q(m) < 0, the next
    integer where q can be nonnegative is the ceiling of the next real root
    above m, found by bisecting over integers on Sturm counts; q has at most
    d distinct roots, so this costs O(d log(hi - lo)) chain evaluations.
    """
    chain = _sturm_chain(_shifted_power_coeffs(P, target))
    q = chain[0]
    m = lo  # lo <= hi for every window
    while horner(q, m) < 0:
        v_m = _variations(chain, m)

        def root_in(x: int) -> bool:
            # a root in (m, x]; the Sturm count holds since q(m) != 0 != q(x)
            return horner(q, x) == 0 or _variations(chain, x) < v_m

        if not root_in(hi):
            raise InputError(f"no m in [{lo}, {hi}] with P(m) >= {target}")
        m = bisect(lambda x: not root_in(x), m, hi) + 1  # least x with a root in (m, x]
    return m


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


def _sturm_chain(q: list[int]) -> list[list[int]]:
    """Sturm sequence q, q', -rem(q, q'), ... (highest degree first).  Each
    remainder is taken times a positive factor, so it stays integral and the
    sign changes are those of the rational sequence."""
    d = len(q) - 1
    chain = [q, [c * (d - i) for i, c in enumerate(q[:-1])]]
    while len(chain[-1]) > 1:
        r, b = chain[-2], chain[-1]
        scale, sign = abs(b[0]), 1 if b[0] > 0 else -1
        while len(r) >= len(b):
            pad = [0] * (len(r) - len(b))
            r = [scale * x - sign * r[0] * y for x, y in zip(r[1:], b[1:] + pad)]
        while r and r[0] == 0:
            r = r[1:]
        if not r:
            break
        g = math.gcd(*r)
        chain.append([-x // g for x in r])
    return [poly for poly in chain if poly]  # q' is empty at d = 0


def _variations(chain: list[list[int]], x: int) -> int:
    """Sign changes along the chain at x, zeros dropped."""
    signs = [v > 0 for v in (horner(poly, x) for poly in chain) if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))
