"""Exact rational arithmetic, combinatorial primitives, and certified brackets.

Rationals are plain ``fractions.Fraction`` (always canonical: positive
denominator, reduced).  Irrational quantities such as x^(p/q) are returned as
``Bracket`` intervals certified to enclose the true value, at most tol wide
with endpoints on a grid 2^-k; the bracket degenerates to a point whenever the
value is rational and detected (integer exponents, perfect powers).  Inside
the kernel brackets are integers over 2^k, made Fractions by ``dyadic_fraction``.
No certification gives up; any exception but ``InputError`` is a bug.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, Sequence, Union

QLike = Union[int, Fraction]

DEFAULT_TOL = Fraction(1, 10**12)
_GUARD_BITS = 32  # floor_powers' bits past the output grid; more makes straddles rarer
_EXACT_POWER_BITS = 2048  # x**q is faster than a floored chain below this size (CHANGES.md)


class InputError(ValueError):
    """Malformed caller input; the CLI reports it as an input error (exit 2)."""


def check_tol(tol: QLike) -> Fraction:
    """The tolerance as a Fraction; raises InputError unless it is positive."""
    tol = Fraction(tol)
    if tol.numerator <= 0:
        raise InputError("tolerance must be positive")
    return tol


def check_n(n: int, least: int = 1) -> None:
    """The dimension rule of every statement: raises InputError unless n is an
    int, and no bool, with n >= least."""
    if type(n) is not int or n < least:
        kind = "" if type(n) is int else "an integer "
        raise InputError(f"n must be {kind}>= {least}, got {n!r}")


def check_jet_order(s: int, least: int = 0) -> None:
    """The jet-order rule of every s-jet statement: raises InputError unless s is
    an int, and no bool, with s >= least."""
    if type(s) is not int or s < least:
        kind = "" if type(s) is int else "an integer "
        raise InputError(f"jet order must be {kind}>= {least}, got {s!r}")


def grid_bits(tol: Fraction) -> int:
    """k = bitlen(ceil(1/tol)) for tol > 0, the coarsest grid with 2^-k <= tol.
    It grows as tol shrinks, and floor grids 2^-k nest."""
    return (-(-1 // tol)).bit_length()


def elem_sym_rows(values: Sequence[QLike]) -> list[list[QLike]]:
    """[S_0, ..., S_i] of values[:i], i = 1..len(values), exact on ints and Fractions
    alike, in one pass: S_j(v_1..v_i) = S_j(v_1..v_{i-1}) + v_i S_{j-1}(v_1..v_{i-1})."""
    rows, row = [], [1]
    for v in values:
        row = [row[0], *[s + v * t for s, t in zip(row[1:], row)], v * row[-1]]
        rows.append(row)
    return rows


def iroot(a: int, q: int) -> tuple[int, bool]:
    """Integer floor q-th root of a >= 0, plus whether it is exact.

    Roots of a >> (n - m), n = bitlen(a), are taken for m growing to n.  The
    base is exact: for q <= 16 the loop ends at the first x with x^q <= a, from
    the bit-length seed above the root; a larger q bisects, as that seed would
    take about q steps.  Each level takes one Newton step from S = (x + 1) 2^k,
    k about half the root's bits less log2(2q), which is above the level's
    root.  Its divisor is d 2^t <= (x + 1)^(q-1), d floored to m//q + 32 bits
    (``_floor_power``), and its dividend is rounded up, so the quotient can
    only rise: x stays at or above the floor root, since an integer Newton
    step from any y > 0 is at least the floor root by AM-GM.  The quotient is
    below S, a few times 2^(m/q) at most, and d is low by a relative (q - 1)
    2^(-m//q - 31) at most, so the quotient rises by under one for q < 2^28,
    and x by one at most.
    Only the top x is certified, on lo 2^e <= x^q <= hi 2^e (``_power_ends``;
    Brent & Zimmermann, Modern Computer Arithmetic, 2010, sec. 1.5 and ch. 4),
    with x**q only when a >> e is in [lo, hi].  If x^q > a, then x > a^(1/q),
    and g(t) = t^q - a has g(x) > (lo - (a >> e) - 1) 2^e and g'(x) <= q hi
    2^e / x, so the step is in [1, ceil(g / g')]: x stays at or above the
    floor (see ``newton_floor``) and falls every round, so the loop ends at the
    floor root, most often at once.
    """
    if a < 0:
        raise InputError("iroot of negative integer")
    if q < 1:
        raise InputError("root index must be >= 1")
    if a in (0, 1) or q == 1:
        return a, True
    if q == 2:
        r = math.isqrt(a)
        return r, r * r == a
    n = m = a.bit_length()
    shifts = []
    while (k := ((m - 1) // q - (2 * q).bit_length()) // 2) >= 32 or q > 16 and k > 0:
        shifts.append(k)
        m -= q * k
    b = a >> n - m
    if q > 16:  # 2^((m-1)//q) <= root < 2^ceil(m/q)
        x = bisect(lambda x: x**q <= b, 1 << (m - 1) // q, 1 << -(-m // q))
        xq = x**q
    else:
        x = 1 << -(-m // q)
        while (xq := (p := x ** (q - 1)) * x) > b:
            x = ((q - 1) * x + b // p) // q
    if not shifts:
        return x, xq == a
    for k in reversed(shifts):
        m += q * k
        s = x + 1
        d, t = _floor_power(s, q - 1, m // q + 32)
        x = ((q - 1) * (s << k) + ((a >> n - m + k * (q - 1) + t) + 1) // d) // q
    while True:
        lo, hi, e = _power_ends(x, q)
        if e and lo <= a >> e <= hi:
            lo = hi = x**q
            e = 0
        if (top := a >> e) >= lo:  # x^q <= a; with e > 0, top > hi and x^q < a
            return x, top == lo
        x -= max(1, (lo - top - 1) * x // (q * hi))


def _power_ends(x: int, q: int) -> tuple[int, int, int]:
    """(lo, hi, e) with lo 2^e <= x^q <= hi 2^e, x >= 1, 2 <= q < 2^32: lo 2^e the
    floored power of ``_floor_power`` kept to bitlen(x) + 64 bits and hi = lo +
    2q, or the exact (x**q, x**q, 0) where ``_floor_power`` would take x**q."""
    if q < 4 or q * x.bit_length() < _EXACT_POWER_BITS:
        return (p := x**q), p, 0
    lo, e = _floor_power(x, q, x.bit_length() + 64)
    return lo, lo + 2 * q, e


def _floor_power(x: int, q: int, keep: int) -> tuple[int, int]:
    """(lo, e) with lo 2^e <= x^q and lo < 2^keep, for x >= 1 and q >= 2, and x^q <
    (lo + 2q) 2^e when q (q - 1) <= 2^(keep - 1); e = 0 only if lo = x^q.
    Left-to-right square-and-multiply, floored to keep bits after each round.

    Let eps = 1 - lo 2^e / x^j for the prefix j of q.  A square takes eps to
    1 - (1 - eps)^2 <= 2 eps, a product by x keeps it, and the floor of L,
    bitlen(L) = keep + s, to L >> s multiplies 1 - eps by at least 1 - 2^s / L
    >= 1 - u, u = 2^(1-keep), so it adds at most u.  Over the bitlen(q) - 1
    rounds eps <= (2^(bitlen(q)-1) - 1) u <= (q - 1) u, and x^q / 2^e - lo =
    lo eps / (1 - eps) < 2^keep (q - 1) u / (1 - (q - 1) u) = 2 (q - 1) / (1 -
    (q - 1) u), which is at most 2q when q (q - 1) u <= 1.  It takes x**q, then
    floored, when the power is short or the chain would floor only after its
    last product, x^(q >> 1) having at most keep bits: that is as much work."""
    if q * (b := x.bit_length()) < _EXACT_POWER_BITS or (q >> 1) * b <= keep:
        p = x**q
        return p >> (e := max(0, p.bit_length() - keep)), e
    lo, e = x, 0
    for bit in bin(q)[3:]:
        lo, e = lo * lo, 2 * e
        if bit == "1":
            lo *= x
        if (s := lo.bit_length() - keep) > 0:
            lo, e = lo >> s, e + s
    return lo, e


class Record:
    """A value record: the fields are the subclass's __slots__, all given in order
    and then checked by _check; equal by value."""

    __slots__ = ()

    def __init__(self, *args: Any) -> None:
        names = self.__slots__
        if len(args) != len(names):
            raise TypeError(f"{type(self).__name__} takes the fields {names}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    def _check(self) -> None:
        """A subclass raises InputError here on invalid fields."""

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__} fields are read-only: {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:  # the class and the fields: pickle, copy and == read them
        return type(self), tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented  # so a Bracket never equals a tuple
        return other is self or self.__reduce__() == other.__reduce__()

    def __hash__(self) -> int:
        return hash(self.__reduce__())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({', '.join(fields)})"


class Bracket(Record):
    """Closed rational interval [lo, hi] certified to contain a real value."""

    __slots__ = ("lo", "hi")

    def _check(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"bracket endpoints out of order: {self.lo} > {self.hi}")

    @staticmethod
    def point(x: QLike) -> "Bracket":
        """[x, x]: lo is hi, so no Fraction is compared with itself."""
        x = Fraction(x)
        return Bracket._ordered(x, x)

    @staticmethod
    def dyadic(lo: int, hi: int, k: int, c: int = 1) -> "Bracket":
        """[lo, hi] / (c 2^k), c >= 1, the form of every certified kernel bracket;
        the order is checked on the integers, so no Fraction is compared."""
        if lo > hi:
            raise ValueError(f"bracket endpoints out of order: {lo} > {hi} (over 2^{k})")
        return Bracket._ordered(dyadic_fraction(lo, k, c), dyadic_fraction(hi, k, c))

    @staticmethod
    def _ordered(lo: Fraction, hi: Fraction) -> "Bracket":
        # for callers that know lo <= hi: the record without _check
        b = object.__new__(Bracket)
        object.__setattr__(b, "lo", lo)
        object.__setattr__(b, "hi", hi)
        return b

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi


def nth_root_bracket(r: QLike, q: int, tol: QLike) -> Bracket:
    """Certified bracket for r^(1/q), r >= 0, q >= 1: root_ends on the grid
    k = grid_bits(tol), so at most tol wide and a point on perfect powers."""
    r = Fraction(r)
    tol = check_tol(tol)
    if r < 0:
        raise InputError("nth root of negative rational")
    return Bracket.dyadic(*root_ends(r, q, grid_bits(tol)))


def root_ends(r: Fraction, q: int, k: int) -> tuple[int, int, int, int]:
    """(lo, hi, e, c): r^(1/q) in [lo, hi] / (c 2^e), r >= 0, q >= 1; the exact root t/c
    as (t, t, 0, c) on perfect powers, else (t, t + 1, k, 1), t = floor(2^k r^(1/q))."""
    num_root, num_exact = iroot(r.numerator, q)
    den_root, den_exact = iroot(r.denominator, q)
    if num_exact and den_exact:
        return num_root, num_root, 0, den_root
    t = floor_root(r.numerator, r.denominator, q, k)
    return t, t + 1, k, 1


def dyadic_fraction(num: int, k: int, c: int = 1) -> Fraction:
    """num / (c 2^k) in lowest terms, k >= 0, c >= 1, with no gcd of two big integers
    (CPython's is quadratic): strip v = min(k, nu_2(num)) twos, v = k for num = 0.
    Then v = k or num >> v is odd, so gcd(num >> v, c 2^(k - v)) = gcd(num >> v, c),
    and the slots of the canonical Fraction(num, c << k) are set directly."""
    v = k if num == 0 else min(k, (num & -num).bit_length() - 1)
    g = math.gcd(num := num >> v, c)
    f = object.__new__(Fraction)
    f._numerator, f._denominator = num // g, c // g << k - v
    return f


def floor_root(num: int, den: int, q: int, k: int = 0, a: int = 1) -> int:
    """floor(2^k (num/den)^(a/q)) for num, k, a >= 0 and den, q >= 1, as the
    floor q-th root of floor(2^(kq) num^a / den^a); 0, without forming den^a,
    when bit lengths alone show that den^a > 2^(kq) num^a."""
    if (den.bit_length() - 1 - (num - 1).bit_length()) * a > k * q:
        return 0
    return iroot((num ** a << k * q) // den ** a, q)[0]


def newton_floor(f: Callable[[int], tuple[int, int]], t: int) -> tuple[int, int]:
    """(floor(x), g(floor(x))) for the root x < t of a g increasing and convex
    on [x, t], with g(floor(x)) <= 0 and f(t) = (g(t), g'(t)), by integer Newton
    steps from above (Brent & Zimmermann, Modern Computer Arithmetic, 2010, sec.
    1.5.2).  At t > x the tangent of the convex g has its root t - g/g' >= x, so
    t - ceil(g/g') = floor(t - g/g') >= floor(x), and t decreases while g(t) >
    0 < g'(t): the first t with g(t) <= 0 is floor(x)."""
    while True:
        g, slope = f(t)
        if g <= 0:
            return t, g
        t -= -(-g // slope)


def horner(poly: Sequence[int], x: int) -> int:
    """poly[0] x^d + ... + poly[d], d = len(poly) - 1, by Horner's rule."""
    acc = 0
    for c in poly:
        acc = acc * x + c
    return acc


def bisect(ok: Callable[[int], bool], lo: int, hi: int) -> int:
    """Largest integer x in [lo, hi) with ok(x), given ok(lo) and ok monotone
    (true, then false).  ok(hi) is never called."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return lo


def pow_bracket(x: QLike, e: QLike, tol: QLike) -> Bracket:
    """Certified bracket for x^e with x >= 0 rational and e rational.

    Width is at most tol unless the value is exactly rational, in which case
    the bracket is a point.  Requires x > 0 when e < 0.
    """
    x = Fraction(x)
    e = Fraction(e)
    tol = check_tol(tol)
    if x < 0:
        raise InputError("pow_bracket base must be nonnegative")
    if x == 0 and e < 0:
        raise InputError("0 cannot be raised to a negative power")
    if e.denominator == 1:
        return Bracket.point(x ** int(e))
    r = x ** e.numerator  # exact rational; sign of the numerator handles e < 0
    return nth_root_bracket(r, e.denominator, tol)


def floor_powers(num: int, den: int, n: int, k: int) -> list[int]:
    """floor(2^k r^(p/n)) for r = num/den (num >= 0, den, n >= 1), p = 1..n-1.

    With R = floor(2^K rho), rho = r^(1/n), K = k + guard, the floored chain
    lo_0 = 2^K, lo_p = floor(lo_(p-1) R / 2^K) has 0 <= T_p - lo_p < c_p for
    T_p = 2^K rho^p: as R > 2^K rho - 1, c_p = rho c_(p-1) + rho^(p-1) + 1,
    c_0 = 0, so c_p = sum_(j<p) rho^j + p rho^(p-1) <= 2p max(1, rho)^(p-1) <=
    2p 2^w, w = max(0, bitlen(num) - bitlen(den) + 1), as r < 2^w when r >= 1.
    That puts the floor in [lo_p, lo_p + 2p 2^w] >> guard, where c <= 2^k
    r^(j/m) iff c^m den^j <= num^j 2^(km), j/m = p/n reduced, decides."""
    spread = num.bit_length() - den.bit_length()
    guard = max(0, spread) + _GUARD_BITS
    big = k + guard
    root = floor_root(num, den, n, big)
    out, lo, w = [], 1 << big, max(0, spread + 1)
    for p in range(1, n):
        lo = lo * root >> big
        if (t := lo >> guard) != (top := lo + (2 * p << w) >> guard):  # a straddle
            m, j = n // (g := math.gcd(p, n)), p // g
            t = bisect(lambda c: c**m * den**j <= num**j << k * m, t, top + 1)
        out.append(t)
    return out
