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


class InputError(ValueError):
    """Malformed caller input; the CLI reports it as an input error (exit 2)."""


def check_tol(tol: QLike) -> Fraction:
    """The tolerance as a Fraction; raises InputError unless it is positive."""
    tol = Fraction(tol)
    if tol.numerator <= 0:
        raise InputError("tolerance must be positive")
    return tol


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

    The loop is ``newton_floor``'s on x^q - a, from a seed above the root:
    with s = iroot(a >> qk) + 1, floor(a / 2^(qk)) < s^q, so s << k > a^(1/q),
    and its step divides by the half-size s^(q-1) alone; k, about half the
    root's bits less log2(2q), lands it on the floor root or one above.  For
    q <= 16, roots under about 2^64 are seeded from the bit length; for larger
    q that seed, up to twice the root, would take about q steps, so the
    recursion goes down to roots of at most bitlen(2q) + 2 bits, by ``bisect``.
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
    n = a.bit_length()
    k = ((n - 1) // q - (2 * q).bit_length()) // 2
    if k >= 32 or q > 16 and k > 0:
        s = iroot(a >> q * k, q)[0] + 1
        x = ((q - 1) * (s << k) + (a >> k * (q - 1)) // s ** (q - 1)) // q
    elif q <= 16:
        x = 1 << -(-n // q)
    else:  # 2^((n-1)//q) <= root < 2^ceil(n/q)
        r = bisect(lambda x: x**q <= a, 1 << (n - 1) // q, 1 << -(-n // q))
        return r, r**q == a
    while True:  # inline, as a newton_floor call per step slows small roots
        p = x ** (q - 1)
        if (xq := p * x) <= a:
            return x, xq == a
        x = ((q - 1) * x + a // p) // q


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

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        if lo > hi:
            raise ValueError(f"bracket endpoints out of order: {lo} > {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @staticmethod
    def point(x: QLike) -> "Bracket":
        x = Fraction(x)
        return Bracket(x, x)

    @staticmethod
    def dyadic(lo: int, hi: int, k: int, c: int = 1) -> "Bracket":
        """[lo, hi] / (c 2^k), c >= 1, the form of every certified kernel bracket;
        the order is checked on the integers, so no Fraction is compared."""
        if lo > hi:
            raise ValueError(f"bracket endpoints out of order: {lo} > {hi} (over 2^{k})")
        b = object.__new__(Bracket)
        object.__setattr__(b, "lo", dyadic_fraction(lo, k, c))
        object.__setattr__(b, "hi", dyadic_fraction(hi, k, c))
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
    if q < 1:
        raise InputError("root index must be >= 1")
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
    if x == 0:
        if e < 0:
            raise InputError("0 cannot be raised to a negative power")
        return Bracket.point(1 if e == 0 else 0)
    if e.denominator == 1:
        return Bracket.point(x ** int(e))
    r = x ** e.numerator  # exact rational; sign of the numerator handles e < 0
    return nth_root_bracket(r, e.denominator, tol)


def floor_powers(num: int, den: int, n: int, k: int) -> list[int]:
    """floor(2^k r^(p/n)) for r = num/den (num >= 0, den, n >= 1), p = 1..n-1.

    With R = floor(2^K r^(1/n)), K = k + guard, the truncated powers lo <=
    2^K r^(p/n) <= hi of R and R + 1 put the floor in [lo, hi] >> guard, where
    c <= 2^k r^(j/m) iff c^m den^j <= num^j 2^(km), j/m = p/n reduced, decides."""
    guard = max(0, num.bit_length() - den.bit_length()) + _GUARD_BITS
    big = k + guard
    root = floor_root(num, den, n, big)
    out, lo, hi = [], 1 << big, 1 << big
    for p in range(1, n):
        lo, hi = lo * root >> big, -(-hi * (root + 1) >> big)
        if (t := lo >> guard) != hi >> guard:  # a straddle: decide among its candidates
            m, j = n // (g := math.gcd(p, n)), p // g
            t = bisect(lambda c: c**m * den**j <= num**j << k * m, t, (hi >> guard) + 1)
        out.append(t)
    return out
