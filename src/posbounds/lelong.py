"""Lelong-number arithmetic for divisor currents and Seshadri estimates.

Currents are restricted to finite divisor data (coefficients times components
with per-point multiplicities); that carries all the arithmetic the bound
modules need.  The area-ratio density of a cuspidal parameter curve
t -> (t^u, t^v) has a closed form, certified here in integer arithmetic, that
tends to the multiplicity u.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Mapping, Sequence

from .core import (
    DEFAULT_TOL, InputError, QLike, Record, check_at_least, check_int, check_printed, check_tol,
    dyadic_fraction, floor_root, newton_floor,
)
from .report import BoundReport


def ord_at_origin(poly: Mapping[tuple[int, ...], int]) -> int:
    """Vanishing order at 0: minimal total degree of a monomial with nonzero
    coefficient."""
    degrees = [sum(expo) for expo, coeff in poly.items() if coeff != 0]
    if not degrees:
        raise InputError("zero polynomial has no vanishing order")
    return min(degrees)


class Component(Record):
    __slots__ = ("coeff", "id", "point_multiplicities")  # a Fraction, a key, {point: mult}

    def _check(self) -> None:
        check_at_least("component coefficient", self.coeff, 0, strict=True)
        for m in self.point_multiplicities.values():
            check_int("multiplicity", m, 0)


class DivisorCurrent(Record):
    __slots__ = ("components",)  # a tuple of Components

    @staticmethod
    def of(*parts: tuple[QLike, Hashable, Mapping[Hashable, int]]) -> "DivisorCurrent":
        return DivisorCurrent(
            tuple(Component(Fraction(c), i, dict(m)) for c, i, m in parts)
        )


def lelong_at(T: DivisorCurrent, point: Hashable) -> Fraction:
    """Lelong number at a point: sum of coefficients times local multiplicities."""
    total = Fraction(0)
    for comp in T.components:
        total += comp.coeff * comp.point_multiplicities.get(point, 0)
    return total


def upperlevel_set(T: DivisorCurrent, c: QLike) -> set[Hashable]:
    """Component ids whose generic Lelong number (the coefficient) is >= c."""
    c = Fraction(c)
    check_at_least("level", c, 0, strict=True)
    return {comp.id for comp in T.components if comp.coeff >= c}


class ParamCurve(Record):
    """Parametrized curve t -> (t^u, t^v) with 1 <= u <= v, gcd(u, v) = 1."""

    __slots__ = ("u", "v")

    def _check(self) -> None:
        check_int("u", self.u, 1)
        check_int("v", self.v, self.u)
        if math.gcd(self.u, self.v) != 1:
            raise InputError("exponents must be coprime")


def lelong_numeric(
    curve: ParamCurve, radii: Sequence[QLike], tol: QLike = DEFAULT_TOL
) -> list[tuple[QLike, Fraction]]:
    """Certified area-ratio densities nu(T, 0, r) of the current of
    integration over the curve, at the given strictly decreasing radii in
    (0, 1].

    Let X = R^2 be the root in (0, 1] of X^u + X^v = r^2.  The pullback area
    over |t| <= R is pi (u X^u + v X^v), so nu(r) = u + (v - u) X^v / r^2,
    nondecreasing in r and tending to the multiplicity u.  Each radius is
    returned as given, paired with an exact lower bound nu_lo satisfying
    u <= nu_lo <= nu(r) <= nu_lo + tol.
    """
    tol = check_tol(tol)
    radii = list(radii)
    if not radii:
        raise InputError("need at least one radius")
    if any(r <= 0 or r > 1 for r in radii):
        raise InputError("radii must lie in (0, 1]")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise InputError("radii must be strictly decreasing")
    return [(r, _density_lower(curve.u, curve.v, Fraction(r) ** 2, tol)) for r in radii]


def lelong_report(u: int, v: int, radii: Sequence[QLike], tol: QLike = DEFAULT_TOL) -> BoundReport:
    """The density report for t -> (t^u, t^v): lelong_numeric at each radius."""
    curve = ParamCurve(u, v)
    check_printed(u)  # before the work, which grows with u
    estimates = lelong_numeric(curve, radii, tol)
    return BoundReport("density-quadrature", {"u": u, "v": v, "radii": radii}, u,
                       f"area ratio tends to the multiplicity {u}", {"estimates": estimates})


def _density_lower(u: int, v: int, r2: Fraction, tol: Fraction) -> Fraction:
    """nu = u + (v - u) X^v / r2 rounded down to within tol, in integers.

    core.newton_floor floors 2^k X from floor(2^k r2^(1/u)) + 1, above it as X^u < r2.
    Over one cell nu grows by at most (v - u) v 2^-k / r2 (X <= 1), which k keeps
    below tol/2; rounding down onto a grid 2^-j <= tol/2 spends the rest.
    """
    p, q = r2.numerator, r2.denominator
    k = max(0, (2 * (v - u) * v * q * tol.denominator).bit_length()
            - (p * tol.numerator).bit_length() + 1)
    j = max(0, (2 * tol.denominator).bit_length() - tol.numerator.bit_length() + 1)
    top, shift = p << (k * v), k * (v - u)

    def g(a: int) -> tuple[int, int]:  # q 2^(kv) ((a/2^k)^u + (a/2^k)^v - r2) and g'
        au, av = a ** (u - 1), a ** (v - 1)
        return q * ((au * a << shift) + av * a) - top, q * ((u * au << shift) + v * av)

    lo = newton_floor(g, floor_root(p, q, u, k) + 1)[0]
    return dyadic_fraction((u << j) + ((v - u) * q * lo**v << j) // top, j)


class CurveData(Record):
    """Finite sample of curves through a point: a tuple of (L . C, multiplicity)."""

    __slots__ = ("curves",)

    def _check(self) -> None:
        for deg, mult in self.curves:
            check_int("curve multiplicity", mult, 1)
            check_at_least("nef degree", deg, 0)

    @staticmethod
    def of(*curves: tuple[QLike, int]) -> "CurveData":
        return CurveData(tuple((Fraction(deg), mult) for deg, mult in curves))


def seshadri_upper(curves: CurveData) -> Fraction:
    """min over the supplied curves of (L . C) / mult; an UPPER bound for the
    Seshadri constant (finite sample of an infimum)."""
    if not curves.curves:
        raise InputError("need at least one curve")
    return min(deg / mult for deg, mult in curves.curves)


def seshadri_thresholds(eps_lower: QLike, n: int, s: int) -> tuple[bool, bool]:
    """(jets_at_point, very_ample) from a Seshadri lower bound: s-jets of the
    adjoint bundle need eps > n + s at the point; very ampleness needs the
    global constant > 2n.  Strict inequalities.  Seshadri constants are
    superadditive, so for a sum of nef bundles the sum of their lower bounds
    is a lower bound."""
    check_int("n", n, 1)
    eps = Fraction(eps_lower)
    check_at_least("Seshadri lower bound", eps, 0)
    check_int("jet order", s, 0)
    return eps > n + s, eps > 2 * n
