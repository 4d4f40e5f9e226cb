"""Tests for Lelong-number arithmetic and the certified curve density."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from posbounds.core import InputError
from posbounds.lelong import (
    Component,
    CurveData,
    DivisorCurrent,
    ParamCurve,
    lelong_at,
    lelong_numeric,
    ord_at_origin,
    seshadri_thresholds,
    seshadri_upper,
    upperlevel_set,
)


def test_ord_at_origin():
    # x^2 y + y^3 vanishes to order 3.
    assert ord_at_origin({(2, 1): 1, (0, 3): -2}) == 3
    assert ord_at_origin({(0, 0): 5}) == 0
    with pytest.raises(ValueError):
        ord_at_origin({(1, 0): 0})


def test_component_validation():
    with pytest.raises(ValueError):
        Component(Fraction(0), "C", {})
    with pytest.raises(ValueError):
        Component(Fraction(1), "C", {"p": -1})


def test_lelong_at_sums_weighted_multiplicities():
    T = DivisorCurrent.of(
        (Fraction(1, 2), "A", {"p": 2, "q": 1}),
        (2, "B", {"p": 1}),
    )
    assert lelong_at(T, "p") == Fraction(3)
    assert lelong_at(T, "q") == Fraction(1, 2)
    assert lelong_at(T, "elsewhere") == 0


coeffs = st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8)


@given(coeffs, coeffs, st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
def test_lelong_linearity(c1, c2, m1, m2):
    T1 = DivisorCurrent.of((c1, "A", {"p": m1}))
    T2 = DivisorCurrent.of((c2, "B", {"p": m2}))
    combined = DivisorCurrent.of((c1, "A", {"p": m1}), (c2, "B", {"p": m2}))
    assert lelong_at(combined, "p") == lelong_at(T1, "p") + lelong_at(T2, "p")


def test_upperlevel_sets_antitone():
    T = DivisorCurrent.of((Fraction(1, 2), "A", {}), (2, "B", {}), (3, "C", {}))
    assert upperlevel_set(T, Fraction(1, 4)) == {"A", "B", "C"}
    assert upperlevel_set(T, 1) == {"B", "C"}
    assert upperlevel_set(T, Fraction(5, 2)) == {"C"}
    with pytest.raises(ValueError):
        upperlevel_set(T, 0)


@given(st.lists(coeffs, min_size=1, max_size=5))
def test_upperlevel_antitone_property(levels_base):
    T = DivisorCurrent.of(*((c, i, {}) for i, c in enumerate(levels_base)))
    cuts = sorted({Fraction(1, 8), Fraction(1, 2), 1, 2, 4})
    sets = [upperlevel_set(T, c) for c in cuts]
    for small, big in zip(sets, sets[1:]):
        assert big <= small


def test_param_curve_validation():
    with pytest.raises(ValueError):
        ParamCurve(3, 2)
    with pytest.raises(ValueError):
        ParamCurve(2, 4)
    ParamCurve(1, 1)


def test_lelong_numeric_smooth_curve_gives_one():
    out = lelong_numeric(ParamCurve(1, 2), [0.1, 0.01])
    for _, nu in out:
        assert abs(nu - 1.0) < 0.2
    assert out[0][1] >= out[1][1] - 1e-6


def test_lelong_numeric_input_validation():
    with pytest.raises(InputError):
        lelong_numeric(ParamCurve(2, 3), [])
    with pytest.raises(ValueError):
        lelong_numeric(ParamCurve(2, 3), [0.01, 0.1])
    with pytest.raises(ValueError):
        lelong_numeric(ParamCurve(2, 3), [2.0])


def test_lelong_numeric_never_below_the_multiplicity():
    # the area ratio is u + (v - u) X^v / r^2 >= u at every radius
    [(_, nu)] = lelong_numeric(ParamCurve(3, 7), [0.001])
    assert nu >= 3


# (u, v, r, nu): X = R^2 is rational, so nu(r) = u + (v - u) X^v / r^2 is exact
EXACT = [(1, 2, Fraction(2, 3), Fraction(5, 4)), (2, 3, Fraction(45, 64), Fraction(59, 25))]


@pytest.mark.parametrize("u, v, r, nu", EXACT)
def test_lelong_numeric_brackets_exact_densities(u, v, r, nu):
    tol = Fraction(1, 10**12)
    [(r_out, lo)] = lelong_numeric(ParamCurve(u, v), [r], tol)
    assert r_out == r
    assert u <= lo <= nu <= lo + tol


def density_at_least(u: int, v: int, r: Fraction, y: Fraction) -> bool:
    """Whether nu(r) >= y, decided exactly without solving for X.

    nu >= y iff X^v >= Y := (y - u) r^2 / (v - u), and as X^u + X^v = r^2
    grows with X, iff Y^(u/v) + Y <= r^2, i.e. iff Y^u <= (r^2 - Y)^v.
    """
    Y = (y - u) * r**2 / (v - u)
    return Y <= 0 or (Y <= r**2 and Y**u <= (r**2 - Y) ** v)


def test_lelong_numeric_is_within_tol_below_the_density():
    rng = random.Random(2)
    # r down to 1e-6 at tol down to 1e-30, then r down to 1e-300 at tol down to 1e-1000
    for draws, r_digits, tol_digits in ((400, 6, 30), (100, 300, 1000)):
        for _ in range(draws):
            u = rng.randint(1, 6)
            v = u + rng.choice([d for d in range(1, 5) if math.gcd(u, u + d) == 1])
            r = Fraction(rng.randint(1, 10**6), 10 ** rng.randint(6, r_digits))
            tol = Fraction(1, 10 ** rng.randint(1, tol_digits))
            [(_, lo)] = lelong_numeric(ParamCurve(u, v), [r], tol)
            assert lo >= u
            assert density_at_least(u, v, r, lo)
            assert not density_at_least(u, v, r, lo + tol)


def test_area_formula_against_exact_riemann_sums():
    # nu(r) = (2 / r^2) * integral_0^R (u^2 s^(2u-1) + v^2 s^(2v-1)) ds, and the
    # integrand is convex, so midpoint sums fall below it and trapezoid sums above
    u, v, r, R, cells = 2, 3, Fraction(45, 64), Fraction(3, 4), 400
    f = lambda s: u * u * s ** (2 * u - 1) + v * v * s ** (2 * v - 1)
    h = R / cells
    midpoint = h * sum(f((i + Fraction(1, 2)) * h) for i in range(cells))
    trapezoid = h * (sum(f(i * h) for i in range(1, cells)) + f(R) / 2)  # f(0) = 0
    lower, upper = 2 * midpoint / r**2, 2 * trapezoid / r**2
    assert lower < Fraction(59, 25) < upper
    assert upper - lower < Fraction(1, 10**4)


def test_seshadri_upper_bound():
    data = CurveData.of((6, 2), (5, 1))
    assert seshadri_upper(data) == 3
    with pytest.raises(ValueError):
        seshadri_upper(CurveData.of())
    with pytest.raises(ValueError):
        CurveData.of((1, 0))


def test_seshadri_thresholds_strict():
    # (jets_at_point, very_ample); very ampleness needs > 4
    assert seshadri_thresholds(Fraction(4), 2, 1) == (True, False)
    jets_at_point, _ = seshadri_thresholds(Fraction(3), 2, 1)
    assert not jets_at_point
    _, very_ample = seshadri_thresholds(Fraction(9, 2), 2, 1)
    assert very_ample
