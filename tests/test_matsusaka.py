"""Tests for existence windows and the explicit very-ampleness bound."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from posbounds import matsusaka
from posbounds.matsusaka import (
    MatsusakaInputs,
    _main_exponents,
    _power_product,
    cor132_window,
    fdb_surface_bound,
    lambda_n,
    m0_assembly,
    matsusaka_main,
    matsusaka_report,
    mbar_recursion,
    prop131_window,
)


def test_prop131_window():
    assert prop131_window(2, 0, 1) == 3  # m0 = 1 plus n
    assert prop131_window(2, 3, 2) == 6  # m0 = 4 plus 2
    with pytest.raises(ValueError):
        prop131_window(2, 0, 0)


def test_cor132_window():
    assert cor132_window(2, 0, 0, 1) == 6
    assert cor132_window(2, 0, 2, 1) == 10
    # Monotone in LB and LK.
    assert cor132_window(2, 5, 2, 1) >= cor132_window(2, 0, 2, 1)


def test_lambda_policies():
    assert lambda_n(2, "demailly") == 17
    assert lambda_n(3, "demailly") == 114
    assert lambda_n(2, "angehrn-siu") == 1
    assert lambda_n(3, "angehrn-siu") == 14
    assert lambda_n(4, 99) == 99
    with pytest.raises(ValueError):
        lambda_n(1, "angehrn-siu")
    with pytest.raises(ValueError):
        lambda_n(2, "unknown")
    with pytest.raises(ValueError):
        lambda_n(2, 0)
    # a bool is an int, but True is no explicit lambda (it was reported as "lambda": true)
    for call in (lambda: lambda_n(3, True), lambda: matsusaka_report(3, 1, 2, 0, True)):
        with pytest.raises(ValueError, match="^explicit lambda must be a positive integer$"):
            call()


def test_surface_reduction_exact():
    # n=2, lambda=1, B=0: bound is exactly 4 (L.(K+4L))^2 / L^2.
    rng = random.Random(13)
    for _ in range(100):
        Ln = Fraction(rng.randint(1, 50))
        LK = Fraction(rng.randint(0, 50), rng.randint(1, 5))
        inputs = MatsusakaInputs.of(2, Ln, 0, LK, 1)
        report = matsusaka_main(inputs)
        expected = 4 * (LK + 4 * Ln) ** 2 / Ln
        assert report.threshold.is_point and report.threshold.lo == expected


def test_main_bound_n3_exponents():
    report = matsusaka_main(MatsusakaInputs.of(3, 1, 0, 0, 1))
    exps = report.details["exponents"]
    assert exps == {"pre": 4, "LBH": 5, "LH": 2, "Ln": 4}
    # (2n)^4 = 1296 prefactor with LH = LBH = 5 and Ln = 1.
    assert report.threshold.lo == 1296 * Fraction(5) ** 5 * Fraction(5) ** 2


# bases sharing the factors 2, 3, 5, 7 and 1081559 (in lambda_8 = C(25, 8) - 16)
SMOOTH = st.lists(st.sampled_from([2, 3, 5, 7, 9, 10, 12, 1081559]), max_size=4).map(math.prod)
POSITIVE = st.builds(Fraction, SMOOTH | st.integers(1, 10**12), SMOOTH | st.integers(1, 10**6))
PAIRS = (st.tuples(POSITIVE | st.integers(1, 50), st.integers(-40, 40))
         | st.tuples(st.sampled_from([0, Fraction(0)]), st.integers(0, 40)))


def main_factors(n, Ln, LB, LK):
    """matsusaka_main's (base, exponent) pairs under the demailly policy."""
    LH = lambda_n(n, "demailly") * (LK + (n + 2) * Ln)
    pre, ebh, eh, eln = _main_exponents(n)
    return [(2 * n, pre), (LB + LH, ebh), (LH, eh), (Ln, -eln)]


@settings(deadline=None, max_examples=300)
@given(st.lists(PAIRS, max_size=6))
@example([(Fraction(0), 0), (1, 5), (Fraction(1), -3)])
@example([(Fraction(6, 35), 3), (Fraction(10, 21), -2), (Fraction(14, 15), 5), (Fraction(0), 1)])
@example(main_factors(7, Fraction(7), Fraction(2), Fraction(3)))
@example(main_factors(8, Fraction(9), Fraction(5), Fraction(10)))
@example(main_factors(8, Fraction(9, 2), Fraction(1, 3), Fraction(5, 7)))
@example(main_factors(8, Fraction(1), Fraction(0), Fraction(-10)))  # LH = LBH = 0
def test_power_product_is_the_fraction_product(pairs):
    expected = math.prod((Fraction(x) ** e for x, e in pairs), start=Fraction(1))
    got = _power_product(pairs)
    assert type(got) is Fraction and got == expected and hash(got) == hash(expected)
    assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)


def fraction_formula(factors):
    """The main bound as chained Fraction operators, one gcd per operand pair."""
    (two_n, pre), (LBH, ebh), (LH, eh), (Ln, minus_eln) = factors
    return two_n ** pre * LBH ** ebh * LH ** eh / Ln ** -minus_eln


def test_main_bound_matches_the_fraction_formula(monkeypatch):
    rng = random.Random(31)
    cases = [(n, Ln, LB, -(n + 2) * Ln, policy)  # LH = 0; LBH = 0 too where LB = 0
             for n in range(2, 7) for Ln, LB in ((1, 0), (Fraction(9, 2), Fraction(1, 3)))
             for policy in ("demailly", 3)]
    for _ in range(60):
        n = rng.randint(2, 6)
        Ln = Fraction(rng.randint(1, 60), rng.randint(1, 4)) + 1
        LB = Fraction(rng.randint(0, 40), rng.randint(1, 9))
        LK = Fraction(rng.randint(-(n + 2) * 10, 40), rng.randint(1, 11))
        LK = max(LK, -(n + 2) * Ln)
        cases.append((n, Ln, LB, LK, rng.choice(["demailly", "angehrn-siu", rng.randint(1, 50)])))
    for n, Ln, LB, LK, policy in cases:
        inputs = MatsusakaInputs.of(n, Ln, LB, LK, policy)
        got = matsusaka_main(inputs)
        with monkeypatch.context() as patch:
            patch.setattr(matsusaka, "_power_product", fraction_formula)
            expected = matsusaka_main(inputs)
        assert got.threshold == expected.threshold and got.details == expected.details
        assert (json.dumps(got.to_json(), sort_keys=True)
                == json.dumps(expected.to_json(), sort_keys=True))


def test_main_bound_homogeneous_in_LBH():
    # LH = 4 at n = 2, Ln = 1, LK = 0, policy 1, so LB = 1 and 6 give LBH = 5 and 10
    a = matsusaka_main(MatsusakaInputs.of(2, 1, 1, 0, 1))
    b = matsusaka_main(MatsusakaInputs.of(2, 1, 6, 0, 1))
    assert (a.inputs["LBH"], b.inputs["LBH"]) == (5, 10)
    assert b.threshold.lo == 4 * a.threshold.lo


def closed_form_b0(n, Ln, LK, lam):
    """The B = 0 closed form: (2n)^((3^(n-1)-1)/2) lambda^e (L^n)^(3^(n-2))
    (n+2+LK/L^n)^e with e = 3^(n-2)(n/2 + 3/4) + 1/4."""
    Ln, LK = Fraction(Ln), Fraction(LK)
    e = (3 ** (n - 2) * (2 * n + 3) + 1) // 4
    return ((2 * n) ** ((3 ** (n - 1) - 1) // 2) * Fraction(lam) ** e * Ln ** 3 ** (n - 2)
            * (n + 2 + LK / Ln) ** e)


def test_very_ample_closed_form_surface():
    # n=2, lambda=1: 4 L^2 (4 + LK/L^2)^2 is the main bound at B=0.
    report = matsusaka_main(MatsusakaInputs.of(2, 1, 0, 2, 1))
    assert report.threshold.is_point and report.threshold.lo == 4 * (4 + 2) ** 2
    assert closed_form_b0(2, 1, 2, 1) == report.threshold.lo
    rng = random.Random(29)
    for _ in range(300):
        n, Ln = rng.randint(2, 5), Fraction(rng.randint(3, 60), rng.randint(1, 3))
        LK = Fraction(rng.randint(-(n + 2) * 3 * int(Ln), 60), 3)
        policy = rng.choice(["demailly", "angehrn-siu", rng.randint(1, 40)])
        report = matsusaka_main(MatsusakaInputs.of(n, Ln, 0, LK, policy))
        assert report.threshold.hi == closed_form_b0(n, Ln, LK, lambda_n(n, policy))


def test_very_ample_monotone_in_LK():
    lo = matsusaka_main(MatsusakaInputs.of(3, 2, 0, 1, "demailly")).threshold
    hi = matsusaka_main(MatsusakaInputs.of(3, 2, 0, 5, "demailly")).threshold
    assert hi.lo > lo.hi
    assert (lo.hi, hi.lo) == (closed_form_b0(3, 2, 1, 114), closed_form_b0(3, 2, 5, 114))


def test_mbar_recursion_examples():
    rec, closed, ok = mbar_recursion(3, 2, 1, 1)
    assert ok
    assert rec == [2, 8, 512]
    rec, closed, ok = mbar_recursion(4, 1, 1, 1)
    assert ok and set(rec) == {Fraction(1)}
    with pytest.raises(ValueError):
        mbar_recursion(3, 0, 1, 1)


def test_mbar_recursion_random_agreement():
    for n in range(1, 7):  # inputs sharing the factors 2, 3, 5 and 7
        _, _, ok = mbar_recursion(n, Fraction(6, 35), Fraction(10, 21), Fraction(14, 15))
        assert ok
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(2, 8)
        M = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        LH = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        Ln = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        _, _, ok = mbar_recursion(n, M, LH, Ln)
        assert ok


def test_m0_assembly():
    assert m0_assembly([Fraction(1)], 1) == 1
    assert m0_assembly([Fraction(8), Fraction(2)], 3) == 48
    with pytest.raises(ValueError):
        m0_assembly([], 1)


def test_fdb_surface_bound():
    fdb, factor4 = fdb_surface_bound(1, 4)
    assert fdb == 14 and factor4 == 64
    fdb, factor4 = fdb_surface_bound(2, 0)
    assert fdb == Fraction(1 + 6, 4)  # ((0+1)^2/2 + 3)/2
    with pytest.raises(ValueError):
        fdb_surface_bound(0, 1)


def test_fdb_below_factor4_sweep():
    # L.(K+4L) >= 4 L^2 whenever K is nef, which is the regime of interest.
    for L2 in range(1, 10):
        for LKp4L in range(4 * L2, 4 * L2 + 20):
            fdb, factor4 = fdb_surface_bound(L2, LKp4L)
            assert fdb <= factor4
