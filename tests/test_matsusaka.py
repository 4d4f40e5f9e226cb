"""Tests for existence windows and the explicit very-ampleness bound."""

import random
from fractions import Fraction

import pytest

from posbounds.matsusaka import (
    MatsusakaInputs,
    cor132_window,
    fdb_surface_bound,
    lambda_n,
    m0_assembly,
    matsusaka_main,
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
