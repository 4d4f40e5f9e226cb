"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline;
a failing assertion reports the criterion as FAILED in the pytest output.
"""

import random
from fractions import Fraction

from posbounds.adjoint import JetSpec, pluricanonical_bounds, siu_jet_threshold
from posbounds.convexity import Verdict, diag_form_check, morse_existence_threshold
from posbounds.jumping import (
    cn_constant,
    corollary118_table,
    lemma1111_check,
    theorem1117_threshold,
)
from posbounds.lelong import ParamCurve, lelong_numeric
from posbounds.matsusaka import MatsusakaInputs, corollary85_threshold, matsusaka_main, mbar_recursion
from posbounds.multiplier import SkodaClass, membership_criterion, skoda_classify
from posbounds.numpoly import NumericalPolynomial, window_a, window_b, window_c
from posbounds.projective import DivisorClass, ProductSpace, h0, top_intersection
from quadrature_oracle import integrability_oracle


def report_line(num: int, label: str) -> None:
    print(f"criterion {num:2d} ({label}): PASS")


def test_criterion_01_surface_golden_table():
    table = corollary118_table(0)
    assert table["spanned"] == (4, 2)
    assert table["separation"] == ((8, 6), (9, 5), (12, 4))
    for s in range(6):
        assert corollary118_table(s)["jets"] == ((2 + s) ** 2, 2 + 3 * s + s * s)
    assert table["constants"] == {"spanned_m": 3, "very_ample_m": 5}
    report_line(1, "surface golden table")


def test_criterion_02_cn_constants():
    values, tol = [], Fraction(1, 10**14)
    for n in range(2, 33):
        c = cn_constant(n, tol)
        assert c.width <= tol
        assert c.hi < 3
        values.append(c)
    assert values[0].lo == 1
    assert values[1].is_point and values[1].lo == Fraction(17, 13)
    assert values[2].is_point and values[2].lo == Fraction(65545, 39321)
    for a, b in zip(values, values[1:]):
        assert b.hi >= a.lo  # nondecreasing up to certified widths
        assert b.lo >= a.hi - Fraction(1, 10**8)
    report_line(2, "C_n constants exact and < 3")


def test_criterion_03_surface_reduction():
    rng = random.Random(2026)
    for _ in range(1000):
        Ln = Fraction(rng.randint(1, 100))
        LK = Fraction(rng.randint(0, 200), rng.randint(1, 10))
        report = matsusaka_main(MatsusakaInputs.of(2, Ln, 0, LK, 1))
        expected = 4 * (LK + 4 * Ln) ** 2 / Ln
        assert report.threshold.is_point and report.threshold.lo == expected
    report_line(3, "surface reduction of the main bound")


def test_criterion_04_mbar_agreement():
    rng = random.Random(4096)
    for i in range(1000):
        n = 2 + i % 7  # covers n = 2..8
        M = Fraction(rng.randint(1, 20), rng.randint(1, 10))
        LH = Fraction(rng.randint(1, 20), rng.randint(1, 10))
        Ln = Fraction(rng.randint(1, 20), rng.randint(1, 10))
        _, _, ok = mbar_recursion(n, M, LH, Ln)
        assert ok
    report_line(4, "mbar recursion vs closed form")


def test_criterion_05_morse_sharpness():
    rng = random.Random(126)
    for _ in range(1000):
        n = rng.randint(1, 5)
        a = rng.randint(1, 5)
        b = [rng.randint(0, 20) for _ in range(n)]
        S = ProductSpace((1,) * n)
        F = DivisorClass(S, (a,) * n)
        G = DivisorClass(S, tuple(b))
        Fn = top_intersection([F] * n)
        FG = top_intersection([F] * (n - 1) + [G])
        m = morse_existence_threshold(Fn, FG, n)
        assert h0(m * F - G) > 0  # the threshold multiple has a section
    # Sharpness family: balanced twists b = (B, ..., B) with a = 1 give
    # threshold nB+1 against the oracle's minimal multiple B.
    for n in range(2, 6):
        for B in range(1, 101):
            S = ProductSpace((1,) * n)
            F = DivisorClass(S, (1,) * n)
            G = DivisorClass(S, (B,) * n)
            Fn = top_intersection([F] * n)
            FG = top_intersection([F] * (n - 1) + [G])
            bound = morse_existence_threshold(Fn, FG, n)
            oracle = next(m for m in range(0, bound + 1) if h0(m * F - G) > 0)
            assert bound >= oracle
            if B == 100:
                assert abs(bound / oracle - n) <= 0.1 * n
    report_line(5, "Morse threshold sufficiency and sharpness")


def test_criterion_06_multiplier_vs_quadrature():
    grid = 1024
    alphas = [Fraction(k, 2) for k in range(1, 9)]  # 1/2, 1, ..., 4
    for a1 in alphas:
        for a2 in alphas:
            alpha = [a1, a2]
            box1 = -(-a1.numerator // a1.denominator)
            box2 = -(-a2.numerator // a2.denominator)
            for b1 in range(box1 + 1):
                for b2 in range(box2 + 1):
                    beta = (b1, b2)
                    strict = membership_criterion(alpha, beta)
                    margin = Fraction(b1 + 1) / a1 + Fraction(b2 + 1) / a2 - 1
                    if margin == 0:
                        # Exact boundary: divergent, decided by strictness.
                        assert not strict
                        assert not integrability_oracle(alpha, beta, grid)
                    else:
                        assert abs(margin) > Fraction(1, 1000)
                        assert integrability_oracle(alpha, beta, grid) == strict
    report_line(6, "monomial criterion vs dyadic quadrature")


def test_criterion_07_polynomial_windows():
    rng = random.Random(82)
    for _ in range(1000):
        d = rng.randint(1, 5)
        coeffs = tuple(rng.randint(0, 40) for _ in range(d)) + (rng.randint(1, 40),)
        P = NumericalPolynomial(coeffs)
        m0 = rng.randint(0, 8)
        N = rng.randint(1, 50)
        m = window_a(P, m0, N)
        assert m0 <= m <= m0 + N * d and P(m) >= N
        k = rng.randint(1, 8)
        m = window_b(P, m0, k)
        assert m0 <= m <= m0 + k * d
        assert P(m) >= -(-P.leading * k**d // 2 ** (d - 1))
        N = 2 * d * d + rng.randint(0, 50)
        m = window_c(P, m0, N)
        assert m0 <= m <= m0 + N and P(m) >= N
    report_line(7, "numerical polynomial windows")


def test_criterion_08_density_quadrature():
    radii = [0.1, 0.01, 0.001]
    for (u, v) in [(2, 3), (3, 4)]:
        out = lelong_numeric(ParamCurve(u, v), radii)
        estimates = [nu for _, nu in out]
        for bigger, smaller in zip(estimates, estimates[1:]):
            assert smaller <= bigger + 1e-3  # nondecreasing in r
        assert abs(estimates[-1] - u) / u < 0.05
    report_line(8, "multiplicity from the certified area-ratio density")


def test_criterion_09_inequality_property_suites():
    rng = random.Random(1111)
    for _ in range(10**4):
        n = rng.randint(1, 5)
        N = rng.randint(1, 6)
        t = [Fraction(rng.randint(12, 120), 12) for _ in range(N)]
        assert lemma1111_check(t, n)
    for _ in range(10**4):
        n = rng.randint(1, 5)
        lambdas = [Fraction(rng.randint(1, 40), rng.randint(1, 8)) for _ in range(n)]
        p = rng.randint(0, n)
        res = diag_form_check(lambdas, p)
        assert res.verdict is Verdict.HOLDS
    for value in (Fraction(3, 2), Fraction(7)):
        res = diag_form_check([value] * 4, 2)
        assert res.equality
    report_line(9, "superadditivity and diagonal form suites")


def test_criterion_10_skoda_consistency():
    for k in range(1, 25):
        gamma = Fraction(k, 4)
        for p in (1, 2, 3):
            verdict = skoda_classify(gamma, p)
            alpha = [gamma] * p
            box = int(gamma) + p + 2
            members = [
                beta
                for beta in _tuples(p, box)
                if membership_criterion(alpha, beta)
            ]
            if verdict.kind is SkodaClass.TRIVIAL:
                assert tuple([0] * p) in members
            elif verdict.kind is SkodaClass.CONTAINED_IN_POWER:
                assert all(sum(b) >= verdict.power for b in members)
    report_line(10, "Skoda classification consistency")


def _tuples(p, bound):
    if p == 0:
        yield ()
        return
    for b in range(bound + 1):
        for rest in _tuples(p - 1, bound):
            yield (b,) + rest


def test_criterion_11_threshold_golden_values():
    assert siu_jet_threshold(2, JetSpec((1,))) == 23
    assert siu_jet_threshold(3, JetSpec((1,))) == 122
    assert corollary85_threshold(2) == 17
    assert corollary85_threshold(3) == 114
    assert pluricanonical_bounds(2, "general_type")[0] == 25
    assert pluricanonical_bounds(3, "fano")[0] == 120
    assert theorem1117_threshold(2, 1, 1) == 48
    report_line(11, "threshold golden values")
