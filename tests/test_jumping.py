"""Tests for the sigma sequence, the jump recursion, and derived thresholds."""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from posbounds import jumping
from posbounds.adjoint import JetSpec
from posbounds.core import (
    Bracket, InputError, floor_powers, floor_root, grid_bits, iroot, pow_bracket,
)
from posbounds.jumping import (
    _root_floor,
    beta_schedule,
    cn_constant,
    corollary118_table,
    lemma1111_check,
    lemma1115_threshold,
    lemma1116_consistency,
    main_theorem_check,
    mu_invariant,
    recursion_bound,
    remark1120_threshold,
    sigma0_for,
    sigma_sequence,
    theorem1117_threshold,
)
from test_core import assert_dyadic_within


def test_sigma0_values():
    assert sigma0_for(JetSpec((0,)), 2) == 4
    assert sigma0_for(JetSpec((1,)), 2, very_ample_special=True) == 8
    assert sigma0_for(JetSpec((1,)), 3, very_ample_special=True) == 54
    assert sigma0_for(JetSpec((1,)), 2) == 9  # generic path (n+s)^n
    assert sigma0_for(JetSpec((0, 1)), 2) == 4 + 9


def test_sigma_sequence_surface_example():
    s = sigma_sequence(4, 5, 2)
    # sigma_1 = 5(1 - sqrt(1/5)) ~ 2.7639.
    assert abs(float(s.sigma_p[0].lo) - 2.76393202) < 1e-6
    assert s.sigma_p[0].width <= Fraction(1, 10**11)


def test_sigma_sequence_validation():
    with pytest.raises(ValueError):
        sigma_sequence(5, 5, 2)
    with pytest.raises(ValueError):
        sigma_sequence(0, 5, 2)
    for n in (0, -3):
        with pytest.raises(InputError, match=f"n must be >= 1, got {n}"):
            sigma_sequence(1, 2, n)
    assert sigma_sequence(1, 2, 1).sigma_p == ()


def assert_sigma_bounds(s, sigma0, n):
    """sigma_sequence's post-checks on its brackets: sigma0 p/n < sigma_p < sigma0,
    strictly increasing."""
    b = s.sigma_p
    for p in range(1, n):
        assert b[p - 1].lo > sigma0 * p / n
        assert b[p - 1].hi < sigma0
    for p in range(1, n - 1):
        assert b[p - 1].hi < b[p].lo


def test_sigma_sequence_certifies_a_near_degenerate_ratio_on_the_proven_grid():
    # Tolerance 1 asks for a 2^-2 grid, too coarse to separate sigma_1 from
    # sigma0/2; the gap bound g = (sigma0/2) min(eps/4, q) = 1/8,000,000 caps
    # the grid at k_max = grid_bits(g) + 2 = 25, and 23 is the coarsest passing.
    s = sigma_sequence(Fraction(1, 1000), 1, 2, tol=1)
    assert s.k == 23
    assert_sigma_bounds(s, Fraction(1, 1000), 2)


def test_sigma_bisection_takes_one_root(monkeypatch):
    # the first grid fails, so the bisection probes several; each reads its
    # floors off the one root at k_max, as floor(2^j y) = floor(2^k y) >> (k - j)
    # (a root per probe takes 13 here)
    calls = []
    monkeypatch.setattr(jumping, "floor_powers", lambda *args: calls.append(args) or floor_powers(*args))
    s = sigma_sequence(1, 2**3000, 64)
    assert len(calls) == 2 and calls[0][3] < calls[1][3]  # the first grid, then k_max
    assert_sigma_bounds(s, 1, 64)


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=3, max_value=5),
    st.fractions(min_value=Fraction(1, 4), max_value=Fraction(9, 10), max_denominator=16),
)
def test_sigma_sequence_invariants(n, ratio):
    Ln = Fraction(100)
    assert_sigma_bounds(sigma_sequence(ratio * Ln, Ln, n), ratio * Ln, n)


tolerances = st.fractions(min_value=Fraction(1, 10**40), max_value=10, max_denominator=10**40)


@settings(deadline=None, max_examples=150)
@given(
    st.integers(min_value=2, max_value=8),
    st.builds(lambda r, e: r / 10**e,
              st.fractions(min_value=Fraction(1, 10**6), max_value=1 - Fraction(1, 10**6),
                           max_denominator=10**6),
              st.integers(min_value=0, max_value=54)),
    st.fractions(min_value=Fraction(1, 10), max_value=10**4, max_denominator=10),
    tolerances,
    tolerances,
)
@example(3, Fraction(1, 8), Fraction(64), Fraction(1, 3), Fraction(1, 7))
@example(2, Fraction(1, 1000), Fraction(1), Fraction(1, 3), Fraction(1, 7))
@example(8, Fraction(1, 10**60), Fraction(1, 10), Fraction(10), Fraction(1, 10**40))
def test_sigma_brackets_nest_and_are_tol_wide_on_a_dyadic_grid(n, ratio, Ln, t1, t2):
    wide_tol, tight_tol = max(t1, t2), min(t1, t2)
    wide = sigma_sequence(ratio * Ln, Ln, n, wide_tol)
    tight = sigma_sequence(ratio * Ln, Ln, n, tight_tol)
    for s, t in ((wide, wide_tol), (tight, tight_tol)):
        assert [Bracket.dyadic(lo, hi, s.k) for lo, hi in s.ends] == list(s.sigma_p)
        for b in s.sigma_p:
            assert_dyadic_within(b, t)
        assert_sigma_bounds(s, ratio * Ln, n)
    for w, t in zip(wide.sigma_p, tight.sigma_p):
        assert w.lo <= t.lo and t.hi <= w.hi


@settings(deadline=None, max_examples=150)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(st.integers(min_value=1, max_value=10**6), min_size=n, max_size=n)),
    tolerances,
    tolerances,
)
@example([3, 9, 20], Fraction(1, 3), Fraction(1, 7))
def test_mu_invariant_brackets_nest_on_a_dyadic_grid(values, t1, t2):
    per_dim = dict(enumerate(values, 1))
    wide = mu_invariant(per_dim, len(values), max(t1, t2))
    tight = mu_invariant(per_dim, len(values), min(t1, t2))
    assert wide.lo <= tight.lo and tight.hi <= wide.hi
    assert_dyadic_within(wide, max(t1, t2))
    assert_dyadic_within(tight, min(t1, t2))
    if tight.is_point:  # an exact integer root is the minimum
        assert any(tight.lo ** p == v for p, v in per_dim.items())


def test_recursion_bound_linear_case():
    b2 = recursion_bound(2, 4, 0, [Fraction(0)], 3, 5)
    # b2 = sigma_1 / 3 ~ 0.921 < 1.
    assert b2.hi < 1
    assert abs(float(b2.lo) - 2.76393202 / 3) < 1e-6


def test_recursion_bound_quadratic_case():
    s = sigma_sequence(27, 64, 3).sigma_p
    b3 = recursion_bound(3, 27, Fraction(1), [Fraction(0), Fraction(1, 4)], 2, 64)
    # Certified root of x(x - 1/4) = RHS: check by substitution.
    for x in (b3.lo, b3.hi):
        assert x > Fraction(1, 4)
    val_lo = b3.lo * (b3.lo - Fraction(1, 4))
    val_hi = b3.hi * (b3.hi - Fraction(1, 4))
    # rhs = (sigma_2 + (1/4) 1 sigma_1) / 2 rises with both sigmas
    rhs_lo = (s[1].lo + Fraction(1, 4) * s[0].lo) / 2
    rhs_hi = (s[1].hi + Fraction(1, 4) * s[0].hi) / 2
    assert val_lo <= rhs_hi and val_hi >= rhs_lo


def test_recursion_bound_rejects_a_prefix_longer_than_sigma():
    # n = 3 has sigma_1, sigma_2 only; a prefix of length p >= n needs sigma_p
    for prefix in ([0, Fraction(1, 4), Fraction(1, 2)], [0, 1, 1, 2]):
        with pytest.raises(InputError, match=f"sigma_{len(prefix)}"):
            recursion_bound(3, 27, 1, prefix, 2, 64)


def prod_minus(b, x):
    return math.prod(x - bj for bj in b)


def rhs_reference(b, a, sigma_p, divisor):
    """(lo, hi) of (1/divisor) sum_{j<p} S_j(b) a^j sigma_{p-j}, p = len(b), from
    the sigma_p brackets, with S_j(b) summed over the j-subsets of b."""
    p = len(b)
    coeffs = [a ** j * sum(map(math.prod, itertools.combinations(b, j))) for j in range(p)]
    return tuple(sum(c * getattr(sigma_p[p - 1 - j], end) for j, c in enumerate(coeffs)) / divisor
                 for end in ("lo", "hi"))


recursion_tols = st.sampled_from(
    [Fraction(1, 10**12), Fraction(1, 3), Fraction(2), Fraction(1, 10**40)])


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=2, max_value=4),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100),
    st.fractions(min_value=1, max_value=200, max_denominator=12),
    st.lists(st.fractions(min_value=0, max_value=3, max_denominator=12), max_size=2),
    st.fractions(min_value=0, max_value=3, max_denominator=12),
    st.integers(min_value=1, max_value=50),
    recursion_tols,
    recursion_tols,
)
# sigma0/L^n = 10^-30: at tol 1e-12, sigma's checks need a 103-bit grid, 60 bits
# finer than the first one that tol_s asks for
@example(3, Fraction(1, 10**30), Fraction(10**30), [Fraction(1, 2)], Fraction(1), 1,
         Fraction(1, 10**12), Fraction(1, 10**40))
def test_recursion_bound_is_tol_wide_nests_and_encloses_the_root(
    n, ratio, Ln, rest, a, minY, t1, t2,
):
    b = [Fraction(0)] + sorted(rest)[:n - 2]
    wide_tol, tight_tol = max(t1, t2), min(t1, t2)
    wide = recursion_bound(n, ratio * Ln, a, b, minY, Ln, wide_tol)
    tight = recursion_bound(n, ratio * Ln, a, b, minY, Ln, tight_tol)
    assert_dyadic_within(wide, wide_tol)
    assert_dyadic_within(tight, tight_tol)
    assert wide.lo <= tight.lo and tight.hi <= wide.hi
    # sigma at 1e-100 is finer than any tolerance recursion_bound asks of it
    ref_lo, ref_hi = rhs_reference(
        b, a, sigma_sequence(ratio * Ln, Ln, n, Fraction(1, 10**100)).sigma_p, minY)
    for x in (wide, tight):
        assert prod_minus(b, x.hi) >= ref_hi
        assert x.lo <= b[-1] or prod_minus(b, x.lo) <= ref_lo


@pytest.mark.parametrize("tol", [Fraction(1, 10**6), Fraction(1, 10**12), Fraction(1, 10**30)])
def test_recursion_bound_d6_example_is_tol_wide(tol):
    # sigma passed in at tol left this bracket 3.8 / 2.7 / 2.4 x tol wide
    assert recursion_bound(8, 1, 3, [0, Fraction(17, 6), Fraction(23, 6)], 1, 2, tol).width <= tol


def test_root_floor_pins():
    # f hits the target exactly on the grid: (t, True)
    b = [Fraction(0), Fraction(1)]
    for t in (18, 20, 24, 32):
        x = Fraction(t, 16)
        assert _root_floor(b, x * (x - 1), 4) == (t, True)
    # the root's floor can lie below 2^k b_p = 266.67 when b_p is off the grid
    b = [Fraction(0), Fraction(3), Fraction(58, 9), Fraction(22, 3), Fraction(50, 3)]
    target = Fraction(260663, 3258)
    assert _root_floor(b, target, 4) == (266, False)
    assert prod_minus(b, Fraction(267, 16)) > target
    # b_2 and b_3 share the grid cell above 1 = 16/16, where f(1) > target:
    # the loop must stop at t = 16 rather than step on from there
    b = [Fraction(0), Fraction(129, 128), Fraction(131, 128)]
    target = prod_minus(b, b[-1] + Fraction(1, 2**14))
    assert prod_minus(b, 1) > target
    assert _root_floor(b, target, 4) == (16, False)


def test_recursion_bound_antitone_in_minY():
    loose = recursion_bound(2, 4, 0, [Fraction(0)], 1, 5)
    tight = recursion_bound(2, 4, 0, [Fraction(0)], 4, 5)
    assert tight.hi < loose.lo


def test_recursion_bound_validation():
    with pytest.raises(ValueError):
        recursion_bound(2, 4, 0, [Fraction(1)], 1, 5)
    with pytest.raises(InputError, match="nondecreasing"):
        recursion_bound(4, 4, 0, [0, 1, Fraction(1, 2)], 1, 5)
    with pytest.raises(ValueError):
        recursion_bound(2, 4, -1, [Fraction(0)], 1, 5)
    with pytest.raises(ValueError):
        recursion_bound(2, 4, 0, [Fraction(0)], 0, 5)
    for sigma0 in (0, -1, 5):
        with pytest.raises(InputError, match="need 0 < sigma0 < L"):
            recursion_bound(2, sigma0, 0, [Fraction(0)], 1, 5)
    for tol in (0, -1):
        with pytest.raises(InputError, match="tolerance must be positive"):
            recursion_bound(2, 4, 0, [Fraction(0)], 3, 5, tol=tol)


def test_main_theorem_check_builds_no_sigma_bracket(monkeypatch):
    # the right-hand sides are sums over sigma's integer ends
    built = []
    dyadic = Bracket.dyadic

    def spy(lo, hi, k):
        built.append((lo, hi, k))
        return dyadic(lo, hi, k)

    monkeypatch.setattr(Bracket, "dyadic", staticmethod(spy))
    report = main_theorem_check(3, 8, 1, [0, Fraction(1, 27), 1], {1: 10**4, 2: 10**4}, 64)
    assert report.verdict == "satisfied" and built == []
    sigma_sequence(8, 64, 3).sigma_p  # the spy sees brackets built on reading
    assert len(built) == 2


def test_criterion_and_recursion_run_one_elementary_symmetric_pass(monkeypatch):
    calls = []
    rows = jumping.elem_sym_rows
    monkeypatch.setattr(jumping, "elem_sym_rows",
                        lambda values: calls.append(len(values)) or rows(values))
    beta = [Fraction(p, 8) for p in range(8)]
    report = main_theorem_check(8, 1, 1, beta, {p: 10**6 for p in range(1, 8)}, 2)
    assert report.verdict == "satisfied" and calls == [7]
    recursion_bound(8, 1, 1, [0, Fraction(1, 4), Fraction(1, 2)], 2, 2)
    assert calls == [7, 3]


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=2, max_value=10),
    st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100), max_denominator=100),
    st.data(),
)
def test_main_theorem_margins_equal_the_reference(n, ratio, data):
    # every right-hand side is one exact sum over sigma's brackets at the call's tol
    Ln = data.draw(st.fractions(min_value=1, max_value=200, max_denominator=12))
    inner = data.draw(st.sets(st.fractions(min_value=Fraction(1, 100), max_value=1,
                                           max_denominator=100), min_size=n - 1, max_size=n - 1))
    beta = [Fraction(0), *sorted(inner)]
    a = data.draw(st.fractions(min_value=0, max_value=3, max_denominator=12))
    minY = data.draw(st.dictionaries(st.integers(min_value=1, max_value=n - 1),
                                     st.integers(min_value=1, max_value=10**4)))
    tol = data.draw(st.sampled_from([Fraction(1, 10**12), Fraction(1, 3), Fraction(1, 10**40)]))
    report = main_theorem_check(n, ratio * Ln, a, beta, minY, Ln, tol)
    sigma_p = sigma_sequence(ratio * Ln, Ln, n, tol).sigma_p
    expected = {
        str(p): minY[p] - rhs_reference(beta[:p], a, sigma_p, prod_minus(beta[:p], beta[p]))[1]
        if p in minY else None
        for p in range(1, n)
    }
    assert report.details["margins"] == expected
    satisfied = all(m is not None and m > 0 for m in expected.values())
    assert report.verdict == ("satisfied" if satisfied else "unsatisfied")


@pytest.mark.parametrize("n, digest", [
    (32, "ba8fd6f57787829e017df9994c249556df3656f595292ba76f5bf9c93da2130e"),
    (64, "5552696270d3923e47889e4ae596cbaf56405dc85d9cad20774ca4d1131cbc62"),
    (128, "93ba00d55bfc6eb50a7a2d8b8e1c6063e231f22ac0fbdec159b07ae4a2f3ab3e"),
    (256, "fecc801bd4ad204ba81381c04fe0133ea00ab947029aa23bfe96da47fb81dd94"),
])
def test_main_theorem_report_bytes_are_pinned(n, digest):
    # beta_p = (p-1)/n, a = 1/3, every minY = 10^6: the ROADMAP Baseline curve's inputs
    report = main_theorem_check(n, 1, Fraction(1, 3), [Fraction(p, n) for p in range(n)],
                                {p: 10**6 for p in range(1, n)}, 2)
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("digits, digest", [
    (12, "a85cebed6edb51e3ffb3d3da3617a73507f43f3d30a58be5f67fe63c40af4347"),
    (1000, "e1153a4a9bb4db2c82c66d116fd800e8a4a89e7a3e5773676141fd940f0b0b01"),
    (3000, "f330aca8be774379eda517fe897d5e8f1e9dbe49f64af381efd147664911ba1d"),
])
def test_recursion_bound_bytes_are_pinned(digits, digest):
    b = recursion_bound(8, 1, 1, [0, Fraction(1, 4), Fraction(1, 2)], 2, 2, Fraction(1, 10**digits))
    text = f"{b.lo.numerator}/{b.lo.denominator},{b.hi.numerator}/{b.hi.denominator}"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.xfail(strict=True, reason="D7: 'unsatisfied' is not a disproof (ROADMAP item 10)")
def test_main_theorem_verdict_does_not_depend_on_the_tolerance():
    # at tol 1/2 margin 1 reads -13/8, yet the true right-hand side is ~75.23 < 76
    verdicts = {main_theorem_check(3, 8, 1, [0, Fraction(1, 27), 1], {1: 76, 2: 6}, 64, tol).verdict
                for tol in (Fraction(1, 2), Fraction(1, 10**60))}
    assert len(verdicts) == 1


def test_main_theorem_surface_reduction():
    # n=2, beta=(0,1): conditions reduce to L^2 > sigma0 and L.C > sigma_1.
    report = main_theorem_check(2, 4, 0, [0, 1], {1: 3}, 5)
    assert report.verdict == "satisfied"
    report = main_theorem_check(2, 4, 0, [0, 1], {1: 2}, 5)
    assert report.verdict == "unsatisfied"  # 2 < sigma_1 ~ 2.76
    report = main_theorem_check(2, 9, 0, [0, 1], {1: 100}, 5)
    assert report.verdict == "unsatisfied"  # sigma0 >= L^2


def test_main_theorem_missing_minY_is_unsatisfied():
    report = main_theorem_check(3, 8, 0, [0, Fraction(1, 27), 1], {2: 100}, 64)
    assert report.verdict == "unsatisfied"
    assert report.details["margins"]["1"] is None


def test_main_theorem_threefold():
    # Conditions: L^2.S > beta^-1 sigma_1, L.C > (1-beta)^-1 (sigma_2 + beta a sigma_1).
    beta = Fraction(1, 27)
    report = main_theorem_check(3, 8, 1, [0, beta, 1], {1: 10**4, 2: 10**4}, 64)
    assert report.verdict == "satisfied"
    report = main_theorem_check(3, 8, 1, [0, beta, 1], {1: 1, 2: 10**4}, 64)
    assert report.verdict == "unsatisfied"


def test_main_theorem_rejects_minY_outside_1_to_n_minus_1():
    beta = [0, Fraction(1, 27), 1]
    for p in (0, 3, 7):
        for Ln in (64, 8):  # also when L^n does not exceed sigma0
            with pytest.raises(InputError, match=rf"minY for p in \[{p}\] outside 1\.\.2$"):
                main_theorem_check(3, 8, 1, beta, {1: 76, 2: 6, p: 1}, Ln)


def test_main_theorem_rejects_nonpositive_minY():
    # minY_p is a degree L^(n-p).Y, a positive integer, as recursion_bound requires
    beta = [0, Fraction(1, 27), 1]
    for v in (0, -1):
        for Ln in (64, 8):  # also when L^n does not exceed sigma0
            with pytest.raises(InputError, match="^minY must be a positive integer$"):
                main_theorem_check(3, 8, 1, beta, {1: 76, 2: v}, Ln)


def test_main_theorem_beta_validation():
    with pytest.raises(ValueError):
        main_theorem_check(2, 4, 0, [Fraction(1, 2), 1], {1: 3}, 5)
    with pytest.raises(ValueError):
        main_theorem_check(3, 4, 0, [0, 1, Fraction(1, 2)], {1: 3}, 5)
    # beta_2 = 0 at n = 2 and at n = 3, and a repeated beta
    for beta in ([0, 0], [0, 0, 1], [0, Fraction(1, 2), Fraction(1, 2), 1]):
        with pytest.raises(InputError) as info:
            main_theorem_check(len(beta), 1, 0, beta, {}, 4)
        assert str(info.value) == "beta must satisfy 0 = beta_1 < ... < beta_n <= 1"


def test_lemma1111_examples():
    assert lemma1111_check([Fraction(5)], 3)  # single term is equality
    assert lemma1111_check([1, 1], 2)  # 8 <= 9
    with pytest.raises(ValueError):
        lemma1111_check([Fraction(1, 2)], 2)


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.fractions(min_value=1, max_value=10, max_denominator=12), min_size=1, max_size=6),
    st.integers(min_value=1, max_value=5),
)
def test_lemma1111_property(t, n):
    assert lemma1111_check(t, n)


def test_beta_schedule_values():
    b3 = beta_schedule(3)
    assert [x.lo for x in b3] == [0, Fraction(1, 27), 1]
    assert all(x.is_point for x in b3)
    b4 = beta_schedule(4)
    assert b4[1].lo == Fraction(1, 4**8)
    assert b4[2].lo == Fraction(1, 4**2)
    b2 = beta_schedule(2)
    assert [x.lo for x in b2] == [0, 1]
    with pytest.raises(ValueError):
        beta_schedule(1)


def test_cn_constant_golden():
    assert cn_constant(2).lo == 1
    c3 = cn_constant(3)
    assert c3.is_point and c3.lo == Fraction(17, 13)
    c4 = cn_constant(4)
    assert c4.is_point and c4.lo == Fraction(65545, 39321)
    c5 = cn_constant(5)
    assert c5.hi < 3


def cn_by_endpoint_products(n, tol):
    """C_n over fresh pow_brackets: each factor (1 + (2n+1) beta)/(1 - beta)
    increases in beta, so the ends of the product are products at the ends of
    the beta brackets.  An independent enclosure that shares no code with
    cn_constant's integer grid."""
    lo = hi = Fraction(1)
    for p in range(2, n):
        beta = pow_bracket(Fraction(1, n), Fraction(n * (n - p), p - 1), tol)
        lo *= (1 + (2 * n + 1) * beta.lo) / (1 - beta.lo)
        hi *= (1 + (2 * n + 1) * beta.hi) / (1 - beta.hi)
    return Bracket(lo, hi)


@pytest.mark.parametrize("tol", [Fraction(1, 10**12), Fraction(1, 10**30)])
def test_cn_constant_encloses_a_tighter_bracket_on_a_dyadic_grid(tol):
    bits = (-(-1 // tol)).bit_length()
    for n in range(5, 33):
        c, ref = cn_constant(n, tol), cn_by_endpoint_products(n, Fraction(1, 10**60))
        assert c.lo <= ref.lo and ref.hi <= c.hi
        assert c.width <= tol
        for end in (c.lo, c.hi):
            den = end.denominator
            assert den & (den - 1) == 0
            assert den.bit_length() <= bits + 2 * n.bit_length() + 16


@settings(deadline=None, max_examples=150)
@given(
    st.integers(min_value=5, max_value=40),
    st.fractions(min_value=Fraction(1, 10**40), max_value=10, max_denominator=10**40),
    st.fractions(min_value=Fraction(1, 10**40), max_value=10, max_denominator=10**40),
)
def test_cn_constant_brackets_nest_as_the_tolerance_shrinks(n, t1, t2):
    wide, tight = cn_constant(n, max(t1, t2)), cn_constant(n, min(t1, t2))
    assert wide.lo <= tight.lo and tight.hi <= wide.hi


def test_cn_constant_width_check_raises_when_the_grid_is_too_coarse(monkeypatch):
    # beta_p = 1/3 is far above the true schedule, so the factor slopes, and
    # with them the width, exceed what the grid was sized for
    monkeypatch.setattr(jumping, "floor_root", lambda num, den, q, k, a: (1 << k) // 3)
    with pytest.raises(AssertionError, match="wider than the tolerance"):
        cn_constant(8, Fraction(1, 10**12))


def test_cn_constant_takes_no_root_of_a_perfect_power(monkeypatch):
    # 8 = 2^3: beta_4 = 8^(-32/3) = 2^-32 and beta_7 = 8^(-4/3) = 2^-4 are
    # read off 2^-a; only beta_6 = 8^(-16/5) needs a root
    indices = []

    def spy(num, den, q, k, a):
        indices.append(q)
        return floor_root(num, den, q, k, a)

    tol = Fraction(1, 10**100)
    by_roots = cn_constant(8, tol)
    monkeypatch.setattr(jumping, "floor_root", spy)
    assert cn_constant(8, tol) == by_roots
    assert sorted(indices) == [1, 1, 1, 1, 1, 5]
    monkeypatch.setattr(jumping, "iroot", lambda a, q: (a, q == 1))  # no perfect powers
    assert cn_constant(8, tol) == by_roots


def test_chained_recursion_stays_below_beta():
    # On a satisfying instance the certified jumps stay below the schedule.
    n = 3
    betas = beta_schedule(n)
    b = [Fraction(0)]
    for p in range(1, n):
        nxt = recursion_bound(n, 8, Fraction(1), b, 10**6, 10**4)
        assert nxt.hi < betas[p].lo or betas[p].lo == 0
        b.append(nxt.hi)


def test_lemma1115_thresholds():
    assert lemma1115_threshold(2, 1, special=True) == 24
    assert lemma1115_threshold(2, 1) == 27
    assert lemma1115_threshold(3, 2) == 375
    with pytest.raises(ValueError):
        lemma1115_threshold(2, 2, special=True)


def test_theorem1117_thresholds():
    assert theorem1117_threshold(2, 1, 1) == 48
    assert theorem1117_threshold(2, 1, 47) == 2
    assert theorem1117_threshold(2, 1, 10**6) == 2
    assert theorem1117_threshold(2, 2, 1, special=False) == 6 * 4**2 - 2 + 1
    with pytest.raises(ValueError):
        theorem1117_threshold(2, 1, 0)


def test_remark1120_thresholds():
    assert remark1120_threshold(2, 1) == 726
    assert remark1120_threshold(2, 0) == 486
    assert remark1120_threshold(3, 0) == 10368


def test_corollary118_table_golden():
    table = corollary118_table(1)
    assert table["spanned"] == (4, 2)
    assert table["separation"] == ((8, 6), (9, 5), (12, 4))
    assert table["jets"] == (9, 6)
    assert table["constants"] == {"spanned_m": 3, "very_ample_m": 5}


@given(st.integers(min_value=0, max_value=10))
def test_corollary118_table_monotone_in_s(s):
    a = corollary118_table(s)["jets"]
    b = corollary118_table(s + 1)["jets"]
    assert b[0] > a[0] and b[1] > a[1]


def test_mu_invariant():
    assert mu_invariant({1: 3, 2: 9}, 2).lo == 3  # O(3) on the plane
    m = mu_invariant({1: 2, 2: 3}, 2)
    assert m.lo**2 <= 3 <= m.hi**2  # sqrt(3) bracket wins the min
    with pytest.raises(ValueError):
        mu_invariant({1: 2}, 2)


def test_mu_invariant_validates_its_arguments():
    with pytest.raises(InputError, match="n must be >= 1"):
        mu_invariant({}, 0)
    with pytest.raises(InputError, match="n must be >= 1"):
        mu_invariant({1: 2}, 0)
    with pytest.raises(InputError, match=r"^missing per-dimension minima for p in \[1, 2\]$"):
        mu_invariant({}, 2)
    for p in (0, 3, 5):  # a key outside 1..n is refused, not skipped
        with pytest.raises(InputError, match=rf"minima for p in \[{p}\] outside 1\.\.2$"):
            mu_invariant({1: 3, 2: 9, p: 0}, 2)


def test_mu_invariant_homogeneity():
    base = mu_invariant({1: 2, 2: 3}, 2)
    scaled = mu_invariant({1: 4, 2: 12}, 2)  # k = 2: entries scale by k^p
    assert abs(float(scaled.lo) - 2 * float(base.lo)) < 1e-9


def mu_by_two_roots(per_dim, n, tol):
    """mu_invariant's minimum with a root of v, then of v 2^(kp) if v is not
    a perfect p-th power."""
    k, ends = grid_bits(tol), []
    for p in range(1, n + 1):
        x, exact = iroot(per_dim[p], p)
        t = x << k if exact else floor_root(per_dim[p], 1, p, k)
        ends.append((t, t if exact else t + 1))
    return Bracket.dyadic(min(lo for lo, _ in ends), min(hi for _, hi in ends), k)


@pytest.mark.parametrize("tol", [Fraction(1, 10**12), Fraction(1, 10**300), Fraction(1, 3)])
def test_mu_invariant_takes_one_root_on_perfect_powers_and_their_neighbours(tol):
    for p in range(1, 8):
        for base in (1, 2, 3, 7, 10, 2**64 + 1, 3**40):
            for v in (base**p - 1, base**p, base**p + 1):
                if v < 1:
                    continue
                # lower dimensions declare more than v, so dimension p is the minimum
                per_dim = {j: (base + 2) ** j for j in range(1, p)} | {p: v}
                mu = mu_invariant(per_dim, p, tol)
                assert mu == mu_by_two_roots(per_dim, p, tol)
                assert mu.is_point == (p == 1 or v == base**p)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 6), st.integers(1, 10**4), st.data(),
       st.sampled_from([Fraction(1, 3), Fraction(1, 10**12), Fraction(1, 10**30), Fraction(1, 10**300)]))
def test_mu_invariant_matches_every_root_on_ties_and_near_ties(n, base, data, tol):
    # base^p ties every root; base^p +- 1 moves a root by about 1/(p base^(p-1)),
    # below 2^-64 for large base and p, where the floors on 2^-64 agree or differ by one
    shifts = data.draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    per_dim = {p: max(1, base**p + d) for p, d in enumerate(shifts, 1)}
    assert mu_invariant(per_dim, n, tol) == mu_by_two_roots(per_dim, n, tol)


def test_mu_invariant_takes_one_full_root_when_the_roots_are_distinct(monkeypatch):
    real, calls = jumping.iroot, []
    monkeypatch.setattr(jumping, "iroot", lambda a, q: calls.append((a, q)) or real(a, q))
    tol = Fraction(1, 10**1000)
    k = grid_bits(tol)
    per_dim = {1: 5, 2: 12, 3: 64, 4: 80}  # roots 5, 3.46.., 4, 2.99..
    assert mu_invariant(per_dim, 4, tol) == mu_by_two_roots(per_dim, 4, tol)
    assert [q for a, q in calls if a >> k * q] == [4]  # a root at 2^-k has a >= 2^(kq)


def test_lemma1116_consistency():
    assert lemma1116_consistency(2, {1: 4, 2: 4})
    assert not lemma1116_consistency(3, {1: 2})
    assert lemma1116_consistency(0, {1: 0})
