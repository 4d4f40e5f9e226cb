"""Tests for the convexity inequalities and Morse-type counting."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from posbounds.convexity import (
    Verdict,
    diag_form_check,
    ht_mixed_chain,
    ht_products,
    morse_existence_threshold,
    morse_strong_rhs,
    singular_morse_Aq,
    trapani_lower,
)
from posbounds.core import Bracket, InputError
from posbounds.projective import DivisorClass, ProductSpace, h0, top_intersection

pos = st.fractions(min_value=Fraction(1, 10), max_value=100, max_denominator=20)


def test_ht_products_exact_holds():
    # u_j^2 = (1, 4), mixed u_1.u_2 = 2 on the quadric with (1,0) and (0,2)?
    # Simplest: equal classes give equality.
    res = ht_products([4, 4], 4)
    assert res.verdict is Verdict.HOLDS and res.equality


def test_empty_lists_are_input_errors():
    with pytest.raises(InputError, match="selfints"):
        ht_products([], 1)
    with pytest.raises(InputError, match="lambdas"):
        diag_form_check([], 0)


def test_ht_products_exact_violated_flags_bad_data():
    res = ht_products([9, 9], 2)
    assert res.verdict is Verdict.VIOLATED


def test_ht_products_on_fixture():
    # P^1 x P^1, u1 = (1, 2), u2 = (2, 1): mixed = 5, selfints = 4 and 4.
    S = ProductSpace((1, 1))
    u1 = DivisorClass(S, (1, 2))
    u2 = DivisorClass(S, (2, 1))
    mixed = top_intersection([u1, u2])
    s1 = top_intersection([u1, u1])
    s2 = top_intersection([u2, u2])
    res = ht_products([s1, s2], mixed)
    assert res.verdict is Verdict.HOLDS and not res.equality


def test_ht_products_bracket_inputs():
    res = ht_products([Bracket(Fraction(1), Fraction(2)), 4], 10)
    assert res.verdict is Verdict.HOLDS
    res = ht_products([Bracket(Fraction(8), Fraction(9)), 9], 1)
    assert res.verdict is Verdict.VIOLATED
    # the slack interval [-0.47..., 0] straddles 0 after every refinement
    res = ht_products([Bracket(Fraction(4), Fraction(5)), 4], 4)
    assert res.verdict is Verdict.UNKNOWN and res.slack.lo < 0 and res.slack.hi == 0


@pytest.mark.parametrize("selfints, mixed, verdict", [
    # ties and near ties that a bracket at tol could not separate
    ([(1, 2), (1, 2)], Fraction(2), Verdict.HOLDS),  # mixed^2 = prod hi = 4
    ([(2, 3), (2, 3)], Fraction(3), Verdict.HOLDS),  # mixed^2 = prod hi = 9
    ([(1, 2), 8], Fraction(4), Verdict.HOLDS),  # mixed^2 = prod hi = 16
    ([(2, 3), (2, 3)], 2 - Fraction(1, 10**30), Verdict.VIOLATED),  # just below prod lo = 4
    ([(3, 4), 3, 3], Fraction(3), Verdict.UNKNOWN),  # 27 = prod lo <= 27 < prod hi = 36
    ([(1, 2), 4], Fraction(-1), Verdict.VIOLATED),  # a negative mixed product
])
def test_ht_products_decides_interval_inputs_exactly(selfints, mixed, verdict):
    boxes = [Bracket(Fraction(s[0]), Fraction(s[1])) if isinstance(s, tuple) else s
             for s in selfints]
    res = ht_products(boxes, mixed, Fraction(1, 10**12))
    assert res.verdict is verdict and not res.equality
    assert res.slack.lo <= res.slack.hi


@st.composite
def ht_boxes(draw):
    """Self-intersection points, boxes and perfect n-th powers, a mixed
    product that may be negative, and a tolerance."""
    n = draw(st.integers(1, 5))
    ends = st.fractions(min_value=0, max_value=1000, max_denominator=100)
    powers = st.fractions(min_value=0, max_value=30, max_denominator=10).map(lambda x: x**n)
    boxes = []
    for _ in range(n):
        a, b = draw(st.one_of(ends, powers)), draw(st.one_of(ends, powers))
        boxes.append(draw(st.sampled_from([Bracket.point(a), Bracket(min(a, b), max(a, b))])))
    mixed = draw(st.fractions(min_value=-50, max_value=50, max_denominator=100))
    tol = draw(st.sampled_from([Fraction(1, 10**e) for e in (12, 40, 100, 300)] + [Fraction(1, 3)]))
    return boxes, mixed, tol, draw(st.lists(st.fractions(0, 1), min_size=n, max_size=n))


def nth_root_within(x, lo, hi, n):
    """lo <= x^(1/n) <= hi for x >= 0, decided on n-th powers."""
    return (lo <= 0 or lo**n <= x) and 0 <= hi and x <= hi**n


@settings(deadline=None, max_examples=200)
@given(ht_boxes())
@example(([Bracket(Fraction(4), Fraction(5)), Bracket.point(4)], Fraction(4), Fraction(1, 3),
          [Fraction(1, 2), Fraction(0)]))
def test_ht_products_slack_encloses_every_point_of_the_box(case):
    boxes, mixed, tol, weights = case
    n, slack = len(boxes), ht_products(boxes, mixed, tol).slack
    # slack.lo <= mixed - prod x_j^(1/n) <= slack.hi; the product increases in
    # each x_j, so the box's two corners bound it, and an interior x is checked too
    interior = [b.lo + w * (b.hi - b.lo) for b, w in zip(boxes, weights)]
    for x in ([b.lo for b in boxes], [b.hi for b in boxes], interior):
        assert nth_root_within(math.prod(x), mixed - slack.hi, mixed - slack.lo, n)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.fractions(min_value=0, max_value=1000, max_denominator=100), min_size=1, max_size=5),
       st.fractions(min_value=-50, max_value=50, max_denominator=100),
       st.sampled_from([Fraction(1, 10**e) for e in (6, 12, 40, 300)] + [Fraction(1, 3)]))
@example([100, 99, 98], Fraction(5), Fraction(1, 10**12))  # 58 tol wide as a product of three roots
def test_ht_products_slack_on_point_inputs_is_at_most_tol_wide(selfints, mixed, tol):
    slack = ht_products(selfints, mixed, tol).slack
    assert slack.width <= tol
    assert nth_root_within(math.prod(selfints), mixed - slack.hi, mixed - slack.lo, len(selfints))


def test_ht_products_rejects_negative():
    with pytest.raises(ValueError):
        ht_products([-1, 4], 2)


@given(pos, pos, st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=5))
def test_ht_chain_on_consistent_powers(L, H, n, p):
    # For L, H multiples of a common ample class the chain is an equality.
    if p > n:
        p = n
    Ln = L**n
    LH = L ** (n - 1) * H
    LnpHp = L ** (n - p) * H**p
    res = ht_mixed_chain(Ln, LH, LnpHp, n, p)
    assert res.verdict is Verdict.HOLDS and res.equality


def test_ht_chain_violated():
    # L^n = 1, LH = 1 but L^(n-2).H^2 = 5 is impossible for nef classes.
    res = ht_mixed_chain(1, 1, 5, 3, 2)
    assert res.verdict is Verdict.VIOLATED


def test_diag_form_equality_iff_all_equal():
    res = diag_form_check([2, 2, 2], 2)
    assert res.verdict is Verdict.HOLDS and res.equality
    res = diag_form_check([1, 2, 3], 2)
    assert res.verdict is Verdict.HOLDS and not res.equality


@given(st.lists(pos, min_size=1, max_size=5), st.integers(min_value=0, max_value=5))
def test_diag_form_never_violated(lambdas, p):
    p = min(p, len(lambdas))
    res = diag_form_check(lambdas, p)
    assert res.verdict is Verdict.HOLDS
    # p = 0 and p = n are equalities for any data; in between equality
    # happens exactly on the diagonal.
    assert res.equality == (len(set(lambdas)) == 1 or p == 0 or p == len(lambdas))


def test_diag_form_rejects_nonpositive():
    with pytest.raises(ValueError):
        diag_form_check([0, 1], 1)


def test_morse_strong_rhs_alternating_sum():
    mixed = {0: 9, 1: 3, 2: 1}
    # q=1: -C(2,0)*9 + C(2,1)*3 = -3.
    assert morse_strong_rhs(2, mixed, 1) == -3
    assert morse_strong_rhs(2, mixed, 0) == 9
    with pytest.raises(InputError, match=r"^mixed product F\^1\.G\^1 not supplied$"):
        morse_strong_rhs(2, {0: 9}, 1)


def test_morse_existence_threshold_strict():
    # n FG / Fn = 3 exactly: strict means m = 4.
    assert morse_existence_threshold(2, 3, 2) == 4
    assert morse_existence_threshold(5, 3, 2) == 2
    with pytest.raises(ValueError):
        morse_existence_threshold(0, 1, 2)
    with pytest.raises(InputError, match="n must be >= 1"):
        morse_existence_threshold(1, 0, 0)


def test_morse_threshold_sufficient_on_product_fixture():
    # P^1 x P^1: F = a(H1+H2), G = b1 H1 + b2 H2; mF - G has a section
    # iff m a >= max(b1, b2).
    S = ProductSpace((1, 1))
    for a, b1, b2 in [(1, 3, 7), (2, 5, 1), (3, 10, 10)]:
        F = DivisorClass(S, (a, a))
        G = DivisorClass(S, (b1, b2))
        Fn = top_intersection([F, F])
        FG = top_intersection([F, G])
        m = morse_existence_threshold(Fn, FG, 2)
        mFmG = m * F - G
        assert h0(mFmG) > 0


def test_trapani_lower():
    assert trapani_lower(10, 3, 2) == 4
    assert trapani_lower(10, 6, 2) == -2


def test_singular_morse_Aq():
    assert singular_morse_Aq(3, 0, Fraction(1, 2), 6) == 1
    assert singular_morse_Aq(3, 1, 0, 99) == 0
    val = singular_morse_Aq(2, 1, Fraction(1, 2), 4)
    assert val == Fraction(1, 2) * 4 / (1 * 1)
    with pytest.raises(ValueError):
        singular_morse_Aq(2, 3, 1, 1)
