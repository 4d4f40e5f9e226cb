"""Tests for monomial and normal-crossing multiplier ideals."""

import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from posbounds import multiplier
from posbounds.core import InputError
from posbounds.multiplier import (
    MonomialWeightData,
    SkodaClass,
    membership_criterion,
    monomial_multiplier_ideal,
    skoda_classify,
    snc_round_down,
)
from quadrature_oracle import integrability_oracle


def box_filter_generators(alpha) -> frozenset[tuple[int, ...]]:
    """Reference oracle: every member of the box beta_j <= ceil(alpha_j),
    then the quadratic minimality filter that the staircase replaced."""
    box = itertools.product(*(range(math.ceil(a) + 1) for a in alpha))
    members = [beta for beta in box if membership_criterion(alpha, beta)]
    return frozenset(
        b
        for b in members
        if not any(other != b and all(o <= x for o, x in zip(other, b)) for other in members)
    )


def test_weight_validation():
    with pytest.raises(ValueError):
        MonomialWeightData.of(0)
    with pytest.raises(ValueError):
        MonomialWeightData.of(2, -1)


def test_membership_strict_boundary():
    # alpha = (2, 2), beta = (0, 0): 1/2 + 1/2 = 1 is NOT integrable.
    assert not membership_criterion([Fraction(2), Fraction(2)], (0, 0))
    assert membership_criterion([Fraction(2), Fraction(2)], (1, 0))


def test_trivial_ideal_below_one():
    ideal = monomial_multiplier_ideal(MonomialWeightData.of(Fraction(1, 2), Fraction(1, 2)))
    assert ideal.is_trivial
    assert ideal.contains((0, 0))


def test_cusp_weight_generators():
    # alpha = (4, 4): members need (b1+1)/4 + (b2+1)/4 > 1, i.e. |b| >= 3.
    ideal = monomial_multiplier_ideal(MonomialWeightData.of(4, 4))
    assert ideal.sorted_generators() == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert ideal.contains((5, 0)) and not ideal.contains((1, 1))


def test_anisotropic_generators():
    # alpha = (6, 2): (b1+1)/6 + (b2+1)/2 > 1.
    ideal = monomial_multiplier_ideal(MonomialWeightData.of(6, 2))
    assert not ideal.contains((2, 0))
    assert ideal.contains((3, 0)) and ideal.contains((0, 1))


@settings(max_examples=200, deadline=None)
@example([Fraction(2)] * 3)  # trivial ideal
@example([Fraction(4)] * 3)  # |beta| >= 2: six generators
@example([Fraction(7, 2), Fraction(1, 6), Fraction(3), Fraction(5, 3)])
@example([Fraction(20)] * 2)  # the bench boxes
@example([Fraction(40)] * 2)
@example([Fraction(8)] * 3)
@example([Fraction(12)] * 3)
@example([Fraction(6)] * 4)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda p: st.lists(
            st.fractions(min_value=Fraction(1, 6), max_value=[12, 9, 5, 3, 3][p - 1], max_denominator=6),
            min_size=p,
            max_size=p,
        )
    )
)
def test_generators_match_the_box_filter(alpha):
    ideal = monomial_multiplier_ideal(MonomialWeightData(tuple(alpha)))
    assert ideal.generators == box_filter_generators(alpha)


def test_many_coordinates_need_no_recursion():
    # the walk keeps its own stack: 3,000 coordinates pass Python's recursion limit
    ideal = monomial_multiplier_ideal(MonomialWeightData.of(*[Fraction(1, 2)] * 3000))
    assert ideal.generators == frozenset({(0,) * 3000})


def test_eight_twelves_give_the_monomials_of_degree_five():
    # sum_j (b_j + 1)/12 > 1 iff sum b_j >= 5: C(12, 7) = 792 monomials of degree 5,
    # where the box of prefixes holds 13^7 = 62,748,517 points
    generators = monomial_multiplier_ideal(MonomialWeightData.of(*[12] * 8)).generators
    assert len(generators) == math.comb(12, 7) == 792
    assert {sum(g) for g in generators} == {5}


def leaves_and_generators(alphas, budget=None):
    """(leaves, generators) over the ideals of alphas: each leaf of the walk floors
    its last exponent with one max(0, rest // last), which is counted; past budget
    leaves the walk is stopped."""
    leaves = 0

    def counted(*args):
        nonlocal leaves
        leaves += 1
        assert budget is None or leaves <= budget, f"more than {budget} leaves"
        return max(*args)

    with mock.patch.object(multiplier, "max", counted, create=True):
        generators = sum(len(monomial_multiplier_ideal(MonomialWeightData.of(*alpha)).generators)
                         for alpha in alphas)
    return leaves, generators


def test_every_leaf_of_the_walk_is_a_generator():
    # 2,000 random alphas on which the walk in input order reached 170,208 leaves for
    # 86,727 generators, up to 11.5 per generator; in decreasing weight, one each
    rng = random.Random(2026)
    corpus = [[Fraction(rng.randint(1, 60), rng.randint(1, 6)) for _ in range(rng.randint(2, 5))]
              for _ in range(2000)]
    assert leaves_and_generators(corpus) == (86727, 86727)
    # in input order, 5 * 10**6 leaves for these 2 generators (9.4 s)
    assert leaves_and_generators([(10**7, 2)], budget=10) == (2, 2)


small_alpha = st.fractions(min_value=Fraction(1, 4), max_value=6, max_denominator=8)


@given(small_alpha, small_alpha, small_alpha, small_alpha)
def test_ideal_monotone_in_alpha(a1, a2, b1, b2):
    # Larger alpha means a more singular weight and a smaller ideal.
    lo = MonomialWeightData.of(min(a1, b1), min(a2, b2))
    hi = MonomialWeightData.of(max(a1, b1), max(a2, b2))
    ideal_lo = monomial_multiplier_ideal(lo)
    ideal_hi = monomial_multiplier_ideal(hi)
    for gen in ideal_hi.generators:
        assert ideal_lo.contains(gen)


@given(small_alpha, small_alpha)
def test_ideal_permutation_equivariant(a1, a2):
    fwd = monomial_multiplier_ideal(MonomialWeightData.of(a1, a2))
    rev = monomial_multiplier_ideal(MonomialWeightData.of(a2, a1))
    assert {g[::-1] for g in fwd.generators} == set(rev.generators)


def test_snc_round_down():
    assert snc_round_down((Fraction(7, 3), Fraction(1, 2), 3)) == (2, 0, 3)
    with pytest.raises(InputError, match="^divisor coefficient must be >= 0$"):
        snc_round_down((1, -1))


def test_skoda_classification():
    assert skoda_classify(Fraction(1, 2), 2).kind is SkodaClass.TRIVIAL
    mid = skoda_classify(Fraction(3, 2), 2)
    assert mid.kind is SkodaClass.INDETERMINATE
    deep = skoda_classify(Fraction(7, 2), 2)
    assert deep.kind is SkodaClass.CONTAINED_IN_POWER and deep.power == 2
    exact = skoda_classify(2, 2)
    assert exact.kind is SkodaClass.CONTAINED_IN_POWER and exact.power == 1
    with pytest.raises(ValueError):
        skoda_classify(-1, 2)


def test_oracle_validation():
    with pytest.raises(ValueError):
        integrability_oracle([1, 1, 1], (0, 0, 0))
    with pytest.raises(ValueError):
        integrability_oracle([1], (0,), grid=16)


@settings(deadline=None, max_examples=40)
@given(
    st.fractions(min_value=Fraction(1, 2), max_value=4, max_denominator=2),
    st.integers(min_value=0, max_value=4),
)
def test_oracle_agrees_in_one_variable(alpha, beta):
    want = membership_criterion([alpha], (beta,))
    assert integrability_oracle([alpha], (beta,)) == want


def test_oracle_agrees_on_cusp_sample():
    alpha = [Fraction(3), Fraction(2)]
    for beta in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]:
        assert integrability_oracle(alpha, beta) == membership_criterion(alpha, beta)


def test_oracle_refuses_a_margin_below_its_resolution():
    # e = 1001/1000 gives the convergence rate 1/1000 <= 7/2048; the
    # quadrature alone called this integrable weight divergent.
    with pytest.raises(ValueError, match="resolution"):
        integrability_oracle([Fraction(1000, 1001)], (0,))


@settings(deadline=None, max_examples=60)
@given(
    st.fractions(min_value=Fraction(1, 50), max_value=Fraction(3, 4), max_denominator=50),
    st.fractions(min_value=-12, max_value=12, max_denominator=20),
    st.booleans(),
    st.sampled_from([64, 128, 256]),
)
@example(Fraction(1, 25), Fraction(97, 20), False, 128)  # m = 4.85/128: quadrature says False
@example(Fraction(1, 5), Fraction(141, 20), False, 128)  # m = 7.05/128
def test_oracle_is_right_or_refuses_near_the_boundary(x, c, e1_is_margin, grid):
    # beta = 0, so e_j = 1/alpha_j; the margin, e_1 or sum e - 1, lies near c/grid
    if e1_is_margin:
        e1, e2 = (abs(c) + Fraction(1, 20)) / grid, 1 + x
    else:
        e1, e2 = x, 1 - x + c / grid
    alpha = [1 / e1, 1 / e2]
    margin = min(e1, e2, e1 + e2 - 1)
    if 0 < margin <= Fraction(7, grid):
        with pytest.raises(ValueError, match="resolution"):
            integrability_oracle(alpha, (0, 0), grid)
    else:
        assert integrability_oracle(alpha, (0, 0), grid) == membership_criterion(alpha, (0, 0))
