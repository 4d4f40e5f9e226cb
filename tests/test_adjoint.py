"""Tests for adjoint-bundle thresholds and surface exception checkers."""

from fractions import Fraction

import pytest

from posbounds.core import InputError
from posbounds.adjoint import (
    CheckOutcome,
    JetSpec,
    bes_check,
    lemma86_transfer,
    pluricanonical_bounds,
    reider_check,
    siu_degree_conditions,
    siu_jet_threshold,
    surface_nadel_criterion,
    theorem87_conditions,
)
from posbounds.matsusaka import corollary85_threshold


def test_jet_spec_validation():
    with pytest.raises(ValueError):
        JetSpec((-1,))
    with pytest.raises(InputError, match="jets must list"):
        JetSpec(())


def test_siu_jet_threshold_golden():
    assert siu_jet_threshold(2, JetSpec((1,))) == 23
    assert siu_jet_threshold(3, JetSpec((1,))) == 122
    # two points, 0-jets each: 2 + 2 C(3n-1, n).
    assert siu_jet_threshold(2, JetSpec((0, 0))) == 2 + 2 * 10


def test_siu_degree_conditions():
    cond = siu_degree_conditions(2, JetSpec((0,)))
    # total = C(5, 2) = 10; d=1: 10/2 = 5; d=2: 2*10/1 = 20.
    assert cond == {1: Fraction(10, 2), 2: Fraction(20)}


def test_corollary85_golden():
    assert corollary85_threshold(2) == 17
    assert corollary85_threshold(3) == 114


@pytest.mark.parametrize("n", [0, -1])
def test_corollary85_refuses_n_below_1(n):
    with pytest.raises(InputError, match=f"^n must be >= 1, got {n}$"):
        corollary85_threshold(n)


def test_theorem87_conditions_shape():
    cond = theorem87_conditions(2, JetSpec((0,)))
    # total = C((n+1)(4n+1)-2, n) = C(25, 2) = 300.
    assert cond[1] == Fraction(300, 2)
    assert cond[2] == Fraction(2 * 300, 1)


def test_lemma86_transfer():
    assert lemma86_transfer(2, 3, 1) == 9
    with pytest.raises(ValueError):
        lemma86_transfer(0, 3, 1)


def test_pluricanonical_golden():
    assert pluricanonical_bounds(2, "general_type") == (25, None)
    assert pluricanonical_bounds(3, "fano") == (120, None)
    m0, deg = pluricanonical_bounds(2, "general_type", Kn_abs=1)
    assert deg == 625
    with pytest.raises(ValueError):
        pluricanonical_bounds(2, "general_type", Kn_abs=0)
    with pytest.raises(ValueError):
        pluricanonical_bounds(2, "calabi-yau")
    with pytest.raises(InputError, match="n must be >= 1"):
        pluricanonical_bounds(0, "fano")


def test_reider_spanned():
    assert reider_check(4, "spanned").outcome is CheckOutcome.INAPPLICABLE
    assert reider_check(5, "spanned").outcome is CheckOutcome.CRITERION_HOLDS
    res = reider_check(5, "spanned", [(1, 0)])
    assert res.outcome is CheckOutcome.EXCEPTION and res.matched == ((1, 0),)
    assert reider_check(5, "spanned", [(2, 1)]).outcome is CheckOutcome.CRITERION_HOLDS


def test_reider_separation():
    assert reider_check(9, "separation").outcome is CheckOutcome.INAPPLICABLE
    res = reider_check(10, "separation", [(2, 0), (5, 5)])
    assert res.outcome is CheckOutcome.EXCEPTION and res.matched == ((2, 0),)
    with pytest.raises(ValueError):
        reider_check(10, "embed")


def test_bes_check():
    assert bes_check(4, 1).outcome is CheckOutcome.INAPPLICABLE
    assert bes_check(5, 1).outcome is CheckOutcome.CRITERION_HOLDS
    # L.D = 3, D^2 = 1, p = 1: 3 - 1 <= 1 is false -> no exception.
    assert bes_check(5, 1, [(3, 1)]).outcome is CheckOutcome.CRITERION_HOLDS
    # L.D = 2, D^2 = 1: wait, 1 < 2/2 = 1 is false (strict).
    assert bes_check(5, 1, [(2, 1)]).outcome is CheckOutcome.CRITERION_HOLDS
    # L.D = 3, D^2 = 1 with p = 2: 1 <= 1 and 1 < 3/2.
    assert bes_check(9, 2, [(3, 1)]).outcome is CheckOutcome.EXCEPTION
    with pytest.raises(ValueError):
        bes_check(9, 0)


def test_surface_nadel_criterion():
    report = surface_nadel_criterion(JetSpec((0,)), 5, 5)
    assert report.threshold == 4 and report.verdict == "satisfied"
    report = surface_nadel_criterion(JetSpec((0,)), 4, 5)
    assert report.verdict == "unsatisfied"
    # Two 1-jet points: p = 9 + 9 = 18.
    report = surface_nadel_criterion(JetSpec((1, 1)), 19, 18)
    assert report.threshold == 18 and report.verdict == "unsatisfied"
