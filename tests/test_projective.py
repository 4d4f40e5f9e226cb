"""Tests for the product-of-projective-spaces intersection fixture."""

import pytest
from hypothesis import given, strategies as st

from posbounds.projective import (
    DivisorClass,
    ProductSpace,
    canonical_class,
    h0,
    profile_from_fixture,
    strata_minima,
    top_intersection,
)

P2 = ProductSpace((2,))
P1xP1 = ProductSpace((1, 1))
P1xP2 = ProductSpace((1, 2))


def test_space_validation():
    with pytest.raises(ValueError):
        ProductSpace(())
    with pytest.raises(ValueError):
        ProductSpace((0, 1))
    assert P1xP2.n == 3 and P1xP2.r == 2


def test_top_intersection_projective_plane():
    H = DivisorClass(P2, (1,))
    assert top_intersection([H, H]) == 1
    assert top_intersection([3 * H, 3 * H]) == 9


def test_top_intersection_quadric():
    a = DivisorClass(P1xP1, (1, 0))
    b = DivisorClass(P1xP1, (0, 1))
    assert top_intersection([a, b]) == 1
    assert top_intersection([a, a]) == 0
    L = DivisorClass(P1xP1, (2, 3))
    assert top_intersection([L, L]) == 12  # 2 * 2 * 3


def test_top_intersection_threefold():
    L = DivisorClass(P1xP2, (1, 1))
    # (a H1 + b H2)^3 with H1^2 = 0, H2^3 = 0: coefficient 3 a b^2.
    assert top_intersection([L, L, L]) == 3
    M = DivisorClass(P1xP2, (2, 3))
    assert top_intersection([M, M, M]) == 3 * 2 * 9


def test_top_intersection_requires_exactly_n_classes():
    H = DivisorClass(P2, (1,))
    with pytest.raises(ValueError):
        top_intersection([H])
    with pytest.raises(ValueError):
        top_intersection([H, H, H])


def test_top_intersection_rejects_mixed_spaces():
    with pytest.raises(ValueError):
        top_intersection([DivisorClass(P1xP1, (1, 1)), DivisorClass(P2, (1,))])


coeff = st.integers(min_value=-4, max_value=4)


@given(coeff, coeff, coeff, coeff, coeff, coeff)
def test_top_intersection_symmetric(a1, a2, b1, b2, c1, c2):
    A = DivisorClass(P1xP2, (a1, a2))
    B = DivisorClass(P1xP2, (b1, b2))
    C = DivisorClass(P1xP2, (c1, c2))
    base = top_intersection([A, B, C])
    assert top_intersection([B, A, C]) == base
    assert top_intersection([C, B, A]) == base


@given(coeff, coeff, coeff, coeff, coeff, coeff)
def test_top_intersection_multilinear(a1, a2, b1, b2, c1, c2):
    A = DivisorClass(P1xP1, (a1, a2))
    B = DivisorClass(P1xP1, (b1, b2))
    C = DivisorClass(P1xP1, (c1, c2))
    lhs = top_intersection([A + B, C])
    assert lhs == top_intersection([A, C]) + top_intersection([B, C])
    assert top_intersection([2 * A, C]) == 2 * top_intersection([A, C])


def test_h0_values():
    assert h0(DivisorClass(P2, (3,))) == 10
    assert h0(DivisorClass(P1xP1, (2, 3))) == 12
    assert h0(DivisorClass(P2, (-1,))) == 0


@given(st.integers(min_value=0, max_value=30))
def test_h0_is_polynomial_in_the_twist(c):
    # On P^2, h0(O(c)) = C(c+2, 2), a degree-2 numerical polynomial.
    assert h0(DivisorClass(P2, (c,))) == (c + 2) * (c + 1) // 2


def test_nef_ample_canonical():
    # K = -(k_i + 1) H_i, so -K is ample: products of projective spaces are Fano
    K = canonical_class(P1xP2)
    assert K.coeffs == (-2, -3)


def test_strata_minima_projective_plane():
    minima = strata_minima(P2, DivisorClass(P2, (3,)))
    assert minima == {1: 3, 2: 9}


def test_strata_minima_quadric():
    minima = strata_minima(P1xP1, DivisorClass(P1xP1, (2, 3)))
    # Lines give L.C = 2 or 3; the surface itself gives L^2 = 12.
    assert minima == {1: 2, 2: 12}


def test_profile_from_fixture_quadric():
    L = DivisorClass(P1xP1, (2, 3))
    prof = profile_from_fixture(P1xP1, L)
    assert prof.n == 2
    assert prof.Ln == 12
    # K = (-2, -2): L.K = 2*(-2)*... = top([L, K]) = 2*(-2) + 3*(-2) = -10.
    assert prof.LK == -10
    assert prof.per_dim_min == {1: 2, 2: 12}
