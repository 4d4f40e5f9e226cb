"""Tests for numerical polynomials and the window searches."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from posbounds import numpoly
from posbounds.core import InputError, horner
from posbounds.numpoly import (
    NumericalPolynomial,
    window_a,
    window_b,
    window_c,
)


# Reference oracles: the linear scans the window searches replaced.

def scan(P: NumericalPolynomial, target, lo: int, hi: int) -> int:
    for m in range(lo, hi + 1):
        if P(m) >= target:
            return m
    raise InputError(f"no m in [{lo}, {hi}] with P(m) >= {target}")


def scan_window_a(P, m0, N):
    if N < 0:
        raise InputError(f"N must be >= 0, got {N}")
    return scan(P, N, m0, m0 + N * P.degree)


def scan_window_b(P, m0, k):
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    d = P.degree
    return scan(P, math.ceil(P.leading * k**d / Fraction(2) ** (d - 1)), m0, m0 + k * d)


def scan_window_c(P, m0, N):
    d = P.degree
    if N < 2 * d * d:
        raise InputError(f"N must be >= {2 * d * d}, got {N}")
    return scan(P, N, m0, m0 + N)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def binomial_coeffs(values: list[int]) -> tuple[int, ...]:
    """Binomial-basis coefficients from P(0..d): the forward differences at 0."""
    coeffs = []
    while values:
        coeffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return tuple(coeffs)


def nonneg_poly(rng: random.Random, degree: int) -> NumericalPolynomial:
    coeffs = [rng.randint(0, 50) for _ in range(degree)] + [rng.randint(1, 50)]
    return NumericalPolynomial(tuple(coeffs))


def test_poly_validation():
    with pytest.raises(ValueError):
        NumericalPolynomial(())
    with pytest.raises(ValueError):
        NumericalPolynomial((1, 0))


def test_poly_evaluation_binomial_basis():
    P = NumericalPolynomial((1, 2, 3))  # 1 + 2 C(m,1) + 3 C(m,2)
    assert P(0) == 1
    assert P(1) == 3
    assert P(4) == 1 + 8 + 18
    assert P.degree == 2 and P.leading == 3


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=6), st.integers(min_value=-50, max_value=50))
def test_poly_is_integer_valued(coeffs, m):
    if coeffs[-1] == 0:
        coeffs[-1] = 1
    P = NumericalPolynomial(tuple(coeffs))
    assert isinstance(P(m), int)


def test_poly_evaluates_the_binomial_polynomial_at_negative_m():
    assert NumericalPolynomial((1, 1))(-5) == -4
    assert NumericalPolynomial((0, 0, 1))(-3) == 6  # (-3)(-4)/2
    P = NumericalPolynomial((4, -7, 3, 2))
    for m in range(-12, 13):
        want = sum(
            c * Fraction(math.prod(range(m - j + 1, m + 1)), math.factorial(j))
            for j, c in enumerate(P.coeffs)
        )
        assert P(m) == want


def test_window_a_example():
    P = NumericalPolynomial((0, 0, 1))  # C(m, 2)
    assert window_a(P, 0, 10) == 5  # C(5,2)=10


def test_window_a_raises_outside_window():
    # P negative-free but tiny: constant 0 polynomial is not representable;
    # use degree-1 with value below target past the window instead.
    P = NumericalPolynomial((0, 1))  # C(m,1) = m
    with pytest.raises(InputError):
        window_a(P, -300, 100)  # window [-300, -200] where P < 100


def test_window_b_bound_formula():
    P = NumericalPolynomial((0, 0, 4))  # 4 C(m,2)
    # bound = ceil(4 * k^2 / 2) = 2 k^2; window [0, 2k].
    m = window_b(P, 0, 3)
    assert 0 <= m <= 6 and P(m) >= 18


def test_window_b_bound_is_an_exact_int_at_degree_zero():
    with pytest.raises(InputError, match=r"P\(m\) >= 6$"):
        window_b(NumericalPolynomial((3,)), 0, 2)
    big = 2**60 + 1
    with pytest.raises(InputError, match=rf">= {2 * big}$"):
        window_b(NumericalPolynomial((big,)), 0, 1)
    assert window_b(NumericalPolynomial((-4,)), 5, 3) == 5  # P = -4 >= ceil(2 * -4)


def test_window_a_cost_does_not_grow_with_N():
    assert window_a(NumericalPolynomial((0, 1)), 0, 10**12) == 10**12
    assert window_c(NumericalPolynomial((0, 1)), 0, 10**12) == 10**12
    with pytest.raises(InputError):
        window_a(NumericalPolynomial((-1, 0, -1)), 0, 10**15)


def test_windows_step_over_a_bump_between_two_integers():
    # P - N = x (x-1) (2x-11) - 1 is positive on part of (0, 1), then only
    # past x = 5.5: the search must test ceil(root), not trust it.
    N = 7
    P = NumericalPolynomial(binomial_coeffs([N - 1 + x * (x - 1) * (2 * x - 11) for x in range(4)]))
    assert P(1) < N and P(6) >= N
    assert window_a(P, 0, N) == scan_window_a(P, 0, N) == 6
    with pytest.raises(InputError):
        window_a(NumericalPolynomial((N - 1, 0, -16)), 0, N)  # bump on (0, 1), then falls


def test_window_c_precondition():
    P = NumericalPolynomial((0, 0, 1))
    with pytest.raises(InputError, match=r"^N must be >= 8, got 7$"):
        window_c(P, 0, 7)  # needs N >= 8
    m = window_c(P, 0, 8)
    assert P(m) >= 8 and m <= 8


def test_windows_on_randomized_nonneg_polynomials():
    rng = random.Random(20260823)
    for _ in range(200):
        d = rng.randint(1, 5)
        P = nonneg_poly(rng, d)
        m0 = rng.randint(0, 10)
        N = rng.randint(1, 100)
        m = window_a(P, m0, N)
        assert m0 <= m <= m0 + N * d and P(m) >= N
        k = rng.randint(1, 10)
        m = window_b(P, m0, k)
        bound = -(-P.leading * k**d // 2 ** (d - 1))
        assert m0 <= m <= m0 + k * d and P(m) >= bound
        N = rng.randint(2 * d * d, 2 * d * d + 100)
        m = window_c(P, m0, N)
        assert m0 <= m <= m0 + N and P(m) >= N


def iterated_difference(P: NumericalPolynomial, base: int) -> int:
    """The d-th forward difference of m -> P(m) at base, d = deg P."""
    d = P.degree
    return sum((-1) ** j * math.comb(d, j) * P(base + d - j) for j in range(d + 1))


def test_iterated_difference_equals_leading():
    P = NumericalPolynomial((7, -3, 5))
    assert iterated_difference(P, 0) == iterated_difference(P, 1) == 5


@given(st.lists(st.integers(min_value=-10, max_value=10), min_size=1, max_size=5),
       st.integers(min_value=-50, max_value=50))
def test_iterated_difference_property(coeffs, base):
    if coeffs[-1] == 0:
        coeffs[-1] = 3
    P = NumericalPolynomial(tuple(coeffs))
    assert iterated_difference(P, base) == iterated_difference(P, base + 7) == P.leading


coeff_lists = st.lists(st.integers(min_value=-30, max_value=30), min_size=1, max_size=11).map(
    lambda c: tuple(c[:-1]) + (c[-1] or 1,)
)


@st.composite
def repeated_root_polys(draw):
    """P = N + c * prod (d x - r_i)^e_i: P - N has repeated rational roots r_i / d.
    Either every r_i is drawn on its own from [-10, 40] with d = 1, so integer
    roots lie up to 50 apart, or d is in {3, 2, 1} (thirds first) and
    r_1 <= r_2 <= ... are at most 2d apart, so roots lie closer than one
    integer and q and its derivatives change sign between integers."""
    N = draw(st.integers(min_value=0, max_value=60))
    exponents = st.integers(1, 3)
    if draw(st.booleans()):  # clustered rational roots
        d = draw(st.sampled_from([3, 2, 1]))
        r, factors = draw(st.integers(-10, 40)), []
        for gap, e in draw(st.lists(st.tuples(st.integers(0, 2 * d), exponents), min_size=1, max_size=6)):
            r += gap
            factors.append((r, e))
    else:  # independent integer roots
        d, factors = 1, draw(st.lists(st.tuples(st.integers(-10, 40), exponents), min_size=1, max_size=6))
    degree = sum(e for _, e in factors)
    assume(degree <= 10)
    c = draw(st.sampled_from([-2, -1, 1, 3]))
    values = [N + c * math.prod((d * x - r) ** e for r, e in factors) for x in range(degree + 1)]
    return binomial_coeffs(values), N


@settings(max_examples=300, deadline=None)
@example(((-1,), None), 3, 0, 1)  # N = 0 and P = -1 never meets it
@example(((0, -1), None), 0, 0, 1)  # N = 0, P(m0) = 0 meets it
@example(((5, -3, 1), None), -4, 0, 1)
@example(((-1, -5, 0, 2), None), -4, 2, 1)  # 6 (P - 2) peaks in (-2, -1) and is 0 only at -1
@given(
    st.one_of(coeff_lists.map(lambda c: (c, None)), repeated_root_polys()),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=-1, max_value=12),
)
def test_windows_match_the_linear_scan(poly_and_N, m0, N, k):
    coeffs, root_N = poly_and_N
    if root_N is not None:
        N = root_N
    P = NumericalPolynomial(coeffs)
    assert outcome(window_a, P, m0, N) == outcome(scan_window_a, P, m0, N)
    assert outcome(window_b, P, m0, k) == outcome(scan_window_b, P, m0, k)
    assert outcome(window_c, P, m0, N) == outcome(scan_window_c, P, m0, N)


def test_window_search_evaluates_only_q_and_its_derivatives(monkeypatch):
    # C(m, 40) vanishes at m = 0..39, at the window's start.  The search cuts
    # where the derivatives of q = 40! (C(x, 40) - N) change sign, so it
    # evaluates nothing but q and them, whose coefficients stay near q's 180
    # bits (a Sturm chain's remainders reach 1,166 bits here).
    d, N = 40, 10**6
    q = [1]  # x (x-1) ... (x-d+1), highest degree first
    for j in range(d):
        q = [a - j * b for a, b in zip(q + [0], [0] + q)]
    q[-1] -= math.factorial(d) * N
    derivatives = {tuple(q)}
    while len(q) > 1:
        q = [c * (len(q) - 1 - i) for i, c in enumerate(q[:-1])]
        derivatives.add(tuple(q))
    seen = set()
    monkeypatch.setattr(numpoly, "horner", lambda poly, x: seen.add(tuple(poly)) or horner(poly, x))
    P = NumericalPolynomial((0,) * d + (1,))
    assert window_a(P, 0, N) == scan_window_a(P, 0, N)
    assert seen and seen <= derivatives
