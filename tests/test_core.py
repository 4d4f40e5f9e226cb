"""Unit and property tests for rationals, brackets, and rational powers."""

import copy
import importlib
import itertools
import math
import pickle
import pkgutil
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import posbounds
from posbounds import adjoint, core, jumping, lelong, matsusaka, projective
from posbounds.convexity import ht_products
from posbounds.core import (
    Bracket,
    InputError,
    bisect,
    dyadic_fraction,
    elem_sym_rows,
    floor_powers,
    floor_root,
    horner,
    iroot,
    newton_floor,
    nth_root_bracket,
    pow_bracket,
)
from posbounds.jumping import (
    beta_schedule,
    cn_constant,
    main_theorem_check,
    mu_invariant,
    sigma_sequence,
)
from posbounds.lelong import ParamCurve, lelong_numeric
from posbounds.multiplier import SkodaClass, SkodaResult
from posbounds.report import BoundReport

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=100)


@given(st.lists(rationals, max_size=7) | st.lists(st.integers(-10**6, 10**6), max_size=7))
def test_elem_sym_rows_are_sums_over_combinations(values):
    # row i is [S_0, ..., S_i] of the first i values; S_j sums every j-subset's product
    rows = elem_sym_rows(values)
    assert len(rows) == len(values)
    for i, row in enumerate(rows, 1):
        assert row == [sum(map(math.prod, itertools.combinations(values[:i], j)))
                       for j in range(i + 1)]
        if all(type(v) is int for v in values):  # integers in, integers out: no Fraction built
            assert all(type(s) is int for s in row)


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=7))
def test_iroot_floor_contract(a, q):
    r, exact = iroot(a, q)
    assert r**q <= a < (r + 1) ** q
    assert exact == (r**q == a)


def iroot_by_plain_newton(a, q):
    """Reference: integer Newton seeded from the bit length alone."""
    if a in (0, 1) or q == 1:
        return a, True
    x = 1 << -(-a.bit_length() // q)
    while True:
        y = ((q - 1) * x + a // x ** (q - 1)) // q
        if y >= x:
            break
        x = y
    while x**q > a:
        x -= 1
    return x, x**q == a


@st.composite
def large_root_inputs(draw):
    q = draw(st.integers(2, 20))
    kind = draw(st.sampled_from(["bits", "power", "power-1", "power+1", "two", "threshold"]))
    if kind == "two":
        return 1 << draw(st.integers(0, 40000)), q
    if kind.startswith("power"):
        r = draw(st.integers(2, 1 << 40000 // q))
        return r**q + {"power": 0, "power-1": -1, "power+1": 1}[kind], q
    if kind == "threshold":
        # iroot seeds from a recursive root once its k reaches 32, i.e. from
        # q (64 + bitlen(2q)) + 1 bits; straddle that on both sides.
        bits = q * (64 + (2 * q).bit_length()) + draw(st.integers(-2 * q, 2 * q))
    else:
        bits = draw(st.integers(1, 40000))
    return draw(st.integers(1 << bits - 1, (1 << bits) - 1)), q


@settings(deadline=None, max_examples=300)
@given(large_root_inputs())
def test_iroot_matches_plain_newton_on_large_inputs(case):
    a, q = case
    r, exact = iroot(a, q)
    assert (r, exact) == iroot_by_plain_newton(a, q)
    assert r**q <= a < (r + 1) ** q


def test_iroot_on_perfect_powers_near_the_threshold():
    for q in range(3, 17):
        bits = q * (64 + (2 * q).bit_length())
        for r in ((1 << bits // q) - 1, 1 << bits // q, (1 << bits // q + 1) - 1, 3 ** (bits // q)):
            for a in (r**q - 1, r**q, r**q + 1):
                assert iroot(a, q) == iroot_by_plain_newton(a, q)


@pytest.mark.parametrize("q", range(5, 21))
def test_iroot_matches_plain_newton_around_the_truncation_cutover(q):
    # iroot certifies x on a truncated bracket of x^q once q >= 5 and q (bitlen(x)
    # + 64) >= 4096: roots two bits either side of that, random and perfect powers
    # with their neighbours, which put a inside the bracket or just outside it
    rng = random.Random(q)
    cut = -(-4096 // q) - 64
    for bits in range(cut - 2, cut + 3):
        r = rng.getrandbits(bits) | 1 << bits - 1
        for a in (rng.getrandbits(q * bits) | 1 << q * bits - 1, r**q - 1, r**q, r**q + 1):
            assert iroot(a, q) == iroot_by_plain_newton(a, q), (bits, a - r**q)


@pytest.mark.parametrize("q", range(3, 21))
def test_iroot_matches_plain_newton_around_the_exact_power_cutover(q):
    # _power_ends and each level's divisor take x**q below _EXACT_POWER_BITS bits
    # of power and the floored chain above it: roots two bits either side of that,
    # random and perfect powers with their neighbours
    rng = random.Random(q)
    cut = core._EXACT_POWER_BITS // q
    for bits in range(cut - 2, cut + 3):
        r = rng.getrandbits(bits) | 1 << bits - 1
        for a in (rng.getrandbits(q * bits) | 1 << q * bits - 1, r**q - 1, r**q, r**q + 1):
            assert iroot(a, q) == iroot_by_plain_newton(a, q), (bits, a - r**q)


def test_iroot_takes_the_exact_power_only_inside_its_bracket(monkeypatch):
    # a clock-free work pin: at tol-1e-1000 sizes (3,322-bit roots) and q >= 5 the
    # truncated bracket of x^q decides x, nearly always in one round, and never needs
    # x**q; a perfect power lies inside the bracket of its root, so it needs x**q once
    real, brackets = core._power_ends, []
    monkeypatch.setattr(core, "_power_ends", lambda x, q: brackets.append(real(x, q)) or brackets[-1])
    rounds, calls = 0, 0

    def exact_powers(a, q):
        nonlocal rounds, calls
        brackets.clear()
        r, exact = iroot(a, q)
        assert r**q <= a < (r + 1) ** q and exact == (r**q == a)
        rounds, calls = rounds + len(brackets), calls + 1
        return sum(1 for lo, hi, e in brackets if e and lo <= a >> e <= hi)

    rng = random.Random(1000)
    for q in range(5, 13):
        bits = 3322 * q
        for _ in range(8):
            assert exact_powers(rng.getrandbits(bits) | 1 << bits - 1, q) == 0
        assert exact_powers((rng.getrandbits(3322) | 1 << 3321) ** q, q) == 1
    assert rounds <= calls + calls // 8  # the seed levels land on the floor or one above


def large_index_cases():
    """For q > 16: 40q and 40q + 1 bits straddle a power of two in the root,
    where a bit-length seed would be up to twice the root; q (bitlen(2q) + 2)
    + 1 bits is where bisection hands over to the recursive seed; a < 2^q
    has root 1."""
    for q in (17, 100, 300, 1000):
        rng = random.Random(q)
        handover = q * ((2 * q).bit_length() + 2)
        for bits in (40 * q, 40 * q + 1, handover, handover + 1):
            yield q, f"random-{bits}bits", rng.getrandbits(bits) | 1 << bits - 1
        small = (1 << (2 * q).bit_length() + 1) + 1  # bitlen(2q) + 2 bits
        yield q, "small-power-1", small**q - 1
        yield q, "small-power", small**q
        yield q, "power-1", ((1 << 40) + 3) ** q - 1
        yield q, "power", ((1 << 40) + 3) ** q
        yield q, "power+1", (3 << 39) ** q + 1
        yield q, "two-1", (1 << 40 * q) - 1
        yield q, "below-2^q", (1 << q) - 1
        yield q, "2^q", 1 << q


@pytest.mark.parametrize(
    "q, a", [pytest.param(q, a, id=f"q{q}-{name}") for q, name, a in large_index_cases()]
)
def test_iroot_large_index_matches_plain_newton(q, a):
    assert iroot(a, q) == iroot_by_plain_newton(a, q)


@pytest.mark.parametrize("q", range(3, 41))
def test_iroot_matches_plain_newton_on_large_perfect_powers_and_neighbours(q):
    # one Newton step at half size, then x^q <= a ends the loop: a perfect
    # power and its neighbours are where an off-by-one would show
    rng = random.Random(q)
    for bits in (10_000, 25_000, 40_000):
        r = rng.getrandbits(bits // q) | 1 << bits // q - 1
        for a in (r**q - 1, r**q, r**q + 1):
            assert iroot(a, q) == iroot_by_plain_newton(a, q), (bits, a - r**q)


def test_bracket_rejects_reversed_endpoints():
    with pytest.raises(ValueError):
        Bracket(Fraction(1), Fraction(0))


def test_records_are_read_only_values():
    # what frozen dataclasses gave: value equality and hashing, a field repr,
    # read-only fields, pickling; a Bracket never equals the tuple of its ends
    b = Bracket.dyadic(1, 3, 2)
    assert b == Bracket(Fraction(1, 4), Fraction(3, 4)) and b != (b.lo, b.hi)
    assert hash(b) == hash(Bracket(Fraction(1, 4), Fraction(3, 4)))
    assert repr(b) == "Bracket(lo=Fraction(1, 4), hi=Fraction(3, 4))"
    assert pickle.loads(pickle.dumps(b)) == b == copy.deepcopy(b)
    for mutate in (lambda: setattr(b, "lo", 0), lambda: delattr(b, "hi")):
        with pytest.raises(AttributeError):
            mutate()
    profile = projective.IntersectionProfile(2, 12, -10, {1: 2, 2: 12})
    for mutate in (lambda: setattr(profile, "Ln", 0), lambda: delattr(profile, "per_dim_min")):
        with pytest.raises(AttributeError):
            mutate()
    assert profile == projective.IntersectionProfile(2, 12, -10, {1: 2, 2: 12})
    assert SkodaResult(SkodaClass.TRIVIAL, None) != SkodaResult(SkodaClass.TRIVIAL, 1)
    for fields in [(SkodaClass.TRIVIAL,), (SkodaClass.TRIVIAL, None, 1)]:
        with pytest.raises(TypeError):  # every field is given, by position
            SkodaResult(*fields)


F = Fraction


@pytest.mark.parametrize("direct, converted", [
    (lambda: matsusaka.MatsusakaInputs(1, F(1), F(0), F(0), "demailly"),
     lambda: matsusaka.MatsusakaInputs.of(1, 1, 0, 0)),
    (lambda: matsusaka.MatsusakaInputs(2, F(1, 2), F(0), F(0), "demailly"),
     lambda: matsusaka.MatsusakaInputs.of(2, F(1, 2), 0, 0)),
    (lambda: lelong.CurveData(((F(3), 0),)), lambda: lelong.CurveData.of((3, 0))),
    (lambda: lelong.CurveData(((F(-3), 1),)), lambda: lelong.CurveData.of((-3, 1))),
    (lambda: adjoint.JetSpec(()), lambda: adjoint.siu_report(2, [])),
], ids=["n-below-2", "Ln-below-1", "multiplicity-0", "negative-degree", "no-jet-orders"])
def test_records_built_directly_check_their_fields(direct, converted):
    # _check runs however a record is built, so .of and the reports only convert
    with pytest.raises(InputError) as expected:
        converted()
    with pytest.raises(InputError) as got:
        direct()
    assert str(got.value) == str(expected.value)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def test_only_bound_report_writes_its_own_init():
    for module in pkgutil.iter_modules(posbounds.__path__):
        importlib.import_module(f"posbounds.{module.name}")
    records = {cls for cls in subclasses(core.Record) if cls.__module__.startswith("posbounds.")}
    names = {cls.__name__ for cls in records}
    assert {"Bracket", "JetSpec", "CheckResult", "CurveData", "IntersectionProfile"} <= names
    assert {cls.__name__ for cls in records if "__init__" in vars(cls)} == {"BoundReport"}


def test_bound_report_stays_mutable_and_unhashable():
    report, other = BoundReport("x"), BoundReport("x")
    assert report == other and report.details is not other.details
    report.verdict = "satisfied"
    assert report != other
    with pytest.raises(TypeError):
        hash(report)


def dyadic_cases():
    """(num, k, c): num of either sign, zero, or an odd part times 2^t with t
    above or below k; k up to 4,000; c odd, even or 1."""
    odd = st.integers(0, 10**6) | st.integers(0, 2**4000)
    num = st.just(0) | st.builds(lambda sign, m, t: sign * (2 * m + 1) << t,
                                 st.sampled_from([1, -1]), odd, st.integers(0, 4100))
    c = st.just(1) | st.integers(1, 10**9) | st.integers(1, 2**200) | st.builds(
        lambda m, t: m << t, st.integers(1, 10**6), st.integers(1, 64))
    return st.tuples(num, st.integers(0, 4000), c)


@given(dyadic_cases())
@example((0, 0, 1))
@example((0, 3000, 6))
@example((-(3 << 10), 4, 1))
@example((12 << 4000, 4000, 6))
@example((-(5 << 20), 3000, 10))
def test_dyadic_fraction_is_fraction_num_over_c_2k(case):
    # every slot, and all that reads them, equals what Fraction's own gcd gives
    num, k, c = case
    got, want = dyadic_fraction(num, k, c), Fraction(num, c << k)
    assert type(got) is Fraction and type(got.numerator) is type(got.denominator) is int
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert hash(got) == hash(want) and repr(got) == repr(want) and got == want
    for clone in (pickle.loads(pickle.dumps(got)), copy.copy(got), copy.deepcopy(got)):
        assert type(clone) is Fraction and clone == want
        assert (clone.numerator, clone.denominator) == (want.numerator, want.denominator)


@given(
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**4),
    st.integers(min_value=1, max_value=6),
)
def test_nth_root_bracket_encloses_and_is_tight(r, q):
    tol = Fraction(1, 10**9)
    b = nth_root_bracket(r, q, tol)
    assert b.lo**q <= r <= b.hi**q
    assert b.is_point or b.width <= tol


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=5))
def test_nth_root_bracket_exact_on_perfect_powers(base, q):
    b = nth_root_bracket(Fraction(base**q), q, Fraction(1, 10**6))
    assert b.is_point and b.lo == base


@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=80),
    st.integers(min_value=0, max_value=40),
)
def test_floor_root_is_the_floor_of_the_scaled_power(num, den, q, k, a):
    t = floor_root(num, den, q, k, a)
    # t <= 2^k (num/den)^(a/q) < t + 1, cleared of denominators
    assert t**q * den**a <= num**a << k * q < (t + 1) ** q * den**a


def test_floor_root_below_the_grid_never_raises_the_power():
    # 2^(64 * 10^12) could not be formed; the bit-length test answers first
    assert floor_root(1, 2**64, 1, 40, 10**12) == 0
    # the test is strict: den^a equal to 2^(kq) is one grid step, not zero
    assert floor_root(1, 8, 2, 30, 20) == 1


def assert_dyadic_within(b, tol):
    """A point, or width <= tol with power-of-two denominators."""
    if not b.is_point:
        assert b.width <= tol
        for end in (b.lo, b.hi):
            assert end.denominator & (end.denominator - 1) == 0


def assert_nested(wide, tight):
    assert wide.lo <= tight.lo and tight.hi <= wide.hi


tolerances = st.fractions(min_value=Fraction(1, 10**40), max_value=10, max_denominator=10**40)


@settings(deadline=None, max_examples=200)
@given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**4),
       st.integers(min_value=1, max_value=8), tolerances, tolerances)
@example(Fraction(17, 50), 1, Fraction(1, 3), Fraction(1, 7))  # the grids 1/3, 1/7 did not nest
@example(Fraction(2), 2, Fraction(1, 3), Fraction(1, 7))
def test_nth_root_brackets_nest_on_a_dyadic_grid(r, q, t1, t2):
    wide, tight = (nth_root_bracket(r, q, t) for t in (max(t1, t2), min(t1, t2)))
    assert_nested(wide, tight)
    assert_dyadic_within(wide, max(t1, t2))
    assert_dyadic_within(tight, min(t1, t2))


def test_nth_root_monotone_refinement():
    wide = nth_root_bracket(Fraction(2), 2, Fraction(1, 10**3))
    tight = nth_root_bracket(Fraction(2), 2, Fraction(1, 10**9))
    assert wide.lo <= tight.lo and tight.hi <= wide.hi
    assert tight.width < wide.width


@given(
    st.fractions(min_value=Fraction(1, 50), max_value=100, max_denominator=50),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)
def test_pow_bracket_encloses_true_value(x, e):
    b = pow_bracket(x, e, Fraction(1, 10**9))
    true = float(x) ** float(e)
    assert float(b.lo) - 1e-6 <= true <= float(b.hi) + 1e-6


def test_pow_bracket_integer_exponent_exact():
    b = pow_bracket(Fraction(3, 2), Fraction(3), Fraction(1, 10**6))
    assert b.is_point and b.lo == Fraction(27, 8)
    b = pow_bracket(Fraction(4), Fraction(-1, 2), Fraction(1, 10**6))
    assert b.is_point and b.lo == Fraction(1, 2)


def test_pow_bracket_domain_errors():
    with pytest.raises(ValueError):
        pow_bracket(Fraction(-1), Fraction(1, 2), Fraction(1, 10**6))
    with pytest.raises(ValueError):
        pow_bracket(Fraction(0), Fraction(-1), Fraction(1, 10**6))


@pytest.mark.parametrize("call", [
    lambda tol: nth_root_bracket(2, 3, tol),
    lambda tol: pow_bracket(2, 3, tol),
    lambda tol: pow_bracket(2, Fraction(1, 3), tol),
    lambda tol: sigma_sequence(4, 5, 2, tol),
    lambda tol: main_theorem_check(2, 4, 0, [0, 1], {1: 3}, 5, tol),
    lambda tol: main_theorem_check(2, 5, 0, [0, 1], {1: 3}, 5, tol),
    lambda tol: beta_schedule(4, tol),
    lambda tol: beta_schedule(2, tol),
    lambda tol: cn_constant(4, tol),
    lambda tol: mu_invariant({1: 2, 2: 3}, 2, tol),
    lambda tol: ht_products([2, 3], 3, tol),
    lambda tol: lelong_numeric(ParamCurve(2, 3), [Fraction(1, 2)], tol),
])
@pytest.mark.parametrize("tol", [0, -1])
def test_nonpositive_tolerance_is_an_input_error(call, tol):
    with pytest.raises(InputError, match="tolerance must be positive"):
        call(tol)


def test_pow_bracket_zero_and_one():
    assert pow_bracket(0, Fraction(1, 2), Fraction(1, 10**6)).lo == 0
    assert pow_bracket(1, Fraction(7, 3), Fraction(1, 10**6)).lo == 1


def floors_one_root_at_a_time(num, den, n, k):
    """floor(2^k r^(p/n)) for p = 1..n-1, each from its own root of index n/g."""
    return [floor_root(num, den, n // g, k, p // g) for p in range(1, n) for g in [math.gcd(p, n)]]


@st.composite
def floor_powers_inputs(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, 1400))
    kind = draw(st.sampled_from(["any", "below-one", "perfect-power"]))
    if kind == "perfect-power":
        r = draw(st.fractions(min_value=0, max_value=1000, max_denominator=1000)) ** n
    elif kind == "below-one":  # sigma_sequence's 1 - sigma0/L^n
        r = draw(st.fractions(min_value=0, max_value=1, max_denominator=10**6))
    else:
        r = draw(st.fractions(min_value=0, max_value=10**30, max_denominator=10**30))
    return r.numerator, r.denominator, n, k


@settings(deadline=None, max_examples=200)
@given(floor_powers_inputs())
@example((1, 4, 4, 167))  # p = 2: 1/2, rational
@example((8, 27, 6, 167))  # p = 2, 4: 2/3, 4/9
@example((0, 1, 5, 4))
@example((1, 1, 5, 1329))
@example((10**60 + 1, 3, 7, 40))
def test_floor_powers_match_one_root_per_power(case):
    num, den, n, k = case
    assert floor_powers(num, den, n, k) == floors_one_root_at_a_time(num, den, n, k)


@settings(deadline=None, max_examples=100)
@given(floor_powers_inputs())
def test_floor_powers_are_the_floors_of_the_scaled_powers(case):
    num, den, n, k = case
    for p, t in enumerate(floor_powers(num, den, n, k), 1):
        # t <= 2^k (num/den)^(p/n) < t + 1, cleared of denominators
        assert t**n * den**p <= num**p << k * n < (t + 1) ** n * den**p


def test_floor_powers_fallback_gives_the_same_floors(monkeypatch):
    """With no guard bits the truncated powers often straddle a grid point,
    so floor_powers decides a floor among several candidates, on irrational
    powers too."""
    straddles = []

    def spy(ok, lo, hi):
        straddles.append(hi - lo > 1)  # more than one candidate floor
        return bisect(ok, lo, hi)

    monkeypatch.setattr(core, "_GUARD_BITS", 0)
    monkeypatch.setattr(core, "bisect", spy)
    rng = random.Random(10)
    irrational_straddles = 0
    for _ in range(200):
        r = Fraction(rng.randrange(1, 10**9), rng.randrange(1, 10**9))
        n, k = rng.randint(2, 12), rng.randint(4, 1330)
        num, den = r.numerator, r.denominator
        straddles.clear()
        assert floor_powers(num, den, n, k) == floors_one_root_at_a_time(num, den, n, k)
        # every power r^(p/n), p < n, is irrational unless the coprime num
        # and den are both perfect m-th powers for some m > 1
        rational = any(iroot(num, m)[1] and iroot(den, m)[1] for m in range(2, n + 1))
        irrational_straddles += any(straddles) and not rational
    assert irrational_straddles


def test_floor_powers_takes_one_root_per_call(monkeypatch):
    # a straddle is decided among its candidates, not by a root of its own,
    # so the roots do not grow with the straddles (this sequence has hundreds)
    counts = {"floor_root": 0, "floor_powers": 0}

    def counted(name, f):
        def spy(*args):
            counts[name] += 1
            return f(*args)
        return spy

    monkeypatch.setattr(core, "floor_root", counted("floor_root", floor_root))
    monkeypatch.setattr(jumping, "floor_powers", counted("floor_powers", floor_powers))
    sigma_sequence(1, 2**200, 256)
    assert counts["floor_root"] == counts["floor_powers"] > 1


@st.composite
def chain_bases(draw):
    """x >= 1 at 2^b - 1, 2^b and 2^b + 1, or at random, up to 4,000 bits."""
    b = draw(st.integers(1, 4000))
    kind = draw(st.sampled_from([-1, 0, 1, "random"]))
    return draw(st.integers(1, (1 << b) - 1)) if kind == "random" else max(1, (1 << b) + kind)


@settings(deadline=None, max_examples=300)
@given(chain_bases(), st.integers(2, 64), st.integers(13, 4100), st.booleans())
@example((1 << 3322) - 1, 64, 13, True)
@example(1 << 3322, 5, 3386, True)
def test_the_floored_chain_encloses_the_power(x, q, keep, chain_only):
    # lo 2^e <= x^q < (lo + 2q) 2^e for every keep with q (q - 1) <= 2^(keep - 1)
    # (all of them here), on the chain alone or with its exact-power cutover, and
    # _power_ends' bracket at keep = bitlen(x) + 64 is at most 2q wide
    with mock.patch.object(core, "_EXACT_POWER_BITS", 0 if chain_only else core._EXACT_POWER_BITS):
        lo, e = core._floor_power(x, q, keep)
        ends = core._power_ends(x, q)
    power = x**q
    assert lo << e <= power < lo + 2 * q << e and lo < 1 << keep
    assert e or lo == power
    lo, hi, e = ends
    assert lo << e <= power <= hi << e and hi - lo <= 2 * q
    assert e or lo == power


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 12), st.integers(0, 1400), st.booleans(),
       st.fractions(min_value=Fraction(1, 10**12), max_value=1 - Fraction(1, 10**12),
                    max_denominator=10**12),
       st.integers(2, 10**30))
def test_floor_powers_chain_encloses_each_scaled_power(n, k, below_one, fraction, big):
    """With no guard bits at all every power straddles, so the spy on bisect sees
    the chain's ends [lo_p, hi_p] of each T_p = 2^k r^(p/n) in turn: lo_p <=
    T_p < hi_p, and hi_p - lo_p <= 2p 2^w, w = max(0, bitlen(num) - bitlen(den) + 1)."""
    r = fraction if below_one else fraction * big + 1  # r < 1, or r > 1
    num, den = r.numerator, r.denominator
    spread = num.bit_length() - den.bit_length()
    ends = []

    def spy(ok, lo, hi):
        ends.append((lo, hi - 1))
        return bisect(ok, lo, hi)

    with mock.patch.object(core, "_GUARD_BITS", -max(0, spread)), \
            mock.patch.object(core, "bisect", spy):
        floors = floor_powers(num, den, n, k)
    assert floors == floors_one_root_at_a_time(num, den, n, k)
    assert len(ends) == n - 1
    for p, (lo, hi) in enumerate(ends, 1):
        # lo <= 2^k r^(p/n) < hi, cleared of denominators
        assert lo**n * den**p <= num**p << k * n < hi**n * den**p
        assert hi - lo <= 2 * p << max(0, spread + 1)


def test_floor_powers_guard_bits_leave_no_straddle(monkeypatch):
    # a clock-free work pin: with _GUARD_BITS past the grid, the chain's ends of
    # sigma-shaped powers, r = 1 - sigma0/L^n, fall in one grid cell, so no
    # floor is decided among candidates (_GUARD_BITS = 0 makes every power one)
    straddles = []

    def spy(ok, lo, hi):
        if ok.__qualname__.startswith("floor_powers."):  # not iroot's base case for n > 16
            straddles.append((lo, hi))
        return bisect(ok, lo, hi)

    monkeypatch.setattr(core, "bisect", spy)
    rng = random.Random(36)
    for _ in range(200):
        sigma0 = Fraction(rng.randrange(1, 100), rng.randrange(1, 4))
        r = 1 - sigma0 / (sigma0 + Fraction(rng.randrange(1, 10**6), rng.randrange(1, 100)))
        n, k = rng.randint(2, 32), rng.randint(40, 3400)
        floor_powers(r.numerator, r.denominator, n, k)
    assert straddles == []


def test_dyadic_results_take_no_gcd_of_two_big_integers(monkeypatch):
    # at tol 1e-1000 ends have k = 3,322 bits, and Fraction(t, 1 << k) would
    # run CPython's quadratic gcd on two such integers: every sigma end, margin
    # and ht slack is built by dyadic_fraction instead, with a gcd against c alone
    new, big = Fraction.__new__, []

    def spy(cls, *args, **kwargs):
        if len(args) == 2 and all(isinstance(x, int) and x.bit_length() > 512 for x in args):
            big.append(args)
        return new(cls, *args, **kwargs)

    tol, beta = Fraction(1, 10**1000), [0, Fraction(1, 27), Fraction(1, 2), 1]
    brackets = [Bracket(Fraction(1), Fraction(2)), Bracket.point(Fraction(4, 9)),
                Bracket(Fraction(1, 3), Fraction(9, 4))]
    monkeypatch.setattr(Fraction, "__new__", spy)
    sigma = sigma_sequence(1, 2, 8, tol).sigma_p
    margins = main_theorem_check(4, 8, 1, beta, {1: 100, 2: 1}, 64, tol).details["margins"]
    slack = ht_products(brackets, 2, tol).slack
    monkeypatch.undo()  # the checks below may do Fraction arithmetic of their own
    assert big == []
    assert sigma[0].hi.denominator.bit_length() > 512 < slack.hi.denominator.bit_length()
    assert margins["1"] > 0 > margins["2"] and margins["3"] is None


def test_matsusaka_bound_takes_no_gcd_of_two_big_integers(monkeypatch):
    # the n = 6 threshold has about 6,000 bits; chained Fraction operators would
    # reduce it with CPython's quadratic gcd, the coprime base never forms one
    gcd, big = math.gcd, []

    def spy(*args):
        if sum(x.bit_length() > 512 for x in args) >= 2:
            big.append(args)
        return gcd(*args)

    inputs = matsusaka.MatsusakaInputs.of(6, Fraction(9, 2), Fraction(1, 3), Fraction(5, 7))
    monkeypatch.setattr(math, "gcd", spy)
    threshold = matsusaka.matsusaka_main(inputs).threshold
    monkeypatch.undo()
    assert big == []
    assert threshold.lo.numerator.bit_length() > 5000


def test_matsusaka_bound_compares_no_big_fraction(monkeypatch):
    # the threshold is a point bracket, lo is hi: an order check would cross-multiply
    # the ~6,000-bit numerator with the denominator of the same value
    big = []

    def spy(name):
        compare = getattr(Fraction, name)

        def spied(a, b):
            if any(isinstance(x, (int, Fraction))
                   and max(x.numerator.bit_length(), x.denominator.bit_length()) > 512
                   for x in (a, b)):
                big.append(name)
            return compare(a, b)
        return spied

    inputs = matsusaka.MatsusakaInputs.of(6, Fraction(9, 2), Fraction(1, 3), Fraction(5, 7))
    for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
        monkeypatch.setattr(Fraction, name, spy(name))
    threshold = matsusaka.matsusaka_main(inputs).threshold
    monkeypatch.undo()
    assert big == []
    assert threshold.lo is threshold.hi and threshold.lo.numerator.bit_length() > 5000


def newton_cases():
    """(f, t, root): f(t) = (g(t), g'(t)) for an increasing convex integer g
    with g(0) <= 0, t above its root, and root the root when it is an integer."""

    @st.composite
    def poly_minus_constant(draw):
        # nonnegative coefficients, one of them positive at degree >= 1
        c = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=6).filter(
            lambda c: any(c[:-1])))
        slope = [a * (len(c) - 1 - i) for i, a in enumerate(c[:-1])]
        at = draw(st.integers(0, 10**12))
        extra = draw(st.sampled_from([0, 1]) | st.integers(0, 10**30))
        const = horner(c, at) + extra  # poly(at + e) >= poly(at) + e: the root is <= at + extra
        return ((lambda t: (horner(c, t) - const, horner(slope, t))),
                at + extra + draw(st.integers(1, 10**15)), None if extra else at)

    @st.composite
    def product_minus_constant(draw):
        # prod_j (D t - B_j) - c past B_p / D, taken as -1 up to there
        D = draw(st.integers(1, 1000))
        B = sorted(draw(st.lists(st.integers(0, 10**9), min_size=1, max_size=6)))
        at = B[-1] // D + draw(st.integers(1, 10**6))
        extra = draw(st.sampled_from([0, 1]) | st.integers(0, 10**40))
        c = math.prod(D * at - x for x in B) + extra  # factors >= 1 past B_p: root <= at + extra

        def f(t):
            if D * t <= B[-1]:
                return -1, 1
            h, slope = 1, 0
            for x in B:
                h, slope = h * (D * t - x), slope * (D * t - x) + h * D
            return h - c, slope
        return f, at + extra + draw(st.integers(1, 10**12)), None if extra else at

    return poly_minus_constant() | product_minus_constant()


@settings(deadline=None, max_examples=300)
@given(newton_cases())
def test_newton_floor_matches_bisection(case):
    f, t, root = case
    assert f(t)[0] > 0
    floor, g = newton_floor(f, t)
    assert floor == bisect(lambda x: f(x)[0] <= 0, 0, t)
    assert g == f(floor)[0] <= 0
    assert root is None or (floor, g) == (root, 0)


def test_floor_powers_edge_cases():
    assert floor_powers(1, 2, 1, 40) == []  # no p with 1 <= p <= n - 1
    assert floor_powers(0, 7, 5, 40) == [0, 0, 0, 0]
    assert floor_powers(1, 1, 5, 40) == [1 << 40] * 4
    assert floor_powers(16, 1, 4, 3) == [16, 32, 64]  # 2^3 (2, 4, 8)


def test_golden_sqrt5_bracket():
    b = pow_bracket(Fraction(5), Fraction(1, 2), Fraction(1, 10**12))
    assert abs(float(b.lo) - math.sqrt(5)) < 1e-11


def test_bisect_never_calls_ok_at_hi():
    calls = []

    def always(x):
        calls.append(x)
        return True

    assert bisect(always, 5, 13) == 12
    assert bisect(always, 7, 8) == 7
    assert calls and 13 not in calls and 8 not in calls
    assert min(calls) > 5  # ok(lo) is given, not asked


@given(st.integers(-50, 50), st.integers(1, 100), st.data())
def test_bisect_finds_the_last_true_point(lo, size, data):
    last = data.draw(st.integers(lo, lo + size - 1))
    assert bisect(lambda x: x <= last, lo, lo + size) == last
