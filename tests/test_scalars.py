from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ncdiff.scalars import ONE, ZERO, Scalar, integer, rational

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)
scalars = st.builds(Scalar, rationals, rationals)
# parts as the package builds them (int when integral) and as Fractions, real and complex
parts = st.one_of(st.integers(-50, 50), rationals)
mixed = st.one_of(
    st.builds(Scalar, parts, st.sampled_from([0, Fraction(0)])),
    st.builds(Scalar, parts, parts),
)


@given(scalars, scalars, scalars)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars)
def test_unit_and_inverse(a):
    assert a * ONE == a
    assert a + ZERO == a
    assert (a - a).is_zero()
    if not a.is_zero():
        assert a * a.inverse() == ONE


def test_complex_multiplication_is_exact():
    i = Scalar.of(0, 1)
    assert i * i == integer(-1)
    assert Scalar.of(Fraction(1, 3), 2) * Scalar.of(3, Fraction(-1, 2)) == Scalar.of(
        2, Fraction(35, 6)
    )


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@given(scalars)
def test_json_round_trip(a):
    assert Scalar.from_json(a.to_json()) == a


def test_json_accepts_plain_integers():
    assert Scalar.from_json([2, [1, 2]]) == Scalar.of(2, Fraction(1, 2))
    assert Scalar.from_json(3) == integer(3)


def _exact(s: Scalar) -> tuple[Fraction, Fraction]:
    assert type(s.re) in (int, Fraction) and type(s.im) in (int, Fraction)
    return s.re, s.im


@given(mixed, mixed)
def test_arithmetic_matches_fraction_pairs(a, b):
    """Every operation equals the Gaussian-rational formula on plain
    Fraction pairs, and no part of a result is ever a float."""
    (ar, ai), (br, bi) = (Fraction(a.re), Fraction(a.im)), (Fraction(b.re), Fraction(b.im))
    assert _exact(a + b) == (ar + br, ai + bi)
    assert _exact(a - b) == (ar - br, ai - bi)
    assert _exact(a * b) == (ar * br - ai * bi, ar * bi + ai * br)
    assert _exact(-a) == (-ar, -ai)
    norm = br * br + bi * bi
    if norm:
        assert _exact(a / b) == ((ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm)


def test_integral_parts_are_ints():
    assert type(Scalar.of(Fraction(6, 3)).re) is int
    assert type(Scalar.from_json([[4, 2], [0, 1]]).re) is int
    assert type(integer(5).re) is int and type(ONE.im) is int
    third = Scalar.of(1) / Scalar.of(3)
    assert type(third.re) is Fraction and third.re == Fraction(1, 3)


def test_integral_sums_are_ints():
    third, two_thirds, five_thirds = (Scalar.of(Fraction(k, 3)) for k in (1, 2, 5))
    assert type((third + two_thirds).re) is int and third + two_thirds == ONE
    assert type((five_thirds - two_thirds).re) is int and five_thirds - two_thirds == ONE
    assert type((third + third).re) is Fraction


def test_integral_complex_results_are_ints():
    half_one, half_half = Scalar.of(Fraction(1, 2), 1), Scalar.of(Fraction(1, 2), Fraction(1, 2))
    results = [
        (half_one + half_one, Scalar.of(1, 2)),
        (Scalar.of(Fraction(3, 2), Fraction(1, 3)) - Scalar.of(Fraction(1, 2), Fraction(4, 3)), Scalar.of(1, -1)),
        (half_half * Scalar.of(1, 1), Scalar.of(0, 1)),
    ]
    for got, want in results:
        assert got == want and type(got.re) is int and type(got.im) is int


def test_rational_normal_form():
    cases = [(3, 3), (True, 1), (Fraction(4, 2), 2), ("6/3", 2), (Fraction(1, 2), Fraction(1, 2)), ("-3/4", Fraction(-3, 4))]
    for x, want in cases:
        assert rational(x) == want and type(rational(x)) is type(want)
    for bad in (0.5, 1j, None, Scalar.of(1)):
        with pytest.raises(TypeError):
            rational(bad)
