import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skbounds.rational import format_rational, parse_rational, to_integers


def test_parse_fraction_literal():
    assert parse_rational("3/2") == Fraction(3, 2)


def test_parse_decimal_is_exact():
    assert parse_rational("1.5") == Fraction(3, 2)
    assert parse_rational("0.1") == Fraction(1, 10)


def test_parse_zero_canonical():
    q = parse_rational("0")
    assert q == 0
    assert q.denominator == 1


def test_parse_integer_and_sign():
    assert parse_rational("7") == 7
    assert parse_rational("-2/4") == Fraction(-1, 2)
    assert parse_rational("+3") == 3


def test_parse_reduces_to_canonical_form():
    q = parse_rational("6/4")
    assert (q.numerator, q.denominator) == (3, 2)


@pytest.mark.parametrize(
    "bad",
    # Then 3/2, 3 and 1.5 written with Arabic-Indic digits, and literals
    # padded with whitespace other than space and tab.
    [
        "3/0", "abc", "1.5e3", "1/2/3", "1.", ".5", "", "3 / 2",
        "\u0663/\u0662", "\u0663", "1.\u0665", "1\xa0", "\u30003/2", "3\n",
    ],
)
def test_parse_rejects_bad_literals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational():
    assert format_rational(Fraction(3, 2)) == "3/2"
    assert format_rational(Fraction(2)) == "2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(0)) == "0"


def test_round_trip_random_rationals():
    rng = random.Random(8821)
    for _ in range(200):
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 24))
        assert parse_rational(format_rational(q)) == q


def test_exact_arithmetic_examples():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert Fraction(7, 2) * Fraction(2, 7) == 1
    assert parse_rational("3/2") == parse_rational("1.5")


def test_field_axioms_on_random_rationals():
    rng = random.Random(47)
    samples = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(30)]
    for a, b, c in zip(samples, samples[1:], samples[2:]):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1


def test_canonical_form_after_operations():
    rng = random.Random(3)
    for _ in range(100):
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        for q in (a + b, a - b, a * b):
            assert q.denominator > 0
            assert math.gcd(abs(q.numerator), q.denominator) == 1


# Ints mixed with Fractions, as a source hands its weights to to_integers.
exact_values = st.lists(
    st.one_of(st.integers(-50, 50), st.fractions(max_denominator=60)), max_size=8
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(exact_values)
@example([])
def test_to_integers_scales_by_the_lcm_of_the_denominators(values):
    ints, scale = to_integers(values)
    assert scale == math.lcm(*(Fraction(v).denominator for v in values))
    assert all(type(n) is int for n in ints)
    assert [Fraction(n, scale) for n in ints] == values
    if not values:
        assert (ints, scale) == ([], 1)
