"""PadicRational against the Fraction path it stands in for.

Every operation is checked against plain `Fraction` arithmetic on the
same values, with exponents up to +-50 000 (the size of the ladder
witnesses), zero, and tied exponents whose sum cancels low p-digits.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padyn.padic import (
    INFINITY,
    PadicRational,
    _coerce_fraction,
    fraction_valuation,
    unit_residue,
)
from padyn.residues import class_of, is_nth_power

PRIMES = (2, 3, 5, 7)
SETTINGS = settings(max_examples=60, deadline=None)

exponents = st.one_of(st.integers(-6, 6), st.integers(-50_000, 50_000))


@st.composite
def rationals(draw, p):
    """A Fraction u * p**e, zero included."""
    num = draw(st.one_of(st.just(0), st.integers(-10**6, 10**6)))
    den = draw(st.integers(1, 10**6))
    return Fraction(num, den) * Fraction(p) ** draw(exponents)


@st.composite
def pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, draw(rationals(p)), draw(rationals(p))


@st.composite
def cancelling_pairs(draw):
    """x and y with the same valuation whose sum cancels k >= 1 p-digits."""
    p = draw(st.sampled_from(PRIMES))
    e = draw(exponents)
    u = draw(st.integers(1, 10**6).filter(lambda k: k % p))
    k = draw(st.integers(1, 40))
    w = draw(st.integers(-10**3, 10**3))
    den = draw(st.integers(1, 10**4).filter(lambda d: d % p))
    scale = Fraction(p) ** e / den
    return p, u * scale, (-u + w * p**k) * scale


def assert_normalised(x: PadicRational) -> None:
    if x.num == 0:
        assert (x.num, x.den, x.e) == (0, 1, 0)
        return
    assert x.den > 0
    assert x.num % x.p and x.den % x.p
    assert gcd(x.num, x.den) == 1


def assert_same(x: PadicRational, expected: Fraction) -> None:
    assert_normalised(x)
    assert x.to_fraction() == expected
    assert x == expected


@SETTINGS
@given(pairs())
def test_field_operations_match_fraction(case):
    p, xf, yf = case
    x, y = PadicRational.of(xf, p), PadicRational.of(yf, p)
    assert_same(x + y, xf + yf)
    assert_same(x - y, xf - yf)
    assert_same(x * y, xf * yf)
    assert_same(-x, -xf)
    assert_same(x + yf, xf + yf)
    assert_same(xf * y, xf * yf)
    if yf:
        assert_same(x / y, xf / yf)
        assert_same(y.inverse(), 1 / yf)
        assert_same(1 / y, 1 / yf)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert (x == y) == (xf == yf)


@SETTINGS
@given(cancelling_pairs())
def test_tied_exponents_strip_cancelled_digits(case):
    p, xf, yf = case
    x, y = PadicRational.of(xf, p), PadicRational.of(yf, p)
    assert x.e == y.e
    total = x + y
    assert_same(total, xf + yf)
    assert total.valuation() == fraction_valuation(xf + yf, p)
    assert total.valuation() > x.e


@SETTINGS
@given(pairs())
def test_reads_match_fraction(case):
    p, xf, _ = case
    x = PadicRational.of(xf, p)
    assert hash(x) == hash(xf)
    assert fraction_valuation(x, p) == fraction_valuation(xf, p)
    if not xf:
        assert x.valuation() is INFINITY
        return
    for r in (1, 3):
        assert unit_residue(x, p, p**r) == unit_residue(xf, p, p**r)
    for n in (1, 2, 3, 6):
        assert class_of(x, n) == class_of(xf, n, p)
        assert is_nth_power(x, n) == is_nth_power(xf, n, p)


@SETTINGS
@given(pairs())
def test_exact_round_trip_through_fraction(case):
    p, xf, _ = case
    x = PadicRational.of(xf, p)
    back = _coerce_fraction(x)
    assert type(back) is Fraction
    assert back == xf
    assert (back.numerator, back.denominator) == (xf.numerator, xf.denominator)
    assert (x.numerator, x.denominator) == (xf.numerator, xf.denominator)
    assert PadicRational.of(back, p) == x


def test_small_values_hash_like_ints():
    for p in PRIMES:
        for k in range(-50, 51):
            assert hash(PadicRational.of(k, p)) == hash(k)
            assert PadicRational.of(k, p) == k
    # the hash modulus 2**61 - 1 is prime; a denominator it divides has
    # no inverse mod it, and Fraction hashes such values to hash_info.inf
    edge = Fraction(3, 2**61 - 1)
    assert hash(PadicRational.of(edge, 5)) == hash(edge)
    assert hash(PadicRational.of(-edge, 5)) == hash(-edge)


def test_other_primes_fall_back_to_the_fraction_path():
    x = PadicRational.of(Fraction(50, 3), 5)
    assert fraction_valuation(x, 3) == -1
    assert unit_residue(x, 3, 9) == unit_residue(Fraction(50, 3), 3, 9)
    assert class_of(x, 2, 3) == class_of(Fraction(50, 3), 2, 3)
    assert x == PadicRational.of(Fraction(50, 3), 3)
    with pytest.raises(ValueError):
        x * PadicRational.of(1, 3)
