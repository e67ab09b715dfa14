"""Exact p-adic primitives: valuations, unit parts, 2x2 matrices."""

import random
from fractions import Fraction

import pytest

from padyn.padic import (
    PadicMatrix2,
    PadicRational,
    SingularMatrixError,
    _p_power,
    int_valuation,
    parse_rational,
)


def naive_valuation(num: int, p: int) -> tuple[int, int]:
    # one division per step; the implementation divides in squared chunks
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    return v, num


def check_int_valuation_against_naive(seed: int) -> None:
    rng = random.Random(seed)
    for p in (2, 3, 5, 7):
        for _ in range(200):
            unit = rng.randrange(1, 10**6)
            while unit % p == 0:
                unit += 1
            k = rng.choice((0, 1, 2, 3, 7, 8, 19, 63, 64, 255, 256, 257, 1000))
            num = unit * p**k
            assert int_valuation(num, p) == naive_valuation(num, p) == (k, unit)


def test_int_valuation_matches_naive():
    check_int_valuation_against_naive(20260814)
    # no earlier call changes a result: not a 120 000-digit strip, nor
    # the power cache evicted by more keys than it holds
    assert int_valuation(7 * 5**120000, 5) == (120000, 7)
    check_int_valuation_against_naive(20260815)
    for k in range(_p_power.cache_info().maxsize + 44):
        _p_power(5, 3 * k + 1)
    check_int_valuation_against_naive(20260816)


def test_int_valuation_huge_exponent():
    # the chunked divider must cope with exponents far past naive range
    v, u = int_valuation(7 * 5**120000, 5)
    assert (v, u) == (120000, 7)


def valuation(x, p: int) -> int:
    return PadicRational.of(x, p).e


def test_valuation_examples():
    assert valuation(Fraction(50), 5) == 2
    assert valuation(Fraction(1, 125), 5) == -3
    assert valuation(Fraction(3, 7), 5) == 0
    assert valuation(Fraction(-75, 8), 5) == 2
    # zero has no valuation: it reads as e = 0 and is told apart by truth
    assert not PadicRational.of(0, 5) and valuation(0, 5) == 0


def test_valuation_is_additive_on_products():
    rng = random.Random(7)
    for _ in range(300):
        x = Fraction(rng.randrange(1, 5000), rng.randrange(1, 5000))
        y = Fraction(rng.randrange(1, 5000), rng.randrange(1, 5000))
        assert valuation(x * y, 5) == valuation(x, 5) + valuation(y, 5)


def test_ultrametric_inequality():
    rng = random.Random(11)
    for _ in range(300):
        x = Fraction(rng.randrange(-4000, 4000), rng.randrange(1, 4000))
        y = Fraction(rng.randrange(-4000, 4000), rng.randrange(1, 4000))
        if x + y == 0:
            continue
        # x + y is nonzero, so x or y is
        lo = min(valuation(v, 3) for v in (x, y) if v)
        assert valuation(x + y, 3) >= lo
        if x and y and valuation(x, 3) != valuation(y, 3):
            assert valuation(x + y, 3) == lo


def test_unit_part_small_oracle():
    for num in range(1, 60):
        for den in range(1, 60):
            x = Fraction(num, den)
            v = valuation(x, 5)
            y = PadicRational.of(x, 5)
            assert y.e == v
            assert Fraction(y.num, y.den) * Fraction(5) ** v == x


def test_unit_residue_matches_direct_reduction():
    rng = random.Random(13)
    for _ in range(200):
        u = Fraction(rng.randrange(1, 900), rng.randrange(1, 900))
        while u.numerator % 5 == 0 or u.denominator % 5 == 0:
            u = Fraction(rng.randrange(1, 900), rng.randrange(1, 900))
        x = u * Fraction(5) ** rng.randrange(-6, 7)
        expect = u.numerator * pow(u.denominator, -1, 125) % 125
        assert PadicRational.of(x, 5).unit_residue(125) == expect


def test_unit_residue_never_expands_huge_scales():
    x = Fraction(7 * 5**100000, 3)
    assert PadicRational.of(x, 5).unit_residue(25) == 7 * pow(3, -1, 25) % 25
    y = Fraction(3, 11 * 5**100000)
    assert PadicRational.of(y, 5).unit_residue(25) == 3 * pow(11, -1, 25) % 25


def test_rational_text_roundtrip():
    for text in ("3/4", "-7", "0", "22/7", "-9/2", "100000000000000001"):
        assert str(parse_rational(text)) == text
    assert parse_rational(" 6/8 ") == Fraction(3, 4)


def test_padic_rational_arithmetic():
    a = PadicRational.of(parse_rational("3/4"), 5)
    b = PadicRational.of(Fraction(1, 4), 5)
    assert a + b == 1
    assert a - b == Fraction(1, 2)
    assert a * b == Fraction(3, 16)
    assert a / b == 3
    assert -a == Fraction(-3, 4)
    assert a.e == 0
    assert PadicRational.of(50, 5).e == 2
    assert not PadicRational.of(0, 5)
    with pytest.raises(ValueError):
        a + PadicRational.of(1, 7)


def test_matrix_product_and_inverse():
    rng = random.Random(17)
    for _ in range(100):
        entries = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)) for _ in range(4)]
        g = PadicMatrix2.of([entries[:2], entries[2:]], 5)
        if g.det() == 0:
            with pytest.raises(SingularMatrixError):
                g.inverse()
            continue
        assert (g @ g.inverse()).entries() == (1, 0, 0, 1)
        assert (g.inverse() @ g).entries() == (1, 0, 0, 1)


def test_matrix_product_is_associative():
    rng = random.Random(19)
    mats = [
        PadicMatrix2.of(
            [
                [Fraction(rng.randrange(-5, 6)), Fraction(rng.randrange(-5, 6))],
                [Fraction(rng.randrange(-5, 6)), Fraction(rng.randrange(-5, 6))],
            ],
            5,
        )
        for _ in range(12)
    ]
    for a in mats[:4]:
        for b in mats[4:8]:
            for c in mats[8:]:
                assert ((a @ b) @ c).entries() == (a @ (b @ c)).entries()


def test_matrix_predicates():
    g = PadicMatrix2.of([[1, Fraction(1, 5)], [0, 1]], 5)
    assert not g.is_integral()
    assert g.is_upper_triangular()
    h = PadicMatrix2.of([[6, 5], [25, 1]], 5)
    assert h.is_integral()
    assert not h.is_upper_triangular()
    assert not h.is_unimodular_integral()
    assert h.congruent_to_identity(1)
    assert not h.congruent_to_identity(2)
    assert PadicMatrix2.identity(5).is_unimodular_integral()


@pytest.mark.parametrize(
    "entry",
    [
        Fraction(3, 7),
        Fraction(7, 25),
        Fraction(-10),
        10,
        -3,
        0,
        Fraction(0),
        PadicRational.of(0, 5),
        PadicRational.of(Fraction(2, 5), 5),
        PadicRational.of(Fraction(50, 3), 5),
        PadicRational.of(1, 5) + PadicRational.of(Fraction(1, 25), 5),
        PadicRational.of(3, 5) + PadicRational.of(5**40, 5),
        PadicRational.of(Fraction(1, 5), 5) - PadicRational.of(Fraction(1, 5), 5),
        PadicRational.of(Fraction(1, 5), 3),
        PadicRational.of(Fraction(1, 3), 3),
        PadicRational.of(Fraction(1, 3), 3) + PadicRational.of(Fraction(2, 9), 3),
    ],
)
def test_is_integral_agrees_with_the_valuation_read(entry):
    # `of` normalises every entry kind to a PadicRational of the matrix's
    # prime with the entry's value; is_integral must agree with the
    # valuation of each given entry normalised for that prime
    p = 5
    value = entry.to_fraction() if isinstance(entry, PadicRational) else Fraction(entry)
    for rows, at in (
        (((entry, 1), (0, 1)), 0),
        (((1, 0), (entry, 1)), 2),
        (((1, Fraction(1, 5)), (0, entry)), 3),
    ):
        g = PadicMatrix2.of(rows, p)
        assert all(type(x) is PadicRational and x.p == p for x in g.entries())
        assert g.entries()[at].to_fraction() == value
        want = all(PadicRational.of(x, p).e >= 0 for row in rows for x in row)
        assert g.is_integral() == want


def test_matrix_json_forms():
    g = PadicMatrix2.of([[1, Fraction(1, 5)], [0, 1]], 5)
    assert g.to_json() == [["1", "1/5"], ["0", "1"]]
    assert PadicMatrix2.of([[Fraction(-3, 4), 2], [0, 7]], 5).to_json() == [
        ["-3/4", "2"],
        ["0", "7"],
    ]
