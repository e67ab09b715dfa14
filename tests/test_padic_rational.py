"""PadicRational against plain Fraction arithmetic and naive strip loops.

Field operations are checked against `Fraction` on the same values.
Every read (valuation, unit residue, residue, power class, nth-power
test) is checked against a reference that strips p one division at a
time from the small parts a value was drawn from, or, for a sparse sum
of several terms, bisects on the power of p dividing its Fraction's
numerator and denominator; powers are decided by enumerating unit nth
powers.  The reference shares no code with `padyn`.  Exponents run to
+-50 000 (the size of the ladder witnesses); zero, tied exponents whose
sum cancels low p-digits, and ties that carry upward through several
terms are covered.  One-term sums, products, `==`, `hash`, `det` and `@`
are checked at exponent gaps on both sides of the bound below which two
terms fold into one (p**gap below 2**64), with zero operands and results
and coefficients above `_SPARSE_BITS`; `@` and `det` also against the
generic 2x2 product.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padyn.padic import (
    PadicMatrix2,
    PadicRational,
    _coerce_fraction,
    _mul_reduced,
    _normal_form,
    _padic,
    mat_mul,
)
from padyn.residues import build_group, class_of, is_nth_power
from padyn.types1 import DEFAULT_LADDER, TruncType1, realize

PRIMES = (2, 3, 5, 7)
LEVELS = (1, 2, 3, 6)
SETTINGS = settings(max_examples=60, deadline=None)

exponents = st.one_of(st.integers(-6, 6), st.integers(-50_000, 50_000))


def naive_valuation(num: int, p: int) -> tuple[int, int]:
    # one division per step; nonzero num only
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    return v, num


def fold_reach(p: int) -> int:
    """The largest gap k with p**k below 2**64: one-term values that many
    digits apart sum to one term."""
    k = 0
    while p ** (k + 1) < 2**64:
        k += 1
    return k


def bisected_valuation(num: int, p: int) -> int:
    """The largest k with p**k dividing nonzero num: double k until p**k
    fails to divide, then bisect."""
    hi = 1
    while num % p**hi == 0:
        hi *= 2
    lo = hi // 2 if num % p == 0 else 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if num % p**mid == 0:
            lo = mid
        else:
            hi = mid
    return lo


_POWERS: dict[tuple[int, int], tuple[int, frozenset]] = {}


def naive_powers(p: int, n: int) -> tuple[int, frozenset]:
    """All unit nth powers mod p**(2*v_p(n)+3), two digits past the
    precision that decides them; cached per (p, n)."""
    if (p, n) not in _POWERS:
        modulus = p ** (2 * naive_valuation(n, p)[0] + 3)
        members = frozenset(pow(a, n, modulus) for a in range(1, modulus) if a % p)
        _POWERS[(p, n)] = (modulus, members)
    return _POWERS[(p, n)]


class Naive:
    """num/den * p**e read by stripping the small num and den alone."""

    def __init__(self, p: int, num: int, den: int, e: int):
        self.p = p
        self.value = Fraction(num, den) * Fraction(p) ** e
        if num:
            vn, self.un = naive_valuation(num, p)
            vd, self.ud = naive_valuation(den, p)
            self.v = e + vn - vd

    @classmethod
    def of_fraction(cls, p: int, x: Fraction) -> "Naive":
        """The reference for any rational, however large its parts."""
        ref = cls(p, 0, 1, 0)
        ref.value = x
        if x:
            vn, vd = bisected_valuation(x.numerator, p), bisected_valuation(x.denominator, p)
            ref.un, ref.ud = x.numerator // p**vn, x.denominator // p**vd
            ref.v = vn - vd
        return ref

    def unit_residue(self, modulus: int) -> int:
        return self.un * pow(self.ud, -1, modulus) % modulus

    def is_nth_power(self, n: int) -> bool:
        modulus, members = naive_powers(self.p, n)
        return self.v % n == 0 and self.unit_residue(modulus) in members

    def class_rep(self, n: int) -> int:
        """Smallest w * p**(v mod n), w a positive unit with unit/w an nth power."""
        p = self.p
        modulus, members = naive_powers(p, n)
        r = self.unit_residue(modulus)
        w = next(
            w for w in range(1, modulus) if w % p and r * pow(w, -1, modulus) % modulus in members
        )
        return w * p ** (self.v % n)


@st.composite
def naive_values(draw, p):
    """num/den * p**e with num and den small, zero included."""
    num = draw(st.one_of(st.just(0), st.integers(-10**6, 10**6)))
    den = draw(st.integers(1, 10**6))
    return Naive(p, num, den, draw(exponents))


@st.composite
def pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, draw(naive_values(p)).value, draw(naive_values(p)).value


@st.composite
def cancelling_pairs(draw):
    """x and y with the same valuation whose sum cancels k >= 1 p-digits,
    and the valuation of that sum (None when the sum is zero)."""
    p = draw(st.sampled_from(PRIMES))
    e = draw(exponents)
    u = draw(st.integers(1, 10**6).filter(lambda k: k % p))
    k = draw(st.integers(1, 40))
    w = draw(st.integers(-10**3, 10**3))
    den = draw(st.integers(1, 10**4).filter(lambda d: d % p))
    scale = Fraction(p) ** e / den
    v = e + k + naive_valuation(w, p)[0] if w else None
    return p, u * scale, (-u + w * p**k) * scale, v


def assert_normalised(x: PadicRational) -> None:
    """Every term p-free and reduced, consecutive exponents more than the
    fold bound apart, the lowest term in the fields; zero alone has no
    terms."""
    if x.num == 0:
        assert (x.num, x.den, x.e, x.rest) == (0, 1, 0, ())
        assert x.terms() == ()
        return
    terms = x.terms()
    assert terms[0] == (x.num, x.den, x.e)
    for num, den, _ in terms:
        assert den > 0
        assert num % x.p and den % x.p
        assert gcd(num, den) == 1
    exps = [e for _, _, e in terms]
    assert all(b - a > fold_reach(x.p) for a, b in zip(exps, exps[1:]))


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
    p, xf, yf, v = case
    x, y = PadicRational.of(xf, p), PadicRational.of(yf, p)
    assert x.e == y.e
    total = x + y
    assert_same(total, xf + yf)
    if v is None:
        assert not total
    else:
        assert total.e == v
        assert total.e > x.e


@SETTINGS
@given(st.sampled_from(PRIMES).flatmap(naive_values))
def test_reads_match_fraction(ref):
    p, xf = ref.p, ref.value
    x = PadicRational.of(xf, p)
    assert hash(x) == hash(xf)
    if not xf:
        assert not x
        assert x.residue(p**3) == 0
        with pytest.raises(ZeroDivisionError):
            x.unit_residue(p)
        for n in LEVELS:
            with pytest.raises(ValueError):
                class_of(xf, n, p)
            with pytest.raises(ValueError):
                is_nth_power(xf, n, p)
        return
    assert x.e == ref.v
    for r in (1, 3):
        modulus = p**r
        assert x.unit_residue(modulus) == ref.unit_residue(modulus)
        if ref.v >= 0:
            expect = xf.numerator * pow(xf.denominator, -1, modulus) % modulus
            assert x.residue(modulus) == expect
        else:
            with pytest.raises(ValueError):
                x.residue(modulus)
    for n in LEVELS:
        assert class_of(x, n, p).representative == ref.class_rep(n)
        assert class_of(xf, n, p).representative == ref.class_rep(n)
        assert is_nth_power(x, n, p) == is_nth_power(xf, n, p) == ref.is_nth_power(n)


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
    ref = Naive(3, 50, 3, 0)
    assert PadicRational.of(x, 3).e == -1
    assert PadicRational.of(x, 3).unit_residue(9) == ref.unit_residue(9)
    assert class_of(x, 2, 3).representative == ref.class_rep(2)
    assert x == PadicRational.of(Fraction(50, 3), 3)
    with pytest.raises(ValueError):
        x * PadicRational.of(1, 3)


# --- sparse sums of several terms -------------------------------------

SPARSE_SETTINGS = settings(max_examples=40, deadline=None)


def term(p: int, c: Fraction, e: int) -> PadicRational:
    return PadicRational.of(c, p).shifted(e)


@st.composite
def sparse_values(draw, p):
    """A sum of 2-4 terms c * p**e, c small (zero and multiples of p
    included), each exponent a drawn anchor plus 0-3, so that ties and
    carries are common; returned with its Fraction value."""
    anchors = draw(st.lists(exponents, min_size=1, max_size=3))
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(-10**6, 10**6),
                st.integers(1, 10**4),
                st.sampled_from(anchors),
                st.integers(0, 3),
            ),
            min_size=2,
            max_size=4,
        )
    )
    x, xf = PadicRational.of(0, p), Fraction(0)
    for num, den, anchor, offset in terms:
        c = Fraction(num, den)
        x = x + term(p, c, anchor + offset)
        xf += c * Fraction(p) ** (anchor + offset)
    return x, xf


@st.composite
def sparse_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, draw(sparse_values(p)), draw(sparse_values(p))


@SPARSE_SETTINGS
@given(sparse_pairs())
def test_sparse_sums_match_fraction(case):
    p, (x, xf), (y, yf) = case
    assert_same(x, xf)
    assert_same(y, yf)
    assert_same(x + y, xf + yf)
    assert_same(x - y, xf - yf)
    assert_same(-x, -xf)
    assert_same(x + yf, xf + yf)
    assert_same(x - x, Fraction(0))
    assert_same(x.collapsed(), xf)
    assert not x.collapsed().rest


@SPARSE_SETTINGS
@given(sparse_pairs())
def test_products_and_quotients_by_sparse_values_match_fraction(case):
    p, (x, xf), (y, yf) = case
    assert_same(x * y, xf * yf)
    assert_same(yf * x, xf * yf)
    if not yf:
        with pytest.raises(ZeroDivisionError):
            x / y
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        return
    q = x / y
    assert_same(q, xf / yf)
    assert_same(y.inverse(), 1 / yf)
    assert_same(1 / y, 1 / yf)
    # a quotient is formed; sums and products with it stay exact
    assert_same(q * y, xf)
    assert q * y == x
    assert_same(q + y, xf / yf + yf)
    assert_same(q * x, xf * xf / yf)


@SPARSE_SETTINGS
@given(st.sampled_from(PRIMES).flatmap(sparse_values))
def test_sparse_reads_match_fraction(case):
    x, xf = case
    p = x.p
    ref = Naive.of_fraction(p, xf)
    assert hash(x) == hash(xf)
    assert x == xf and xf == x
    assert (x.numerator, x.denominator) == (xf.numerator, xf.denominator)
    assert type(_coerce_fraction(x)) is Fraction
    if not xf:
        assert not x
        assert x.residue(p**3) == 0
        with pytest.raises(ZeroDivisionError):
            x.unit_residue(p)
        return
    assert x.e == PadicRational.of(x, p).e == PadicRational.of(xf, p).e == ref.v
    for r in (1, 2, 5):
        modulus = p**r
        assert x.unit_residue(modulus) == ref.unit_residue(modulus)
        if ref.v >= 0:
            assert x.residue(modulus) == xf.numerator * pow(xf.denominator, -1, modulus) % modulus
        else:
            with pytest.raises(ValueError):
                x.residue(modulus)
    for n in LEVELS:
        assert class_of(x, n, p).representative == ref.class_rep(n)
        assert is_nth_power(x, n, p) == ref.is_nth_power(n)
    other = next(q for q in PRIMES if q != p)
    assert PadicRational.of(x, other).e == Naive.of_fraction(other, xf).v


@SPARSE_SETTINGS
@given(st.sampled_from(PRIMES).flatmap(sparse_values), st.data())
def test_sparse_forms_of_one_value_are_equal(case, data):
    x, xf = case
    p = x.p
    one_term = PadicRational.of(xf, p)
    assert not one_term.rest
    assert x == one_term and one_term == x
    assert hash(x) == hash(one_term) == hash(xf)
    # add and take away a term that ties with one of x's: another form
    e = data.draw(st.sampled_from([k for _, _, k in x.terms()] or [0]))
    t = term(p, Fraction(data.draw(st.integers(1, 10**6))), e)
    other = (x + t) - t
    assert_same(other, xf)
    assert other == x and other == one_term
    assert hash(other) == hash(x)
    bumped = x + term(p, Fraction(1), data.draw(exponents))
    assert bumped != x and x != bumped
    assert (bumped == one_term) == (bumped.to_fraction() == xf)


@st.composite
def small_sparse_values(draw, p):
    """A sum of 0-3 terms c * p**e with small c and e (so that a naive
    strip is cheap), zero and multiples of p included; returned with its
    Fraction value."""
    x, xf = PadicRational.of(0, p), Fraction(0)
    parts = st.tuples(st.integers(-50, 50), st.integers(1, 50), st.integers(-2, 8))
    for num, den, e in draw(st.lists(parts, max_size=3)):
        c = Fraction(num, den)
        x = x + term(p, c, e)
        xf += c * Fraction(p) ** e
    return x, xf


def naive_at_least(xf: Fraction, p: int, k: int) -> bool:
    """v_p(xf) >= k, stripping p one division at a time; zero meets every k."""
    if not xf:
        return True
    return naive_valuation(xf.numerator, p)[0] - naive_valuation(xf.denominator, p)[0] >= k


@SETTINGS
@given(
    st.sampled_from(PRIMES).flatmap(
        lambda p: st.lists(small_sparse_values(p), min_size=4, max_size=4)
    ),
    st.integers(0, 4),
)
def test_matrix_predicates_match_a_naive_strip(entries, k):
    # the diagonal is 1 + x, so congruence to the identity is common
    p = entries[0][0].p
    xs = [x + 1 if i in (0, 3) else x for i, (x, _) in enumerate(entries)]
    fs = [xf + 1 if i in (0, 3) else xf for i, (_, xf) in enumerate(entries)]
    diffs = (fs[0] - 1, fs[1], fs[2], fs[3] - 1)
    integral = all(naive_at_least(f, p, 0) for f in fs)
    congruent = all(naive_at_least(f, p, k) for f in diffs)
    sparse = PadicMatrix2.of(((xs[0], xs[1]), (xs[2], xs[3])), p)
    plain = PadicMatrix2.of(((fs[0], fs[1]), (fs[2], fs[3])), p)
    for g in (sparse, plain):
        assert g.is_integral() == integral
        assert g.congruent_to_identity(k) == congruent


@SETTINGS
@given(
    st.sampled_from(PRIMES),
    exponents,
    st.integers(1, 6),
    st.randoms(use_true_random=False),
)
def test_cascading_ties_carry_upward(p, k, length, rng):
    # (p-1)·p^k + (p-1)·p^(k+1) + ... + (p-1)·p^(k+L-1) + 1·p^k = p^(k+L),
    # summed in any order; each merge strips p and carries into the next
    parts = [term(p, Fraction(p - 1), k + i) for i in range(length)] + [term(p, Fraction(1), k)]
    rng.shuffle(parts)
    total = PadicRational.of(0, p)
    for part in parts:
        total = total + part
    assert_same(total, Fraction(p) ** (k + length))
    assert total.terms() == ((1, 1, k + length),)
    # one sum of two sparse values carries the same way
    half = len(parts) // 2
    left, right = sum(parts[:half], PadicRational.of(0, p)), sum(parts[half:], PadicRational.of(0, p))
    assert (left + right).terms() == ((1, 1, k + length),)
    # a carry that lands on a term above it keeps going, or cancels it
    top = k + length
    assert (total + term(p, Fraction(p - 1), top)).terms() == ((1, 1, top + 1),)
    assert not total + term(p, Fraction(-1), top)
    rest = term(p, Fraction(p + 1), top + 2)
    assert (left + rest + right + term(p, Fraction(-1), top)).terms() == ((p + 1, 1, top + 2),)


def test_one_term_and_sparse_forms_of_six_are_equal():
    five, six = PadicRational.of(5, 5), PadicRational.of(6, 5)
    # 1 + 5 folds into one term, so the sparse form 1 + 1*5 is built by hand
    assert (PadicRational.of(1, 5) + five).terms() == ((6, 1, 0),)
    sparse = _padic(1, 1, 0, 5, ((1, 1, 1),))
    assert six.terms() == ((6, 1, 0),)
    assert sparse == six and six == sparse and sparse == 6 and sparse == Fraction(6)
    assert hash(sparse) == hash(six) == hash(6)
    assert sparse != PadicRational.of(1, 5) + 2 * five
    assert sparse.residue(25) == six.residue(25) == 6
    assert sparse.unit_residue(5) == 1
    assert not sparse - six


# --- one-term sums, products and matrices ------------------------------


@st.composite
def coefficients(draw, p):
    """A p-free coefficient: small (most often), above `_SPARSE_BITS`
    bits, or zero."""
    def p_free(k: int) -> bool:
        return k % p != 0

    small = st.integers(-10**6, 10**6).filter(lambda k: k and p_free(k))
    num = draw(st.one_of(st.just(0), small, small, st.integers(2**260, 2**300).filter(p_free)))
    return Fraction(num, draw(st.integers(1, 10**4).filter(p_free)))


def fold_gaps(p: int) -> list[int]:
    """Exponent gaps on both sides of the fold bound, and ladder-scale ones."""
    reach = fold_reach(p)
    return [0, 1, 2, reach - 1, reach, reach + 1, reach + 2, 96, 784]


@st.composite
def one_term_values(draw, p, anchor):
    """c * p**(anchor + gap) for a drawn coefficient and fold gap."""
    return draw(coefficients(p)) * Fraction(p) ** (anchor + draw(st.sampled_from(fold_gaps(p))))


@st.composite
def one_term_pairs(draw):
    """x and y one fold gap apart (either way round), or y = -x."""
    p = draw(st.sampled_from(PRIMES))
    e = draw(st.integers(-40, 40))
    gap = draw(st.sampled_from(fold_gaps(p))) * draw(st.sampled_from([1, -1]))
    xf = draw(coefficients(p)) * Fraction(p) ** e
    if draw(st.integers(0, 5)) == 0:
        return p, xf, -xf
    return p, xf, draw(coefficients(p)) * Fraction(p) ** (e + gap)


@settings(max_examples=200, deadline=None)
@given(one_term_pairs())
def test_one_term_arithmetic_matches_fraction(case):
    p, xf, yf = case
    x, y = PadicRational.of(xf, p), PadicRational.of(yf, p)
    assert not x.rest and not y.rest
    for got, want in ((x + y, xf + yf), (x - y, xf - yf), (y - x, yf - xf), (x * y, xf * yf)):
        assert_same(got, want)
        assert hash(got) == hash(want)
        # the int fast path of == against the int read off the Fraction
        if want.denominator == 1:
            k = want.numerator
            assert got == k and got != k + 1 and got != k - 1 and (not k or got != k * p)
        else:
            assert got != int(want) and got != want.numerator
    assert (x == y) == (xf == yf)
    total = x + y
    if xf and yf and total:
        gap = abs(x.e - y.e)
        small = max(abs(x.num), x.den, abs(y.num), y.den).bit_length() <= 256
        # one term unless a ladder-scale gap separates two small terms
        assert len(total.terms()) == (2 if gap > fold_reach(p) and small else 1)


@st.composite
def matrix_entries(draw, p, anchor):
    """A one-term value, or (one time in four) a two-term sparse value
    whose terms sit a ladder-scale gap apart."""
    xf = draw(one_term_values(p, anchor))
    if draw(st.integers(0, 3)):
        return PadicRational.of(xf, p), xf
    high = Fraction(draw(st.integers(1, 10**3)), draw(st.integers(1, 10**3)))
    shift = Fraction(p) ** (anchor + 1000)
    return PadicRational.of(xf, p) + PadicRational.of(high * shift, p), xf + high * shift


@st.composite
def matrix_pairs(draw):
    p = draw(st.sampled_from(PRIMES))
    anchor = draw(st.integers(-30, 30))
    entries = draw(st.lists(matrix_entries(p, anchor), min_size=8, max_size=8))
    return p, entries


@settings(max_examples=120, deadline=None)
@given(matrix_pairs())
def test_matrix_det_and_product_match_fraction_and_the_generic_path(case):
    p, entries = case
    xs = [x for x, _ in entries]
    fs = [xf for _, xf in entries]
    g = PadicMatrix2.of(((xs[0], xs[1]), (xs[2], xs[3])), p)
    h = PadicMatrix2.of(((xs[4], xs[5]), (xs[6], xs[7])), p)
    a, b, c, d, e, f, k, m = fs
    assert_same(g.det(), a * d - b * c)
    assert g.det().terms() == (g.a * g.d - g.b * g.c).terms()
    want = (a * e + b * k, a * f + b * m, c * e + d * k, c * f + d * m)
    generic = mat_mul(g.rows(), h.rows())
    for got, exact, slow in zip((g @ h).entries(), want, (*generic[0], *generic[1])):
        assert_same(got, exact)
        assert got.terms() == slow.terms()


@pytest.mark.parametrize("p", PRIMES)
def test_ladder_witnesses_above_the_first_rung_keep_two_terms(p):
    base = Fraction(1, 3)
    for ladder in (DEFAULT_LADDER, DEFAULT_LADDER.doubled_gap()):
        for n in (1, 2, 3):
            for c in build_group(p, n).elements:
                t = TruncType1.near(base, c)
                for rung in range(1, len(ladder.rungs)):
                    witness = realize(t, rung, ladder)
                    low, high = witness.terms()
                    assert low == PadicRational.of(base, p).terms()[0]
                    assert high[2] >= ladder.rungs[rung]
                    assert (witness - base).terms() == (high,)


# --- one-term values against sparse ones -------------------------------


@st.composite
def sparse_and_coefficients(draw):
    """A normal-form sparse value of 2-4 terms a ladder-scale gap apart
    (now and then with a coefficient above `_SPARSE_BITS`), its terms'
    coefficients and exponents, and three more nonzero coefficients."""
    p = draw(st.sampled_from(PRIMES))
    reach = fold_reach(p)
    small = st.integers(-10**6, 10**6).filter(lambda k: k % p)
    big = st.integers(2**260, 2**300).filter(lambda k: k % p)
    den = st.integers(1, 10**4).filter(lambda k: k % p)
    nonzero = st.builds(Fraction, st.one_of(small, small, small, small, small, big), den)
    exps = [draw(st.integers(-60, 60))]
    for _ in range(draw(st.integers(1, 3))):
        exps.append(exps[-1] + draw(st.sampled_from([reach + 1, reach + 2, 2 * reach + 3, 96, 784])))
    coeffs = [draw(nonzero) for _ in exps]
    terms = tuple((c.numerator, c.denominator, e) for c, e in zip(coeffs, exps))
    return p, _padic(*terms[0], p, terms[1:]), coeffs, exps, [draw(nonzero) for _ in range(3)]


def placed_terms(p: int, coeffs, exps, extra) -> list[tuple[Fraction, int]]:
    """(c, e) for a one-term value c * p**e that cancels each term, merges
    into it p-free or with a numerator p divides (the `_normal_form`
    path), sits 1, 2, reach - 1 or reach digits above or below it (inside
    its fold gap), or sits a full fold gap from every term."""
    reach = fold_reach(p)
    out = []
    for c, e in zip(coeffs, exps):
        carry = Fraction(p * extra[1].numerator - c.numerator, c.denominator)
        out += [(-c, e), (extra[0], e), (carry, e)]
        out += [(extra[2], e + g * s) for g in (1, 2, reach - 1, reach) for s in (1, -1)]
    apart = [f + s * (reach + 1) for f in exps for s in (1, -1)]
    apart += [(f + g) // 2 for f, g in zip(exps, exps[1:])]
    out += [(extra[0], a) for a in apart if all(abs(a - f) > reach for f in exps)]
    return out


@settings(max_examples=60, deadline=None)
@given(sparse_and_coefficients())
def test_one_term_and_sparse_arithmetic_match_fraction_and_the_normal_form(case):
    p, x, coeffs, exps, extra = case
    xf = sum(c * Fraction(p) ** e for c, e in zip(coeffs, exps))
    assert_same(x, xf)
    for c, e in placed_terms(p, coeffs, exps, extra):
        t, tf = PadicRational.of(c, p).shifted(e), c * Fraction(p) ** e
        assert not t.rest and t
        sparse = x._sparse() and t._sparse()
        for got, want, terms in (
            (x + t, xf + tf, x.terms() + t.terms()),
            (t + x, xf + tf, x.terms() + t.terms()),
            (x - t, xf - tf, x.terms() + (-t).terms()),
            (t - x, tf - xf, t.terms() + (-x).terms()),
        ):
            assert_same(got, want)
            if sparse:  # the terms the heap normal form gives
                assert got.terms() == _normal_form(terms, p).terms()
        products = [
            (*_mul_reduced(n1, d1, n2, d2), e1 + e2)
            for n1, d1, e1 in x.terms()
            for n2, d2, e2 in t.terms()
        ]
        for got in (x * t, t * x):
            assert_same(got, xf * tf)
            if sparse:
                assert got.terms() == _normal_form(products, p).terms()
        assert (x == x + t) is False and (x + t) - t == x
    twin = _padic(x.num, x.den, x.e, p, tuple(x.rest))
    assert twin is not x and twin == x and x == twin and hash(twin) == hash(x)
    den = next(d for d in range(x.den + 1, x.den + 10**3) if d % p and gcd(x.num, d) == 1)
    assert x != _padic(x.num, den, x.e, p, x.rest) != x


@dataclass(frozen=True)
class FrozenMatrix:
    """The frozen dataclass layout `PadicMatrix2` had: equality and hash
    by the tuple of its fields."""

    a: PadicRational
    b: PadicRational
    c: PadicRational
    d: PadicRational
    prime: int


@SETTINGS
@given(
    st.lists(
        st.tuples(st.sampled_from([5, 7]), *[st.integers(-1, 1)] * 3), min_size=1, max_size=12
    )
)
def test_matrix_equality_and_hash_match_the_dataclass_as_keys(draws):
    # entries and primes drawn from a few values, so equal matrices built
    # apart, and equal entries under two primes, are common
    def entry(k: int, p: int) -> PadicRational:
        return PadicRational.of(Fraction(k, 3), p)

    mats, twins = [], []
    for p, k, m, s in draws:
        entries = (entry(k, p), entry(m, p), entry(s, p), entry(k + m, p))
        mats.append(PadicMatrix2(*entries, p))
        twins.append(FrozenMatrix(*entries, p))
    for g, f in zip(mats, twins):
        assert hash(g) == hash(f)
        for h, e in zip(mats, twins):
            assert (g == h) == (f == e) and (g != h) == (f != e)
    assert g != f and g != None and not g == (g.a, g.b, g.c, g.d, g.prime)  # noqa: E711
    keys = {}
    for i, (g, f) in enumerate(zip(mats, twins)):
        keys.setdefault(g, i)
        keys.setdefault(f, i)
    assert [keys[g] for g in mats] == [keys[f] for f in twins]

    @lru_cache(maxsize=None)
    def cached(g):
        return g

    @lru_cache(maxsize=None)
    def cached_twin(f):
        return f

    for g, f in zip(mats, twins):
        assert cached(g) == g and cached_twin(f) == f
    assert cached.cache_info() == cached_twin.cache_info()
