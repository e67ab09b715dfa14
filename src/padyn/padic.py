"""Exact p-adic valuations on rationals and unimodular 2x2 matrices.

Two exact representations of a rational live here, one for reading and
one for storing.  `PadicRational` keeps a value for one fixed prime p as
an exact sparse sum of terms (n_i/d_i) * p**e_i: each coefficient a
p-free reduced fraction, the exponents strictly increasing.  A one-term
value u * p**e is the common case; `PadicRational.of` and
`PadicRational.ratio` build one and are the places that strip p from a
rational.  Terms a few digits apart (p**gap fits in 64 bits) collapse
into one term at the lower exponent, and terms at equal exponents merge
and have p stripped from the small merged coefficient, so a nonzero
value's valuation is always its lowest exponent e.  Only terms a
ladder-scale gap apart stay separate.  The unit residue and the residue
modulo p**k read only the terms within k digits of the bottom.
A ladder witness base + rep * p**E, whose E runs to tens of thousands,
is two small terms: it is built and classified without an integer of
that many digits, and without stripping the digits a subtraction of
its base cancels.  Division by a multi-term value, `numerator`,
`denominator` and `to_fraction` collapse a value to its one-term form.
A `PadicMatrix2`'s entries are `PadicRational`s of its prime; values
with no prime (type bases, projective points, parsed input) are
`fractions.Fraction`s, and `_coerce_fraction` turns a `PadicRational`
into the equal `Fraction`.

`PadicRational.of(x, p).e` is the one valuation read.  Valuations are
Python integers; zero has none and reads as e = 0, so a caller that
may meet zero tests the value's truth first.  No floating point is used
anywhere in this module.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from bisect import bisect_left
from heapq import heapify, heappop, heappush
from math import gcd
from operator import itemgetter
from typing import Union


RationalLike = Union[int, Fraction, "PadicRational"]


@lru_cache(maxsize=256)
def _p_power(p: int, k: int) -> int:
    """p**k for k >= 0: `int_valuation`'s rungs, and the few huge
    exponents that collapsing a witness reuses."""
    return p**k


@lru_cache(maxsize=None)
def _near_powers(p: int) -> tuple[int, ...]:
    """p**k for every k with p**k below 2**64: a term that many digits
    above another is folded into its coefficient (see `_sum`)."""
    out = [1]
    while out[-1] * p < 1 << 64:
        out.append(out[-1] * p)
    return tuple(out)


def int_valuation(num: int, p: int) -> tuple[int, int]:
    """Return (v, u) with num = u * p**v and p not dividing u.

    Strips p in O(log v) big divisions rather than v of them.  The climb
    strips p, p**2, p**4, ... while each divides, so what is left has a
    valuation below the first rung that failed; the descent then strips
    each lower rung at most once.  Every call builds its own ladder,
    from the `_p_power` cache, only as far as its input needs.
    """
    if num == 0:
        raise ValueError("valuation of zero is infinite; handle separately")
    if num % p:
        return 0, num
    num //= p
    if num % p:
        return 1, num
    v, k = 1, 0
    while True:
        q, r = divmod(num, _p_power(p, 1 << k))
        if r:
            break
        num, v, k = q, v + (1 << k), k + 1
    while k:
        k -= 1
        q, r = divmod(num, _p_power(p, 1 << k))
        if not r:
            num, v = q, v + (1 << k)
    return v, num


if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+
    _coprime_fraction = Fraction._from_coprime_ints
else:

    def _coprime_fraction(num: int, den: int) -> Fraction:
        return Fraction(num, den, _normalize=False)


def _add_reduced(na: int, da: int, nb: int, db: int) -> tuple[int, int]:
    """na/da + nb/db for reduced fractions, as a reduced (num, den).

    Every gcd has a denominator as one operand, so it stays cheap when
    the numerators are huge but the denominators small.
    """
    g = gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)


def _mul_reduced(n1: int, d1: int, n2: int, d2: int) -> tuple[int, int]:
    """(n1/d1) * (n2/d2) for reduced fractions, as a reduced (num, den)."""
    g1 = gcd(n1, d2)
    if g1 > 1:
        n1, d2 = n1 // g1, d2 // g1
    g2 = gcd(n2, d1)
    if g2 > 1:
        n2, d1 = n2 // g2, d1 // g2
    return n1 * n2, d1 * d2


def _strip(num: int, den: int, p: int) -> tuple[int, int, int]:
    """(num', den', e) with num/den = num'/den' * p**e and p dividing
    neither; num nonzero."""
    e = 0
    if num % p == 0:
        e, num = int_valuation(num, p)
    if den % p == 0:
        vd, den = int_valuation(den, p)
        e -= vd
    return num, den, e


# A coefficient of more than this many bits holds a formed value: a
# collapsed sum, or a quotient by one.  Sums and products that touch one
# run in one-term form: distributed, its terms would cancel in later
# merges only after p had been stripped from the thousands of digits
# they share.
_SPARSE_BITS = 256
_SPARSE_BOUND = 1 << _SPARSE_BITS


class PadicRational:
    """An exact sparse sum of terms (num/den) * p**e for one fixed prime p.

    The lowest term is held in the fields (num, den, e) and the higher
    terms, as (num, den, e) triples, in `rest`, which is () for a
    one-term value u * p**e.  Every coefficient is p-free and reduced
    with den > 0, and the exponents strictly increase, so a nonzero value
    has valuation e exactly; zero is the one value with num == 0, stored
    as (0, 1, 0) with no rest.  Values are never mutated after
    construction.

    Sums fold a term a few digits above another (p**gap fits in 64 bits)
    into the lower coefficient, merge terms at equal exponents and strip
    p from the merged coefficient, so consecutive terms always sit a
    ladder-scale gap apart.  Products distribute over the terms.  An
    operand with a coefficient of more than `_SPARSE_BITS` bits is
    collapsed first, and the sum or product is formed in one-term form.
    Division by a multi-term value, `numerator`, `denominator` and
    `to_fraction` collapse a value to its one-term form u * p**e, which
    is unique.  A rational may also have sparse forms (1 + 5**100 and
    its one-term form at p = 5), so a multi-term value equals another
    exactly when their difference has no terms.  Equality and hashing
    agree with `Fraction` and `int` on equal values.
    """

    __slots__ = ("num", "den", "e", "p", "rest")

    num: int
    den: int
    e: int
    p: int
    rest: tuple[tuple[int, int, int], ...]

    @classmethod
    def of(cls, x: RationalLike, p: int) -> "PadicRational":
        """The value of an int, Fraction or PadicRational, normalised for p."""
        if type(x) is cls:
            if x.p == p:
                return x
            x = x.to_fraction()
        if p < 2:
            raise ValueError(f"p-adic normalisation needs a prime, got {p}")
        if isinstance(x, Fraction):
            num, den = x.as_integer_ratio()
        elif isinstance(x, int):
            num, den = x, 1
        else:
            raise TypeError(f"expected a rational value, got {type(x).__name__}")
        if num == 0:
            return _padic(0, 1, 0, p)
        if num % p and den % p:
            return _padic(num, den, 0, p)
        return _padic(*_strip(num, den, p), p)

    @classmethod
    def ratio(cls, num: int, den: int, p: int, e: int = 0) -> "PadicRational":
        """num/den * p**e for ints with den nonzero, in lowest terms."""
        if not num:
            return _padic(0, 1, 0, p)
        g = gcd(num, den)
        if den < 0:
            g = -g
        num, den, v = _strip(num // g, den // g, p)
        return _padic(num, den, e + v, p)

    def _sparse(self) -> bool:
        """No coefficient is a formed value (see `_SPARSE_BITS`)."""
        if not (-_SPARSE_BOUND < self.num < _SPARSE_BOUND and self.den < _SPARSE_BOUND):
            return False
        for n, d, _ in self.rest:
            if not (-_SPARSE_BOUND < n < _SPARSE_BOUND and d < _SPARSE_BOUND):
                return False
        return True

    def terms(self) -> tuple[tuple[int, int, int], ...]:
        """The (num, den, e) terms, lowest exponent first; () for zero."""
        return ((self.num, self.den, self.e), *self.rest) if self.num else ()

    # --- exact reads --------------------------------------------------

    def unit_residue(self, modulus: int) -> int:
        """value * p**-e mod `modulus` (a power of p); nonzero values only.
        Only the terms with exponent below e + log_p(modulus) contribute."""
        if not self.num:
            raise ZeroDivisionError("zero has no unit residue")
        r = self.num % modulus * pow(self.den, -1, modulus)
        if self.rest:
            r += _tail_residue(self.rest, self.p, -self.e, modulus)
        return r % modulus

    def residue(self, modulus: int) -> int:
        """The value mod `modulus` (a power of p); p-integral values only.
        Only the terms with exponent below log_p(modulus) contribute."""
        if self.e < 0:
            raise ValueError("only p-integral values have a residue")
        r = self.num * pow(self.p, self.e, modulus) * pow(self.den, -1, modulus)
        if self.rest:
            r += _tail_residue(self.rest, self.p, 0, modulus)
        return r % modulus

    def collapsed(self) -> "PadicRational":
        """The equal one-term value: the terms summed over a common
        denominator, each shifted by one cached power of p.  The sum
        stays p-free, since every term but the lowest is divisible by p."""
        if not self.rest:
            return self
        p, e = self.p, self.e
        num, den = self.num, self.den
        for n, d, k in self.rest:
            num, den = _add_reduced(num, den, n * _p_power(p, k - e), d)
        return _padic(num, den, e, p)

    @property
    def numerator(self) -> int:
        x = self.collapsed()
        return x.num * _p_power(x.p, x.e) if x.e > 0 else x.num

    @property
    def denominator(self) -> int:
        x = self.collapsed()
        return x.den * _p_power(x.p, -x.e) if x.e < 0 else x.den

    def to_fraction(self) -> Fraction:
        """The equal Fraction: the one-term form times p**|e|, no gcd."""
        x = self.collapsed()
        return _coprime_fraction(x.numerator, x.denominator)

    def shifted(self, k: int) -> "PadicRational":
        """self * p**k."""
        if not self.num:
            return self
        rest = tuple((n, d, e + k) for n, d, e in self.rest) if self.rest else ()
        return _padic(self.num, self.den, self.e + k, self.p, rest)

    # --- field operations ---------------------------------------------

    def _coerce(self, other) -> "PadicRational":
        if type(other) is PadicRational:
            if other.p != self.p:
                raise ValueError("mixed primes in p-adic arithmetic")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicRational.of(other, self.p)
        return NotImplemented

    def __add__(self, other) -> "PadicRational":
        if type(other) is not PadicRational or other.p != self.p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not (self.rest or other.rest):
            return _sum(self.num, self.den, self.e, other.num, other.den, other.e, self.p)
        if not other.num:
            return self
        if not self.num:
            return other
        if self._sparse() and other._sparse():
            if not other.rest:
                return _plus_term(self, other.num, other.den, other.e)
            if not self.rest:
                return _plus_term(other, self.num, self.den, self.e)
            return _normal_form(self.terms() + other.terms(), self.p)
        x, y = self.collapsed(), other.collapsed()
        return _sum(x.num, x.den, x.e, y.num, y.den, y.e, self.p)

    __radd__ = __add__

    def __neg__(self) -> "PadicRational":
        rest = tuple((-n, d, e) for n, d, e in self.rest) if self.rest else ()
        return _padic(-self.num, self.den, self.e, self.p, rest)

    def __sub__(self, other) -> "PadicRational":
        if type(other) is not PadicRational or other.p != self.p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not (self.rest or other.rest):
            return _sum(self.num, self.den, self.e, -other.num, other.den, other.e, self.p)
        if not other.rest and other.num and self._sparse() and other._sparse():
            return _plus_term(self, -other.num, other.den, other.e)
        return self + -other

    def __rsub__(self, other) -> "PadicRational":
        return -self + other

    def __mul__(self, other) -> "PadicRational":
        if type(other) is not PadicRational or other.p != self.p:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p = self.p
        if not self.num or not other.num:
            return _padic(0, 1, 0, p)
        if not (self.rest or other.rest):
            num, den = _mul_reduced(self.num, self.den, other.num, other.den)
            return _padic(num, den, self.e + other.e, p)
        if not (self._sparse() and other._sparse()):
            return self.collapsed() * other.collapsed()
        if not (self.rest and other.rest):  # scale the sparse side term by term
            x, y = (other, self) if self.rest else (self, other)
            rest = tuple((*_mul_reduced(x.num, x.den, n, d), x.e + e) for n, d, e in y.rest)
            return _padic(*_mul_reduced(x.num, x.den, y.num, y.den), x.e + y.e, p, rest)
        return _normal_form(
            [
                (*_mul_reduced(n1, d1, n2, d2), e1 + e2)
                for n1, d1, e1 in self.terms()
                for n2, d2, e2 in other.terms()
            ],
            p,
        )

    __rmul__ = __mul__

    def inverse(self) -> "PadicRational":
        """1 / self, in one-term form."""
        x = self.collapsed()
        if not x.num:
            raise ZeroDivisionError("zero has no inverse")
        if x.num < 0:
            return _padic(-x.den, -x.num, -x.e, x.p)
        return _padic(x.den, x.num, -x.e, x.p)

    def __truediv__(self, other) -> "PadicRational":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.rest:  # the quotient is formed: both sides collapse
            return self.collapsed() * other.inverse()
        return self * other.inverse()

    def __rtruediv__(self, other) -> "PadicRational":
        return self.inverse() * other

    # --- comparison ---------------------------------------------------

    def __bool__(self) -> bool:
        return self.num != 0

    def __eq__(self, other) -> bool:
        if type(other) is int and not self.rest:
            # a one-term u * p**e equal to a nonzero int has den == 1 and
            # 2**e <= p**e <= |other| < 2**bit_length
            if not other or not self.num:
                return not other and not self.num
            e = self.e
            if self.den != 1 or e < 0 or e >= other.bit_length():
                return False
            return self.num * _p_power(self.p, e) == other if e else self.num == other
        if type(other) is PadicRational:
            if other.p != self.p:
                return self.to_fraction() == other.to_fraction()
        elif isinstance(other, (int, Fraction)):
            other = PadicRational.of(other, self.p)
        else:
            return NotImplemented
        if self.e != other.e:  # nonzero normal forms have valuation e
            return False
        if self.rest or other.rest:
            if self.rest == other.rest and self.num == other.num and self.den == other.den:
                return True
            if self._sparse() and other._sparse():
                return not self - other
            # the one-term form is unique, and collapsing strips nothing
            self, other = self.collapsed(), other.collapsed()
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        """hash(Fraction(self)), from residues mod the hash modulus of
        the one-term form."""
        x = self.collapsed()
        if not x.num:
            return 0
        top, bottom = abs(x.num) % _HASH_MODULUS, x.den
        if x.e >= 0:
            top = top * pow(x.p, x.e, _HASH_MODULUS) % _HASH_MODULUS
        else:
            bottom = bottom * pow(x.p, -x.e, _HASH_MODULUS)
        try:
            value = top * pow(bottom, -1, _HASH_MODULUS) % _HASH_MODULUS
        except ValueError:  # the modulus divides the denominator
            value = sys.hash_info.inf
        value = value if x.num > 0 else -value
        return -2 if value == -1 else value

    def __repr__(self) -> str:
        body = " + ".join(f"{n}/{d} * {self.p}**{e}" for n, d, e in self.terms()) or "0"
        return f"PadicRational({body})"


_HASH_MODULUS = sys.hash_info.modulus


def _padic(num: int, den: int, e: int, p: int, rest: tuple = ()) -> PadicRational:
    """A PadicRational from fields that already meet its invariants."""
    x = object.__new__(PadicRational)
    x.num = num  # one store per field: faster than a tuple assignment
    x.den = den
    x.e = e
    x.p = p
    x.rest = rest
    return x


def _sum(n1: int, d1: int, e1: int, n2: int, d2: int, e2: int, p: int) -> PadicRational:
    """n1/d1 * p**e1 + n2/d2 * p**e2 for one-term coefficients: p-free and
    reduced, den > 0, and zero only as (0, 1, 0).

    At equal exponents the merged numerator has p stripped.  A term a
    gap above the other with p**gap below 2**64 (`_near_powers`) folds
    into the lower coefficient, which stays p-free, so the sum is one
    term; only a ladder-scale gap keeps two."""
    if not n2:
        return _padic(n1, d1, e1, p)
    if not n1:
        return _padic(n2, d2, e2, p)
    if e1 > e2:
        n1, d1, e1, n2, d2, e2 = n2, d2, e2, n1, d1, e1
    gap = e2 - e1
    if not gap:
        num, den = _add_reduced(n1, d1, n2, d2)
        if not num:
            return _padic(0, 1, 0, p)
        if num % p == 0:
            v, num = int_valuation(num, p)
            e1 += v
        return _padic(num, den, e1, p)
    if gap < 64:  # p**64 >= 2**64 for every p
        near = _near_powers(p)
        if gap < len(near):
            return _padic(*_add_reduced(n1, d1, n2 * near[gap], d2), e1, p)
    two = _padic(n1, d1, e1, p, ((n2, d2, e2),))
    return two if two._sparse() else two.collapsed()


def _normal_form(terms, p: int) -> PadicRational:
    """The sparse sum of (num, den, e) terms with reduced coefficients and
    p-free den > 0, in normal form.

    Exponents are taken lowest first.  Every term a gap above the one
    taken with p**gap below 2**64 (`_near_powers`) folds into its
    coefficient (terms at equal exponents merge); a merged numerator
    that p divides is stripped, and the term moves up by its valuation,
    where it may fold again.  So each term is final when it is taken
    with a p-free numerator, and only ladder-scale gaps separate the
    terms kept.
    """
    heap = [(e, num, den) for num, den, e in terms]
    heapify(heap)
    near = _near_powers(p)
    reach = len(near) - 1
    out = []
    while heap:
        e, num, den = heappop(heap)
        while heap and heap[0][0] - e <= reach:
            k, n, d = heappop(heap)
            num, den = _add_reduced(num, den, n * near[k - e], d)
        if not num:
            continue
        if num % p == 0:
            v, num = int_valuation(num, p)
            heappush(heap, (e + v, num, den))
            continue
        out.append((num, den, e))
    _require(
        all(num % p and den % p for num, den, _ in out),
        "sparse sum: a coefficient is not p-free",
    )
    _require(
        all(b[2] - a[2] > reach for a, b in zip(out, out[1:])),
        "sparse sum: two terms are within the fold gap",
    )
    if not out:
        return _padic(0, 1, 0, p)
    (num, den, e), *rest = out
    return _padic(num, den, e, p, tuple(rest))


def _plus_term(x: PadicRational, num: int, den: int, e: int) -> PadicRational:
    """x + num/den * p**e for a sparse multi-term x and a nonzero sparse
    term.  The term cancels or merges p-free into x's term at e, or is
    kept a full fold gap from every term of x, with no `_normal_form`;
    anything else goes through it."""
    terms, p = ((x.num, x.den, x.e), *x.rest), x.p
    reach = len(_near_powers(p)) - 1
    i = bisect_left(terms, e, key=itemgetter(2))
    if i < len(terms) and terms[i][2] == e:
        n, d = _add_reduced(terms[i][0], terms[i][1], num, den)
        if not n or n % p:
            out = terms[:i] + ((n, d, e),) * bool(n) + terms[i + 1 :]
            return _padic(*out[0], p, out[1:]) if out else _padic(0, 1, 0, p)
    elif (i == len(terms) or terms[i][2] - e > reach) and (not i or e - terms[i - 1][2] > reach):
        out = (*terms[:i], (num, den, e), *terms[i:])
        return _padic(*out[0], p, out[1:])
    return _normal_form((*terms, (num, den, e)), p)


def _dot(
    x: PadicRational, y: PadicRational, z: PadicRational, w: PadicRational, p: int, sign: int = 1
) -> PadicRational:
    """x*y + sign * z*w for one-term values of prime p, formed from int
    triples; a zero product is the triple (0, 1, 0)."""
    n1, d1, e1 = 0, 1, 0
    if x.num and y.num:  # products of integer entries need no gcd
        n1, d1 = (
            (x.num * y.num, 1) if x.den == 1 == y.den else _mul_reduced(x.num, x.den, y.num, y.den)
        )
        e1 = x.e + y.e
    if not (z.num and w.num):  # x*y alone, as `_sum` would return it
        return _padic(n1, d1, e1, p)
    n2, d2 = (z.num * w.num, 1) if z.den == 1 == w.den else _mul_reduced(z.num, z.den, w.num, w.den)
    return _sum(n1, d1, e1, sign * n2, d2, z.e + w.e, p)


def _tail_residue(terms, p: int, shift: int, modulus: int) -> int:
    """The sum of num/den * p**(e + shift) mod `modulus` (a power of p)
    over increasing-exponent terms with e + shift > 0, stopping at the
    first whose power of p the modulus divides."""
    r = 0
    for num, den, e in terms:
        power = pow(p, e + shift, modulus)
        if not power:
            break
        r += num * power * pow(den, -1, modulus)
    return r


def _require(condition: bool, message: str) -> None:
    """Raise ArithmeticError unless an exact invariant holds; unlike an
    assert, it still runs under `python -O`."""
    if not condition:
        raise ArithmeticError(message)


def _coerce_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if type(x) is PadicRational:
        return x.to_fraction()
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational value, got {type(x).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse 'num' or 'num/den' decimal strings into an exact rational."""
    body = text.strip()
    if "/" in body:
        num_s, den_s = body.split("/", 1)
        return Fraction(int(num_s), int(den_s))
    return Fraction(int(body))


def mat_mul(left, right) -> tuple:
    """Generic product of row-major 2x2 tuples over any exact field type."""
    (a, b), (c, d) = left
    (e, f), (g, h) = right
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


class SingularMatrixError(ValueError):
    """Raised when a matrix that must be invertible has determinant zero."""


class PadicMatrix2:
    """Exact 2x2 matrix over Q_p with p-adic helper predicates.

    Every entry is a `PadicRational` of the matrix's prime: `of`
    normalises the rows it is given, and `@`, `det` and `inverse` keep
    that form.  `@` and `det` form each entry of one-term operands from
    int triples, and fall back to the generic `mat_mul` otherwise.
    Ladder witnesses (`borel.witness` gives an element of the triangular
    group B as one) and everything `sl2.borel_past_integral` returns are
    such matrices; their products keep the huge and the small scales as
    separate sparse terms.  Matrices are never mutated after construction,
    and compare and hash by their entries and prime.
    """

    __slots__ = ("a", "b", "c", "d", "prime")

    def __init__(self, a, b, c, d, prime: int) -> None:
        self.a, self.b, self.c, self.d, self.prime = a, b, c, d, prime

    def __eq__(self, other) -> bool:
        if type(other) is not PadicMatrix2:
            return NotImplemented
        return self.prime == other.prime and self.entries() == other.entries()

    def __hash__(self) -> int:
        return hash((*self.entries(), self.prime))

    @classmethod
    def of(cls, rows, p: int) -> "PadicMatrix2":
        """The matrix of int, Fraction or PadicRational rows, each entry
        normalised for p."""
        (a, b), (c, d) = rows
        of = PadicRational.of
        return cls(of(a, p), of(b, p), of(c, p), of(d, p), p)

    @staticmethod
    @lru_cache(maxsize=None)
    def identity(p: int) -> "PadicMatrix2":
        return PadicMatrix2.of(((1, 0), (0, 1)), p)

    def to_json(self) -> list[list[str]]:
        return [[str(x.to_fraction()) for x in row] for row in self.rows()]

    def rows(self) -> tuple[tuple[PadicRational, ...], ...]:
        return ((self.a, self.b), (self.c, self.d))

    def det(self) -> PadicRational:
        a, b, c, d = self.a, self.b, self.c, self.d
        if a.rest or b.rest or c.rest or d.rest:
            return a * d - b * c
        return _dot(a, d, b, c, self.prime, -1)

    def __matmul__(self, other: "PadicMatrix2") -> "PadicMatrix2":
        p = self.prime
        if p != other.prime:
            raise ValueError("mixed primes in matrix arithmetic")
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        if a.rest or b.rest or c.rest or d.rest or e.rest or f.rest or g.rest or h.rest:
            (a, b), (c, d) = mat_mul(self.rows(), other.rows())
            return PadicMatrix2(a, b, c, d, p)
        return PadicMatrix2(
            _dot(a, e, b, g, p), _dot(a, f, b, h, p), _dot(c, e, d, g, p), _dot(c, f, d, h, p), p
        )

    def inverse(self) -> "PadicMatrix2":
        det = self.det()
        if not det:
            raise SingularMatrixError("matrix has determinant zero")
        return PadicMatrix2(self.d / det, -self.b / det, -self.c / det, self.a / det, self.prime)

    def entries(self) -> tuple[PadicRational, PadicRational, PadicRational, PadicRational]:
        return (self.a, self.b, self.c, self.d)

    def is_integral(self) -> bool:
        """All entries lie in Z_p (zero reads as e = 0)."""
        return self.a.e >= 0 and self.b.e >= 0 and self.c.e >= 0 and self.d.e >= 0

    def is_unimodular_integral(self) -> bool:
        return self.is_integral() and self.det() == 1

    def is_upper_triangular(self) -> bool:
        return not self.c

    def congruent_to_identity(self, k: int) -> bool:
        """Entrywise valuation of (self - I) is at least k; zero meets every k."""
        return all(not x or x.e >= k for x in (self.a - 1, self.b, self.c, self.d - 1))
