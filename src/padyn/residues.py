"""Finite power-residue class groups K*/(K*)^n over Q_p, exactly.

An nth-power test for units reduces to a residue test at the modulus
p**(2*v_p(n) + 1): if a unit is an nth power to that precision it lifts
to an exact nth power (strong Hensel bound for y**n - u, whose derivative
has valuation v_p(n) at units).  Everything else is built from that test:
canonical class representatives, the full multiplication table, and the
induced valuation map.  Group orders are discovered by enumeration and
merging, never taken from a closed formula.  Every table's group axioms
are checked at construction, associativity decided exactly by Light's
test over a generating set the table is shown to generate (Clifford and
Preston, *The Algebraic Theory of Semigroups* I, 1961, section 1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from padyn.padic import (
    PadicRational,
    RationalLike,
    _require,
    _strip,
    int_valuation,
)

RESIDUE_LEVEL_MAX = 12  # largest residue level n accepted anywhere


@lru_cache(maxsize=None)
def hensel_modulus(p: int, n: int) -> int:
    """Modulus p**(2*v_p(n)+1) at which unit nth powers are decided."""
    if p < 2:
        raise ValueError(f"p-adic normalisation needs a prime, got {p}")
    e, _ = int_valuation(n, p)
    return p ** (2 * e + 1)


def _signature(x: RationalLike, p: int, modulus: int, zero_message: str) -> tuple[int, int]:
    """(v(x), unit part of x mod `modulus`) for a nonzero rational.  An
    int or Fraction is read from its numerator and denominator, with no
    `PadicRational` built; anything else (bool and subclasses included)
    goes through `PadicRational.of`."""
    if type(x) is int or type(x) is Fraction:
        num, den = x.as_integer_ratio()
        if not num:
            raise ValueError(zero_message)
        e = 0
        if not (num % p and den % p):
            num, den, e = _strip(num, den, p)
        if den != 1:
            num *= pow(den, -1, modulus)
        return e, num % modulus
    value = PadicRational.of(x, p)
    if not value:
        raise ValueError(zero_message)
    return value.e, value.unit_residue(modulus)


@lru_cache(maxsize=None)
def _unit_powers(p: int, n: int) -> tuple[int, frozenset[int]]:
    """The Hensel modulus and all residues a**n mod it for units a;
    exhaustive enumeration."""
    modulus = hensel_modulus(p, n)
    return modulus, frozenset(pow(a, n, modulus) for a in range(1, modulus) if a % p)


def is_nth_power(x: RationalLike, n: int, p: int) -> bool:
    """Exact membership test x in (Q_p*)^n for a nonzero rational x.

    True iff n divides v(x) and the unit part of x is an nth-power
    residue at the Hensel modulus.
    """
    if n < 1:
        raise ValueError("power level must be >= 1")
    modulus, powers = _unit_powers(p, n)
    e, residue = _signature(x, p, modulus, "zero is not in the multiplicative group")
    return e % n == 0 and residue in powers


class ResidueClass:
    """A power-residue class, keyed by its canonical representative.

    The canonical representative is the smallest positive integer of the
    form u * p**e with 0 <= e < n, u the smallest positive integer unit
    in the class of the unit part.  Never mutated after construction;
    equal and hashed by (prime, level_n, representative), as a frozen
    dataclass of those fields would be, with the hash formed once (a
    class is an `lru_cache` key of the witness layers).
    """

    __slots__ = ("prime", "level_n", "representative", "_hash")

    def __init__(self, prime: int, level_n: int, representative: int) -> None:
        self.prime, self.level_n, self.representative = prime, level_n, representative
        self._hash = hash((prime, level_n, representative))

    def __eq__(self, other) -> bool:
        if type(other) is not ResidueClass:
            return NotImplemented
        return (
            self.representative == other.representative
            and self.prime == other.prime
            and self.level_n == other.level_n
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"ResidueClass(prime={self.prime!r}, level_n={self.level_n!r}, "
            f"representative={self.representative!r})"
        )

    def __mul__(self, other: "ResidueClass") -> "ResidueClass":
        if (self.prime, self.level_n) != (other.prime, other.level_n):
            raise ValueError("mixed residue levels")
        return _class_product(self.prime, self.level_n, self.representative, other.representative)

    def inverse(self) -> "ResidueClass":
        return class_of(Fraction(1, self.representative), self.level_n, self.prime)

    def __str__(self) -> str:
        return str(self.representative)


def class_of(x: RationalLike, n: int, p: int) -> ResidueClass:
    """Canonical power-residue class of a nonzero rational; a one-term
    `PadicRational` of p is read from its int triple."""
    modulus = hensel_modulus(p, n)
    if type(x) is PadicRational and x.p == p and x.num and not x.rest:
        return _canonical_class(p, n, x.num * pow(x.den, -1, modulus) % modulus, x.e % n)
    e, residue = _signature(x, p, modulus, "zero has no residue class")
    return _canonical_class(p, n, residue, e % n)


@lru_cache(maxsize=None)
def _canonical_class(p: int, n: int, residue: int, shift: int) -> ResidueClass:
    """The class of u * p**shift for a unit u of residue `residue` at the
    Hensel modulus, built once: its representative is w * p**shift for
    the smallest positive integer unit w with w/residue an nth power
    there."""
    if shift:  # the unit search is shared by every shift
        return ResidueClass(p, n, _canonical_class(p, n, residue, 0).representative * p**shift)
    modulus, powers = _unit_powers(p, n)
    inv = pow(residue, -1, modulus)
    for w in range(1, modulus + 1):
        if w % p and (w * inv) % modulus in powers:
            return ResidueClass(p, n, w)
    raise AssertionError("unit residue search exhausted; unreachable")


@lru_cache(maxsize=None)
def _class_product(p: int, n: int, r: int, s: int) -> ResidueClass:
    """Class of the product of two canonical representatives."""
    return class_of(r * s, n, p)


class ResidueGroup:
    """The finite group K*/(K*)^n with a fully tabulated product.

    The element list and table are built by enumeration; the group
    axioms are verified at construction time, associativity decided
    exactly by Light's test over a generating set the table is shown to
    generate (see `_verify_axioms`).  `index` maps a representative to
    its element index, and `slots[(e, u)]` is the element index of the
    class of u * p**e for 0 <= e < n and u a unit mod the Hensel modulus.
    """

    def __init__(self, p: int, n: int, classes: dict[tuple[int, int], ResidueClass]):
        self.prime = p
        self.level_n = n
        self.elements = sorted(set(classes.values()), key=lambda c: c.representative)
        self.identity = class_of(1, n, p)
        reps = [c.representative for c in self.elements]
        self.index = {r: i for i, r in enumerate(reps)}
        self.slots = {key: self.index[c.representative] for key, c in classes.items()}
        # a representative is u * p**e with 0 <= e < n, so the class of a
        # product has valuation (e + e') mod n and unit residue u * u'
        modulus = hensel_modulus(p, n)
        parts = [(e, u % modulus) for e, u in (int_valuation(r, p) for r in reps)]
        self.table: dict[tuple[int, int], int] = {
            (r, s): reps[self.slots[(e + f) % n, u * w % modulus]]
            for r, (e, u) in zip(reps, parts)
            for s, (f, w) in zip(reps, parts)
        }
        # products[i][j] is the index of elements[i]·elements[j]
        self.products = self._verify_axioms()

    @property
    def order(self) -> int:
        return len(self.elements)

    def _verify_axioms(self) -> tuple[tuple[int, ...], ...]:
        """Closure, identity and inverses cell by cell; associativity
        decided exactly by Light's test over a generating set the table is
        shown to generate (Clifford and Preston, *The Algebraic Theory of
        Semigroups* I, 1961, section 1.2).

        Generators are picked greedily: walking the representatives in
        order, one that `reached` (which starts as {1}) does not hold yet
        becomes a generator, and `reached` is closed again under right
        multiplication x -> x*s by every generator so far.  That closure
        is the proof that the generators generate: every element is 1 or
        a left-bracketed product of generators.

        Light's test then checks (x*a)*y == x*(a*y) for each generator a
        and all x, y: |gens|*|J|**2 triples in place of |J|**3, and still
        exact.  The set A of elements a with (x*a)*y == x*(a*y) for all x
        and y is closed under the product: for a, b in A,
        (x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y))
        = x*((a*b)*y).  1 is in A by the identity laws, checked above.  So
        once every generator passes, A is the whole group.

        Returns the verified table on element indices, the group's
        `products`.
        """
        table = self.table
        reps = list(self.index)
        # the first failing cell of each check, so each message is formatted once
        key = next((key for key, val in table.items() if val not in self.index), None)
        _require(key is None, f"residue group: product {key} left the element set")
        r = next((r for r in reps if table[(1, r)] != r), None)
        _require(r is None, f"residue group: 1 is not a left identity at {r}")
        r = next((r for r in reps if table[(r, 1)] != r), None)
        _require(r is None, f"residue group: 1 is not a right identity at {r}")
        inverses = ((c, c.inverse().representative) for c in self.elements)
        c = next((c for c, inv in inverses if table.get((c.representative, inv)) != 1), None)
        _require(c is None, f"residue group: {c} has no inverse")
        # the table on element indices: rows[i][j] is the index of i·j
        rows = [[self.index[table[(r, s)]] for s in reps] for r in reps]
        reached = {self.index[1]}
        gens: list[int] = []
        for r in range(len(reps)):
            if r in reached:
                continue
            gens.append(r)
            frontier = list(reached)
            while frontier:
                x = frontier.pop()
                for s in gens:
                    xs = rows[x][s]
                    if xs not in reached:
                        reached.add(xs)
                        frontier.append(xs)
        for a in gens:
            # row by row: (x·a)·y against x·(a·y) for every y
            a_times = rows[a]
            for row in rows:
                if rows[row[a]] != list(map(row.__getitem__, a_times)):
                    raise ArithmeticError(
                        f"residue group: associativity failed at generator {reps[a]}"
                    )
        return tuple(map(tuple, rows))

    def rows(self, table: dict[tuple[int, int], int]) -> list[list[str]]:
        """A product table on this group's representatives as rows of
        strings, in element order."""
        reps = list(self.index)
        return [[str(table[(r, s)]) for s in reps] for r in reps]

    def to_json(self) -> dict:
        vmap = induced_valuation_map(self)
        return {
            "order": self.order,
            "representatives": [str(r) for r in self.index],
            "table": self.rows(self.table),
            "v_map": {str(k): v for k, v in vmap.mapping.items()},
            "v_map_injective": vmap.injective,
        }


@lru_cache(maxsize=None)
def build_group(p: int, n: int) -> ResidueGroup:
    """Enumerate the classes of K*/(K*)^n and tabulate the product.

    Candidates u * p**e with u ranging over unit residues and e over
    [0, n) cover every class; duplicates collapse through the canonical
    representative, and each pair's class is kept as the group's
    `slots`.  The resulting order is cross-checked against an
    independent merge of a concrete value set in `brute_force_order`.
    """
    if n < 1 or n > RESIDUE_LEVEL_MAX:
        raise ValueError(f"residue level must be in [1, {RESIDUE_LEVEL_MAX}]")
    modulus = hensel_modulus(p, n)
    classes = {
        (e, u): _canonical_class(p, n, u, e) for e in range(n) for u in range(1, modulus) if u % p
    }
    return ResidueGroup(p, n, classes)


def brute_force_order(p: int, n: int) -> int:
    """Order of K*/(K*)^n by merging concrete values with quotient tests.

    Takes a value set that meets every class (all u * p**e for unit
    residues u below the Hensel modulus and 0 <= e < n, plus small
    integers for good measure) and merges values whose quotient is an
    nth power.  No group structure is used: just the membership test.
    """
    modulus = hensel_modulus(p, n)
    values: list[int] = []
    for e in range(n):
        for u in range(1, modulus):
            if u % p == 0:
                continue
            values.append(u * p**e)
    values.extend(k for k in range(1, min(p**3, 200)) if k % p != 0)
    buckets: list[int] = []
    for x in values:
        if not any(is_nth_power(Fraction(x, b), n, p) for b in buckets):
            buckets.append(x)
    return len(buckets)


@dataclass(frozen=True)
class ValuationMapReport:
    """The map class -> v(representative) mod n, with kernel data."""

    mapping: dict  # representative -> valuation mod n
    kernel: tuple  # representatives with trivial image
    injective: bool


def induced_valuation_map(group: ResidueGroup) -> ValuationMapReport:
    """Compute the valuation-induced map onto Z/n and report its kernel.

    The map is a surjective homomorphism; whether it is injective is a
    computed fact of the level, not an assumption (at p = 5, n = 2 the
    kernel has a nontrivial unit class, so the map is 2-to-1).
    """
    n = group.level_n
    p = group.prime
    mapping = {}
    for c in group.elements:
        _require(c.representative > 0, "a class representative is not positive")
        mapping[c.representative] = PadicRational.of(c.representative, p).e % n
    kernel = tuple(sorted(r for r, img in mapping.items() if img == 0))
    injective = len(kernel) == 1
    return ValuationMapReport(mapping=mapping, kernel=kernel, injective=injective)
