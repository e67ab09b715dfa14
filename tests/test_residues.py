"""Power-residue classes against independent enumeration oracles.

The oracle decides nth-power membership by enumerating unit nth powers
two digits above the Hensel modulus, and discovers group orders by
merging concrete values under quotient tests.  A third oracle checks
associativity on all |J|**3 triples of a group table; the
implementation's Light's test over a generating set is compared against
it.  None shares code with the implementation.
"""

import copy
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest

from padyn.padic import PadicRational
from padyn.residues import (
    ResidueClass,
    brute_force_order,
    build_group,
    class_of,
    hensel_modulus,
    induced_valuation_map,
    is_nth_power,
)

_POWER_SETS: dict[tuple[int, int], tuple[int, frozenset]] = {}


def _vp(k: int, p: int) -> int:
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v


def oracle_power_set(p: int, n: int) -> tuple[int, frozenset]:
    """All a**n mod p**(2e+3) for unit a, e = v_p(n); cached per (p, n)."""
    if (p, n) not in _POWER_SETS:
        modulus = p ** (2 * _vp(n, p) + 3)
        members = frozenset(pow(a, n, modulus) for a in range(1, modulus) if a % p)
        _POWER_SETS[(p, n)] = (modulus, members)
    return _POWER_SETS[(p, n)]


def oracle_is_nth_power(x: Fraction, n: int, p: int) -> bool:
    """x = y**n for some y = a/p**j, decided at the oracle modulus."""
    modulus, members = oracle_power_set(p, n)
    vn, vd = _vp(x.numerator, p), _vp(x.denominator, p)
    if (vn - vd) % n != 0:
        return False
    un = x.numerator // p**vn
    ud = x.denominator // p**vd
    return un * pow(ud, -1, modulus) % modulus in members


def oracle_group_order(p: int, n: int) -> int:
    """Merge concrete values by quotient tests; count the buckets.

    One value per (valuation mod n, unit residue) pair: the oracle's own
    decision depends on nothing else, so this set meets every class.
    """
    modulus, _ = oracle_power_set(p, n)
    values = [
        Fraction(u) * Fraction(p) ** e
        for e in range(n)
        for u in range(1, modulus)
        if u % p
    ]
    reps: list[Fraction] = []
    for x in values:
        if not any(oracle_is_nth_power(x / r, n, p) for r in reps):
            reps.append(x)
    return len(reps)


def test_hensel_modulus():
    assert hensel_modulus(5, 2) == 5
    assert hensel_modulus(5, 5) == 125
    assert hensel_modulus(5, 10) == 125
    assert hensel_modulus(3, 6) == 27
    assert hensel_modulus(7, 4) == 7
    assert hensel_modulus(2, 8) == 128


def test_is_nth_power_pinned_cases():
    assert is_nth_power(6, 2, 5)  # 6 = 1 mod 5, lifts
    assert not is_nth_power(2, 2, 5)
    assert not is_nth_power(5, 2, 5)
    assert is_nth_power(25, 2, 5)
    assert is_nth_power(54, 2, 5)  # 54 = 6 * 3**2
    assert is_nth_power(Fraction(1, 25), 2, 5)
    assert not is_nth_power(Fraction(2, 25), 2, 5)
    assert is_nth_power(-1, 2, 5)
    assert not is_nth_power(-1, 2, 7)
    assert is_nth_power(Fraction(22, 7), 1, 5)
    assert is_nth_power(PadicRational.of(6, 5), 2, 5)
    with pytest.raises(ValueError):
        is_nth_power(0, 2, 5)


def test_is_nth_power_agrees_with_oracle_sweep():
    nums = list(range(1, 61)) + list(range(-20, 0))
    dens = list(range(1, 41))
    for p in (3, 5):
        for n in range(1, 9):
            for num in nums:
                for den in dens:
                    x = Fraction(num, den)
                    assert is_nth_power(x, n, p) == oracle_is_nth_power(x, n, p), (
                        p,
                        n,
                        x,
                    )


def test_is_nth_power_ignores_nth_power_factors():
    rng = random.Random(20260814)
    for p, n in ((5, 2), (5, 3), (3, 4)):
        for _ in range(500):
            x = Fraction(rng.randrange(1, 400), rng.randrange(1, 400))
            y = Fraction(rng.randrange(1, 60), rng.randrange(1, 60))
            assert is_nth_power(x * y**n, n, p) == is_nth_power(x, n, p)


def test_class_of_canonical_representatives():
    assert class_of(1, 2, 5).representative == 1
    assert class_of(54, 2, 5).representative == 1
    assert class_of(2, 2, 5).representative == 2
    assert class_of(3, 2, 5).representative == 2  # 3/2 = 6/4 is a square
    assert class_of(7, 2, 5).representative == 2
    assert class_of(5, 2, 5).representative == 5
    assert class_of(10, 2, 5).representative == 10
    assert class_of(Fraction(1, 5), 2, 5).representative == 5
    assert class_of(2 * 5**10, 2, 5).representative == 2
    assert class_of(-4, 2, 5).representative == 1  # -1 is a square here
    with pytest.raises(ValueError):
        class_of(0, 2, 5)


def test_class_of_is_multiplicative():
    rng = random.Random(99)
    for _ in range(10_000):
        x = Fraction(rng.randrange(1, 300), rng.randrange(1, 300))
        y = Fraction(rng.randrange(1, 300), rng.randrange(1, 300))
        if rng.random() < 0.25:
            x = -x
        assert class_of(x, 2, 5) * class_of(y, 2, 5) == class_of(x * y, 2, 5)


def test_power_scales_collapse_to_identity():
    for n in (2, 3):
        for k in range(-6, 7):
            assert class_of(Fraction(5) ** (n * k), n, 5) == class_of(1, n, 5)


def test_class_membership_and_inverse():
    c2 = class_of(2, 2, 5)
    assert class_of(8, 2, 5) == c2
    assert class_of(Fraction(2, 9), 2, 5) == c2
    assert class_of(6, 2, 5) != c2
    assert c2.inverse() == c2
    assert class_of(5, 2, 5).inverse() == class_of(5, 2, 5)
    with pytest.raises(ValueError):
        c2 * class_of(2, 3, 5)


def test_group_orders_discovered_three_ways():
    # frozen expectations at p = 5, cross-checked against both oracles
    frozen = {1: 1, 2: 4, 3: 3, 4: 16, 5: 25, 6: 12}
    for n, order in frozen.items():
        group = build_group(5, n)
        assert group.order == order, n
        assert brute_force_order(5, n) == order, n
        assert oracle_group_order(5, n) == order, n
    for n in range(1, 9):
        assert build_group(3, n).order == oracle_group_order(3, n), n


def test_level_two_integer_sweep_merges_to_four_buckets():
    # concrete-integer variant: every k below 5**4 lands in one of four
    reps: list[Fraction] = []
    for k in range(1, 5**4):
        x = Fraction(k)
        if not any(oracle_is_nth_power(x / r, 2, 5) for r in reps):
            reps.append(x)
    assert len(reps) == 4
    assert sorted(class_of(r, 2, 5).representative for r in reps) == [1, 2, 5, 10]


def with_table(group, table):
    """A shallow copy of `group` carrying `table` in place of its own."""
    out = copy.copy(group)
    out.table = table
    return out


@pytest.mark.parametrize(
    "key, value, message",
    [
        ((2, 2), 3, "left the element set"),
        ((1, 2), 5, "1 is not a left identity"),
        ((5, 5), 2, "has no inverse"),
        ((2, 5), 2, "associativity failed"),
    ],
    ids=["closure", "identity", "inverse", "associativity"],
)
def test_verify_axioms_raises_on_a_broken_table(key, value, message):
    broken = with_table(build_group(5, 2), dict(build_group(5, 2).table))
    broken.table[key] = value
    with pytest.raises(ArithmeticError, match=message):
        broken._verify_axioms()


def oracle_is_associative(group) -> bool:
    """(r*s)*t == r*(s*t) on all |J|**3 triples of the group's table."""
    reps = [c.representative for c in group.elements]
    index = {r: i for i, r in enumerate(reps)}
    rows = [[index[group.table[(r, s)]] for s in reps] for r in reps]
    return all(
        rows[rows[r][s]] == [rows[r][st] for st in rows[s]]
        for r in range(len(reps))
        for s in range(len(reps))
    )


RESIDUE_SWEEP = [(p, n) for p in (2, 3, 5, 7) for n in range(1, 13)]


@pytest.mark.parametrize("p, n", RESIDUE_SWEEP, ids=[f"p{p}-n{n}" for p, n in RESIDUE_SWEEP])
def test_light_test_and_the_exhaustive_oracle_accept_every_group(p, n):
    group = build_group(p, n)
    assert oracle_is_associative(group)
    group._verify_axioms()


TABLE_SWEEP = [(p, n) for p in (2, 3, 5, 7, 13) for n in range(1, 13)]


@pytest.mark.parametrize("p, n", TABLE_SWEEP, ids=[f"p{p}-n{n}" for p, n in TABLE_SWEEP])
def test_group_table_is_the_table_of_class_products(p, n):
    # the table is filled from each representative's (valuation, unit
    # residue) through the class index `slots`; each product's class is
    # read here through a PadicRational, and every slot through class_of
    group = build_group(p, n)
    reps = [c.representative for c in group.elements]
    assert group.table == {
        (r, s): class_of(PadicRational.of(r * s, p), n, p).representative
        for r in reps
        for s in reps
    }
    modulus = hensel_modulus(p, n)
    assert len(group.slots) == n * (modulus - modulus // p)
    for (e, u), slot in group.slots.items():
        assert group.elements[slot] == class_of(u * p**e, n, p), (e, u)
    assert group.index == {r: i for i, r in enumerate(reps)}


def swap_an_intercalate(group) -> dict:
    """The table with one intercalate swapped: rows r1, r2 and columns
    c1, c2 with r1*c1 == r2*c2 and r1*c2 == r2*c1, none of them 1 and no
    cell holding 1.  Rows and columns stay permutations, so closure, the
    identity laws and the inverse cells survive; associativity does not.
    """
    table = group.table
    reps = [c.representative for c in group.elements if c.representative != 1]
    for i, r1 in enumerate(reps):
        for r2 in reps[i + 1 :]:
            for j, c1 in enumerate(reps):
                for c2 in reps[j + 1 :]:
                    u, v = table[(r1, c1)], table[(r1, c2)]
                    if 1 in (u, v) or (table[(r2, c2)], table[(r2, c1)]) != (u, v):
                        continue
                    out = dict(table)
                    out[(r1, c1)] = out[(r2, c2)] = v
                    out[(r1, c2)] = out[(r2, c1)] = u
                    return out
    raise AssertionError("no intercalate avoids 1")


@pytest.mark.parametrize("p, n", [(3, 4), (5, 4), (7, 6)])
def test_a_swapped_intercalate_is_a_non_associative_loop(p, n):
    broken = with_table(build_group(p, n), swap_an_intercalate(build_group(p, n)))
    assert not oracle_is_associative(broken)
    with pytest.raises(ArithmeticError, match="associativity failed"):
        broken._verify_axioms()


class CountingDict(dict):
    """A dict that counts its reads by key."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)


def test_verify_axioms_reads_far_fewer_than_cube_cells():
    # |J| = 36: checking all |J|**3 triples would read 4 * 36**3 = 186 624 cells
    group = build_group(7, 6)
    assert group.order == 36
    table = CountingDict(group.table)
    with_table(group, table)._verify_axioms()
    assert 0 < table.reads <= 10_000


def test_level_two_group_is_klein_four():
    group = build_group(5, 2)
    assert [c.representative for c in group.elements] == [1, 2, 5, 10]
    for s in group.elements:
        assert s * s == group.identity  # exponent 2
        for t in group.elements:
            assert s * t == t * s


def test_level_four_group_has_an_order_four_element():
    group = build_group(5, 4)
    assert group.order == 16
    c5 = class_of(5, 4, 5)
    assert c5 in group.elements
    sq = c5 * c5
    assert sq != group.identity
    assert sq * sq == group.identity


def test_valuation_map_report():
    report = induced_valuation_map(build_group(5, 2))
    assert report.mapping == {1: 0, 2: 0, 5: 1, 10: 1}
    assert report.kernel == (1, 2)
    assert not report.injective
    assert induced_valuation_map(build_group(5, 3)).injective


def test_group_json_shape():
    payload = build_group(5, 2).to_json()
    assert payload["order"] == 4
    assert payload["representatives"] == ["1", "2", "5", "10"]
    assert payload["table"][0] == ["1", "2", "5", "10"]
    assert payload["v_map"] == {"1": 0, "2": 0, "5": 1, "10": 1}
    assert payload["v_map_injective"] is False


def test_build_group_level_bounds():
    with pytest.raises(ValueError):
        build_group(5, 0)
    with pytest.raises(ValueError):
        build_group(5, 13)
    assert build_group(5, 1).order == 1


@dataclass(frozen=True)
class FrozenClass:
    """The frozen dataclass layout `ResidueClass` had: equality and hash
    by the tuple of its fields."""

    prime: int
    level_n: int
    representative: int


def test_class_equality_and_hash_match_the_dataclass():
    # fresh objects of few values, so equal classes built apart are
    # common, and equal representatives at other primes and levels too
    rng = random.Random(47)
    draws = [(rng.choice((3, 5)), rng.choice((2, 4)), rng.choice((1, 2, 3))) for _ in range(40)]
    classes = [ResidueClass(*d) for d in draws]
    twins = [FrozenClass(*d) for d in draws]
    for s, f in zip(classes, twins):
        assert hash(s) == hash(f)
        for t, e in zip(classes, twins):
            assert (s == t) == (f == e) and (s != t) == (f != e)
    assert s != f and s != None and not s == draws[-1]  # noqa: E711
    with pytest.raises(TypeError):
        sorted(classes)
    key = lambda c: (c.representative, c.prime, c.level_n)  # noqa: E731
    assert [key(c) for c in sorted(classes, key=key)] == [key(f) for f in sorted(twins, key=key)]
    keys, twin_keys = {}, {}
    for i, (s, f) in enumerate(zip(classes, twins)):
        keys.setdefault(s, i)
        twin_keys.setdefault(f, i)
    assert [keys[s] for s in classes] == [twin_keys[f] for f in twins]

    @lru_cache(maxsize=None)
    def cached(x):
        return x

    @lru_cache(maxsize=None)
    def cached_twin(x):
        return x

    for s, f in zip(classes, twins):
        assert cached(s) == s and cached_twin(f) == f
    assert cached.cache_info() == cached_twin.cache_info()
    assert repr(classes[0]) == repr(twins[0]).replace("FrozenClass", "ResidueClass")
    assert copy.deepcopy(classes[0]) == classes[0] and str(classes[0]) == str(draws[0][2])
