"""Tests for the triangular group B and its truncated-type flow.

The star oracle is the residue-class table from padyn.residues (verified
independently in test_residues.py); star must reproduce it through honest
witness realization and classification, never by multiplying classes.
"""

import json
import random
from fractions import Fraction

import pytest

from padyn import borel, cli, sl2
from padyn.padic import PadicMatrix2, PadicRational
from padyn.residues import ResidueClass, build_group, class_of, is_nth_power
from padyn.types1 import DEFAULT_LADDER, ScaleLadder

P = 5
N = 2

LADDER = ScaleLadder.build(gap=8, window_w=2, length=4)


def btype(rep: int, n: int = N, p: int = P) -> ResidueClass:
    return class_of(rep, n, p)


def tri(a, c) -> PadicMatrix2:
    """The element [[a, c], [0, 1/a]] of B."""
    return PadicMatrix2.of(((a, c), (0, 1 / Fraction(a))), P)


# ---------------------------------------------------------------- elements


def test_pair_law_matches_matrix_product():
    # B multiplies by the closed pair law (a, c)(a', c') = (aa', ac' + c/a')
    rng = random.Random(20210)
    for _ in range(200):
        a = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        c = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        aa = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        cc = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        assert (tri(a, c) @ tri(aa, cc)).rows() == tri(a * aa, a * cc + c / aa).rows()


def test_inverse_and_matrix_shape():
    m = tri(Fraction(2, 5), 7)
    assert m.inverse().rows() == tri(Fraction(5, 2), -7).rows()
    assert (m @ m.inverse()).rows() == ((1, 0), (0, 1))
    assert m.det() == 1
    assert m.is_upper_triangular()
    assert m.rows()[1][1] == Fraction(5, 2)


# ---------------------------------------------------------------- witnesses


def test_witness_scales_put_infinity_above_near():
    # short two-rung ladder: near part on rung 5, infinite part on rung 20
    ladder = ScaleLadder(rungs=(5, 20), gap=2, window_w=2)
    w = borel.witness(btype(1), ladder)
    assert w.a == Fraction(5**6)  # exponent 6 = least even exponent >= 5
    assert w.b == Fraction(1, 5**20)
    # the mixing scale that downstream factorizations divide by
    assert PadicRational.of(1 / w.a / w.b, P).e == 14

    w2 = borel.witness(btype(2), ladder)
    assert w2.a == 2 * Fraction(5**6)
    assert w2.b == 2 * Fraction(1, 5**20)


def test_witness_carries_the_class_on_both_coordinates():
    group = build_group(P, N)
    for cls in group.elements:
        w = borel.witness(cls, LADDER)
        assert class_of(w.a, N, P) == cls
        assert class_of(w.b, N, P) == cls
        assert PadicRational.of(w.a, P).e >= LADDER.rungs[0]
        assert PadicRational.of(w.b, P).e <= -LADDER.rungs[1]
    # every witness is an element of B held on p-normalised entries
    for n in (1, 2, 3):
        for cls in build_group(P, n).elements:
            for rung in (0, 2):
                w = borel.witness(cls, LADDER, rung)
                assert w.is_upper_triangular()
                assert w.det() == 1
                assert all(type(x) is PadicRational for x in w.entries())


def test_witness_at_offset_rung_block():
    w = borel.witness(btype(10), LADDER, rung_index=2)
    # rep 10 has valuation 1, so the near exponent rounds 784 up to 784
    assert w.a == 10 * Fraction(5**784)
    assert PadicRational.of(w.b, P).e == 1 - 6290


def test_witness_needs_two_free_rungs():
    ladder = ScaleLadder(rungs=(5, 20), gap=2, window_w=2)
    with pytest.raises(ValueError):
        borel.witness(btype(1), ladder, rung_index=1)


# ---------------------------------------------------------------- star


def test_star_pinned_products():
    ident = btype(1)
    assert borel.star(ident, ident, LADDER) == ident
    assert borel.star(btype(2), btype(5), LADDER) == btype(10)
    for rep in (1, 2, 5, 10):
        assert borel.star(btype(rep), ident, LADDER) == btype(rep)
        assert borel.star(ident, btype(rep), LADDER) == btype(rep)


def test_star_witness_path_scales():
    left = borel.witness(btype(2), LADDER, 0)
    right = borel.witness(btype(5), LADDER, 2)
    prod = left @ right
    assert PadicRational.of(prod.a, P).e == 10 + 785
    assert PadicRational.of(prod.b, P).e == -6279
    assert class_of(prod.a, N, P) == btype(10)


def test_star_agrees_with_residue_table_exhaustively():
    for n in range(1, 7):
        group = build_group(P, n)
        for s in group.elements:
            for t in group.elements:
                got = borel.star(s, t, LADDER)
                assert got.representative == group.table[(s.representative, t.representative)]


# ------------------------------------------------- the leading entry alone


def cross_check_leading_class(monkeypatch, module) -> list:
    """Route `module`'s calls of `leading_class` past the full product
    `@`, the oracle: the entry the helper classifies must equal
    (left @ right).a as a value and give the same class.  Returns the
    checked (left, right) pairs."""
    fast, classify = borel.leading_class, borel.class_of
    entries, pairs = [], []

    def recorded_class_of(x, n, p):
        entries.append(x)
        return classify(x, n, p)

    def checked(left, right, level_n):
        out = fast(left, right, level_n)
        full = (left @ right).a
        assert entries == [full]
        assert out == classify(full, level_n, left.prime)
        entries.clear()
        pairs.append((left, right))
        return out

    monkeypatch.setattr(borel, "class_of", recorded_class_of)
    monkeypatch.setattr(module, "leading_class", checked)
    return pairs


@pytest.mark.parametrize("doubled", [False, True], ids=["default", "doubled-gap"])
def test_leading_class_matches_the_full_product_on_every_flow_group_star(doubled, monkeypatch):
    ladder = DEFAULT_LADDER.doubled_gap() if doubled else DEFAULT_LADDER
    pairs = cross_check_leading_class(monkeypatch, borel)
    borel.build_flow_group.cache_clear()
    for n in range(1, 7):
        borel.build_flow_group(5, n, ladder)
    assert len(pairs) == sum(build_group(5, n).order ** 2 for n in range(1, 7))


@pytest.mark.parametrize("p, n", [(7, 6), (5, 4)])
def test_leading_class_matches_the_full_product_on_every_ellis_pair(p, n, monkeypatch):
    # sl2.star on every pair of identity-fibre points (I, j), at each
    # level of the divisor tower `ellis_group` reports
    levels = sl2.ellis_group(p, n).levels
    pairs = cross_check_leading_class(monkeypatch, sl2)
    for lev in levels:
        points = [sl2.GFlowPoint((1, 0, 0, 1), j, 1) for j in build_group(p, lev).elements]
        for s in points:
            for t in points:
                sl2.star(s, t, DEFAULT_LADDER)
    products = sum(build_group(p, lev).order ** 2 for lev in levels)
    assert len(pairs) == products
    base = sl2.GFlowPoint.identity(p, n, 1)
    assert sl2.star(base, base, DEFAULT_LADDER, perturbed=True) == base
    assert len(pairs) == products + 1


def test_leading_class_reads_the_right_factors_lower_left_entry(monkeypatch):
    # the stars' operands are upper triangular, so there right.c is 0; a
    # witness times a K element's lift (the product `sl2.star` rewrites
    # when the right compact part is not I) has a lower-left entry on
    # the right
    pairs = cross_check_leading_class(monkeypatch, borel)
    for j in build_group(5, 2).elements:
        h = borel.witness(j, DEFAULT_LADDER, 0)
        for k in sl2.k_level_group(5, 1):
            borel.leading_class(h, sl2.k_lift(k, 5, 1), 2)
    assert sum(1 for _, right in pairs if right.c) == 4 * 100
    assert len(pairs) == 4 * 120


def test_flow_group_forms_no_matrix_product(monkeypatch):
    # each star classifies its witness product's leading entry alone
    calls = []
    product = PadicMatrix2.__matmul__

    def counted(left, right):
        calls.append(left)
        return product(left, right)

    monkeypatch.setattr(PadicMatrix2, "__matmul__", counted)
    borel.witness.cache_clear()
    borel.build_flow_group.cache_clear()
    for ladder in (DEFAULT_LADDER, DEFAULT_LADDER.doubled_gap()):
        for n in range(1, 7):
            borel.build_flow_group(5, n, ladder)
    assert calls == []


def test_star_rejects_mixed_levels():
    with pytest.raises(ValueError):
        borel.star(btype(2, n=2), btype(2, n=3), LADDER)


# ---------------------------------------------------------------- translation


def translate(g: PadicMatrix2, t: ResidueClass) -> ResidueClass:
    """Left translation of t by g, read off a concrete witness."""
    return class_of((g @ borel.witness(t, LADDER)).a, t.level_n, t.prime)


def test_left_translate_pinned():
    ident = btype(1)
    for rep in (1, 2, 5, 10):
        assert translate(tri(1, 17), btype(rep)) == btype(rep)
    assert translate(tri(5, 0), ident) == btype(5)
    assert translate(tri(4, 0), ident) == ident


def test_left_translate_fixes_types_iff_nth_power_part():
    rng = random.Random(3111)
    for _ in range(200):
        a = Fraction(rng.randint(1, 60), rng.randint(1, 60))
        c = Fraction(rng.randint(-9, 9))
        g = tri(a, c)
        t = btype(rng.choice((1, 2, 5, 10)))
        moved = translate(g, t)
        if is_nth_power(a, N, P):
            assert moved == t
        else:
            assert moved != t
        # translating multiplies the class by the class of g's diagonal
        assert moved == class_of(g.a, N, P) * t


# ---------------------------------------------------------------- flow group


def test_flow_group_orders_frozen():
    for n, order in ((1, 1), (2, 4), (3, 3), (4, 16), (5, 25), (6, 12)):
        table = borel.build_flow_group(P, n, LADDER)
        assert len(table) == order**2
        assert table[(1, 1)] == 1
        assert table == build_group(P, n).table


def test_flow_group_identity_is_idempotent():
    table = borel.build_flow_group(P, N, LADDER)
    one = build_group(P, N).identity.representative
    assert table[(one, one)] == one


def test_flow_group_klein_structure_at_level_two():
    table = borel.build_flow_group(P, N, LADDER)
    group = build_group(P, N)
    for t in group.elements:
        assert table[(t.representative, t.representative)] == group.identity.representative


def test_flow_group_cyclic_at_level_three():
    table = borel.build_flow_group(P, 3, LADDER)
    group = build_group(P, 3)
    gen = group.elements[1].representative
    cubed = table[(gen, table[(gen, gen)])]
    assert len(table) == 3**2
    assert cubed == group.identity.representative


def test_flow_group_stable_under_gap_doubling():
    doubled = LADDER.doubled_gap()
    assert doubled.rungs == (10, 192, 3104, 49696)
    for n in (2, 6):
        assert borel.build_flow_group(P, n, LADDER) == borel.build_flow_group(P, n, doubled)


def _fraction_witness(rep: int, n: int, rung_index: int, ladder: ScaleLadder) -> tuple:
    """The witness pair of class `rep` as plain Fractions: near 0 at the
    least multiple of n above the rung, at infinity one rung up."""
    v = 0
    while rep % P**(v + 1) == 0:
        v += 1
    near = -(-ladder.rungs[rung_index] // n) * n
    far = -(-(ladder.rungs[rung_index + 1] + v) // n) * n
    return Fraction(rep * P**near), Fraction(rep, P**far)


@pytest.mark.parametrize("doubled", [False, True], ids=["default", "doubled-gap"])
def test_star_tables_match_a_plain_fraction_pair_law(doubled):
    ladder = LADDER.doubled_gap() if doubled else LADDER
    for n in (1, 2, 3):
        group = build_group(P, n)
        reps = [c.representative for c in group.elements]
        table = {}
        for r in reps:
            a1, c1 = _fraction_witness(r, n, 0, ladder)
            for s in reps:
                a2, c2 = _fraction_witness(s, n, 2, ladder)
                a, c = a1 * a2, a1 * c2 + c1 / a2
                table[(r, s)] = class_of(a, n, P).representative
                prod = borel.witness(btype(r, n), ladder, 0) @ borel.witness(btype(s, n), ladder, 2)
                assert PadicMatrix2.of(prod.rows(), P).rows() == ((a, c), (0, 1 / a))
        assert borel.build_flow_group(P, n, ladder) == table


def test_a_broken_flow_table_is_a_failed_property(capsys, monkeypatch):
    # a wrong witness product is a reported `false` with exit 1, not a crash
    honest = borel.star

    def broken(s, t, ladder):
        return s if (s.representative, t.representative) == (2, 5) else honest(s, t, ladder)

    monkeypatch.setattr(borel, "star", broken)
    borel.build_flow_group.cache_clear()
    try:
        assert cli.run(["borel", "--p", "5", "--n", "2"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["table"][1][2] == "2"
        assert report["idempotent_check"] is True
        assert report["iso_to_residue_group"] is False
        assert cli.run(["verify", "--check", "borel-flow-group"]) == 1
        assert json.loads(capsys.readouterr().out)["passed"] is False
    finally:
        # the cached broken tables must not reach later tests
        borel.build_flow_group.cache_clear()


def test_flow_group_json_shape(capsys):
    assert cli.run(["borel", "--p", "5", "--n", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert sorted(report) == [
        "idempotent_check",
        "iso_to_residue_group",
        "n",
        "order",
        "p",
        "representatives",
        "table",
    ]
    assert report["order"] == 4
    assert report["representatives"] == ["1", "2", "5", "10"]
    assert report["idempotent_check"] is True
    assert report["iso_to_residue_group"] is True
    assert report["table"][1][2] == "10"


@pytest.mark.parametrize(
    "ladder", [DEFAULT_LADDER, DEFAULT_LADDER.doubled_gap()], ids=["default", "doubled-gap"]
)
def test_leading_class_int_path_matches_the_full_product(ladder, monkeypatch):
    # every ordered pair of witnesses at p = 5 and n <= 6, on every rung a
    # witness takes: their entries are one-term, so each pair takes the
    # int-triple path, and its class is that of the full product's entry
    dots = []
    dot = borel._dot

    def counted(*args):
        dots.append(args)
        return dot(*args)

    monkeypatch.setattr(borel, "_dot", counted)
    pairs = 0
    for n in range(1, 7):
        mats = [
            borel.witness(j, ladder, rung)
            for j in build_group(5, n).elements
            for rung in range(len(ladder.rungs) - 1)
        ]
        assert not any(x.rest for g in mats for x in g.entries())
        for left in mats:
            for right in mats:
                assert borel.leading_class(left, right, n) == class_of((left @ right).a, n, 5)
                pairs += 1
    assert len(dots) == pairs == 9 * sum(build_group(5, n).order ** 2 for n in range(1, 7))


def test_leading_class_sums_a_sparse_entry_without_the_int_path(monkeypatch):
    # 1 + 5^200 keeps two terms, so the pair takes the sparse sum
    sparse = PadicRational.of(1, 5) + PadicRational.of(1, 5).shifted(200)
    assert sparse.rest
    left = PadicMatrix2.of(((sparse, 3), (0, sparse.inverse())), 5)
    right = borel.witness(class_of(2, 4, 5), DEFAULT_LADDER, 2)

    def unreachable(*args):
        raise AssertionError("a sparse entry took the int-triple path")

    monkeypatch.setattr(borel, "_dot", unreachable)
    for x, y in ((left, right), (right, left)):
        assert borel.leading_class(x, y, 4) == class_of((x @ y).a, 4, 5)
