"""Projective-line truncated types: products, collapse, flow table."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from padyn import proj
from padyn.proj import (
    DEFAULT_LADDER,
    ProjLevel,
    ProjPoint,
    ProjTruncType,
    CollapseReport,
    all_states,
    boundary_flagged,
    collapse_check,
    compact_star,
    fiber_star,
    minimality_proximality_report,
    nonalgebraic_states,
    triangular_star,
)
from padyn._graph import skew_components, strongly_connected_components
from padyn.borel import witness as borel_witness
from padyn.padic import PadicMatrix2, PadicRational, _require
from padyn.residues import build_group, class_of, hensel_modulus
from padyn.sl2 import GFlowPoint, flow_generators, k_level_group, k_lift
from padyn.types1 import ScaleLadder, TruncType1, realize

P = 5
LADDER = ScaleLadder.build(gap=8, window_w=2, length=4)
L22 = ProjLevel(P, 2, 2)
L11 = ProjLevel(P, 1, 1)


def mat(rows, p=P):
    return PadicMatrix2.of(rows, p)


def cl(rep, n=2):
    return class_of(rep, n, P)


def pt(value):
    return ProjPoint.of(value, 1)


INF = ProjPoint.of(1, 0)


# ---------------------------------------------------------------- oracle

def classify_value(x, level):
    """The truncated type of an exact value, read in its own chart."""
    x = PadicRational.of(x, level.prime)
    inverted = bool(x) and x.e < 0
    return proj._chart_type(x.inverse() if inverted else x, inverted, level)


def oracle_realization(t, level, ladder, rung_index):
    """Concrete value witnessing a Near family, chart by the base point."""
    base = t.point
    if base.is_infinity or (base.x0 != 0 and base.x0.denominator % level.prime == 0):
        y0 = Fraction(0) if base.is_infinity else 1 / base.x0
        return 1 / realize(TruncType1.near(y0, t.near_class), rung_index, ladder)
    return realize(TruncType1.near(base.x0, t.near_class), rung_index, ladder)


def oracle_act(g, t, level, ladder=LADDER, rung_index=-1):
    """Realize, apply the fractional-linear map exactly, reclassify."""
    x = oracle_realization(t, level, ladder, rung_index)
    num, den = g.a * x + g.b, g.c * x + g.d
    if den == 0:
        return ProjTruncType.realized(INF)
    return classify_value(num / den, level)


def test_oracle_is_rung_independent():
    gens = flow_generators(P, 3)
    for state in nonalgebraic_states(L22)[::7]:
        for g in gens:
            assert oracle_act(g, state, L22, LADDER, 1) == oracle_act(g, state, L22, LADDER, 3)


def flow_columns(level, ladder=LADDER):
    return proj._flow_table(level, 1, ladder, proj._triangular_column(level, ladder)[0])


def flow_table(level, ladder=LADDER):
    """The table's columns zipped into per-state successor tuples."""
    return list(zip(*flow_columns(level, ladder)))


def search_count(columns):
    """The report's search: `skew_components` over a one-element fibre."""
    return skew_components([(column, 0) for column in columns], ((0,),), 0, 0)


# ---------------------------------------------------------------- points

def test_points_canonicalize():
    assert ProjPoint.of(2, 3) == pt(Fraction(2, 3))
    assert ProjPoint.of(7, 0) == INF
    assert str(pt(Fraction(1, 5))) == "1/5"
    assert str(INF) == "inf"


def test_degenerate_point_rejected():
    with pytest.raises(ValueError):
        ProjPoint.of(0, 0)
    with pytest.raises(ValueError):
        ProjPoint(Fraction(2), Fraction(3))


def test_base_points():
    base22 = L22.base_points()
    assert len(base22) == 30
    assert INF in base22
    assert pt(Fraction(1, 5)) in base22
    assert pt(24) in base22
    assert len(L11.base_points()) == 6


# ---------------------------------------------------------- classification

def test_classify_window_residues():
    assert classify_value(27, L22) == ProjTruncType.near(pt(2), cl(1))
    assert classify_value(Fraction(2, 11), L22) == ProjTruncType.near(pt(7), cl(2))
    assert classify_value(Fraction(1, 50), L22) == ProjTruncType.near(INF, cl(2))
    assert classify_value(Fraction(1, 5), L22) == ProjTruncType.realized(
        pt(Fraction(1, 5))
    )
    assert classify_value(0, L22) == ProjTruncType.realized(pt(0))
    assert classify_value(7, L22) == ProjTruncType.realized(pt(7))


def test_classification_is_total_onto_base_points():
    base = set(L22.base_points())
    rng = random.Random(7)
    for _ in range(200):
        x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
        t = classify_value(x, L22)
        assert t.point in base


def fraction_classify_value(x, level):
    """The plain-Fraction classifier: window residue by modular inverse
    of the denominator, deviation as a Fraction difference."""
    x = Fraction(x.numerator, x.denominator)
    p = level.prime
    if x != 0 and PadicRational.of(x, p).e < 0:
        y = 1 / x
        r = y.numerator * pow(y.denominator, -1, level.modulus) % level.modulus
        point = INF if r == 0 else ProjPoint.of(1, r)
        dev = y - r
    else:
        r = x.numerator * pow(x.denominator, -1, level.modulus) % level.modulus
        point = ProjPoint.of(r, 1)
        dev = x - r
    if dev == 0:
        return ProjTruncType.realized(point)
    return ProjTruncType.near(point, class_of(dev, level.level_n, p))


@pytest.mark.parametrize("window, witnesses", [(2, 750), (3, 3750)])
def test_classify_value_matches_the_plain_fraction_classifier(window, witnesses, monkeypatch):
    # every chart coordinate triangular_star and fiber_star truncate over
    # all states of the level, checked against the Fraction path: per
    # state 1 triangular and 4 fiber products
    level = ProjLevel(P, 2, window)
    checked = []
    chart_type = proj._chart_type

    def cross_checked(y, inverted, lev):
        got = chart_type(y, inverted, lev)
        if inverted and not y:
            assert got == ProjTruncType.realized(INF)
        else:
            assert got == fraction_classify_value(1 / y if inverted else y, lev), (y, inverted)
        checked.append(got)
        return got

    monkeypatch.setattr(proj, "_chart_type", cross_checked)
    for s in all_states(level):
        proj.triangular_star(s, level, LADDER)
        for c in level.classes():
            proj.fiber_star(s, c, level, LADDER)
    assert len(checked) == witnesses


@pytest.mark.parametrize(
    "ladder",
    [LADDER, ScaleLadder.build(gap=1, window_w=2, length=4), LADDER.doubled_gap()],
    ids=["default", "gap-1", "doubled-gap"],
)
@pytest.mark.parametrize(
    "level",
    [ProjLevel(5, 2, 2), ProjLevel(5, 2, 3), ProjLevel(3, 3, 3), ProjLevel(7, 2, 2)],
    ids=lambda lev: f"p{lev.prime}-n{lev.level_n}-w{lev.window_w}",
)
def test_chart_witness_classifies_as_its_type(level, ladder):
    # the rung-2 witness the witness products move, read back exactly
    for t in nonalgebraic_states(level):
        inverted, y = proj._chart_witness(t, ladder)
        assert classify_value(1 / y if inverted else y, level) == t, t


# ---------------------------------------------------------------- action

def random_det_one(rng, p=P):
    while True:
        a = Fraction(rng.randint(-20, 20), rng.choice((1, 1, 1, p, 2 * p)))
        b = Fraction(rng.randint(-20, 20))
        c = Fraction(rng.randint(-20, 20), rng.choice((1, 1, p)))
        if a == 0:
            if b == 0:
                continue
            return mat(((a, b), (-1 / b, rng.randint(-3, 3))), p)
        return mat(((a, b), (c, (1 + b * c) / a)), p)


def random_chart_point(rng, p=P):
    """(inverted, chart coordinate) of a random rational point."""
    y = Fraction(rng.randint(-60, 60), rng.choice((1, 1, 2, 3)))
    return rng.random() < 0.5, PadicRational.of(y * p ** rng.randint(0, 3), p)


def triples(g):
    """g's entries as the (num, den, e) triples `_int_step` reads."""
    return tuple((x.num, x.den, x.e) for x in g.entries())


def triple_value(t, p):
    num, den, e = t
    return Fraction(num, den) * Fraction(p) ** e


def mobius_chart(g, inverted, y, flip):
    """g applied to the chart vector (y, 1), or (1, y) when inverted, on
    Fractions, read in the flipped chart or not; None at that chart's
    infinity."""
    v0, v1 = (1, y) if inverted else (y, 1)
    a, b, c, d = (e.to_fraction() for e in (g.a, g.b, g.c, g.d))
    w0, w1 = a * v0 + b * v1, c * v0 + d * v1
    num, den = (w1, w0) if flip else (w0, w1)
    return num / den if den else None


def test_action_on_realized_points():
    s = mat(((0, -1), (1, 0)))
    three = proj._apply_witness(s, ProjTruncType.realized(pt(3)), L22, LADDER)
    assert three == classify_value(Fraction(-1, 3), L22)
    assert three == ProjTruncType.near(pt(8), cl(Fraction(-25, 3)))
    zero = proj._apply_witness(s, ProjTruncType.realized(pt(0)), L22, LADDER)
    assert zero == ProjTruncType.realized(INF)


def test_action_pinned_examples():
    # read off the table's generator columns at (5, 2, 2)
    u = mat(((1, 1), (0, 1)))
    s = mat(((0, -1), (1, 0)))
    gens = flow_generators(P, 3)
    assert (gens[0], gens[4]) == (u, s)
    states = nonalgebraic_states(L22)
    table = flow_table(L22)

    def image(move, t):
        return states[table[states.index(t)][move]]

    n0 = ProjTruncType.near(pt(0), cl(1))
    assert image(0, n0) == ProjTruncType.near(pt(1), cl(1))
    # the rotation sends the near-zero family to infinity and the class
    # picks up class(-1), trivial at p = 5
    assert image(4, n0) == ProjTruncType.near(INF, cl(-1))
    assert image(4, n0).near_class == cl(1)
    assert image(4, ProjTruncType.near(pt(0), cl(2))) == ProjTruncType.near(INF, cl(2))


def test_action_requires_determinant_one():
    with pytest.raises(ValueError):
        proj._column(mat(((2, 0), (0, 1))), LADDER.rungs[-1], False, L22)


def test_action_is_exact_group_action():
    # one chart step by g·h is the step by h, then by g, exactly
    gens = flow_generators(P, 3)
    points = [*proj._charts(L22)]
    points += [proj._chart_witness(t, LADDER) for t in nonalgebraic_states(L22)[::11]]
    for g in gens:
        for h in gens:
            gh = g @ h
            for inverted, y in points:
                first = proj._chart_image(h, inverted, y)[:2]
                assert proj._chart_image(g, *first)[:2] == proj._chart_image(gh, inverted, y)[:2]


def test_action_group_law_on_random_words():
    rng = random.Random(99)
    for _ in range(300):
        g, h = random_det_one(rng), random_det_one(rng)
        inverted, y = random_chart_point(rng)
        first = proj._chart_image(h, inverted, y)[:2]
        assert proj._chart_image(g, *first)[:2] == proj._chart_image(g @ h, inverted, y)[:2]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_chart_step_matches_the_mobius_map_on_random_matrices(p):
    # the int step's image of y + s is z + derivative·s/(1 + q·s) in z's
    # chart, with the derivative's sign set by whether the step changes
    # chart; its chart coordinates are ints, as the table's are
    rng = random.Random(20260814 + p)
    checked = 0
    while checked < 150:
        g = random_det_one(rng, p)
        inverted, y = rng.random() < 0.5, rng.randint(-60, 60) * p ** rng.randint(0, 3)
        flip, *values = proj._int_step(triples(g), inverted, y, p)
        z, derivative, q = (triple_value(t, p) for t in values)
        assert z == mobius_chart(g, inverted, Fraction(y), flip)
        image_flip, image = proj._chart_image(g, inverted, y)
        assert (image_flip, image.to_fraction()) == (flip, z)
        s = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30), rng.randint(1, 9)) * p ** rng.randint(0, 4)
        moved = mobius_chart(g, inverted, y + s, flip)
        if moved is None or 1 + q * s == 0:
            continue
        assert moved == z + derivative * s / (1 + q * s)
        checked += 1


def padic_chart_step(g, inverted, y):
    """The chart step on `PadicRational`s, the int step's oracle:
    `_chart_image`'s chart flag and z, with the derivative and q."""
    lo0, hi0, lo1, hi1 = (g.b, g.a, g.d, g.c) if inverted else (g.a, g.b, g.c, g.d)
    w0, w1 = lo0 * y + hi0, lo1 * y + hi1
    flip = not w1 or bool(w0) and w0.e < w1.e
    lo, num, denom = (lo0, w1, w0) if flip else (lo1, w0, w1)
    _require(bool(denom), "chart selection failed to keep the image finite")
    inv = denom.inverse()
    return flip, num * inv, (-inv if inverted != flip else inv) * inv, lo * inv


def padic_column(g, rung, through, level):
    """`proj._column`'s successor codes, each chart step and class read on
    `PadicRational`s, with the same certificates."""
    p, n, m = level.prime, level.level_n, level.modulus
    classes = level.classes()
    slot = {c: k for k, c in enumerate(classes)}
    hensel = PadicRational.of(hensel_modulus(p, n), p).e
    column = []
    for inverted, y in proj._charts(level):
        inverted, z, derivative, q = padic_chart_step(g, inverted, PadicRational.of(y, p))
        r = z.residue(m)
        dev = z - r
        depth = rung + derivative.e if through else rung
        exact = not (through and q) or q.e + rung >= hensel
        bound = dev.e + hensel if dev else level.window_w
        _require(exact and depth >= bound, "projective flow: a class map is not certified")
        _require(not inverted or r % p == 0, "projective flow: a successor left the state space")
        base = len(classes) * (m + r // p if inverted else r)
        k = class_of(dev if dev else derivative, n, p)
        column += [base + slot[k if dev else k * c] for c in classes]
    return column


def test_a_move_with_a_sparse_entry_is_refused():
    # 1 + p^100 keeps two terms; the int step reads one-term entries only
    sparse = PadicRational.of(1, P) + PadicRational.of(1, P).shifted(100)
    assert sparse.rest
    with pytest.raises(ArithmeticError, match="sparse entry"):
        proj._column(mat(((1, sparse), (0, 1))), LADDER.rungs[-1], False, L22)


# -------------------------------------------------------------- products

def test_triangular_star_pinned_values():
    assert triangular_star(
        ProjTruncType.realized(pt(0)), L22, LADDER
    ) == ProjTruncType.near(INF, cl(1))
    assert triangular_star(
        ProjTruncType.realized(INF), L22, LADDER
    ) == ProjTruncType.realized(INF)
    assert triangular_star(
        ProjTruncType.near(pt(3), cl(2)), L22, LADDER
    ) == ProjTruncType.near(INF, cl(1))


def test_triangular_star_lands_in_infinity_family():
    for t in all_states(L22):
        out = triangular_star(t, L22, LADDER)
        assert out.point.is_infinity


def test_triangular_star_preserves_infinity_family_classes():
    # at level 2 the diagonal-square twist is trivial, so the family at
    # infinity keeps its class under the triangular product
    for rep in (1, 2, 5, 10):
        t = ProjTruncType.near(INF, cl(rep))
        assert triangular_star(t, L22, LADDER) == t


def test_compact_star_constant_on_infinity_family():
    omega = ProjTruncType.near(INF, cl(1))
    family = [ProjTruncType.realized(INF)]
    family += [ProjTruncType.near(INF, cl(rep)) for rep in (1, 2, 5, 10)]
    assert {compact_star(t, L22, LADDER) for t in family} == {omega}


def test_compact_star_raises_when_the_witness_is_not_absorbed():
    # the infinity-family witness at rung 2 sits at distance p^rung, so it
    # is absorbed up to that level and no further
    t = ProjTruncType.near(INF, cl(1))
    rung = LADDER.rungs[2]
    assert compact_star(t, L22, LADDER, level_m=rung) == ProjTruncType.near(INF, cl(1))
    with pytest.raises(ArithmeticError, match="not absorbed"):
        compact_star(t, L22, LADDER, level_m=rung + 1)


def test_compact_star_generic_composition_off_the_family():
    # no collapse claimed away from infinity, but the value is pinned:
    # the witness corner dominates the input's own deviation
    for rep in (1, 2, 5, 10):
        t = ProjTruncType.near(pt(2), cl(rep))
        assert compact_star(t, L22, LADDER) == ProjTruncType.near(pt(2), cl(1))


def test_compact_star_is_identity_class_fiber_product():
    ident = cl(1)
    for t in all_states(L22):
        assert compact_star(t, L22, LADDER) == fiber_star(t, ident, L22, LADDER)


def test_fiber_star_walks_the_whole_fiber():
    reps = (1, 2, 5, 10)
    for rep in reps:
        t = ProjTruncType.near(pt(3), cl(rep))
        outs = {fiber_star(t, cl(d), L22, LADDER) for d in reps}
        assert outs == {ProjTruncType.near(pt(3), cl(d)) for d in reps}
    assert fiber_star(
        ProjTruncType.realized(INF), cl(10), L22, LADDER
    ) == ProjTruncType.near(INF, cl(10))


# -------------------------------------------------------------- collapse

def test_collapse_at_level_two():
    report = collapse_check(L22, LADDER)
    assert report.collapsed
    assert report.states_checked == 150
    assert report.collapsed_type == ProjTruncType.near(INF, cl(1))


def test_collapse_at_level_one():
    report = collapse_check(L11, LADDER)
    assert report.collapsed
    assert report.states_checked == 12
    assert report.collapsed_type == ProjTruncType.near(INF, cl(1, n=1))


def test_collapse_report_json_shape():
    js = collapse_check(L22, LADDER).to_json()
    assert sorted(js) == ["boundary_flags", "collapsed", "collapsed_type", "states"]
    assert js["collapsed_type"] == "Near(inf, class 1)"


# ------------------------------------------------------------ minimality

def test_boundary_flags():
    assert boundary_flagged(L22) == (
        "1/10", "1/15", "1/20", "1/5", "10", "15", "20", "5",
    )
    assert boundary_flagged(L11) == ("1", "2", "3", "4")


def test_minimal_flow_level_two():
    report = minimality_proximality_report(L22, level_m=1, ladder=LADDER)
    assert report.size == 120
    assert report.strongly_connected
    assert report.proximal
    assert report.collapsed_type == ProjTruncType.near(INF, cl(1))


def test_minimal_flow_level_one():
    report = minimality_proximality_report(L11, level_m=1, ladder=LADDER)
    assert report.size == 6
    assert report.strongly_connected
    assert report.proximal


def test_fiber_transitions_are_load_bearing():
    # determinant-one derivatives twist classes by squares only, so the
    # generator columns (0-4), the triangular column (5) and the compact
    # product (the identity-class fiber column) strand the deep-class
    # states at the inverted-chart residues: 7 singleton components; the
    # report's search refuses those seven columns and accepts all ten
    moves = (*range(6), 6 + L22.classes().index(cl(1)))
    succ = [[codes[move] for move in moves] for codes in flow_table(L22)]
    components = strongly_connected_components(range(len(succ)), succ.__getitem__)
    assert sorted(map(len, components)) == [1, 1, 1, 1, 1, 1, 1, 113]
    columns = flow_columns(L22)
    assert search_count([columns[move] for move in moves]) is None
    assert len(columns) == 10 and search_count(columns) == 1


def test_a_successor_outside_the_state_space_is_an_error(monkeypatch):
    # a unit chart coordinate in the reciprocal chart names no base point
    int_step = proj._int_step

    def escaping(g, inverted, y, p):
        _, _, derivative, q = int_step(g, inverted, y, p)
        return True, (1, 1, 0), derivative, q

    monkeypatch.setattr(proj, "_int_step", escaping)
    with pytest.raises(ArithmeticError, match="left the state space"):
        minimality_proximality_report(L11, level_m=1, ladder=LADDER)


def test_an_uncertified_class_map_is_an_error():
    # at gap 1 the rungs overlap: at infinity the table would read the
    # triangular product as the twist translation, but the explicit product
    # sends all four classes to class 1; the certificate refuses the entry
    ladder = ScaleLadder.build(gap=1, window_w=2, length=4)
    with pytest.raises(ArithmeticError, match="not certified"):
        minimality_proximality_report(L22, level_m=1, ladder=ladder)


def test_flow_report_json_shape():
    js = minimality_proximality_report(L11, level_m=1, ladder=LADDER).to_json()
    assert sorted(js) == [
        "boundary_flags",
        "collapsed_type",
        "proximal",
        "states",
        "strongly_connected",
    ]
    assert js["states"] == 6
    assert js["strongly_connected"] is True
    assert js["proximal"] is True


# ------------------------------------------------- projection compatibility

def column_state(m, level):
    if m.c == 0:
        return ProjTruncType.realized(INF)
    return classify_value(m.a / m.c, level)


def flow_point_witness(point, block, ladder=LADDER):
    """k_lift(k)·witness(j) of a paired flow point."""
    return k_lift(point.k, point.j.prime, point.level_m) @ borel_witness(point.j, ladder, block)


def test_projection_commutes_with_star_products():
    # sending a paired flow point to its image of infinity commutes with
    # the star product on tested samples: star first, project after,
    # equals project first, star after
    rng = random.Random(4417)
    compact = k_level_group(P, 1)
    classes = build_group(P, 2).elements
    for _ in range(40):
        p1 = GFlowPoint(rng.choice(compact), rng.choice(classes), 1)
        p2 = GFlowPoint(rng.choice(compact), rng.choice(classes), 1)
        w1 = flow_point_witness(p1, 0)
        w2 = flow_point_witness(p2, 2)
        left = proj._apply_witness(w1, column_state(w2, L22), L22, LADDER)
        right = column_state(w1 @ w2, L22)
        assert left == right


# ------------------------------------------------------------ flow table

def explicit_successors(s, level, ladder):
    """The table's reference row: each generator image by the realization
    oracle, then the triangular and fiber products on the formed input."""
    gens = flow_generators(level.prime, 1 + level.window_w)
    outs = [oracle_act(g, s, level, ladder) for g in gens]
    outs.append(triangular_star(s, level, ladder))
    outs += [fiber_star(s, k, level, ladder) for k in level.classes()]
    return outs


TABLE_LEVELS = [
    ProjLevel(*pnw) for pnw in ((5, 2, 3), (5, 2, 2), (3, 2, 3), (7, 3, 2), (5, 4, 2), (3, 3, 2))
]


def level_id(level):
    return f"p{level.prime}-n{level.level_n}-w{level.window_w}"


@pytest.mark.parametrize("ladder", [LADDER, LADDER.doubled_gap()], ids=["default", "doubled-gap"])
@pytest.mark.parametrize("level", [*TABLE_LEVELS, ProjLevel(7, 2, 2)], ids=level_id)
def test_flow_table_matches_the_explicit_moves(level, ladder):
    # every (move, base point, class) entry of the table against the
    # realization oracle, which shares no code with `_int_step`, and the
    # two witness products; where the class of -1 is nontrivial, at
    # (3, 2, 3), (5, 4, 2) and (7, 2, 2), a chart change's determinant sign
    # shows in the twist
    states = nonalgebraic_states(level)
    table = flow_table(level, ladder)
    assert len(table) == len(states)
    for s, codes in zip(states, table):
        assert [states[code] for code in codes] == explicit_successors(s, level, ladder), s


@pytest.mark.parametrize("ladder", [LADDER, LADDER.doubled_gap()], ids=["default", "doubled-gap"])
@pytest.mark.parametrize("level", [*TABLE_LEVELS, ProjLevel(7, 2, 2)], ids=level_id)
def test_int_columns_match_the_padic_chart_step(level, ladder):
    # every move's int column, entry for entry, against the same column
    # stepped and classified on `PadicRational`s
    p = level.prime
    moves = [(g, ladder.rungs[-1], False) for g in flow_generators(p, 1 + level.window_w)]
    moves.append((borel_witness(class_of(1, level.level_n, p), ladder, 0), ladder.rungs[2], True))
    moves += [(proj._fiber_witness(c, ladder), ladder.rungs[2], True) for c in level.classes()]
    for g, rung, through in moves:
        assert proj._column(g, rung, through, level)[0] == padic_column(g, rung, through, level), g


def test_int_and_padic_columns_certify_the_same_rungs():
    # the certificates: a constant class map holds only for inputs realized
    # past v(z - r) plus the Hensel exponent (1 at p = 5, n = 2; 3 at
    # n = 5), and a witness's twist only while its depth and v(q·s) clear
    # it; at shallow rungs and on gap-1 ladders both paths refuse the same
    # entries, with the same message
    gens = flow_generators(P, 3)
    levels = (L22, ProjLevel(5, 5, 2))
    cases = [(g, rung, False, level) for level in levels for g in gens for rung in range(1, 8)]
    for level, base in ((L22, 7), (ProjLevel(3, 3, 2), 4)):
        ladder = ScaleLadder.build(gap=1, window_w=2, length=4, base=base)
        witnesses = [borel_witness(class_of(1, level.level_n, level.prime), ladder, 0)]
        witnesses += [proj._fiber_witness(c, ladder) for c in level.classes()]
        cases += [(g, rung, True, level) for g in witnesses for rung in range(0, 40, 3)]
    outcomes = Counter()
    for case in cases:
        pair = []
        for column in (lambda *args: proj._column(*args)[0], padic_column):
            try:
                pair.append(column(*case))
            except ArithmeticError as error:
                pair.append(str(error))
        assert pair[0] == pair[1], case
        outcomes[type(pair[0])] += 1
    assert outcomes[str] and outcomes[list]


def test_flow_table_class_map_kinds():
    # per (move, base point) the class map is a translation (every class
    # moves to its own target) or a constant (one target for all); counts
    # of (translations, constants) per move at (5, 2, 3)
    level = ProjLevel(5, 2, 3)
    order = len(level.classes())
    table = flow_table(level)
    kinds = []
    for move in range(len(table[0])):
        targets = [{table[i + j][move] for j in range(order)} for i in range(0, len(table), order)]
        assert {len(t) for t in targets} <= {1, order}
        kinds.append((sum(len(t) == order for t in targets), sum(len(t) == 1 for t in targets)))
    assert kinds[0] == (125, 25)
    assert kinds[5] == (1, 149)
    assert kinds[6:] == [(1, 149)] * order


@pytest.mark.parametrize("ladder", [LADDER, LADDER.doubled_gap()], ids=["default", "doubled-gap"])
@pytest.mark.parametrize("level", TABLE_LEVELS, ids=level_id)
def test_flow_report_connectivity_matches_tarjan(level, ladder):
    # the report's one depth-first search on the flat columns against the
    # generic Tarjan on the same table's per-state successor lists, on all
    # the columns and on the seven that leave out the nontrivial fibers
    columns = flow_columns(level, ladder)
    report = minimality_proximality_report(level, level_m=1, ladder=ladder)
    moves = (*range(6), 6 + level.classes().index(class_of(1, level.level_n, level.prime)))
    verdicts = []
    for chosen in (columns, [columns[move] for move in moves]):
        succ = list(zip(*chosen))
        components = strongly_connected_components(range(len(succ)), succ.__getitem__)
        assert (search_count(chosen) == 1) == (len(components) == 1)
        verdicts.append(len(components) == 1)
    assert report.size == len(columns[0])
    assert report.strongly_connected == verdicts[0]


def explicit_collapse_report(level, ladder):
    """collapse_check's former path: the explicit triangular product on
    every state, realized and nonalgebraic."""
    states = all_states(level)
    images = {triangular_star(t, level, ladder) for t in states}
    outputs = {compact_star(t, level, ladder) for t in images}
    value = next(iter(outputs)) if len(outputs) == 1 else None
    return CollapseReport(len(states), len(outputs) <= 1, value, boundary_flagged(level))


@pytest.mark.parametrize("ladder", [LADDER, LADDER.doubled_gap()], ids=["default", "doubled-gap"])
@pytest.mark.parametrize("level", [*TABLE_LEVELS, ProjLevel(2, 2, 2)], ids=level_id)
def test_collapse_check_reads_the_explicit_triangular_images(level, ladder):
    # collapse_check reads every state's triangular image from the
    # triangular column's pass: the nonalgebraic states' from the certified
    # column, each realized state's from its base point's chart step, coded
    # ~point_index when the image is realized
    near, points = nonalgebraic_states(level), level.base_points()
    column, realized = proj._triangular_column(level, ladder)
    assert len(realized) == len(points)
    for x, code in zip(points, realized):
        image = ProjTruncType.realized(points[~code]) if code < 0 else near[code]
        assert image == triangular_star(ProjTruncType.realized(x), level, ladder), x
    read = {near[code] for code in column}
    read |= {triangular_star(ProjTruncType.realized(x), level, ladder) for x in points}
    assert read == {triangular_star(t, level, ladder) for t in all_states(level)}
    assert collapse_check(level, ladder) == explicit_collapse_report(level, ladder)


def homogeneous_product(left, t, level, ladder):
    """The witness products' former path: form the input x (a realized
    point, or the rung-2 witness), take the rows x0 = a·x + b and
    x1 = c·x + d, and classify the quotient x0 / x1."""
    if t.is_realized and t.point.is_infinity:
        x0, x1 = left.a, left.c
    else:
        if t.is_realized:
            x = t.point.x0
        else:
            inverted, y = proj._chart_witness(t, ladder)
            x = (1 / y if inverted else y).collapsed()
        x0, x1 = left.a * x + left.b, left.c * x + left.d
    if not x1:
        return ProjTruncType.realized(INF)
    return classify_value(x0 / x1, level)


@pytest.mark.parametrize("ladder", [LADDER, LADDER.doubled_gap()], ids=["default", "doubled-gap"])
@pytest.mark.parametrize("level", [*TABLE_LEVELS, ProjLevel(2, 2, 2)], ids=level_id)
def test_witness_products_match_the_homogeneous_path(level, ladder):
    # one chart step from the input's chart truncates to the type of the
    # homogeneous quotient: the triangular and every fiber witness on every
    # state, and 40 random flow-point witnesses k_lift(k)·witness(j), the
    # states dealt round-robin among them
    p, n = level.prime, level.level_n
    states = all_states(level)
    lefts = [borel_witness(class_of(1, n, p), ladder, 0)]
    lefts += [proj._fiber_witness(c, ladder) for c in level.classes()]
    for left in lefts:
        for t in states:
            expected = homogeneous_product(left, t, level, ladder)
            assert proj._apply_witness(left, t, level, ladder) == expected, (left, t)
    rng = random.Random(20261018)
    compact = k_level_group(p, 1)
    for i in range(40):
        point = GFlowPoint(rng.choice(compact), rng.choice(level.classes()), 1)
        left = flow_point_witness(point, 0, ladder)
        for t in states[i::40]:
            expected = homogeneous_product(left, t, level, ladder)
            assert proj._apply_witness(left, t, level, ladder) == expected, (point, t)


def test_flow_report_work_counts(monkeypatch):
    # at (5, 2, 3): one int step per (move, base point) for the 5
    # generators, the triangular and the 4 fiber moves over 150 base
    # points (1 500), one determinant check per move, no explicit
    # triangular product (the triangular pass reads the realized states'
    # images too), and the compact product on the 5 distinct triangular
    # images (Realized(inf) and the 4 classes at infinity): 5 witness
    # products, one p-adic chart step each
    calls = Counter()

    def count(name):
        inner = getattr(proj, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(proj, name, counted)

    names = ("_chart_image", "_int_step", "_det_one", "triangular_star", "compact_star")
    for name in (*names, "_apply_witness"):
        count(name)
    report = minimality_proximality_report(ProjLevel(5, 2, 3), level_m=1, ladder=LADDER)
    assert report.strongly_connected and report.proximal
    assert calls == Counter(
        {
            "_chart_image": 5,
            "_int_step": 1500,
            "_det_one": 10,
            "triangular_star": 0,
            "compact_star": 5,
            "_apply_witness": 5,
        }
    )
