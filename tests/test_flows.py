"""Affine flow dynamics, validated against the realization oracle."""

import random
from fractions import Fraction

import networkx as nx
import pytest

from padyn import cli, flows
from padyn.flows import (
    GROUP_TAGS,
    _domain,
    _successors,
    act_add,
    default_base_points,
    minimal_subflows,
    normalize_group_tag,
    state_space,
)
from padyn.padic import PadicRational, RationalLike
from padyn.residues import build_group, class_of
from padyn.types1 import (
    AT_INFINITY,
    NEAR,
    REALIZED,
    ScaleLadder,
    TruncType1,
    classify,
    enumerate_types,
    realize,
)

# ---- the symbolic flow on TruncType1s: the oracle of `flows._successors`


def act_mul(g: RationalLike, t: TruncType1) -> TruncType1:
    """Scale a truncated type by a nonzero exact rational."""
    if g == 0:
        raise ValueError("zero multiplier")
    if t.kind == REALIZED:
        return TruncType1.realized(t.base * g)
    twist = class_of(g, t.klass.level_n, t.klass.prime)
    if t.kind == NEAR:
        return TruncType1.near(t.base * g, twist * t.klass)
    return TruncType1.at_infinity(twist * t.klass)


def closure_transitions(
    t: TruncType1, group_tag: str, p: int, n: int, w: int
) -> frozenset[TruncType1]:
    """Limit states adjoined when group elements escape every scale (the
    rules `flows._successors` states), validated against extreme-valuation
    sampling below."""
    tag = normalize_group_tag(group_tag)
    if t.kind == AT_INFINITY or (tag in ("Gm", "ZpMul") and t.base == 0):
        return frozenset()
    classes = build_group(p, n).elements
    if tag == "Ga":
        return frozenset(TruncType1.at_infinity(c) for c in classes)
    if tag == "Gm":
        return frozenset(
            s for c in classes for s in (TruncType1.near(0, c), TruncType1.at_infinity(c))
        )
    if t.kind == NEAR:
        return frozenset()
    _, near_bases = _domain(tag, p, w)
    return frozenset(TruncType1.near(a, c) for a in near_bases for c in classes)


def _action_adjacency(group_tag, states, p: int, n: int) -> dict:
    """Exact symbolic action edges keeping every base inside the space."""
    tag = normalize_group_tag(group_tag)
    classes = build_group(p, n).elements
    realized_bases = [s.base for s in states if s.kind == REALIZED]
    adjacency: dict[TruncType1, set[TruncType1]] = {}
    for s in states:
        if tag in ("Ga", "ZpAdd"):
            if s.kind == AT_INFINITY:
                adjacency[s] = {s}
            else:
                adjacency[s] = {act_add(a - s.base, s) for a in realized_bases}
        elif tag == "Gm" and (s.kind == AT_INFINITY or s.base == 0):
            # the near-zero and at-infinity families: scalings move only the class
            adjacency[s] = {TruncType1(s.kind, s.base, c * s.klass) for c in classes}
        else:  # scaling by the ratios of the realized bases
            adjacency[s] = {act_mul(a / s.base, s) for a in realized_bases}
    return adjacency


CFG = (5, 2, 2)  # p, n, w
GROUP = build_group(5, 2)
C1 = class_of(1, 2, 5)
C2 = class_of(2, 2, 5)
C5 = class_of(5, 2, 5)


def all_near_zero():
    return {TruncType1.near(Fraction(0), c) for c in GROUP.elements}


def all_at_infinity():
    return {TruncType1.at_infinity(c) for c in GROUP.elements}


def test_normalize_group_tag():
    assert normalize_group_tag("zp-add") == "ZpAdd"
    assert normalize_group_tag("GA") == "Ga"
    assert normalize_group_tag("ZpMul") == "ZpMul"
    with pytest.raises(ValueError):
        normalize_group_tag("sl2")


def test_act_add_pinned():
    t = TruncType1.at_infinity(C1)
    assert act_add(3, t) == t
    near = TruncType1.near(7, C2)
    assert act_add(0, near) == near
    assert act_add(3, near) == TruncType1.near(10, C2)
    assert act_add(Fraction(1, 2), TruncType1.realized(3)) == TruncType1.realized(
        Fraction(7, 2)
    )


def test_act_mul_pinned():
    assert act_mul(5, TruncType1.near(0, C1)) == TruncType1.near(0, C5)
    near = TruncType1.near(1, C1)
    assert act_mul(1, near) == near
    assert act_mul(2, near) == TruncType1.near(2, C2)
    assert act_mul(2, TruncType1.at_infinity(C5)) == TruncType1.at_infinity(C2 * C5)
    with pytest.raises(ValueError):
        act_mul(0, near)


def test_action_tables_agree_with_realization_oracle():
    rng = random.Random(20260814)
    short = ScaleLadder.build(8, 2, length=4)
    doubled = ScaleLadder.build(8, 2, length=3).doubled_gap()
    types = enumerate_types(range(8), 2, 5)
    types += [TruncType1.realized(k) for k in range(1, 5)]
    for ladder in (short, doubled):
        for _ in range(500):
            t = rng.choice(types)
            g = Fraction(rng.randrange(1, 100), rng.randrange(1, 100))
            g *= Fraction(5) ** rng.randrange(-2, 3)
            if rng.random() < 0.3:
                g = -g
            rung = rng.randrange(1, len(ladder.rungs))
            if rng.random() < 0.5:
                expected = act_add(g, t)
                moved = realize(t, rung, ladder) + g
            else:
                expected = act_mul(g, t)
                moved = realize(t, rung, ladder) * g
            if (
                expected.kind == "near"
                and expected.base != 0
                and PadicRational.of(expected.base, 5).e < -2
            ):
                continue  # base fell out of the window; see coarsening test
            back = classify(moved, expected.base_points(), 2, 2, 5)
            assert back == expected, (str(t), g)


def test_deep_multipliers_coarsen_near_types_to_infinity():
    # a multiplier dragging the base below the window leaves a value the
    # truncation can only describe as at-infinity, in the moved class
    t = TruncType1.near(2, C1)
    g = Fraction(-72, 125)
    moved = realize(t, 1, ScaleLadder.build(8, 2, length=4)) * g
    got = classify(moved, [2 * g], 2, 2, 5)
    assert got == TruncType1.at_infinity(class_of(moved, 2, 5))


def test_closure_tables_pinned():
    assert closure_transitions(TruncType1.realized(1), "Gm", *CFG) == (
        all_near_zero() | all_at_infinity()
    )
    assert closure_transitions(TruncType1.realized(0), "Ga", *CFG) == all_at_infinity()
    assert closure_transitions(TruncType1.near(0, C2), "Gm", *CFG) == frozenset()
    assert closure_transitions(TruncType1.at_infinity(C2), "Gm", *CFG) == frozenset()
    bases = default_base_points(5, 2)
    assert closure_transitions(TruncType1.realized(3), "ZpAdd", *CFG) == {
        TruncType1.near(a, c) for a in bases for c in GROUP.elements
    }
    assert closure_transitions(TruncType1.near(3, C1), "ZpAdd", *CFG) == frozenset()
    unit_bases = [a for a in bases if a % 5 != 0]
    assert closure_transitions(TruncType1.realized(2), "ZpMul", *CFG) == {
        TruncType1.near(a, c) for a in unit_bases for c in GROUP.elements
    }


def test_closure_tables_match_extreme_valuation_sampling():
    # drive group elements far past every scale and classify the result
    n, w, p = 2, 2, 5
    deep = w + 2 * n + 5
    ladder = ScaleLadder.build(8, w, length=4)

    for a in (Fraction(1), Fraction(7)):
        observed = set()
        for c in GROUP.elements:
            for sign in (deep, -deep):
                moved = Fraction(c.representative) * Fraction(p) ** sign * a
                observed.add(classify(moved, [Fraction(0)], w, n, p))
        assert observed == closure_transitions(TruncType1.realized(a), "Gm", *CFG)

    source = TruncType1.near(2, C2)
    observed = set()
    for c in GROUP.elements:
        b = Fraction(c.representative) * Fraction(p) ** -deep
        moved = realize(source, 2, ladder) + b
        observed.add(classify(moved, [], w, n, p))
    assert observed == closure_transitions(source, "Ga", *CFG)

    bases = default_base_points(5, 2)
    nk = n * -(-deep // n)
    observed = set()
    for a_new in bases:
        for c in GROUP.elements:
            moved = a_new + Fraction(c.representative) * Fraction(p) ** nk
            observed.add(classify(moved, bases, w, n, p))
    assert observed == closure_transitions(TruncType1.realized(3), "ZpAdd", *CFG)

    unit_bases = [a for a in bases if a % 5 != 0]
    observed = set()
    for a_new in unit_bases:
        for c in GROUP.elements:
            scale = (a_new / 2) * (1 + Fraction(c.representative) * Fraction(p) ** nk)
            observed.add(classify(2 * scale, unit_bases, w, n, p))
    assert observed == closure_transitions(TruncType1.realized(2), "ZpMul", *CFG)


def test_gm_has_exactly_two_minimal_subflows():
    report = minimal_subflows("Gm", *CFG)
    assert len(report.minimal_subflows) == 2
    families = [set(f) for f in report.minimal_subflows]
    assert {len(f) for f in families} == {GROUP.order}
    assert all_near_zero() in families
    assert all_at_infinity() in families
    # each family is a single transitive orbit of the class action
    assert len(report.orbits) == 2
    assert {frozenset(o) for o in report.orbits} == {
        frozenset(f) for f in families
    }
    union = report.minimal_union()
    assert all(report.fgeneric_flags[s] == (s in union) for s in report.states)
    assert not report.fgeneric_flags[TruncType1.realized(1)]


def test_ga_minimal_subflows_are_at_infinity_fixed_points():
    report = minimal_subflows("Ga", *CFG)
    assert len(report.minimal_subflows) == GROUP.order
    for family in report.minimal_subflows:
        assert len(family) == 1
        (state,) = family
        assert state.kind == "at_infinity"
    rng = random.Random(5)
    for _ in range(200):
        b = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 50))
        for state in all_at_infinity():
            assert act_add(b, state) == state
    flags = report.fgeneric_flags
    assert all(flags[s] == (s.kind == "at_infinity") for s in report.states)


def test_ga_trivial_level_has_single_fixed_point():
    report = minimal_subflows("Ga", 5, 1, 2)
    assert len(report.minimal_subflows) == 1
    assert len(report.minimal_subflows[0]) == 1


def test_zp_add_worked_example():
    report = minimal_subflows("ZpAdd", 5, 2, 1)
    assert len(report.minimal_union()) == 5 * 4
    assert all(s.kind == "near" for s in report.minimal_union())
    assert len(report.orbits) == 4
    for orbit in report.orbits:
        classes = {s.klass for s in orbit}
        assert len(classes) == 1  # one orbit per class, all five bases
        assert {s.base for s in orbit} == {Fraction(i) for i in range(5)}


def test_zp_mul_orbits_have_twisted_class_form():
    report = minimal_subflows("ZpMul", *CFG)
    assert len(report.orbits) == 4
    assert {frozenset(f) for f in report.minimal_subflows} == {
        frozenset(o) for o in report.orbits
    }
    for orbit in report.orbits:
        assert len(orbit) == 20
        tags = {class_of(s.base, 2, 5).inverse() * s.klass for s in orbit}
        assert len(tags) == 1  # orbit is {Near(a, class(a) * C)} for fixed C


def test_flow_report_json_shape():
    payload = minimal_subflows("Gm", *CFG).to_json()
    assert payload["group_tag"] == "Gm"
    assert payload["minimal_state_count"] == 8
    assert payload["orbit_count"] == 2
    assert payload["state_count"] == len(state_space("Gm", *CFG))
    assert set(payload)
    flags = payload["f_generic"]
    assert flags["Near(0, 2)"] is True
    assert flags["Realized(1)"] is False


ORBIT_LEVELS = [(5, 2, 2), (3, 2, 2), (7, 2, 1), (2, 2, 2)]
# the levels the int flow is checked at against the symbolic oracle
FLOW_LEVELS = [(5, 1, 2), (5, 2, 2), (5, 3, 2), (3, 2, 2), (7, 2, 1), (3, 3, 3), (2, 2, 1)]


@pytest.mark.parametrize("tag", GROUP_TAGS)
@pytest.mark.parametrize("p, n, w", FLOW_LEVELS)
def test_int_successors_decode_to_the_symbolic_action_and_closure(p, n, w, tag):
    states = state_space(tag, p, n, w)
    action, closure = _successors(tag, p, n, w)
    assert len(action) == len(closure) == len(states) == len(set(states))
    oracle = _action_adjacency(tag, states, p, n)
    for s, moved, escaped in zip(states, action, closure):
        assert {states[t] for t in moved} == oracle[s], str(s)
        assert {states[t] for t in escaped} == closure_transitions(s, tag, p, n, w), str(s)


@pytest.mark.parametrize("tag", GROUP_TAGS)
@pytest.mark.parametrize("p, n, w", ORBIT_LEVELS)
def test_action_edges_come_in_inverse_pairs(p, n, w, tag):
    action = _action_adjacency(tag, state_space(tag, p, n, w), p, n)
    assert all(s in action[t] for s, targets in action.items() for t in targets)


@pytest.mark.parametrize("tag", GROUP_TAGS)
@pytest.mark.parametrize("p, n, w", ORBIT_LEVELS)
def test_orbits_are_the_weak_components_of_the_action_on_the_union(p, n, w, tag):
    report = minimal_subflows(tag, p, n, w)
    union = report.minimal_union()
    action = _action_adjacency(tag, state_space(tag, p, n, w), p, n)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(union)
    oracle.add_edges_from((s, t) for s in union for t in action[s] if t in union)
    expected = {frozenset(c) for c in nx.weakly_connected_components(oracle)}
    assert {frozenset(o) for o in report.orbits} == expected


def test_a_successor_outside_the_state_space_is_an_error(monkeypatch, capsys):
    def escaping(tag, p, n, w):
        action, closure = _successors(tag, p, n, w)
        closure[0] = [*closure[0], len(closure)]  # one past the last state
        return action, closure

    monkeypatch.setattr(flows, "_successors", escaping)
    with pytest.raises(ArithmeticError, match="left the state space"):
        minimal_subflows("Gm", *CFG)
    assert cli.run(["flows", "--group", "gm"]) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("tag", GROUP_TAGS)
@pytest.mark.parametrize("p, n, w", [*FLOW_LEVELS, (2, 2, 2)])
def test_minimal_subflows_are_the_attracting_components_of_action_and_closure(p, n, w, tag):
    report = minimal_subflows(tag, p, n, w)
    states = state_space(tag, p, n, w)
    action = _action_adjacency(tag, states, p, n)
    oracle = nx.DiGraph()
    oracle.add_nodes_from(states)
    for s in states:
        oracle.add_edges_from((s, t) for t in action[s] | closure_transitions(s, tag, p, n, w))
    expected = {frozenset(c) for c in nx.attracting_components(oracle)}
    assert {frozenset(f) for f in report.minimal_subflows} == expected


@pytest.mark.parametrize("p, n, w", ORBIT_LEVELS)
def test_state_space_sizes_match_closed_forms(p, n, w):
    q = p**w
    j = build_group(p, n).order
    expected = {
        "Ga": q + q * j + j,
        "Gm": (q - 1) + q * j + j,
        "ZpAdd": q * (1 + j),
        "ZpMul": (q - q // p) * (1 + j),
    }
    for tag in GROUP_TAGS:
        states = state_space(tag, p, n, w)
        assert len(states) == len(set(states)) == expected[tag], tag
