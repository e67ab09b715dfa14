"""Det-1 factoring, compact level groups, and the paired flow product."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from padyn import sl2
from padyn._graph import strongly_connected_components
from padyn.borel import build_flow_group, witness
from padyn.padic import PadicMatrix2, PadicRational
from padyn.residues import build_group, class_of
from padyn.sl2 import GFlowPoint
from padyn.types1 import DEFAULT_LADDER, ScaleLadder

P = 5
N = 2
M = 1
LADDER = ScaleLadder.build(gap=8, window_w=2, length=4)


def mat(rows, p=P):
    return PadicMatrix2.of(rows, p)


def btype(rep, n=N, p=P):
    return class_of(rep, n, p)


def unit_fraction(rng, p=P):
    picks = [k for k in range(1, 40) if k % p]
    return Fraction(rng.choice(picks), rng.choice(picks))


def k_group(p, m):
    """K at level m as KLevelElems, in k_level_group order."""
    return [sl2.KLevelElem(p, m, k) for k in sl2.k_level_group(p, m)]


def random_det_one(rng, p=P):
    def scaled(maybe_zero=False):
        if maybe_zero and rng.random() < 0.3:
            return Fraction(0)
        return unit_fraction(rng, p) * Fraction(p) ** rng.randint(-6, 6)

    if rng.random() < 0.1:
        b = scaled()
        return mat(((0, b), (-1 / b, scaled(maybe_zero=True))), p)
    a = scaled()
    b, c = scaled(maybe_zero=True), scaled(maybe_zero=True)
    return mat(((a, b), (c, (1 + b * c) / a)), p)


def random_integral_word(rng, length=6, p=P):
    gens = (
        mat(((1, 1), (0, 1)), p),
        mat(((1, 0), (1, 1)), p),
        mat(((0, -1), (1, 0)), p),
    )
    out = PadicMatrix2.identity(p)
    for _ in range(length):
        out = out @ rng.choice(gens)
    return out


# ----------------------------------------------------------------- iwasawa


def test_iwasawa_upper_input_passes_to_the_right():
    g = mat(((Fraction(1, 5), 3), (0, 5)))
    t, h = sl2.iwasawa(g)
    assert t == PadicMatrix2.identity(P)
    assert h == g


def test_iwasawa_upper_precedes_integral():
    # integral AND upper: the upper rule wins, t stays the identity
    g = mat(((1, 1), (0, 1)))
    t, h = sl2.iwasawa(g)
    assert t == PadicMatrix2.identity(P)
    assert h == g


def test_iwasawa_integral_input_passes_to_the_left():
    g = mat(((2, 1), (1, 1)))
    t, h = sl2.iwasawa(g)
    assert t == g
    assert h == PadicMatrix2.identity(P)


def test_iwasawa_pinned_lower_unipotent():
    t, h = sl2.iwasawa(mat(((1, 0), (Fraction(1, 5), 1))))
    assert t.rows() == ((5, -1), (1, 0))
    assert h.rows() == ((Fraction(1, 5), 1), (0, 5))


def test_iwasawa_pinned_vanishing_corner():
    t, h = sl2.iwasawa(mat(((0, 5), (Fraction(-1, 5), 3))))
    assert t.rows() == ((0, 1), (-1, 0))
    assert h.rows() == ((Fraction(1, 5), -3), (0, 5))
    # a zero corner over a lower-left entry of positive valuation
    t, h = sl2.iwasawa(mat(((0, Fraction(-1, 5)), (5, 0))))
    assert t.rows() == ((0, -1), (1, 0))
    assert h.rows() == ((5, 0), (0, Fraction(1, 5)))


def test_iwasawa_rejects_other_determinants():
    with pytest.raises(ValueError):
        sl2.iwasawa(mat(((2, 0), (0, 1))))


def test_iwasawa_reconstructs_random_matrices():
    rng = random.Random(11)
    for _ in range(400):
        g = random_det_one(rng)
        t, h = sl2.iwasawa(g)
        assert (t @ h).rows() == g.rows()
        assert t.is_unimodular_integral()
        assert h.is_upper_triangular()


# ------------------------------------------------------ rewriting past t


def test_rewrite_pinned_rotation():
    small = ScaleLadder(rungs=(5, 20), gap=2, window_w=2)
    h = witness(btype(1), small, 0)
    t2, h2 = sl2.borel_past_integral(h, mat(((0, -1), (1, 0))))
    assert t2.rows() == ((1, 0), (5**14, 1))
    assert h2.rows() == ((Fraction(1, 5**20), -(5**6)), (0, 5**20))


def test_rewrite_upper_right_factor_conjugates():
    h = mat(((2, 3), (0, Fraction(1, 2))))
    t = mat(((1, 7), (0, 1)))
    t2, h2 = sl2.borel_past_integral(h, t)
    assert t2 == t
    assert h2.rows() == ((2, Fraction(27, 2)), (0, Fraction(1, 2)))
    # this branch keeps the diagonal exactly
    assert (h2.a, h2.d) == (h.a, h.d)


def test_rewrite_witness_corner_depth_frozen():
    # for every level-2 type and any unit-cornered t, the rewrite's corner
    # valuation is exactly the spread between the first two rungs
    rights = (
        mat(((0, -1), (1, 0))),
        mat(((1, 0), (1, 1))),
        mat(((2, 3), (3, 5))),
    )
    for rep in (1, 2, 5, 10):
        h = witness(btype(rep), LADDER, 0)
        for t in rights:
            t2, h2 = sl2.borel_past_integral(h, t)
            assert PadicRational.of(t2.c, P).e == LADDER.rungs[1] - LADDER.rungs[0] == 86
            assert t2.congruent_to_identity(2)
            assert class_of(h2.a, N, P) == class_of(rep, N, P) * class_of(t.c, N, P)


def test_rewrite_degenerate_mix_raises():
    h = mat(((2, 0), (0, Fraction(1, 2))))
    with pytest.raises(ValueError):
        sl2.borel_past_integral(h, mat(((0, -1), (1, 0))))


def test_rewrite_validates_inputs():
    upper = mat(((2, 1), (0, Fraction(1, 2))))
    with pytest.raises(ValueError):
        sl2.borel_past_integral(mat(((1, 0), (1, 1))), mat(((1, 0), (0, 1))))
    with pytest.raises(ValueError):
        sl2.borel_past_integral(upper, mat(((1, Fraction(1, 5)), (0, 1))))
    with pytest.raises(ValueError):
        sl2.borel_past_integral(upper, mat(((1, 1), (0, 2))))
    with pytest.raises(ValueError):
        sl2.borel_past_integral(mat(((2, 0), (0, 1))), mat(((1, 0), (0, 1))))


def test_rewrite_random_words_stay_exact():
    # the unconditional contract: the product is preserved exactly and the
    # right output is upper triangular; t2 is the original right factor or
    # lower unipotent (integrality of its corner is a property of
    # witness-shaped inputs, frozen in the depth test above)
    rng = random.Random(23)
    done = 0
    while done < 150:
        a = unit_fraction(rng) * Fraction(P) ** rng.randint(-8, 8)
        b = unit_fraction(rng) * Fraction(P) ** rng.randint(-8, 8)
        h = mat(((a, b), (0, 1 / a)))
        t = random_integral_word(rng, length=rng.randint(1, 8))
        try:
            t2, h2 = sl2.borel_past_integral(h, t)
        except ValueError:
            continue
        assert (t2 @ h2).rows() == (h @ t).rows()
        assert h2.is_upper_triangular()
        assert t2 == t or (t2.a, t2.b, t2.d) == (1, 0, 1)
        assert t2.det() == 1
        done += 1


# ----------------------------------------------------------- level groups


def test_level_group_orders_frozen():
    assert len(sl2.k_level_group(5, 1)) == 120
    assert len(sl2.k_level_group(3, 1)) == 24
    assert len(sl2.k_level_group(5, 2)) == 15000


@pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)])
def test_level_group_is_every_det_one_matrix_in_order(p, m):
    mod = p**m
    brute = [
        (a, b, c, d)
        for a in range(mod)
        for b in range(mod)
        for c in range(mod)
        for d in range(mod)
        if (a * d - b * c) % mod == 1
    ]
    assert list(sl2.k_level_group(p, m)) == brute


def test_level_one_lifts_roundtrip():
    for k in k_group(5, 1):
        lifted = k.lift()
        assert lifted.is_integral()
        assert lifted.det() == 1
        assert sl2.KLevelElem.reduce(lifted, 1) == k


def test_lift_pinned_antidiagonal():
    k = sl2.KLevelElem.of((0, 1, 4, 0), 5, 1)
    assert k.lift().rows() == ((0, Fraction(-1, 4)), (4, 0))


def test_level_product_matches_matrix_product():
    rng = random.Random(41)
    group = k_group(5, 1)
    for _ in range(80):
        k1, k2 = rng.choice(group), rng.choice(group)
        assert sl2.KLevelElem.reduce(k1.lift() @ k2.lift(), 1) == k1 * k2


def test_level_elem_validation():
    with pytest.raises(ValueError):
        sl2.KLevelElem(5, 1, (1, 0, 0, 6))
    with pytest.raises(ValueError):
        sl2.KLevelElem.of((1, 1, 1, 1), 5, 1)
    with pytest.raises(ValueError):
        sl2.KLevelElem.reduce(mat(((Fraction(1, 5), 0), (0, 5))), 1)
    with pytest.raises(ValueError):
        sl2.KLevelElem.identity(5, 1) * sl2.KLevelElem.identity(5, 2)


def test_reduce_handles_prime_free_denominators():
    k = sl2.KLevelElem.reduce(mat(((Fraction(1, 2), 0), (0, 2))), 1)
    assert k.entries == (3, 0, 0, 2)


# ------------------------------------------------------------ the product


def ident_point(m=M, n=N, p=P):
    return sl2.GFlowPoint(sl2.KLevelElem.identity(p, m), class_of(1, n, p))


def test_star_identity_is_idempotent_both_paths():
    e = ident_point()
    assert sl2.star(e, e, LADDER) == e
    assert sl2.star(e, e, LADDER, perturbed=True) == e


def test_star_multiplies_classes_on_the_identity_fiber():
    ident = sl2.KLevelElem.identity(P, M)
    s = sl2.GFlowPoint(ident, btype(2))
    t = sl2.GFlowPoint(ident, btype(5))
    assert sl2.star(s, t, LADDER) == sl2.GFlowPoint(ident, btype(10))


def test_star_left_compact_part_rides_along():
    k = sl2.KLevelElem.of((1, 0, 1, 1), P, M)
    out = sl2.star(sl2.GFlowPoint(k, btype(1)), ident_point(), LADDER)
    assert out == sl2.GFlowPoint(k, btype(1))


def test_star_lower_corner_twists_the_class():
    # a right compact part with unit lower corner c never reaches the
    # compact output; it feeds cl(c) into the type instead
    k = sl2.KLevelElem.of((1, 0, 2, 1), P, M)
    out = sl2.star(ident_point(), sl2.GFlowPoint(k, btype(1)), LADDER)
    assert out == sl2.GFlowPoint(sl2.KLevelElem.identity(P, M), btype(2))
    perturbed = sl2.star(
        ident_point(), sl2.GFlowPoint(k, btype(1)), LADDER, perturbed=True
    )
    assert perturbed == out


def test_star_upper_compact_part_multiplies_through():
    k = sl2.KLevelElem.of((2, 1, 0, 3), P, M)
    s = sl2.GFlowPoint(sl2.KLevelElem.identity(P, M), btype(2))
    out = sl2.star(s, sl2.GFlowPoint(k, btype(5)), LADDER)
    assert out == sl2.GFlowPoint(k, btype(10))


def test_star_rejects_mixed_levels():
    with pytest.raises(ValueError):
        sl2.star(ident_point(), ident_point(m=2), LADDER)
    with pytest.raises(ValueError):
        sl2.star(ident_point(), ident_point(n=3), LADDER)


def star_shortcut(s: GFlowPoint, t: GFlowPoint) -> GFlowPoint:
    """Symbolic form of `star`: a right factor whose lift is upper
    triangular passes into the compact part, any other is absorbed into
    the triangular class through its lower-left corner."""
    p = s.k.prime
    level_n = s.j.level_n
    lifted = t.k.lift()
    if lifted.c == 0:
        return GFlowPoint(s.k * t.k, s.j * t.j)
    corner_class = class_of(lifted.c, level_n, p)
    return GFlowPoint(s.k, s.j * corner_class * t.j)


def test_star_agrees_with_shortcut_exhaustively():
    ident = sl2.KLevelElem.identity(P, M)
    types = [btype(r) for r in (1, 2, 5, 10)]
    for j1 in types:
        for k2 in k_group(P, M):
            for j2 in types:
                s = sl2.GFlowPoint(ident, j1)
                t = sl2.GFlowPoint(k2, j2)
                assert sl2.star(s, t, LADDER) == star_shortcut(s, t)


def test_star_agrees_with_shortcut_random_left_compact():
    # the left compact part only multiplies from the outside, so random
    # k1 discharges the remaining quantifier of the exhaustive check
    rng = random.Random(53)
    group = k_group(P, M)
    types = [btype(r) for r in (1, 2, 5, 10)]
    for _ in range(300):
        s = sl2.GFlowPoint(rng.choice(group), rng.choice(types))
        t = sl2.GFlowPoint(rng.choice(group), rng.choice(types))
        assert sl2.star(s, t, LADDER) == star_shortcut(s, t)


def test_star_agrees_with_shortcut_at_deeper_truncation():
    rng = random.Random(59)
    group = k_group(5, 2)
    types = build_group(5, 4).elements
    for _ in range(30):
        s = sl2.GFlowPoint(rng.choice(group), rng.choice(types))
        t = sl2.GFlowPoint(rng.choice(group), rng.choice(types))
        assert sl2.star(s, t, LADDER) == star_shortcut(s, t)


def test_star_perturbed_path_matches_plain():
    rng = random.Random(61)
    group = k_group(P, M)
    types = [btype(r) for r in (1, 2, 5, 10)]
    for _ in range(12):
        s = sl2.GFlowPoint(rng.choice(group), rng.choice(types))
        t = sl2.GFlowPoint(rng.choice(group), rng.choice(types))
        assert sl2.star(s, t, LADDER, perturbed=True) == sl2.star(s, t, LADDER)


def fraction_lower_perturbation(p, exponent):
    return mat(((1, 0), (Fraction(p) ** exponent, 1)), p)


def fraction_rewrite(h, t):
    """`borel_past_integral`'s rewrite h·t = t2·h2, computed on Fraction
    matrices from its closed form."""
    a, c = h.a, h.b
    u1, u2, u3, u4 = t.entries()
    if u3 == 0:
        t2, h2 = t, t.inverse() @ h @ t
    else:
        lead = a * u1 + c * u3
        t2 = mat(((1, 0), (u3 / (a * lead), 1)), h.prime)
        h2 = mat(((lead, a * u2 + c * u4), (0, 1 / lead)), h.prime)
    assert (t2 @ h2).rows() == (h @ t).rows()
    return t2, h2


def fraction_star(s, t, ladder, *, perturbed=False):
    """`star` on Fraction matrices: both witnesses through
    `PadicMatrix2.of`, the rewrite from its closed form, and a Fraction
    product of the triangular parts."""
    p = s.k.prime
    level_m = s.k.level_m
    level_n = s.j.level_n
    h1 = mat(witness(s.j, ladder, 0).rows(), p)
    h2 = mat(witness(t.j, ladder, 2).rows(), p)
    mid, h1 = fraction_rewrite(h1, t.k.lift())
    k_out = s.k * sl2.KLevelElem.reduce(mid, level_m)
    if perturbed:
        tau1 = fraction_lower_perturbation(p, level_m + ladder.window_w)
        k_out = s.k * sl2.KLevelElem.reduce(tau1, level_m) * sl2.KLevelElem.reduce(mid, level_m)
        tau2 = fraction_lower_perturbation(p, ladder.gap * (ladder.rungs[1] + ladder.window_w))
        deep, h1 = fraction_rewrite(h1, tau2)
        k_out = k_out * sl2.KLevelElem.reduce(deep, level_m)
    return sl2.GFlowPoint(k_out, class_of((h1 @ h2).a, level_n, p))


def test_rewrite_keeps_padic_witness_entries():
    for block in (0, 1, 2):
        h = witness(btype(2), LADDER, block)
        for k in k_group(P, M):
            t2, h2 = sl2.borel_past_integral(h, k.lift())
            assert all(type(x) is PadicRational for x in t2.entries() + h2.entries())
            assert (t2, h2) == sl2.borel_past_integral(mat(h.rows()), k.lift())


@pytest.mark.parametrize("p, n", [(5, 1), (5, 2), (5, 3), (5, 4), (7, 6)])
def test_star_matches_the_fraction_oracle_on_every_ellis_product(p, n, monkeypatch):
    checked = []
    padic_star = sl2.star

    def both(s, t, ladder, **kwargs):
        out = padic_star(s, t, ladder, **kwargs)
        assert out == fraction_star(s, t, ladder, **kwargs)
        checked.append((s, t))
        return out

    monkeypatch.setattr(sl2, "star", both)
    report = sl2.ellis_group(p, n, 1)
    assert len(checked) == sum(build_group(p, lev).order ** 2 for lev in report.levels)


@pytest.mark.parametrize("perturbed", [False, True])
def test_star_matches_the_fraction_oracle_on_random_pairs(perturbed):
    rng = random.Random(71)
    group = k_group(P, M)
    classes = build_group(P, N).elements
    for _ in range(60):
        s = sl2.GFlowPoint(rng.choice(group), rng.choice(classes))
        t = sl2.GFlowPoint(rng.choice(group), rng.choice(classes))
        out = sl2.star(s, t, LADDER, perturbed=perturbed)
        assert out == fraction_star(s, t, LADDER, perturbed=perturbed)


# -------------------------------------------------------------- the flow


def test_unit_generator_values():
    assert sl2._unit_generator(5, 3) == 2
    assert sl2._unit_generator(3, 1) == 2
    assert sl2._unit_generator(7, 1) == 3


def test_flow_generators_have_det_one():
    gens = sl2.flow_generators(5, 3)
    assert len(gens) == 5
    assert all(g.det() == 1 for g in gens)


def ident_state(flow, p=P, m=M):
    # class index 0 is the class of 1, the smallest representative
    return sl2.k_level_group(p, m).index((1, 0, 0, 1)) * flow.width


def test_act_translates_the_compact_part():
    flow = sl2.skew_product(P, N, M, M + DEFAULT_LADDER.window_w)
    lower = 1
    assert sl2.flow_generators(P, M + DEFAULT_LADDER.window_w)[lower] == mat(((1, 0), (1, 1)))
    moved = sl2.act(flow, lower, ident_state(flow))
    assert divmod(moved, flow.width) == (sl2.k_level_group(P, M).index((1, 0, 1, 1)), 0)


def test_act_dilation_twists_the_class():
    flow = sl2.skew_product(P, N, M, M + DEFAULT_LADDER.window_w)
    dilation = 3
    gens = sl2.flow_generators(P, M + DEFAULT_LADDER.window_w)
    assert gens[dilation] == mat(((5, 0), (0, Fraction(1, 5))))
    moved = sl2.act(flow, dilation, ident_state(flow))
    reps = [c.representative for c in build_group(P, N).elements]
    assert divmod(moved, flow.width) == (sl2.k_level_group(P, M).index((1, 0, 0, 1)), reps.index(5))


def reference_act(g, state):
    # the exact per-state path: no table, no cached class product
    t, h = sl2.iwasawa(g @ state.k.lift())
    n, p = state.j.level_n, g.prime
    return sl2.GFlowPoint(
        sl2.KLevelElem.reduce(t, state.k.level_m),
        class_of(h.a * state.j.representative, n, p),
    )


# iwasawa(g·lift(k)) over every (generator, K element): G upper triangular,
# G integral, or split through the first column
COCYCLE_BRANCHES = {
    (3, 2, 1): {"triangular": 20, "integral": 82, "split": 18},
    (5, 2, 1): {"triangular": 64, "integral": 436, "split": 100},
    (7, 2, 1): {"triangular": 132, "integral": 1_254, "split": 294},
    (5, 2, 2): {"triangular": 1_600, "integral": 58_900, "split": 14_500},
}


def test_every_cocycle_branch_occurs():
    for branch in ("triangular", "integral", "split"):
        assert any(counts[branch] for counts in COCYCLE_BRANCHES.values())


@pytest.mark.parametrize("p, n, m", list(COCYCLE_BRANCHES))
def test_tabulated_flow_matches_the_per_state_path(p, n, m, monkeypatch):
    unit_level = m + DEFAULT_LADDER.window_w
    gens = sl2.flow_generators(p, unit_level)
    ks = k_group(p, m)
    classes = build_group(p, n).elements
    # the int cocycle against the Fraction path on every (g, k), no sampling
    branches = Counter()
    for g, row in zip(gens, sl2.skew_product(p, n, m, unit_level).cocycle):
        assert len(row) == len(ks)
        for k, (k_out, twist) in zip(ks, row):
            big = g @ k.lift()
            t, h = sl2.iwasawa(big)
            assert ks[k_out] == sl2.KLevelElem.reduce(t, m)
            assert classes[twist] == class_of(h.a, n, p)
            if big.is_upper_triangular():
                branches["triangular"] += 1
            elif big.is_integral():
                branches["integral"] += 1
            else:
                branches["split"] += 1
    assert branches == COCYCLE_BRANCHES[(p, n, m)]
    if m > 1:
        return  # the per-state graph below is compared at the m = 1 levels
    moves = sl2.identification_moves(p, n, unit_level)
    states = [sl2.GFlowPoint(k, c) for k in ks for c in classes]
    plain, closed = {}, {}
    for state in states:
        outs = [reference_act(g, state) for g in gens]
        plain[state] = outs
        closed[state] = outs + [
            sl2.GFlowPoint(
                state.k * sl2.KLevelElem.reduce(bmat, m),
                class_of(mult.representative * state.j.representative, n, p),
            )
            for bmat, mult in moves
        ]
    # the int-coded graph minimal_flow hands to Tarjan, decoded: state i
    # is states[i], in k_level_group x class order
    decoded = []

    def recording(nodes, successors):
        nodes = list(nodes)
        decoded.append([[states[t] for t in successors(i)] for i in nodes])
        return strongly_connected_components(nodes, successors)

    monkeypatch.setattr(sl2, "strongly_connected_components", recording)
    report = sl2.minimal_flow(p, n, m)
    assert decoded == [[closed[state] for state in states]]
    components = strongly_connected_components(states, closed.__getitem__)
    assert report.size == len(states)
    assert report.strongly_connected == (len(components) == 1)
    # the generator edges alone already connect the flow at these levels
    assert len(strongly_connected_components(states, plain.__getitem__)) == 1


def test_minimal_flow_full_graph():
    report = sl2.minimal_flow(5, 2, 1)
    assert report.size == 480
    assert report.strongly_connected
    assert report.idempotent
    assert report.ellis.order == 4


def test_minimal_flow_connected_even_without_identifications():
    # the dilation edges already twist classes by cl(5)*cl(unit), which
    # spans the level together with the compact Cayley edges; the
    # identification moves are definitional, not load-bearing here
    flow = sl2.skew_product(P, N, M, M + DEFAULT_LADDER.window_w)
    states = range(len(sl2.k_level_group(P, M)) * flow.width)
    edges = {s: [sl2.act(flow, g, s) for g in range(len(flow.cocycle))] for s in states}
    assert len(strongly_connected_components(states, edges.__getitem__)) == 1


def test_minimal_flow_trivial_class_level():
    report = sl2.minimal_flow(5, 1, 1)
    assert report.size == 120
    assert report.strongly_connected
    assert report.idempotent


def test_ellis_group_level_four():
    report = sl2.ellis_group(5, 4, 1)
    assert report.order == 16
    assert report.levels == (1, 2, 4)
    assert report.iso_by_level == {1: True, 2: True, 4: True}
    assert report.valuation_injective_by_level == {1: True, 2: False, 4: False}
    assert report.tower == ((2, 1, True), (4, 1, True), (4, 2, True))


def test_ellis_group_level_six():
    report = sl2.ellis_group(5, 6, 1)
    assert report.order == 12
    assert report.levels == (1, 2, 3, 6)
    assert all(report.iso_by_level.values())
    assert all(ok for _, _, ok in report.tower)


def test_ellis_table_matches_flow_group():
    report = sl2.ellis_group(5, 2, 1)
    assert report.tables[2] == build_flow_group(5, 2, LADDER).table


def test_report_json_shapes():
    report = sl2.minimal_flow(5, 2, 1)
    data = report.to_json()
    assert sorted(data) == ["ellis", "idempotent", "size", "strongly_connected"]
    ellis = data["ellis"]
    assert sorted(ellis) == ["iso_checks", "order", "table", "tower"]
    assert len(ellis["table"]) == 4
    assert all(
        sorted(row) == ["iso_to_flow_group", "level_n", "valuation_map_injective"]
        for row in map(dict, ellis["iso_checks"])
    )
    assert ellis["tower"] == [{"from_level": 2, "to_level": 1, "commutes": True}]
