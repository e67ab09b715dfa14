"""Det-1 factoring, compact level groups, and the paired flow product."""

import random
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import pytest

from padyn import acceptance, cli, sl2
from padyn._graph import skew_components, strongly_connected_components
from padyn.borel import build_flow_group, witness
from padyn.padic import PadicMatrix2, PadicRational, mat_mul
from padyn.residues import ResidueClass, build_group, class_of
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


# the K layer is checked on every element at the first three levels and
# on a seeded sample at (5, 2), where K has 15 000 elements
K_LAYER_LEVELS = [(3, 2), (5, 1), (7, 1), (5, 2)]


def k_sample(p, m):
    ks = sl2.k_level_group(p, m)
    return random.Random(37).sample(ks, 300) if (p, m) == (5, 2) else ks


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


def fraction_rows(g):
    return tuple(tuple(x.to_fraction() for x in row) for row in g.rows())


def fraction_inverse(rows):
    # the inverse of a det-1 matrix
    (a, b), (c, d) = rows
    return ((d, -b), (-c, a))


def iwasawa_by_inverse(g):
    # the general case as it was before the closed form, on Fraction rows:
    # t from the scaled first column, and h = t^-1 @ g by exact matrix
    # arithmetic
    p = g.prime
    rows = fraction_rows(g)
    (a, _), (c, _) = rows
    top, bot = PadicRational.of(a, p), PadicRational.of(c, p)
    pivot_top = bool(top) and top.e <= bot.e
    scale = Fraction(p) ** (top.e if pivot_top else bot.e)
    u0, u1 = a / scale, c / scale
    if pivot_top:
        t = ((u0, Fraction(0)), (u1, 1 / u0))
    else:
        t = ((u0, -1 / u1), (u1, Fraction(0)))
    return t, mat_mul(fraction_inverse(t), rows)


# the three inputs whose CLI output test_cli pins: pivot on c, a zero a,
# and a valuation tie
PINNED_IWASAWA_INPUTS = [
    ((1, 0), (Fraction(1, 5), 1)),
    ((0, 1), (-1, Fraction(1, 5))),
    ((Fraction(1, 5), 0), (Fraction(1, 5), 5)),
]


def test_closed_form_iwasawa_matches_the_inverse_product():
    rng = random.Random(acceptance.DEFAULT_SEED)
    inputs = [acceptance._random_det_one(rng, P) for _ in range(2000)]
    inputs += [mat(rows) for rows in PINNED_IWASAWA_INPUTS]
    general = 0
    for g in inputs:
        if g.is_upper_triangular() or g.is_integral():
            continue
        general += 1
        t, h = sl2.iwasawa(g)
        want_t, want_h = iwasawa_by_inverse(g)
        for got, want in ((t, want_t), (h, want_h)):
            assert fraction_rows(got) == want
            assert all(type(x) is PadicRational and x.p == P for x in got.entries())
    assert general > 1500


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


@pytest.mark.parametrize("p, m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_closed_form_rank_is_the_level_group_index(p, m):
    # the flow finds K elements by `_k_rank`, never by a table
    rank = sl2._k_rank(p, m)
    group = sl2.k_level_group(p, m)
    assert [rank(*k) for k in group] == list(range(len(group)))
    assert all(type(column) is array for column in sl2._k_entries(p, m))
    assert list(zip(*sl2._k_entries(p, m))) == list(group)


@pytest.mark.parametrize("p, m", K_LAYER_LEVELS)
def test_lifts_roundtrip(p, m):
    for k in k_sample(p, m):
        lifted = sl2.k_lift(k, p, m)
        assert lifted.is_integral()
        assert lifted.det() == 1
        assert sl2.k_reduce(lifted, m) == k


def test_lift_pinned_antidiagonal():
    assert sl2.k_lift((0, 1, 4, 0), 5, 1).rows() == ((0, Fraction(-1, 4)), (4, 0))


@pytest.mark.parametrize("p, m", K_LAYER_LEVELS)
def test_level_product_matches_matrix_product(p, m):
    # each element once on either side of a random partner
    rng = random.Random(41)
    group = sl2.k_level_group(p, m)
    for k1 in k_sample(p, m):
        k2 = rng.choice(group)
        for x, y in ((k1, k2), (k2, k1)):
            product = sl2.k_lift(x, p, m) @ sl2.k_lift(y, p, m)
            assert sl2.k_reduce(product, m) == sl2.k_mul(x, y, p**m)


@dataclass(frozen=True)
class FrozenPoint:
    """The frozen dataclass layout `GFlowPoint` has: equality and hash by
    the tuple of its fields."""

    k: tuple
    j: object
    level_m: int


def test_flow_point_equality_and_hash_match_the_dataclass():
    rng = random.Random(43)
    group = sl2.k_level_group(3, 1)
    classes = build_group(3, 2).elements + build_group(3, 4).elements
    classes += [ResidueClass(c.prime, c.level_n, c.representative) for c in classes]
    # few values, so equal points built apart (from equal, not identical,
    # parts) are common; the classes of the two levels share representatives
    draws = [(tuple(list(rng.choice(group[:4]))), rng.choice(classes)) for _ in range(40)]
    points = [GFlowPoint(k, j, 1) for k, j in draws]
    twins = [FrozenPoint(k, j, 1) for k, j in draws]
    for s, f in zip(points, twins):
        assert hash(s) == hash(f)
        for t, e in zip(points, twins):
            assert (s == t) == (f == e) and (s != t) == (f != e)
    assert s != f and s != None and not s == (s.k, s.j, s.level_m)  # noqa: E711
    with pytest.raises(TypeError):
        sorted(points)
    key = lambda x: (x.k, x.j.representative)  # noqa: E731
    assert [draws.index((s.k, s.j)) for s in sorted(points, key=key)] == [
        draws.index((f.k, f.j)) for f in sorted(twins, key=key)
    ]
    keys, twin_keys = {}, {}
    for i, (s, f) in enumerate(zip(points, twins)):
        keys.setdefault(s, i)
        twin_keys.setdefault(f, i)
    assert [keys[s] for s in points] == [twin_keys[f] for f in twins]

    @lru_cache(maxsize=None)
    def cached(x):
        return x

    @lru_cache(maxsize=None)
    def cached_twin(x):
        return x

    for s, f in zip(points, twins):
        assert cached(s) == s and cached_twin(f) == f
    assert cached.cache_info() == cached_twin.cache_info()
    assert repr(points[0]) == repr(twins[0]).replace("FrozenPoint", "GFlowPoint")


def test_level_elem_validation():
    j = btype(1)
    with pytest.raises(ValueError):
        GFlowPoint((1, 0, 0, 6), j, 1)  # not reduced mod 5
    with pytest.raises(ValueError):
        GFlowPoint((1, 1, 1, 1), j, 1)  # det 0
    with pytest.raises(ValueError):
        GFlowPoint((6, 0, 0, 21), j, 1)  # det 1 mod 25, but not reduced mod 5
    assert GFlowPoint((6, 0, 0, 21), j, 2).k == (6, 0, 0, 21)
    with pytest.raises(ValueError):
        sl2.k_reduce(mat(((Fraction(1, 5), 0), (0, 5))), 1)


def test_reduce_handles_prime_free_denominators():
    assert sl2.k_reduce(mat(((Fraction(1, 2), 0), (0, 2))), 1) == (3, 0, 0, 2)


# ------------------------------------------------------------ the product


def ident_point(m=M, n=N, p=P):
    return GFlowPoint.identity(p, n, m)


def test_star_identity_is_idempotent_both_paths():
    e = ident_point()
    assert sl2.star(e, e, LADDER) == e
    assert sl2.star(e, e, LADDER, perturbed=True) == e


def test_star_multiplies_classes_on_the_identity_fiber():
    ident = (1, 0, 0, 1)
    s = GFlowPoint(ident, btype(2), M)
    t = GFlowPoint(ident, btype(5), M)
    assert sl2.star(s, t, LADDER) == GFlowPoint(ident, btype(10), M)


def test_star_left_compact_part_rides_along():
    k = (1, 0, 1, 1)
    out = sl2.star(GFlowPoint(k, btype(1), M), ident_point(), LADDER)
    assert out == GFlowPoint(k, btype(1), M)


def test_star_lower_corner_twists_the_class():
    # a right compact part with unit lower corner c never reaches the
    # compact output; it feeds cl(c) into the type instead
    k = (1, 0, 2, 1)
    out = sl2.star(ident_point(), GFlowPoint(k, btype(1), M), LADDER)
    assert out == GFlowPoint((1, 0, 0, 1), btype(2), M)
    perturbed = sl2.star(ident_point(), GFlowPoint(k, btype(1), M), LADDER, perturbed=True)
    assert perturbed == out


def test_star_upper_compact_part_multiplies_through():
    k = (2, 1, 0, 3)
    s = GFlowPoint((1, 0, 0, 1), btype(2), M)
    out = sl2.star(s, GFlowPoint(k, btype(5), M), LADDER)
    assert out == GFlowPoint(k, btype(10), M)


def test_star_rejects_mixed_levels():
    with pytest.raises(ValueError):
        sl2.star(ident_point(), ident_point(m=2), LADDER)
    with pytest.raises(ValueError):
        sl2.star(ident_point(), ident_point(n=3), LADDER)


def star_shortcut(s: GFlowPoint, t: GFlowPoint) -> GFlowPoint:
    """Symbolic form of `star`: a right factor whose lift is upper
    triangular passes into the compact part, any other is absorbed into
    the triangular class through its lower-left corner."""
    p, level_n, m = s.j.prime, s.j.level_n, s.level_m
    lifted = sl2.k_lift(t.k, p, m)
    if lifted.c == 0:
        return GFlowPoint(sl2.k_mul(s.k, t.k, p**m), s.j * t.j, m)
    corner_class = class_of(lifted.c, level_n, p)
    return GFlowPoint(s.k, s.j * corner_class * t.j, m)


def test_star_agrees_with_shortcut_exhaustively():
    types = [btype(r) for r in (1, 2, 5, 10)]
    for j1 in types:
        for k2 in sl2.k_level_group(P, M):
            for j2 in types:
                s = GFlowPoint((1, 0, 0, 1), j1, M)
                t = GFlowPoint(k2, j2, M)
                assert sl2.star(s, t, LADDER) == star_shortcut(s, t)


def test_star_agrees_with_shortcut_random_left_compact():
    # the left compact part only multiplies from the outside, so random
    # k1 discharges the remaining quantifier of the exhaustive check
    rng = random.Random(53)
    group = sl2.k_level_group(P, M)
    types = [btype(r) for r in (1, 2, 5, 10)]
    for _ in range(300):
        s = GFlowPoint(rng.choice(group), rng.choice(types), M)
        t = GFlowPoint(rng.choice(group), rng.choice(types), M)
        assert sl2.star(s, t, LADDER) == star_shortcut(s, t)


def test_star_agrees_with_shortcut_at_deeper_truncation():
    rng = random.Random(59)
    group = sl2.k_level_group(5, 2)
    types = build_group(5, 4).elements
    for _ in range(30):
        s = GFlowPoint(rng.choice(group), rng.choice(types), 2)
        t = GFlowPoint(rng.choice(group), rng.choice(types), 2)
        assert sl2.star(s, t, LADDER) == star_shortcut(s, t)


def test_star_perturbed_path_matches_plain():
    rng = random.Random(61)
    group = sl2.k_level_group(P, M)
    types = [btype(r) for r in (1, 2, 5, 10)]
    for _ in range(12):
        s = GFlowPoint(rng.choice(group), rng.choice(types), M)
        t = GFlowPoint(rng.choice(group), rng.choice(types), M)
        assert sl2.star(s, t, LADDER, perturbed=True) == sl2.star(s, t, LADDER)


def test_ellis_group_makes_no_star_and_no_rewrite(monkeypatch):
    # the identity fibre's tables are the flow group's, read from
    # `build_flow_group`, so no flow point is multiplied and no witness
    # slides past a compact part
    calls = []
    for name in ("star", "borel_past_integral"):
        monkeypatch.setattr(sl2, name, lambda *args, name=name, **kwargs: calls.append(name))
    build_flow_group.cache_clear()
    assert all(sl2.ellis_group(7, 6).iso_by_level.values())
    assert calls == []


def fraction_lower_perturbation(p, exponent):
    return ((1, 0), (Fraction(p) ** exponent, 1))


def fraction_lift(k, p):
    den, rows = sl2._lift_scaled(k, p)
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def fraction_reduce(rows, p, level_m):
    mod = p**level_m
    return tuple(x.numerator * pow(x.denominator, -1, mod) % mod for row in rows for x in row)


def fraction_rewrite(h, t):
    """`borel_past_integral`'s rewrite h·t = t2·h2, computed on Fraction
    rows from its closed form."""
    (a, c), _ = h
    (u1, u2), (u3, u4) = t
    if u3 == 0:
        t2, h2 = t, mat_mul(mat_mul(fraction_inverse(t), h), t)
    else:
        lead = a * u1 + c * u3
        t2 = ((1, 0), (u3 / (a * lead), 1))
        h2 = ((lead, a * u2 + c * u4), (0, 1 / lead))
    assert mat_mul(t2, h2) == mat_mul(h, t)
    return t2, h2


def fraction_star(s, t, ladder, *, perturbed=False):
    """`star` on Fraction rows: both witnesses and the right factor's
    lift as Fractions, the rewrite from its closed form, and a Fraction
    product of the triangular parts."""
    p, level_n, level_m = s.j.prime, s.j.level_n, s.level_m
    mod = p**level_m
    h1 = fraction_rows(witness(s.j, ladder, 0))
    h2 = fraction_rows(witness(t.j, ladder, 2))
    mid, h1 = fraction_rewrite(h1, fraction_lift(t.k, p))
    k_out = sl2.k_mul(s.k, fraction_reduce(mid, p, level_m), mod)
    if perturbed:
        tau1 = fraction_lower_perturbation(p, level_m + ladder.window_w)
        k_out = sl2.k_mul(s.k, fraction_reduce(tau1, p, level_m), mod)
        k_out = sl2.k_mul(k_out, fraction_reduce(mid, p, level_m), mod)
        tau2 = fraction_lower_perturbation(p, ladder.gap * (ladder.rungs[1] + ladder.window_w))
        deep, h1 = fraction_rewrite(h1, tau2)
        k_out = sl2.k_mul(k_out, fraction_reduce(deep, p, level_m), mod)
    return GFlowPoint(k_out, class_of(mat_mul(h1, h2)[0][0], level_n, p), level_m)


def test_rewrite_keeps_padic_witness_entries():
    for block in (0, 1, 2):
        h = witness(btype(2), LADDER, block)
        for k in sl2.k_level_group(P, M):
            lifted = sl2.k_lift(k, P, M)
            t2, h2 = sl2.borel_past_integral(h, lifted)
            assert all(type(x) is PadicRational for x in t2.entries() + h2.entries())
            assert (t2, h2) == sl2.borel_past_integral(mat(fraction_rows(h)), lifted)


def identity_fibre(p, n, m):
    """The points (I, j) for every class j at level n."""
    return [GFlowPoint((1, 0, 0, 1), j, m) for j in build_group(p, n).elements]


@pytest.mark.parametrize("p, n", [(5, 1), (5, 2), (5, 3), (5, 4), (7, 6)])
def test_star_matches_the_fraction_oracle_on_every_ellis_product(p, n):
    # every product of the identity fibre at each level of the divisor
    # tower `ellis_group` reports
    checked = 0
    for lev in sl2.ellis_group(p, n).levels:
        points = identity_fibre(p, lev, 1)
        for s in points:
            for t in points:
                assert sl2.star(s, t, DEFAULT_LADDER) == fraction_star(s, t, DEFAULT_LADDER)
                checked += 1
    assert checked == sum(build_group(p, d).order ** 2 for d in range(1, n + 1) if n % d == 0)


@pytest.mark.parametrize(
    "ladder", [LADDER, DEFAULT_LADDER.doubled_gap()], ids=["gap-8", "doubled-gap"]
)
@pytest.mark.parametrize("perturbed", [False, True])
def test_star_matches_the_fraction_oracle_on_random_pairs(perturbed, ladder):
    rng = random.Random(71)
    group = sl2.k_level_group(P, M)
    classes = build_group(P, N).elements
    for _ in range(60):
        s = GFlowPoint(rng.choice(group), rng.choice(classes), M)
        t = GFlowPoint(rng.choice(group), rng.choice(classes), M)
        out = sl2.star(s, t, ladder, perturbed=perturbed)
        assert out == fraction_star(s, t, ladder, perturbed=perturbed)


# -------------------------------------------------------------- the flow


def test_unit_generator_values():
    assert sl2._unit_generator(5, 3) == 2
    assert sl2._unit_generator(3, 1) == 2
    assert sl2._unit_generator(7, 1) == 3


def test_flow_generators_have_det_one():
    gens = sl2.flow_generators(5, 3)
    assert len(gens) == 5
    assert all(g.det() == 1 for g in gens)


def ident_state(flow):
    assert sl2.k_level_group(P, M)[flow.identity] == (1, 0, 0, 1)
    assert build_group(P, N).elements[flow.trivial].representative == 1
    return flow.identity * flow.width + flow.trivial


def test_act_translates_the_compact_part():
    flow = sl2.skew_product(P, N, M, M + DEFAULT_LADDER.window_w)
    lower = 1
    assert sl2.flow_generators(P, M + DEFAULT_LADDER.window_w)[lower] == mat(((1, 0), (1, 1)))
    moved = sl2.act(flow, lower, ident_state(flow))
    assert divmod(moved, flow.width) == (sl2.k_level_group(P, M).index((1, 0, 1, 1)), flow.trivial)


def test_act_dilation_twists_the_class():
    flow = sl2.skew_product(P, N, M, M + DEFAULT_LADDER.window_w)
    dilation = 3
    gens = sl2.flow_generators(P, M + DEFAULT_LADDER.window_w)
    assert gens[dilation] == mat(((5, 0), (0, Fraction(1, 5))))
    moved = sl2.act(flow, dilation, ident_state(flow))
    reps = [c.representative for c in build_group(P, N).elements]
    assert divmod(moved, flow.width) == (flow.identity, reps.index(5))


def reference_act(g, state):
    # the exact per-state path: no table, no cached class product
    n, p, m = state.j.level_n, g.prime, state.level_m
    t, h = sl2.iwasawa(g @ sl2.k_lift(state.k, p, m))
    return GFlowPoint(sl2.k_reduce(t, m), class_of(h.a * state.j.representative, n, p), m)


# iwasawa(g·lift(k)) over every (generator, K element): G upper triangular,
# G integral, or split through the first column
COCYCLE_BRANCHES = {
    (3, 2, 1): {"triangular": 20, "integral": 82, "split": 18},
    (5, 2, 1): {"triangular": 64, "integral": 436, "split": 100},
    (7, 2, 1): {"triangular": 132, "integral": 1_254, "split": 294},
    (5, 2, 2): {"triangular": 1_600, "integral": 58_900, "split": 14_500},
}


def cocycle_entries(flow, ks):
    # the flat columns decoded: (generator index, K element, K element
    # out, class index) for every entry
    for g, (targets, twists) in enumerate(flow.cocycle):
        for k, k_out, twist in zip(ks, targets, twists, strict=True):
            yield g, k, ks[k_out], twist


def test_every_cocycle_branch_occurs():
    # each branch of iwasawa(g·lift(k)) shows in the decoded columns in
    # its own shape: a triangular G sends k to I, an integral one to
    # g·k mod p^m with the trivial class, a split one elsewhere with
    # class(p^(e+w)); the branch is read from the exact integer matrix
    for branch in ("triangular", "integral", "split"):
        assert any(counts[branch] for counts in COCYCLE_BRANCHES.values())
    for p, n, m in [(3, 2, 1), (5, 2, 1)]:
        unit_level = m + DEFAULT_LADDER.window_w
        gens = sl2.flow_generators(p, unit_level)
        ks = sl2.k_level_group(p, m)
        flow = sl2.skew_product(p, n, m, unit_level)
        reps = [c.representative for c in build_group(p, n).elements]
        branches = Counter()
        for g, k, k_out, twist in cocycle_entries(flow, ks):
            big = gens[g] @ sl2.k_lift(k, p, m)
            if big.is_upper_triangular():
                branches["triangular"] += 1
                assert k_out == (1, 0, 0, 1)
            elif big.is_integral():
                branches["integral"] += 1
                assert (k_out, twist) == (sl2.k_reduce(big, m), flow.trivial)
            else:
                branches["split"] += 1
                valuation = min(big.a.e, big.c.e) if big.a else big.c.e
                assert reps[twist] == class_of(Fraction(p) ** valuation, n, p).representative
        assert branches == COCYCLE_BRANCHES[(p, n, m)]


@pytest.mark.parametrize("p, n, m", list(COCYCLE_BRANCHES))
def test_tabulated_flow_matches_the_per_state_path(p, n, m, monkeypatch):
    unit_level = m + DEFAULT_LADDER.window_w
    gens = sl2.flow_generators(p, unit_level)
    ks = sl2.k_level_group(p, m)
    classes = build_group(p, n).elements
    # the flat int columns, decoded, against the Fraction path on every
    # (g, k), no sampling; k outermost, so each K element is lifted once
    cocycle = sl2.skew_product(p, n, m, unit_level).cocycle
    assert len(cocycle) == len(gens)
    assert all(len(targets) == len(twists) == len(ks) for targets, twists in cocycle)
    branches = Counter()
    for i, k in enumerate(ks):
        lifted = sl2.k_lift(k, p, m)
        for g, (targets, twists) in zip(gens, cocycle):
            big = g @ lifted
            t, h = sl2.iwasawa(big)
            assert ks[targets[i]] == sl2.k_reduce(t, m)
            assert classes[twists[i]] == class_of(h.a, n, p)
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
    states = [GFlowPoint(k, c, m) for k in ks for c in classes]
    plain, closed = {}, {}
    for state in states:
        outs = [reference_act(g, state) for g in gens]
        plain[state] = outs
        closed[state] = outs + [
            GFlowPoint(
                sl2.k_mul(state.k, sl2.k_reduce(bmat, m), p**m),
                class_of(mult.representative * state.j.representative, n, p),
                m,
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


# the integral flow generators, and integral matrices whose lower row
# makes g·lift(k) upper triangular at other cells (c = a, or c = 0 with
# a shear)
def integral_moves(p, unit):
    return sl2.flow_generators(p, unit)[:3] + (
        sl2.flow_generators(p, unit)[4],
        mat(((1, 0), (-1, 1)), p),
        mat(((2, 1), (1, 1)), p),
        mat(((1, 2), (0, 1)), p),
    )


@pytest.mark.parametrize("p, n, m", [(3, 2, 1), (5, 2, 1), (7, 2, 1), (3, 2, 2), (2, 2, 1)])
def test_lift_free_integral_columns_match_the_general_closed_form(p, n, m):
    # the lift-free path (g·k mod p^m, or the closed form where g·lift(k)
    # is exactly upper triangular) on every K element, against
    # iwasawa(g·lift(k)) on the exact matrix; the units mod 2^3 have no
    # generator, so p = 2 takes one mod 2^2
    unit = 2 if p == 2 else m + DEFAULT_LADDER.window_w
    entries = sl2._k_entries(p, m)
    ks, classes = sl2.k_level_group(p, m), build_group(p, n).elements
    exceptions = 0
    for g in integral_moves(p, unit):
        assert g.is_integral()
        targets, twists = sl2._cocycle_column(g, p, n, m, entries)
        for k, k_out, twist in zip(ks, targets, twists):
            t, h = sl2.iwasawa(g @ sl2.k_lift(k, p, m))
            assert (ks[k_out], classes[twist]) == (sl2.k_reduce(t, m), class_of(h.a, n, p))
        exceptions += sum(ks[k_out] == (1, 0, 0, 1) for k_out in targets)
    assert exceptions > 0


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


# generator indices in `flow_generators`
LOWER, TORUS, DILATION = 1, 2, 3


def explicit_components(flow, columns):
    # the derived graph on K x J, one edge per (move, state), by Tarjan
    width, products = flow.width, flow.products
    def edge(column, k):
        targets, twists = column
        return targets[k], twists if isinstance(twists, int) else twists[k]

    successors = [
        [v * width + products[twist][j] for v, twist in (edge(column, k) for column in columns)]
        for k in range(len(columns[0][0]))
        for j in range(width)
    ]
    return len(strongly_connected_components(range(len(successors)), successors.__getitem__))


@pytest.mark.parametrize("p, n, m", [(3, 2, 1), (5, 2, 1), (7, 2, 1), (5, 4, 1), (3, 6, 1), (3, 3, 2)])
def test_holonomy_counts_match_tarjan_on_the_skew_product(p, n, m):
    # every move; without the dilation the valuation mod n is invariant,
    # so n components, with or without the torus; the lower unipotent is
    # not needed; the slides alone do not connect K
    flow = sl2.skew_product(p, n, m, m + DEFAULT_LADDER.window_w)

    def without(*dropped):
        return [c for g, c in enumerate(flow.cocycle) if g not in dropped] + list(flow.slides)

    cases = [
        (without(), 1),
        (without(DILATION), n),
        (without(DILATION, TORUS), n),
        (without(LOWER), 1),
        (list(flow.slides), None),
    ]
    for columns, expected in cases:
        count = skew_components(columns, flow.products, flow.identity, flow.trivial)
        assert count == expected
        explicit = explicit_components(flow, columns)
        assert explicit > 1 if expected is None else explicit == expected


def test_minimal_flow_work_counts(monkeypatch):
    # the explicit graph, and with it every act call, is built only as the
    # cross-check at most CROSS_CHECK_STATES states: at (5, 2, 1) 480
    # states, each with 5 generator edges (act calls) and 3 slides; at
    # (7, 6, 1), 12 096 states, holonomy alone decides
    calls = Counter()
    act, scc = sl2.act, sl2.strongly_connected_components

    def counted_act(*args):
        calls["act"] += 1
        return act(*args)

    def counted_scc(nodes, successors):
        nodes = list(nodes)
        calls["scc"] += 1
        calls["nodes"] += len(nodes)
        calls["edges"] += sum(len(successors(node)) for node in nodes)
        return scc(nodes, successors)

    monkeypatch.setattr(sl2, "act", counted_act)
    monkeypatch.setattr(sl2, "strongly_connected_components", counted_scc)
    assert 480 <= sl2.CROSS_CHECK_STATES < 12_096
    assert sl2.minimal_flow(5, 2, 1).strongly_connected
    assert calls == {"act": 2400, "scc": 1, "nodes": 480, "edges": 3840}
    calls.clear()
    assert sl2.minimal_flow(7, 6, 1).strongly_connected
    assert calls == {}


def test_minimal_flow_matrix_product_count(monkeypatch):
    # from empty caches, only the rewrites form whole products: the
    # identity fibre's tables are the flow group's, which form none
    # (test_ellis_group_makes_no_star_and_no_rewrite), and the plain
    # basepoint's witness needs no rewrite past lift(I) = I, so only the
    # perturbed basepoint's exact check forms two; star itself forms only
    # the leading entry of h1 @ h2
    calls = []
    product = PadicMatrix2.__matmul__

    def counted(left, right):
        calls.append(left)
        return product(left, right)

    monkeypatch.setattr(PadicMatrix2, "__matmul__", counted)
    for cached in (witness, sl2.k_lift, build_flow_group):
        cached.cache_clear()
    assert sl2.minimal_flow(7, 6, 1).idempotent
    assert len(calls) == 2


def test_minimal_flow_cross_check_disagreement_raises(monkeypatch, capsys):
    # an internal error (exit 3), never a reported failure (exit 1)
    monkeypatch.setattr(sl2, "skew_components", lambda *args: 2)
    with pytest.raises(ArithmeticError, match="holonomy and Tarjan disagree"):
        sl2.minimal_flow(5, 2, 1)
    assert cli.main(["minimal-flow"]) == 3
    assert "holonomy and Tarjan disagree" in capsys.readouterr().err


def test_ellis_group_level_four():
    report = sl2.ellis_group(5, 4)
    assert report.order == 16
    assert report.levels == (1, 2, 4)
    assert report.iso_by_level == {1: True, 2: True, 4: True}
    assert report.valuation_injective_by_level == {1: True, 2: False, 4: False}
    assert report.tower == ((2, 1, True), (4, 1, True), (4, 2, True))


def test_ellis_group_level_six():
    report = sl2.ellis_group(5, 6)
    assert report.order == 12
    assert report.levels == (1, 2, 3, 6)
    assert all(report.iso_by_level.values())
    assert all(ok for _, _, ok in report.tower)


@pytest.mark.parametrize(
    "p, n, m, ladder",
    [
        (5, 2, 1, DEFAULT_LADDER),
        (5, 4, 2, DEFAULT_LADDER),
        (3, 6, 2, DEFAULT_LADDER.doubled_gap()),
        (7, 6, 1, DEFAULT_LADDER.doubled_gap()),
    ],
)
def test_star_on_the_identity_fibre_is_the_flow_group(p, n, m, ladder):
    # the SL(2) product on the points (I, j) stays on the fibre and is
    # the triangular flow group's, which `ellis_group` reports
    points = identity_fibre(p, n, m)
    table = {}
    for s in points:
        for t in points:
            out = sl2.star(s, t, ladder)
            assert out.k == (1, 0, 0, 1)
            table[s.j.representative, t.j.representative] = out.j.representative
    assert table == build_flow_group(p, n, ladder)
    assert table == sl2.ellis_group(p, n, ladder).tables[n]


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
