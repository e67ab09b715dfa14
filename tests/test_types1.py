"""Truncated 1-types: ladder, realization witnesses, classifier."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padyn.padic import PadicRational
from padyn.residues import build_group, class_of
from padyn.types1 import (
    DEFAULT_LADDER,
    ScaleLadder,
    TruncType1,
    WindowTooCoarseError,
    classify,
    enumerate_types,
    realize,
    roundtrip_check,
)


def default_ladder() -> ScaleLadder:
    return ScaleLadder.build(8, 2)


def test_ladder_rungs_from_default_config():
    ladder = default_ladder()
    assert ladder.rungs == (10, 96, 784, 6288, 50320, 402576)
    assert DEFAULT_LADDER.rungs == (10, 96, 784, 6288)


def test_ladder_separation_enforced():
    with pytest.raises(ValueError):
        ScaleLadder((10, 20), 8, 2)  # 20 < 8 * 12
    with pytest.raises(ValueError):
        ScaleLadder((2, 96), 8, 2)  # first rung inside the window
    with pytest.raises(ValueError):
        ScaleLadder((96, 10), 1, 2)
    with pytest.raises(ValueError):
        ScaleLadder((10,), 8, 2)


def test_doubled_gap_keeps_base_rung():
    ladder = default_ladder()
    doubled = ladder.doubled_gap()
    assert doubled.gap == 16
    assert doubled.rungs[0] == ladder.rungs[0]
    assert doubled.rungs[1] == 192
    assert len(doubled.rungs) == len(ladder.rungs)


def test_realize_pinned_witnesses():
    ladder = ScaleLadder.build(8, 2, base=10)
    c2 = class_of(2, 2, 5)
    c1 = class_of(1, 2, 5)
    assert realize(TruncType1.realized(7), 3, ladder) == 7
    assert realize(TruncType1.near(0, c2), 0, ladder) == 2 * Fraction(5) ** 10
    assert realize(TruncType1.at_infinity(c1), 0, ladder) == Fraction(5) ** -10


def test_realize_respects_scale_and_class():
    # exhaustive sweep on a short ladder; tall rungs are for ordering,
    # not for routine realization
    ladder = ScaleLadder.build(8, 2, length=4)
    for t in enumerate_types(range(5), 2, 5):
        for rung_index in range(len(ladder.rungs)):
            magnitude = ladder.rungs[rung_index]
            witness = realize(t, rung_index, ladder)
            if t.kind == "near":
                gap_val = PadicRational.of(witness - t.base, 5).e
                assert gap_val >= magnitude
                assert class_of(witness - t.base, 2, 5) == t.klass
            else:
                assert PadicRational.of(witness, 5).e <= -magnitude
                assert class_of(witness, 2, 5) == t.klass


def test_realize_at_a_deep_rung():
    ladder = default_ladder()
    c10 = class_of(10, 2, 5)
    witness = realize(TruncType1.near(3, c10), 4, ladder)
    assert PadicRational.of(witness - 3, 5).e == 50321  # rep 10 adds 1 to the even scale
    assert classify(witness, [Fraction(3)], 2, 2, 5) == TruncType1.near(3, c10)


def test_classify_pinned_cases():
    c1 = class_of(1, 2, 5)
    c2 = class_of(2, 2, 5)
    assert classify(Fraction(5) ** -10, [], 3, 2, 5) == TruncType1.at_infinity(c1)
    x = 7 + 2 * Fraction(5) ** 10
    assert classify(x, [Fraction(7)], 3, 2, 5) == TruncType1.near(7, c2)
    assert classify(Fraction(3), [Fraction(7)], 3, 2, 5) == TruncType1.realized(3)
    assert classify(Fraction(7), [Fraction(7)], 3, 2, 5) == TruncType1.realized(7)
    assert classify(Fraction(0), [], 2, 2, 5) == TruncType1.realized(0)


def test_classify_rejects_unseparated_bases():
    x = Fraction(5) ** 5 + Fraction(5) ** 10
    with pytest.raises(WindowTooCoarseError):
        classify(x, [Fraction(0), Fraction(5) ** 5], 3, 2, 5)


def test_roundtrip_over_full_catalogue():
    ladder = ScaleLadder.build(8, 2, length=4)
    types = enumerate_types(range(25), 2, 5)
    types.append(TruncType1.realized(Fraction(3, 4)))
    for t in types:
        assert roundtrip_check(t, ladder, 2, 5), str(t)


def test_roundtrip_stable_under_gap_doubling():
    ladder = ScaleLadder.build(8, 2, length=4).doubled_gap()
    assert ladder.rungs == (10, 192, 3104, 49696)
    for t in enumerate_types(range(5), 3, 5):
        assert roundtrip_check(t, ladder, 3, 5), str(t)


@st.composite
def ladders_and_types(draw):
    """A valid ladder and up to 8 types from the full catalogue over the
    window residues 0 .. p^w - 1, realized types included."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 4))
    w = draw(st.integers(1, 3))
    ladder = ScaleLadder.build(
        gap=draw(st.integers(1, 16)),
        window_w=w,
        length=draw(st.integers(2, 3)),
        base=draw(st.integers(w + 1, w + 20)),
    )
    bases = range(p**w)
    catalogue = enumerate_types(bases, n, p) + [TruncType1.realized(a) for a in bases]
    types = draw(st.lists(st.sampled_from(catalogue), min_size=1, max_size=8))
    return p, n, ladder, types


@settings(max_examples=200, deadline=None)
@given(ladders_and_types())
def test_roundtrip_on_drawn_ladders(case):
    p, n, ladder, types = case
    for t in types:
        assert roundtrip_check(t, ladder, n, p), (str(t), ladder)


def test_catalogue_size_matches_level():
    group = build_group(5, 2)
    types = enumerate_types(range(25), 2, 5)
    assert len(types) == (25 + 1) * group.order
    assert len(set(types)) == len(types)


def test_type_json_shapes():
    c2 = class_of(2, 2, 5)
    assert TruncType1.near(7, c2).to_json() == {
        "kind": "near",
        "base": "7",
        "class": "2",
        "n": 2,
    }
    assert TruncType1.at_infinity(c2).to_json() == {
        "kind": "at_infinity",
        "class": "2",
        "n": 2,
    }
    assert TruncType1.realized(Fraction(3, 4)).to_json() == {
        "kind": "realized",
        "value": "3/4",
    }


def test_ladder_hash_is_formed_once_as_the_dataclass_hashes_its_fields():
    ladders = [DEFAULT_LADDER, DEFAULT_LADDER.doubled_gap(), ScaleLadder.build(8, 2, 4)]
    for ladder in ladders:
        assert hash(ladder) == hash((ladder.rungs, ladder.gap, ladder.window_w))
        assert ladder._hash == hash(ladder)
    # equal ladders built apart: one dict key and one cache entry
    assert ladders[0] == ladders[2] and ladders[0] is not ladders[2]
    assert ladders[0] != ladders[1]
    assert len({ladder: None for ladder in ladders}) == 2

    @lru_cache(maxsize=None)
    def cached(ladder):
        return ladder.rungs

    for ladder in ladders:
        cached(ladder)
    assert cached.cache_info().hits == 1 and cached.cache_info().misses == 2
    assert "_hash" not in repr(DEFAULT_LADDER)
    with pytest.raises(AttributeError):
        DEFAULT_LADDER.gap = 4
