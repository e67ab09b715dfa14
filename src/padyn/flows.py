"""Affine flows on truncated type spaces.

Four acting groups: the additive and multiplicative groups of Q_p and
of Z_p.  Each acts on the finite catalogue of truncated 1-types that
concentrate on the group's own domain (so the multiplicative flows
never see a realized zero, and the Z_p-unit flow only sees unit bases).
Orbit closures combine two edge kinds: exact symbolic action moves, and
closure transitions recording where types land when group elements run
off to valuation +-infinity.  Minimal subflows are the terminal
strongly connected components of that graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from padyn._graph import strongly_connected_components, terminal_components
from padyn.padic import PadicRational, RationalLike, _require
from padyn.residues import build_group, class_of
from padyn.types1 import AT_INFINITY, NEAR, REALIZED, TruncType1

GA = "Ga"
GM = "Gm"
ZP_ADD = "ZpAdd"
ZP_MUL = "ZpMul"
GROUP_TAGS = (GA, GM, ZP_ADD, ZP_MUL)

_TAG_ALIASES = {
    "ga": GA,
    "gm": GM,
    "zpadd": ZP_ADD,
    "zpmul": ZP_MUL,
}


def normalize_group_tag(tag: str) -> str:
    key = tag.replace("-", "").replace("_", "").lower()
    if key not in _TAG_ALIASES:
        raise ValueError(f"unknown group tag {tag!r}; expected one of {GROUP_TAGS}")
    return _TAG_ALIASES[key]


def act_add(b: RationalLike, t: TruncType1) -> TruncType1:
    """Translate a truncated type by an exact rational.

    Types at infinity are fixed: the witness dominates every concrete
    translation, so base and class are both untouched.
    """
    if t.kind == REALIZED:
        return TruncType1.realized(t.base + b)
    if t.kind == NEAR:
        return TruncType1.near(t.base + b, t.klass)
    return t


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


def default_base_points(p: int, w: int) -> tuple[Fraction, ...]:
    """Residue representatives covering Z_p at resolution w."""
    return tuple(Fraction(i) for i in range(p**w))


def _units(bases, p: int) -> list[Fraction]:
    """The bases of valuation 0; zero is not a unit."""
    return [a for a in bases if a and PadicRational.of(a, p).e == 0]


def state_space(group_tag: str, p: int, n: int, w: int) -> list[TruncType1]:
    """Truncated types concentrated on the acting group's domain."""
    tag = normalize_group_tag(group_tag)
    group = build_group(p, n)
    bases = default_base_points(p, w)
    if tag == GM:
        realized_bases = [a for a in bases if a != 0]
        near_bases = bases
    elif tag == ZP_MUL:
        realized_bases = _units(bases, p)
        near_bases = realized_bases
    else:
        realized_bases = list(bases)
        near_bases = bases
    states = [TruncType1.realized(a) for a in realized_bases]
    states.extend(TruncType1.near(a, c) for a in near_bases for c in group.elements)
    if tag in (GA, GM):
        states.extend(TruncType1.at_infinity(c) for c in group.elements)
    return states


def closure_transitions(
    t: TruncType1, group_tag: str, p: int, n: int, w: int
) -> frozenset[TruncType1]:
    """Limit states adjoined when group elements escape every scale.

    Derived from the classification of 1-types and validated against
    extreme-valuation sampling in the tests:

    - Ga: any concentrated type is dragged to infinity, in every class
      (translate by b of hugely negative valuation in any class).
    - Gm: any type at a nonzero base collapses to zero or to infinity,
      in every class; the near-zero and at-infinity families are stuck.
    - ZpAdd: a realized point smears into every near type (translations
      are dense in Z_p); near types only translate exactly.
    - ZpMul: a realized unit smears into every near type over a unit
      base; near types only scale exactly.
    """
    tag = normalize_group_tag(group_tag)
    group = build_group(p, n)
    bases = default_base_points(p, w)
    if tag == GA:
        if t.kind in (REALIZED, NEAR):
            return frozenset(TruncType1.at_infinity(c) for c in group.elements)
        return frozenset()
    if tag == GM:
        if t.kind in (REALIZED, NEAR) and t.base != 0:
            near_zero = {TruncType1.near(Fraction(0), c) for c in group.elements}
            at_inf = {TruncType1.at_infinity(c) for c in group.elements}
            return frozenset(near_zero | at_inf)
        return frozenset()
    if tag == ZP_ADD:
        if t.kind == REALIZED:
            return frozenset(
                TruncType1.near(a, c) for a in bases for c in group.elements
            )
        return frozenset()
    # ZP_MUL
    if t.kind == REALIZED and t.base != 0:
        return frozenset(
            TruncType1.near(a, c) for a in _units(bases, p) for c in group.elements
        )
    return frozenset()


def _action_adjacency(group_tag, states, p: int, n: int) -> dict:
    """Exact symbolic action edges keeping every base inside the space."""
    tag = normalize_group_tag(group_tag)
    group = build_group(p, n)
    realized_bases = [s.base for s in states if s.kind == REALIZED]
    adjacency: dict[TruncType1, set[TruncType1]] = {}
    for s in states:
        if tag in (GA, ZP_ADD):
            if s.kind == AT_INFINITY:
                targets = {s}
            else:
                targets = {act_add(a - s.base, s) for a in realized_bases}
        elif tag == GM:
            if s.kind == AT_INFINITY:
                targets = {TruncType1.at_infinity(c * s.klass) for c in group.elements}
            elif s.kind == NEAR and s.base == 0:
                targets = {TruncType1.near(s.base, c * s.klass) for c in group.elements}
            else:
                targets = {act_mul(a / s.base, s) for a in realized_bases}
        else:  # ZP_MUL: unit ratios between unit bases
            targets = {act_mul(a / s.base, s) for a in realized_bases}
        adjacency[s] = targets
    return adjacency


def _sorted_family(states) -> tuple[TruncType1, ...]:
    return tuple(sorted(states, key=TruncType1.sort_key))


@dataclass(frozen=True)
class AffineFlowReport:
    """Minimal subflows, orbit partition, and f-generic flags."""

    group_tag: str
    states: tuple[TruncType1, ...]
    minimal_subflows: tuple[tuple[TruncType1, ...], ...]
    orbits: tuple[tuple[TruncType1, ...], ...]
    fgeneric_flags: dict

    def minimal_union(self) -> frozenset[TruncType1]:
        return frozenset(t for family in self.minimal_subflows for t in family)

    def to_json(self) -> dict:
        return {
            "group_tag": self.group_tag,
            "state_count": len(self.states),
            "minimal_subflows": [
                [t.to_json() for t in family] for family in self.minimal_subflows
            ],
            "minimal_state_count": len(self.minimal_union()),
            "orbit_count": len(self.orbits),
            "orbits": [[t.to_json() for t in family] for family in self.orbits],
            "f_generic": {str(t): flag for t, flag in sorted(
                self.fgeneric_flags.items(), key=lambda kv: kv[0].sort_key()
            )},
        }


def minimal_subflows(group_tag: str, p: int, n: int, w: int) -> AffineFlowReport:
    """Terminal components of action plus closure, with orbit partition."""
    tag = normalize_group_tag(group_tag)
    states = state_space(tag, p, n, w)
    action = _action_adjacency(tag, states, p, n)
    combined = {s: action[s] | closure_transitions(s, tag, p, n, w) for s in states}
    _require(
        set().union(*combined.values()) <= set(states),
        f"{tag} flow: a successor left the state space",
    )
    minimal = terminal_components(states, combined.__getitem__)
    union = {s for component in minimal for s in component}
    # action edges come in inverse pairs and stay in the union: its SCCs are the orbits
    orbit_parts = strongly_connected_components(_sorted_family(union), action.__getitem__)
    families = tuple(
        sorted((_sorted_family(c) for c in minimal), key=lambda f: f[0].sort_key())
    )
    orbits = tuple(
        sorted((_sorted_family(c) for c in orbit_parts), key=lambda f: f[0].sort_key())
    )
    flags = {s: s in union for s in states}
    return AffineFlowReport(
        group_tag=tag,
        states=_sorted_family(states),
        minimal_subflows=families,
        orbits=orbits,
        fgeneric_flags=flags,
    )
