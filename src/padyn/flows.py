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
from padyn.padic import RationalLike, _require
from padyn.residues import build_group, class_of
from padyn.types1 import AT_INFINITY, NEAR, REALIZED, TruncType1

GROUP_TAGS = ("Ga", "Gm", "ZpAdd", "ZpMul")


def normalize_group_tag(tag: str) -> str:
    """The canonical spelling of a group tag; case, '-' and '_' are ignored."""
    key = tag.replace("-", "").replace("_", "").lower()
    for canonical in GROUP_TAGS:
        if canonical.lower() == key:
            return canonical
    raise ValueError(f"unknown group tag {tag!r}; expected one of {GROUP_TAGS}")


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


def _domain(tag: str, p: int, w: int) -> tuple[list[Fraction], list[Fraction]]:
    """A group's realized and near bases: units only for ZpMul, no realized zero for Gm."""
    bases = list(default_base_points(p, w))
    if tag == "ZpMul":
        units = [a for a in bases if a % p]
        return units, units
    return ([a for a in bases if a] if tag == "Gm" else bases), bases


def state_space(group_tag: str, p: int, n: int, w: int) -> list[TruncType1]:
    """Truncated types concentrated on the acting group's domain."""
    tag = normalize_group_tag(group_tag)
    classes = build_group(p, n).elements
    realized_bases, near_bases = _domain(tag, p, w)
    states = [TruncType1.realized(a) for a in realized_bases]
    states.extend(TruncType1.near(a, c) for a in near_bases for c in classes)
    if tag in ("Ga", "Gm"):
        states.extend(TruncType1.at_infinity(c) for c in classes)
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
