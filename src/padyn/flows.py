"""Affine flows on truncated type spaces.

Four acting groups: the additive and multiplicative groups of Q_p and
of Z_p.  Each acts on the finite catalogue of truncated 1-types that
concentrate on the group's own domain (so the multiplicative flows
never see a realized zero, and the Z_p-unit flow only sees unit bases).
Orbit closures combine two edge kinds: exact symbolic action moves, and
closure transitions recording where types land when group elements run
off to valuation +-infinity.  Minimal subflows are the terminal
strongly connected components of that graph, found on the states'
indices; `TruncType1`s are built only for the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from padyn._graph import strongly_connected_components, terminal_components
from padyn.padic import RationalLike, _require
from padyn.residues import build_group, class_of
from padyn.types1 import NEAR, REALIZED, TruncType1

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
    """Truncated types concentrated on the acting group's domain: realized bases,
    then Near(base, class) base by base, then (Ga, Gm) the classes at infinity."""
    tag = normalize_group_tag(group_tag)
    classes = build_group(p, n).elements
    realized_bases, near_bases = _domain(tag, p, w)
    states = [TruncType1.realized(a) for a in realized_bases]
    states.extend(TruncType1.near(a, c) for a in near_bases for c in classes)
    if tag in ("Ga", "Gm"):
        states.extend(TruncType1.at_infinity(c) for c in classes)
    return states


def _successors(tag: str, p: int, n: int, w: int) -> tuple[list[list[int]], list[list[int]]]:
    """Each state's action and closure successors as indices into
    `state_space(tag, p, n, w)`, in closed form (equal lists are shared).
    Translations move only the base.  A scaling by a/b sends Realized(b)
    to Realized(a) and Near(b, C) to Near(a, class(a)·class(b)⁻¹·C) (the
    group's index table); Gm's families near zero and at infinity only
    change class, and Ga fixes each type at infinity.
    Closure, where group elements escape every scale: under Ga any
    concentrated type is dragged to infinity in every class (translate by
    b of hugely negative valuation); under Gm a type at a nonzero base
    collapses to zero or to infinity in every class, and the near-zero and
    at-infinity families are stuck; under ZpAdd (dense translations) and
    ZpMul a realized point smears into every near type of the domain, and
    near types only move exactly.
    """
    group = build_group(p, n)
    products, width = group.products, group.order
    realized, near = _domain(tag, p, w)
    first_near = len(realized)
    first_inf = first_near + len(near) * width
    size = first_inf + (width if tag in ("Ga", "Gm") else 0)
    at_infinity = list(range(first_inf, size))
    near_zero = list(range(first_near, first_near + width))
    action = [list(range(first_near))] * first_near
    if tag in ("Ga", "ZpAdd"):
        action += [list(range(first_near + j, first_inf, width)) for j in range(width)] * len(near)
        action += [[s] for s in at_infinity]
    else:  # the scalings by a/b over realized bases a and b
        klass = {a: group.index[class_of(a, n, p).representative] for a in near if a}
        position = {a: first_near + i * width for i, a in enumerate(near)}
        targets = [(position[a], klass[a]) for a in realized]
        for b in near:
            if not b:  # Gm's near-zero family
                action += [near_zero] * width
                continue
            to_b = products[klass[b]].index(0)  # the identity's index is 0: rep 1 is least
            for j in range(width):
                action.append([at + products[products[c][to_b]][j] for at, c in targets])
        action += [at_infinity] * len(at_infinity)
    if tag in ("ZpAdd", "ZpMul"):
        closure = [list(range(first_near, first_inf))] * first_near + [[]] * (size - first_near)
    else:
        escape = at_infinity if tag == "Ga" else near_zero + at_infinity
        closure = [escape] * first_inf + [[]] * width
        if tag == "Gm":
            closure[first_near : first_near + width] = [[]] * width
    return action, closure


def _sorted_families(states, components) -> tuple[tuple[TruncType1, ...], ...]:
    """Index components decoded to states, each and all in sort-key order."""
    families = (tuple(sorted((states[s] for s in c), key=TruncType1.sort_key)) for c in components)
    return tuple(sorted(families, key=lambda f: f[0].sort_key()))


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
    size = len(states)
    action, closure = _successors(tag, p, n, w)
    _require(
        len(action) == len(closure) == size
        and all(not s or 0 <= min(s) <= max(s) < size for s in action + closure),
        f"{tag} flow: a successor left the state space",
    )
    combined = [a + c if c else a for a, c in zip(action, closure)]
    minimal = terminal_components(range(size), combined.__getitem__)
    union = sorted(s for component in minimal for s in component)
    # action edges come in inverse pairs and stay in the union: its SCCs are the orbits
    orbit_parts = strongly_connected_components(union, action.__getitem__)
    members = set(union)
    return AffineFlowReport(
        group_tag=tag,
        states=tuple(sorted(states, key=TruncType1.sort_key)),
        minimal_subflows=_sorted_families(states, minimal),
        orbits=_sorted_families(states, orbit_parts),
        fgeneric_flags={t: s in members for s, t in enumerate(states)},
    )
