"""The triangular group B and its truncated-type flow group.

An element of B is a det-1 upper-triangular matrix [[a, c], [0, 1/a]]
with a != 0, a `PadicMatrix2` whose products are its `@`.  At residue
level n the truncated type of such an element is determined by the
power-residue class of `a` alone: the additive coordinate ranges over a
connected group and carries no level-n data.  A triangular type is
therefore its class, a `ResidueClass`, and `sl2.GFlowPoint` pairs a K
element with one.

The distinguished family of types is witnessed by elements whose
diagonal entry sits near 0 and whose off-diagonal entry sits near
infinity, the infinite coordinate realized on a strictly higher ladder
rung so that it dominates every scale derivable from the diagonal one.
The `star` product realizes the left factor low on the ladder and the
right factor on rungs separated from everything the left factor can
reach, and classifies the witness product by its leading entry, the
only one classification reads and `leading_class` forms.
`build_flow_group` tabulates `star` over every type at one level; the
flow group is the residue group exactly when that table is
`build_group(p, n).table`, and the `borel` report and check compare it.
"""

from __future__ import annotations

from functools import lru_cache

from .padic import PadicMatrix2, _dot
from .residues import ResidueClass, build_group, class_of
from .types1 import DEFAULT_LADDER, ScaleLadder, TruncType1, realize


@lru_cache(maxsize=256)
def witness(t: ResidueClass, ladder: ScaleLadder, rung_index: int = 0) -> PadicMatrix2:
    """Concrete element [[alpha, beta], [0, 1/alpha]] realizing t: the
    diagonal alpha near 0 in t's class at the given rung, the off-diagonal
    beta at infinity in the same class one rung up.

    The off-diagonal coordinate takes the higher rung: downstream
    factorizations divide scales derived from the diagonal part by it and
    need the quotient to stay small.
    """
    if rung_index + 1 >= len(ladder.rungs):
        raise ValueError("ladder exhausted: a witness needs two free rungs")
    alpha = realize(TruncType1.near(0, t), rung_index, ladder)
    beta = realize(TruncType1.at_infinity(t), rung_index + 1, ladder)
    return PadicMatrix2.of(((alpha, beta), (0, alpha.inverse())), t.prime)


def leading_class(left: PadicMatrix2, right: PadicMatrix2, level_n: int) -> ResidueClass:
    """The level-n class of (left @ right).a, formed alone exactly as `@`
    forms it: from int triples when the four entries are one-term, as a
    sparse sum otherwise."""
    x, y, z, w = left.a, right.a, left.b, right.c
    if x.rest or y.rest or z.rest or w.rest:
        return class_of(x * y + z * w, level_n, left.prime)
    return class_of(_dot(x, y, z, w, left.prime), level_n, left.prime)


def star(s: ResidueClass, t: ResidueClass, ladder: ScaleLadder) -> ResidueClass:
    """Product of truncated types via witnesses, right factor on the rungs
    above everything derivable from the left factor's block."""
    if (s.prime, s.level_n) != (t.prime, t.level_n):
        raise ValueError("mixed residue levels")
    return leading_class(witness(s, ladder, 0), witness(t, ladder, 2), s.level_n)


@lru_cache(maxsize=None)
def build_flow_group(p: int, n: int, ladder: ScaleLadder = DEFAULT_LADDER) -> dict:
    """The `star` table of every level-n type, keyed by class
    representatives.  The types form the triangular flow group exactly
    when this table equals `build_group(p, n).table`, whose construction
    verified the group axioms; callers compare, none mutates."""
    elements = build_group(p, n).elements
    return {
        (s.representative, t.representative): star(s, t, ladder).representative
        for s in elements for t in elements
    }
