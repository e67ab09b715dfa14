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
reach, multiplies the concrete witness matrices, and classifies the
result.
"""

from __future__ import annotations

from functools import lru_cache

from .padic import PadicMatrix2, _require
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
    return PadicMatrix2.padic(((alpha, beta), (0, alpha.inverse())), t.prime)


def star(s: ResidueClass, t: ResidueClass, ladder: ScaleLadder) -> ResidueClass:
    """Product of truncated types via witnesses, right factor on the rungs
    above everything derivable from the left factor's block."""
    if (s.prime, s.level_n) != (t.prime, t.level_n):
        raise ValueError("mixed residue levels")
    product = witness(s, ladder, 0) @ witness(t, ladder, 2)
    return class_of(product.a, s.level_n, s.prime)


class FlowGroup:
    """All truncated types at one level under `star`, fully tabulated.

    Built exhaustively through witness realization; construction verifies
    the idempotent basepoint and that the table equals the residue-class
    group's via the diagonal class, which carries the group axioms over.
    """

    def __init__(self, p: int, n: int, ladder: ScaleLadder):
        self.prime = p
        self.level_n = n
        self.ladder = ladder
        self.residue_group = build_group(p, n)
        self.elements = self.residue_group.elements
        self.identity = self.residue_group.identity
        self.table: dict[tuple[int, int], int] = {}
        for s in self.elements:
            for t in self.elements:
                self.table[(s.representative, t.representative)] = star(s, t, ladder).representative
        self._verify()

    @property
    def order(self) -> int:
        return len(self.elements)

    def idempotent_check(self) -> bool:
        one = self.identity.representative
        return self.table[(one, one)] == one

    def isomorphic_to_residue_group(self) -> bool:
        return self.table == self.residue_group.table

    def _verify(self) -> None:
        """The table equals the residue group's, whose construction
        verified the group axioms exhaustively, so they hold here too."""
        _require(self.idempotent_check(), "flow group: basepoint is not idempotent")
        _require(
            self.isomorphic_to_residue_group(),
            "flow group: table differs from the residue group",
        )

    def to_json(self) -> dict:
        reps = [t.representative for t in self.elements]
        return {
            "order": self.order,
            "representatives": [str(r) for r in reps],
            "table": [[str(self.table[(r, s)]) for s in reps] for r in reps],
            "idempotent_check": self.idempotent_check(),
            "iso_to_residue_group": self.isomorphic_to_residue_group(),
        }


@lru_cache(maxsize=None)
def build_flow_group(p: int, n: int, ladder: ScaleLadder = DEFAULT_LADDER) -> FlowGroup:
    return FlowGroup(p, n, ladder)
