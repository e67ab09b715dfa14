"""Symbolic truncated 1-types over Q_p with a realization oracle.

A nonrealized type at residue level n either sits infinitesimally close
to a base point in a fixed residue class, or lives at infinity in a
fixed class.  Realization produces a concrete rational witness whose
distance scale is drawn from a ladder of valuation magnitudes; the
ladder's separation law (each rung at least gap times the previous rung
plus the window) is what stands in for "realize the next point much
closer / much farther than everything so far".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from padyn.padic import PadicRational, RationalLike, _coerce_fraction
from padyn.residues import ResidueClass, build_group, class_of

REALIZED = "realized"
NEAR = "near"
AT_INFINITY = "at_infinity"


class WindowTooCoarseError(ValueError):
    """Two base points both claim a point; the window cannot separate them."""


@dataclass(frozen=True)
class ScaleLadder:
    """Strictly increasing valuation magnitudes with multiplicative gaps.

    rungs[i] >= gap * (rungs[i-1] + window_w), and the first rung clears
    the window, so a witness at any rung is invisible to classification
    at every lower rung.
    """

    rungs: tuple[int, ...]
    gap: int
    window_w: int

    def __post_init__(self) -> None:
        if len(self.rungs) < 2:
            raise ValueError("a ladder needs at least two rungs")
        if self.gap < 1 or self.window_w < 1:
            raise ValueError("gap and window must be positive")
        if self.rungs[0] <= self.window_w:
            raise ValueError("first rung must clear the window")
        for lo, hi in zip(self.rungs, self.rungs[1:]):
            if hi < self.gap * (lo + self.window_w):
                raise ValueError(f"rung {hi} too close to {lo} at gap {self.gap}")
        # a ladder is an `lru_cache` key of every witness layer: hash it
        # once, as the dataclass would hash its fields
        object.__setattr__(self, "_hash", hash((self.rungs, self.gap, self.window_w)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def build(cls, gap: int, window_w: int, length: int = 6, base: int | None = None) -> "ScaleLadder":
        # base rung is gap-independent so doubled-gap reruns share it
        rung = base if base is not None else window_w + 8
        rungs = [rung]
        for _ in range(length - 1):
            rung = gap * (rung + window_w)
            rungs.append(rung)
        return cls(tuple(rungs), gap, window_w)

    def doubled_gap(self) -> "ScaleLadder":
        return ScaleLadder.build(2 * self.gap, self.window_w, len(self.rungs), self.rungs[0])


# rungs a `star` product uses: two per factor
LADDER_LENGTH = 4
DEFAULT_LADDER = ScaleLadder.build(gap=8, window_w=2, length=LADDER_LENGTH)


@dataclass(frozen=True)
class TruncType1:
    """Realized(a) | Near(a, C) | AtInfinity(C), structural equality."""

    kind: str
    base: Fraction | None
    klass: ResidueClass | None

    @classmethod
    def realized(cls, a: RationalLike) -> "TruncType1":
        return cls(REALIZED, _coerce_fraction(a), None)

    @classmethod
    def near(cls, a: RationalLike, klass: ResidueClass) -> "TruncType1":
        return cls(NEAR, _coerce_fraction(a), klass)

    @classmethod
    def at_infinity(cls, klass: ResidueClass) -> "TruncType1":
        return cls(AT_INFINITY, None, klass)

    def base_points(self) -> tuple[Fraction, ...]:
        return () if self.base is None else (self.base,)

    def to_json(self) -> dict:
        if self.kind == REALIZED:
            return {"kind": REALIZED, "value": str(self.base)}
        if self.kind == NEAR:
            return {
                "kind": NEAR,
                "base": str(self.base),
                "class": str(self.klass.representative),
                "n": self.klass.level_n,
            }
        return {
            "kind": AT_INFINITY,
            "class": str(self.klass.representative),
            "n": self.klass.level_n,
        }

    def __str__(self) -> str:
        if self.kind == REALIZED:
            return f"Realized({str(self.base)})"
        if self.kind == NEAR:
            return f"Near({str(self.base)}, {self.klass.representative})"
        return f"AtInfinity({self.klass.representative})"

    def sort_key(self) -> tuple:
        base = self.base if self.base is not None else Fraction(0)
        rep = self.klass.representative if self.klass is not None else 0
        return (self.kind, base, rep)


@lru_cache(maxsize=None)
def _witness_scale(klass: ResidueClass, magnitude: int, toward_infinity: bool) -> PadicRational:
    """rep(C) * p**(+-nk), the least level-multiple putting the witness
    at distance at least `magnitude` on the requested side; built once."""
    n = klass.level_n
    rep = PadicRational.of(klass.representative, klass.prime)
    if toward_infinity:
        nk = n * -(-(magnitude + rep.e) // n)
        return rep.shifted(-nk)
    nk = n * -(-magnitude // n)
    return rep.shifted(nk)


def realize(t: TruncType1, rung_index: int, ladder: ScaleLadder) -> PadicRational | Fraction:
    """Concrete rational witness of t at the given ladder rung.

    Near and at-infinity witnesses come back as PadicRational for the
    class's prime; a realized type has no prime and returns its base.
    """
    if t.kind == REALIZED:
        return t.base
    scale = _witness_scale(t.klass, ladder.rungs[rung_index], toward_infinity=t.kind == AT_INFINITY)
    if t.kind == NEAR:
        return scale + t.base
    return scale


def classify(
    x: RationalLike,
    base_points,
    window_w: int,
    level_n: int,
    p: int,
) -> TruncType1:
    """Sort a concrete rational into the truncated type catalogue.

    Exact hits are realized; valuation below -window_w is at infinity;
    a unique base point closer than the window gives a near type.  Two
    base points inside the window mean the base set was not separated.
    """
    value = PadicRational.of(x, p)
    deviations = [(a, value - a) for a in base_points]
    for a, dev in deviations:
        if not dev:
            return TruncType1.realized(a)
    if value and value.e < -window_w:
        return TruncType1.at_infinity(class_of(value, level_n, p))
    hits = [(a, dev) for a, dev in deviations if dev.e > window_w]
    if len(hits) > 1:
        raise WindowTooCoarseError(f"window {window_w} cannot separate {[a for a, _ in hits]}")
    if hits:
        a, dev = hits[0]
        return TruncType1.near(a, class_of(dev, level_n, p))
    return TruncType1.realized(value)


def roundtrip_check(t: TruncType1, ladder: ScaleLadder, level_n: int, p: int) -> bool:
    """classify(realize(t)) == t at every rung above the first."""
    for rung_index in range(1, len(ladder.rungs)):
        witness = realize(t, rung_index, ladder)
        back = classify(witness, t.base_points(), ladder.window_w, level_n, p)
        if back != t:
            return False
    return True


def enumerate_types(base_points, level_n: int, p: int) -> list[TruncType1]:
    """The full nonrealized catalogue over a base set: (|bases|+1)*|group|."""
    group = build_group(p, level_n)
    out = [
        TruncType1.near(a, c)
        for a in base_points
        for c in group.elements
    ]
    out.extend(TruncType1.at_infinity(c) for c in group.elements)
    return out
