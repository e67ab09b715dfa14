"""Truncated 1-types on the projective line under the det-1 action.

Points are canonical homogeneous pairs ([x : 1] or [1 : 0]); a truncated
type is either a realized point or the family infinitesimally near one,
with class data measured in the reciprocal chart beyond the integral
window so the family at infinity behaves like any other.

The action moves Near types symbolically: the class picks up the class
of the exact chart-to-chart derivative, an exact group action on
exact-point types.  `classify_value` truncates an exact value (window
residue plus the class of the deviation); `snap_type` truncates a Near
type's deepest-rung witness y0 + scale the same way, as a two-term
sparse `PadicRational` that never forms the witness's p-digits.

The flow report is a skew product over the base points, tabulated on
int states: per (move, base point) one `_chart_step` gives the output
point and a class map, either the derivative twist or a constant
certified against the rung the input is realized at.  The products stay
explicit for the collapse check and as the table's oracle:
`triangular_star` sends every type not based at infinity into the
infinity family, and `compact_star` sends that family to one type (the
input's own witness is absorbed at the compact level).  Their composite
is constant on all truncated types, which is both the collapse check
and the proximality witness of the flow report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._graph import strongly_connected_components
from .borel import witness as borel_witness
from .padic import (
    PadicMatrix2,
    PadicRational,
    RationalLike,
    _coerce_fraction,
    _require,
)
from .residues import ResidueClass, build_group, class_of, hensel_modulus
from .sl2 import GFlowPoint, flow_generators, k_lift
from .types1 import DEFAULT_LADDER, ScaleLadder, TruncType1, _witness_scale, realize


@dataclass(frozen=True)
class ProjPoint:
    """Point of the projective line in canonical homogeneous form."""

    x0: Fraction
    x1: Fraction

    def __post_init__(self) -> None:
        if not (self.x1 == 1 or (self.x0 == 1 and self.x1 == 0)):
            raise ValueError("points must be canonical: [x : 1] or [1 : 0]")

    @classmethod
    def of(cls, x0, x1) -> "ProjPoint":
        x0, x1 = _coerce_fraction(x0), _coerce_fraction(x1)
        if x0 == 0 and x1 == 0:
            raise ValueError("[0 : 0] is not a projective point")
        if x1 == 0:
            return cls(Fraction(1), Fraction(0))
        return cls(x0 / x1, Fraction(1))

    @classmethod
    def infinity(cls) -> "ProjPoint":
        return cls(Fraction(1), Fraction(0))

    @property
    def is_infinity(self) -> bool:
        return self.x1 == 0

    def __str__(self) -> str:
        return "inf" if self.is_infinity else str(self.x0)


@dataclass(frozen=True)
class ProjTruncType:
    """A realized point, or the family infinitesimally near one."""

    point: ProjPoint
    near_class: ResidueClass | None = None

    @classmethod
    def realized(cls, point: ProjPoint) -> "ProjTruncType":
        return cls(point)

    @classmethod
    def near(cls, point: ProjPoint, c: ResidueClass) -> "ProjTruncType":
        return cls(point, c)

    @property
    def is_realized(self) -> bool:
        return self.near_class is None

    def __str__(self) -> str:
        if self.is_realized:
            return f"Realized({self.point})"
        return f"Near({self.point}, class {self.near_class.representative})"


@dataclass(frozen=True)
class ProjLevel:
    """Finite resolution of the line: class level n and window w."""

    prime: int
    level_n: int
    window_w: int

    def __post_init__(self) -> None:
        if self.window_w < 1:
            raise ValueError("window must be at least 1")
        build_group(self.prime, self.level_n)

    @property
    def modulus(self) -> int:
        return self.prime**self.window_w

    def base_points(self) -> tuple[ProjPoint, ...]:
        """The residues of the integral projective line at resolution w:
        the window residues in the standard chart, then infinity and the
        points whose reciprocal is divisible by p."""
        std = [ProjPoint.of(a, 1) for a in range(self.modulus)]
        inverted = [ProjPoint.infinity()]
        inverted += [
            ProjPoint.of(1, self.prime * b)
            for b in range(1, self.modulus // self.prime)
        ]
        return tuple(std + inverted)

    def classes(self) -> tuple[ResidueClass, ...]:
        return build_group(self.prime, self.level_n).elements


def _inverted_chart(pt: ProjPoint, p: int) -> bool:
    return pt.is_infinity or PadicRational.of(pt.x0, p).e < 0


def _chart_coordinate(pt: ProjPoint, inverted: bool) -> Fraction:
    if pt.is_infinity:
        return Fraction(0)
    return 1 / pt.x0 if inverted else pt.x0


def _chart_type(y: PadicRational, inverted: bool, level: ProjLevel) -> ProjTruncType:
    """The type of chart coordinate y: its window residue r, plus the class
    of the deviation y - r unless that vanishes."""
    m = level.modulus
    r = y.residue(m)
    pt = ProjPoint.of(1, r) if inverted else ProjPoint.of(r, 1)
    dev = y - r
    if not dev:
        return ProjTruncType.realized(pt)
    return ProjTruncType.near(pt, class_of(dev, level.level_n, level.prime))


def classify_value(x: RationalLike, level: ProjLevel) -> ProjTruncType:
    """The truncated type of an exact value: its window residue plus the
    class of the deviation, realized when the deviation vanishes."""
    x = PadicRational.of(x, level.prime)
    inverted = bool(x) and x.e < 0
    return _chart_type(x.inverse() if inverted else x, inverted, level)


def _realize_type(
    t: ProjTruncType, level: ProjLevel, ladder: ScaleLadder, rung_index: int
) -> PadicRational:
    """An exact value realizing the Near family at the given rung,
    produced in the base point's own chart."""
    if t.is_realized:
        raise ValueError("realized types need no witnesses")
    inverted = _inverted_chart(t.point, level.prime)
    y0 = _chart_coordinate(t.point, inverted)
    y = realize(TruncType1.near(y0, t.near_class), rung_index, ladder)
    return 1 / y if inverted else y


def snap_type(t: ProjTruncType, level: ProjLevel, ladder: ScaleLadder) -> ProjTruncType:
    """Project a type onto the level's state space: realized finite points
    are reclassified, and a Near type is classified as its deepest-rung
    witness y0 + scale in the base point's chart, a two-term sparse sum."""
    if t.is_realized:
        return t if t.point.is_infinity else classify_value(t.point.x0, level)
    inverted = _inverted_chart(t.point, level.prime)
    scale = _witness_scale(t.near_class, ladder.rungs[-1], toward_infinity=False)
    y = scale + _chart_coordinate(t.point, inverted)
    _require(bool(y), "snap_type: the deepest-rung witness vanishes")
    return _chart_type(y, inverted, level)


def _chart_step(g: PadicMatrix2, point: ProjPoint) -> tuple:
    """g at a point in the charts of the point and its image: the image,
    whether its chart is inverted, its chart coordinate z, the derivative
    and q, so that the input moved by s lands at z + derivative·s/(1 + q·s)."""
    if g.det() != 1:
        raise ValueError("need determinant one")
    p = g.prime
    image = ProjPoint.of(g.a * point.x0 + g.b * point.x1, g.c * point.x0 + g.d * point.x1)
    flip_in, flip_out = _inverted_chart(point, p), _inverted_chart(image, p)
    # in the two charts g only permutes its entries: the bottom row is a row
    # of g, reversed by a flipped input chart, and det is -1 iff one flips
    lo, hi = (g.a, g.b) if flip_out else (g.c, g.d)
    if flip_in:
        lo, hi = hi, lo
    denom = lo * _chart_coordinate(point, flip_in) + hi
    if denom == 0:
        raise ArithmeticError("chart selection failed to keep the image finite")
    derivative = (-1 if flip_in != flip_out else 1) / (denom * denom)
    z = PadicRational.of(_chart_coordinate(image, flip_out), p)
    return image, flip_out, z, derivative, lo / denom


def act_proj(g: PadicMatrix2, t: ProjTruncType) -> ProjTruncType:
    """Möbius action on truncated types.

    Near classes pick up the class of the exact chart-to-chart derivative
    at the base point; the chain rule is exact on rationals, so this is a
    genuine group action on exact-point types.
    """
    image, _, _, derivative, _ = _chart_step(g, t.point)
    if t.is_realized:
        return ProjTruncType.realized(image)
    twist = class_of(derivative, t.near_class.level_n, g.prime)
    return ProjTruncType.near(image, twist * t.near_class)


# a product's witness for the flow point or the fiber class depends only on
# that and the ladder, not on the input type, so each is built once
@lru_cache(maxsize=256)
def _flow_point_witness(source: GFlowPoint, ladder: ScaleLadder) -> PadicMatrix2:
    return k_lift(source.k, source.j.prime, source.level_m) @ borel_witness(source.j, ladder, 0)


@lru_cache(maxsize=256)
def _fiber_witness(klass: ResidueClass, ladder: ScaleLadder) -> PadicMatrix2:
    corner = realize(TruncType1.near(0, klass), 0, ladder)
    return PadicMatrix2.padic(((1, 0), (corner, 1)), klass.prime)


def _apply_witness(
    left: PadicMatrix2, t: ProjTruncType, level: ProjLevel, ladder: ScaleLadder
) -> ProjTruncType:
    """Classify left·x, the input x realized on the block above everything
    the first-block witness `left` spans (a realized point is itself)."""
    if t.is_realized and t.point.is_infinity:
        x0, x1 = left.a, left.c
    else:
        # the quotient x0 / x1 is formed, so x is formed first and the rows
        # multiply in one-term form
        x = t.point.x0 if t.is_realized else _realize_type(t, level, ladder, 2).collapsed()
        x0, x1 = left.a * x + left.b, left.c * x + left.d
    if not x1:
        return ProjTruncType.realized(ProjPoint.infinity())
    return classify_value(x0 / x1, level)


def flow_star(
    source: GFlowPoint, t: ProjTruncType, level: ProjLevel, ladder: ScaleLadder
) -> ProjTruncType:
    """Product of a paired flow point with a projective type through
    concrete witnesses: the flow point is realized on the first rung
    block, the input on the block above everything the witness spans."""
    if source.j.prime != level.prime or source.j.level_n != level.level_n:
        raise ValueError("mixed truncation levels")
    return _apply_witness(_flow_point_witness(source, ladder), t, level, ladder)


def triangular_star(
    t: ProjTruncType, level: ProjLevel, ladder: ScaleLadder = DEFAULT_LADDER
) -> ProjTruncType:
    """Product with the triangular flow's generic point.

    Every input not based at infinity lands in the infinity family: the
    witness turns a realization a into a·alpha² + alpha·beta, and the
    exact valuation comparison picks the dominant term.  Infinity itself
    is fixed, and infinity-based families stay within the family.
    """
    identity = GFlowPoint.identity(level.prime, level.level_n, 1)
    return flow_star(identity, t, level, ladder)


def fiber_star(
    t: ProjTruncType,
    klass: ResidueClass,
    level: ProjLevel,
    ladder: ScaleLadder = DEFAULT_LADDER,
) -> ProjTruncType:
    """Product with the near-identity integral family of a given class.

    The witness is the lower unipotent [[1, 0], [corner, 1]] whose
    corner realizes the class at the first rung; the input is realized
    two blocks above, so the corner dominates everything the input
    contributes below the window.  Sweeping the class over the level
    group walks the whole identity fiber of generic products, which is
    what the orbit closure contributes beyond single group elements.
    """
    return _apply_witness(_fiber_witness(klass, ladder), t, level, ladder)


def compact_star(
    t: ProjTruncType,
    level: ProjLevel,
    ladder: ScaleLadder = DEFAULT_LADDER,
    level_m: int = 1,
) -> ProjTruncType:
    """Product with the integral group's generic point.

    On the infinity family the output is one distinguished type,
    independent of the input: the input's own witness is congruent to
    the identity at the compact level (checked en route), so it is
    absorbed by the generic perturbation.  Elsewhere the composition is
    computed generically and no collapse is claimed.
    """
    if t.point.is_infinity and not t.is_realized:
        c_value = _realize_type(t, level, ladder, 2)
        _require(c_value and c_value.e <= -level_m, "witness not absorbed at level m")
    return fiber_star(t, class_of(1, level.level_n, level.prime), level, ladder)


def nonalgebraic_states(level: ProjLevel) -> tuple[ProjTruncType, ...]:
    return tuple(ProjTruncType.near(pt, c) for pt in level.base_points() for c in level.classes())


def all_states(level: ProjLevel) -> tuple[ProjTruncType, ...]:
    realized = tuple(ProjTruncType.realized(pt) for pt in level.base_points())
    return realized + nonalgebraic_states(level)


def boundary_flagged(level: ProjLevel) -> tuple[str, ...]:
    """Base points whose chart coordinate sits within one valuation step
    of the window boundary: the dominance comparison is decided by exact
    arithmetic there, and reports surface them."""
    flagged = []
    for pt in level.base_points():
        u = _chart_coordinate(pt, _inverted_chart(pt, level.prime))
        if u and abs(PadicRational.of(u, level.prime).e) >= level.window_w - 1:
            flagged.append(str(pt))
    return tuple(sorted(flagged))


@dataclass(frozen=True)
class CollapseReport:
    states_checked: int
    collapsed: bool
    collapsed_type: ProjTruncType | None
    boundary_flags: tuple

    def to_json(self) -> dict:
        return {
            "states": self.states_checked,
            "collapsed": self.collapsed,
            "collapsed_type": None if self.collapsed_type is None else str(self.collapsed_type),
            "boundary_flags": list(self.boundary_flags),
        }


def collapse_check(
    level: ProjLevel,
    ladder: ScaleLadder = DEFAULT_LADDER,
    level_m: int = 1,
) -> CollapseReport:
    """Apply the composite product operator to every truncated type at
    the level and confirm a single output value."""
    states = all_states(level)
    images = {triangular_star(t, level, ladder) for t in states}
    outputs = {compact_star(t, level, ladder, level_m) for t in images}
    collapsed = len(outputs) <= 1
    value = outputs.pop() if len(outputs) == 1 else None
    return CollapseReport(len(states), collapsed, value, boundary_flagged(level))


def _flow_table(level: ProjLevel, level_m: int, ladder: ScaleLadder) -> list[tuple[int, ...]]:
    """Successor codes (point_index·|J| + class_index) of the nonalgebraic
    states under the generators, the triangular and each fiber product.

    Per (move, base point) an input realized at the move's rung lands at
    z + dev with v(dev) >= depth: the class map is the derivative twist if
    z is a window residue r, else the constant class of z - r, certified
    by the depth.  A snapped generator image's dev is the deepest-rung
    scale; a witness moves the rung-2 realization s of `_apply_witness`,
    whose twisted class holds while v(q·s) reaches the Hensel exponent."""
    p, n, m = level.prime, level.level_n, level.modulus
    classes, points = level.classes(), level.base_points()
    slot = {c: k for k, c in enumerate(classes)}
    hensel = PadicRational.of(hensel_modulus(p, n), p).e
    identity = GFlowPoint.identity(p, n, 1)
    witnesses = [_flow_point_witness(identity, ladder), *(_fiber_witness(c, ladder) for c in classes)]
    moves = [(g, ladder.rungs[-1], False) for g in flow_generators(p, level_m + level.window_w)]
    moves += [(w, ladder.rungs[2], True) for w in witnesses]
    columns = [[] for _ in moves]
    for (g, rung, through), column in zip(moves, columns):
        for point in points:
            _, inverted, z, derivative, q = _chart_step(g, point)
            r = z.residue(m)
            dev = z - r
            depth = rung + PadicRational.of(derivative, p).e if through else rung
            exact = not (through and q) or PadicRational.of(q, p).e + rung >= hensel
            bound = dev.e + hensel if dev else level.window_w
            _require(exact and depth >= bound, "projective flow: a class map is not certified")
            _require(not inverted or r % p == 0, "projective flow: a successor left the state space")
            base = len(classes) * (m + r // p if inverted else r)
            # the class map: constant at class(z - r), or the derivative's twist
            k = class_of(dev if dev else derivative, n, p)
            column += [base + slot[k if dev else k * c] for c in classes]
    return list(zip(*columns))


@dataclass(frozen=True)
class ProjFlowReport:
    size: int
    strongly_connected: bool
    proximal: bool
    collapsed_type: ProjTruncType | None
    boundary_flags: tuple

    def to_json(self) -> dict:
        return {
            "states": self.size,
            "strongly_connected": self.strongly_connected,
            "proximal": self.proximal,
            "collapsed_type": None if self.collapsed_type is None else str(self.collapsed_type),
            "boundary_flags": list(self.boundary_flags),
        }


def minimality_proximality_report(
    level: ProjLevel,
    level_m: int = 1,
    ladder: ScaleLadder = DEFAULT_LADDER,
) -> ProjFlowReport:
    """Strong connectivity of the nonalgebraic truncated types under the
    generator action plus the orbit-closure transitions (the triangular
    generic product and the identity-fiber family), with proximality
    witnessed by the collapse of the composite operator.

    The fiber transitions are load-bearing: determinant-one derivatives
    only twist classes by squares, so the action alone cannot cross
    between class fibers away from collapsing boundary deviations."""
    successors = _flow_table(level, level_m, ladder)
    components = strongly_connected_components(range(len(successors)), successors.__getitem__)
    collapse = collapse_check(level, ladder, level_m)
    return ProjFlowReport(
        size=len(successors),
        strongly_connected=len(components) == 1,
        proximal=collapse.collapsed,
        collapsed_type=collapse.collapsed_type,
        boundary_flags=collapse.boundary_flags,
    )
