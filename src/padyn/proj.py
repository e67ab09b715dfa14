"""Truncated 1-types on the projective line under the det-1 action.

Points are canonical homogeneous pairs ([x : 1] or [1 : 0]); a truncated
type is either a realized point or the family infinitesimally near one,
with class data measured in the reciprocal chart beyond the integral
window so the family at infinity behaves like any other.

Every matrix acts on a point through one chart step, `_chart_image`,
from the point's chart (inverted flag, coordinate).  A witness product
steps the input's rung-2 witness y0 + scale (or a realized point); the
triangular witness is `borel.witness` of the identity class.
`_chart_type` truncates the product's image, a chart coordinate, to its
window residue plus the class of the deviation.

The flow report tabulates the nonalgebraic states on int codes, one
column per move.  Every move's entries are one-term and every base
point's chart coordinate is an int, so per base point one `_int_step`
on (num, den, e) int triples gives the output point and a class map,
either the derivative twist or a constant certified against the rung
the input is realized at.  A constant class map is no translation, so
the table is no skew product over the base points: one depth-first
search over all the states (`_graph.skew_components` with a
one-element fibre) decides strong connectivity.  `triangular_star`
sends every type not based at infinity into the infinity family, and
`compact_star` sends that family to one type (the input's own witness
is absorbed at the compact level).  Their composite is constant on all
truncated types, which is both the collapse check and the proximality
witness of the flow report.  The collapse check reads every state's
triangular image from the triangular column's pass, the realized
states' included; the explicit products stay as the table's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._graph import skew_components
from .borel import witness as borel_witness
from .padic import (
    PadicMatrix2,
    PadicRational,
    RationalLike,
    _coerce_fraction,
    _p_power,
    _require,
    int_valuation,
)
from .residues import ResidueClass, build_group, class_of, hensel_modulus
from .sl2 import flow_generators
from .types1 import DEFAULT_LADDER, ScaleLadder, TruncType1, realize


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
        """The residues of the integral projective line at resolution w,
        in the order of `_charts`."""
        return tuple(map(_point, _charts(self)))

    def classes(self) -> tuple[ResidueClass, ...]:
        return build_group(self.prime, self.level_n).elements


@lru_cache(maxsize=16)
def _charts(level: ProjLevel) -> tuple[tuple[bool, int], ...]:
    """The base points as (inverted, int chart coordinate): the window
    residues, then infinity and the points whose reciprocal p divides."""
    p, m = level.prime, level.modulus
    return tuple([(False, a) for a in range(m)] + [(True, p * b) for b in range(m // p)])


def _point(chart: tuple[bool, int]) -> ProjPoint:
    return ProjPoint.of(1, chart[1]) if chart[0] else ProjPoint.of(chart[1], 1)


def _chart(pt: ProjPoint, p: int) -> tuple[bool, Fraction]:
    """Whether the point's chart is inverted, and its chart coordinate."""
    if pt.is_infinity:
        return True, Fraction(0)
    inverted = PadicRational.of(pt.x0, p).e < 0
    return inverted, 1 / pt.x0 if inverted else pt.x0


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


def _chart_witness(t: ProjTruncType, ladder: ScaleLadder) -> tuple[bool, PadicRational]:
    """The Near family's witness y0 + scale at rung 2, in the base point's
    own chart: (inverted, chart coordinate)."""
    if t.is_realized:
        raise ValueError("realized types need no witnesses")
    inverted, y0 = _chart(t.point, t.near_class.prime)
    return inverted, realize(TruncType1.near(y0, t.near_class), 2, ladder)


def _det_one(g: PadicMatrix2) -> PadicMatrix2:
    """g, once its determinant is checked to be one."""
    if g.det() != 1:
        raise ValueError("need determinant one")
    return g


def _chart_image(g: PadicMatrix2, inverted: bool, y: RationalLike) -> tuple:
    """A p-adic det-1 g at chart coordinate y, from the image chart vector
    g·(y, 1), or g·(1, y) in the reciprocal chart: whether the image's chart
    is inverted, and its chart coordinate z."""
    lo0, hi0, lo1, hi1 = (g.b, g.a, g.d, g.c) if inverted else (g.a, g.b, g.c, g.d)
    w0, w1 = lo0 * y + hi0, lo1 * y + hi1
    flip = not w1 or bool(w0) and w0.e < w1.e
    num, denom = (w1, w0) if flip else (w0, w1)
    _require(bool(denom), "chart selection failed to keep the image finite")
    return flip, num * denom.inverse()


def _row(lo: tuple, hi: tuple, y: int, p: int) -> tuple[int, int, int]:
    """lo·y + hi for (num, den, e) triples and an int y, as a triple whose
    num is p-free; (0, 1, 0) for zero."""
    n1, d1, e1 = lo
    n2, d2, e2 = hi
    if not (n1 and y):
        return hi
    e = min(e1, e2)
    num = n1 * y * d2 * _p_power(p, e1 - e) + n2 * d1 * _p_power(p, e2 - e)
    if not num:
        return 0, 1, 0
    v, num = (0, num) if num % p else int_valuation(num, p)
    return num, d1 * d2, e + v


def _int_step(g: tuple, inverted: bool, y: int, p: int) -> tuple:
    """`_chart_image` of det-1 g, given as (num, den, e) triples (a, b, c,
    d), at an int chart coordinate y: the chart flag, then z, the
    derivative and q as triples with p-free num and den (num 0 for zero),
    so that the input moved by s lands at z + derivative·s/(1 + q·s); the
    charts only permute g's entries, so det is -1 iff one chart flips."""
    lo0, hi0, lo1, hi1 = (g[1], g[0], g[3], g[2]) if inverted else g
    w0, w1 = _row(lo0, hi0, y, p), _row(lo1, hi1, y, p)
    flip = not w1[0] or bool(w0[0]) and w0[2] < w1[2]
    (nn, dn, en), (nd, dd, ed), (nl, dl, el) = (w1, w0, lo0) if flip else (w0, w1, lo1)
    _require(bool(nd), "chart selection failed to keep the image finite")
    derivative = (-dd * dd if inverted != flip else dd * dd), nd * nd, -2 * ed
    return flip, (nn * dd, dn * nd, en - ed), derivative, (nl * dd, dl * nd, el - ed)


# a fiber witness depends on the class and the ladder only: built once
@lru_cache(maxsize=256)
def _fiber_witness(klass: ResidueClass, ladder: ScaleLadder) -> PadicMatrix2:
    corner = realize(TruncType1.near(0, klass), 0, ladder)
    return PadicMatrix2.of(((1, 0), (corner, 1)), klass.prime)


def _apply_witness(
    left: PadicMatrix2, t: ProjTruncType, level: ProjLevel, ladder: ScaleLadder
) -> ProjTruncType:
    """Classify left·x, the input x realized on the block above everything
    the first-block witness `left` spans (a realized point is itself): one
    chart step from x's chart, the image truncated in its own chart."""
    if t.is_realized:
        inverted, y = _chart(t.point, level.prime)
    else:  # the witness is formed, so the rows multiply in one-term form
        inverted, y = _chart_witness(t, ladder)
        y = y.collapsed()
    inverted, z = _chart_image(left, inverted, y)
    return _chart_type(z, inverted, level)


def triangular_star(
    t: ProjTruncType, level: ProjLevel, ladder: ScaleLadder = DEFAULT_LADDER
) -> ProjTruncType:
    """Product with the triangular flow's generic point.

    Every input not based at infinity lands in the infinity family: the
    witness turns a realization a into a·alpha² + alpha·beta, and the
    exact valuation comparison picks the dominant term.  Infinity itself
    is fixed, and infinity-based families stay within the family.
    """
    witness = borel_witness(class_of(1, level.level_n, level.prime), ladder, 0)
    return _apply_witness(witness, t, level, ladder)


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
        _, y = _chart_witness(t, ladder)
        _require(bool(y) and y.e >= level_m, "witness not absorbed at level m")
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
    step = level.prime ** (level.window_w - 1)
    flagged = (Fraction(1, y) if inv else y for inv, y in _charts(level) if y and not y % step)
    return tuple(sorted(map(str, flagged)))


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
    return _collapse_report(level, ladder, level_m, _triangular_column(level, ladder))


def _collapse_report(
    level: ProjLevel, ladder: ScaleLadder, level_m: int, triangular: tuple[list, list]
) -> CollapseReport:
    charts, classes = _charts(level), level.classes()
    order = len(classes)
    codes = {*triangular[0], *triangular[1]}  # near codes, and ~point_index if realized
    images = {
        ProjTruncType.near(_point(charts[c // order]), classes[c % order]) for c in codes if c >= 0
    }
    images |= {ProjTruncType.realized(_point(charts[~c])) for c in codes if c < 0}
    outputs = {compact_star(t, level, ladder, level_m) for t in images}
    value = next(iter(outputs)) if len(outputs) == 1 else None
    size = len(charts) * (order + 1)
    return CollapseReport(size, len(outputs) <= 1, value, boundary_flagged(level))


def _column(g: PadicMatrix2, rung: int, through: bool, level: ProjLevel) -> tuple[list, list]:
    """Successor codes (point_index·|J| + class_index) of the nonalgebraic
    states under one move, and per base point the code of its realized
    state's image (~point_index if that is realized).  Per base point an
    input realized at the move's rung lands at z + dev with v(dev) >=
    depth: the class map is the derivative twist if z is a window residue
    r, else the constant class of z - r, certified by the depth.  A
    generator moves the input realized at the deepest rung; a witness
    moves (`through`) the rung-2 realization s of `_apply_witness`, whose
    twisted class holds while v(q·s) reaches the Hensel exponent."""
    p, n, m, w = level.prime, level.level_n, level.modulus, level.window_w
    group = build_group(p, n)
    order = group.order
    modulus = hensel_modulus(p, n)
    hensel, _ = int_valuation(modulus, p)
    entries = _det_one(g).entries()
    _require(not any(x.rest for x in entries), "projective flow: a move has a sparse entry")
    triples = tuple((x.num, x.den, x.e) for x in entries)
    column, realized = [], []
    for inverted, y in _charts(level):
        flip, (zn, zd, ez), (dn, dd, de), q = _int_step(triples, inverted, y, p)
        r = 0
        if zn and ez < w:  # dev = z - r, else z itself
            r = zn * p**ez * pow(zd, -1, m) % m
            x = zn * p**ez - r * zd
            ez, zn = int_valuation(x, p) if x else (0, 0)
        depth = rung + de if through else rung
        exact = not (through and q[0]) or q[2] + rung >= hensel
        bound = ez + hensel if zn else w
        _require(exact and depth >= bound, "projective flow: a class map is not certified")
        _require(not flip or r % p == 0, "projective flow: a successor left the state space")
        index = m + r // p if flip else r
        # the class map: constant at class(z - r), or the derivative's twist
        unit, e = (zn * pow(zd, -1, modulus), ez) if zn else (dn * pow(dd, -1, modulus), de)
        k = group.slots[e % n, unit % modulus]
        code = index * order + k
        column += [code] * order if zn else [index * order + j for j in group.products[k]]
        realized.append(code if zn else ~index)
    return column, realized


def _triangular_column(level: ProjLevel, ladder: ScaleLadder) -> tuple[list, list]:
    witness = borel_witness(class_of(1, level.level_n, level.prime), ladder, 0)
    return _column(witness, ladder.rungs[2], True, level)


def _flow_table(level: ProjLevel, level_m: int, ladder: ScaleLadder, triangular: list) -> list:
    """The columns of successor codes of the nonalgebraic states under the
    generators, the triangular (its given column) and each fiber product."""
    gens = flow_generators(level.prime, level_m + level.window_w)
    columns = [_column(g, ladder.rungs[-1], False, level)[0] for g in gens]
    columns.append(triangular)
    fibers = [_fiber_witness(c, ladder) for c in level.classes()]
    columns += [_column(w, ladder.rungs[2], True, level)[0] for w in fibers]
    return columns


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
    between class fibers away from collapsing boundary deviations.  One
    search on the flat columns, over a one-element fibre, decides it."""
    triangular = _triangular_column(level, ladder)
    columns = _flow_table(level, level_m, ladder, triangular[0])
    count = skew_components([(column, 0) for column in columns], ((0,),), 0, 0)
    collapse = _collapse_report(level, ladder, level_m, triangular)
    return ProjFlowReport(
        size=len(columns[0]),
        strongly_connected=count == 1,
        proximal=collapse.collapsed,
        collapsed_type=collapse.collapsed_type,
        boundary_flags=collapse.boundary_flags,
    )
