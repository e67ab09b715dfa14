"""Determinant-one 2x2 machinery over the p-adic rationals.

Four layers, all exact:

- `iwasawa` splits any det-1 matrix into an integral factor times an
  upper-triangular one, pivoting on the first column.
- `borel_past_integral` rewrites (triangular)·(integral) as
  (integral)·(triangular), the engine that lets triangular data flow
  through compact factors.  Like every `PadicMatrix2`, a witness matrix
  holds `PadicRational` entries, so it stays p-normalised throughout.
- K, the finite group of det-1 matrices mod p^m, is int-coded: an
  element is its entry tuple, numbered by its lexicographic index,
  which `_k_rank` computes in closed form, with `k_mul`, `k_reduce` and
  the cached exact det-1 lift `k_lift`.  The flow reads K from four
  `array('i')` entry columns (`_k_entries`); `k_level_group`, the tuple
  of entry tuples, serves small levels.
- `GFlowPoint` pairs a K element with a residue class: a triangular
  truncated type is the power-residue class of its diagonal, so the
  class is the type.  `star` multiplies two points by realizing concrete
  witnesses (`borel.witness` matrices) on separated ladder blocks,
  refactoring the middle, and forming only the leading entry of the
  triangular parts' product, the one entry its class reads
  (`borel.leading_class`).  On the identity fiber {(I, j)} it is
  `borel.star`, so `ellis_group` reads that fiber's tables from
  `borel.build_flow_group`.  `minimal_flow` builds the finite flow K x J
  on flat int columns: `skew_product` tabulates iwasawa(g·lift(k)) in
  closed form for every (generator, K element), with no lift for the
  integral generators unless g·lift(k) is exactly upper triangular, and
  `act` is array lookups.  Holonomy on K decides strong connectivity
  (`_graph.skew_components`); up to `CROSS_CHECK_STATES` states Tarjan
  on the per-state successor lists cross-checks it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ._graph import skew_components, strongly_connected_components
from .borel import build_flow_group, leading_class, witness as borel_witness
from .padic import PadicMatrix2, PadicRational, _padic, _require, int_valuation
from .residues import (
    ResidueClass,
    build_group,
    class_of,
    hensel_modulus,
    induced_valuation_map,
)
from .types1 import DEFAULT_LADDER, ScaleLadder


# --------------------------------------------------------------- factoring


def iwasawa(g: PadicMatrix2) -> tuple[PadicMatrix2, PadicMatrix2]:
    """Split det-1 g as (t, h) with g = t @ h, t integral of det 1 and h
    upper triangular.

    Upper-triangular input returns (I, g); integral input returns (g, I).
    Otherwise scale the p-power s out of the first column, (u0, u1) =
    (a, c)/s, and pivot on whichever is more unit-like (ties keep the
    diagonal shape); det g = 1 gives h = ((s, b/u0 or d/u1), (0, 1/s)).
    """
    if g.det() != 1:
        raise ValueError("need determinant one")
    p = g.prime
    if g.is_upper_triangular():
        return PadicMatrix2.identity(p), g
    if g.is_integral():
        return g, PadicMatrix2.identity(p)
    pivot_top = bool(g.a) and g.a.e <= g.c.e  # g.c != 0 here; a zero g.a pivots on it
    e = g.a.e if pivot_top else g.c.e
    u0, u1 = g.a.shifted(-e), g.c.shifted(-e)
    zero = _padic(0, 1, 0, p)
    if pivot_top:
        inverse = u0.inverse()
        t, corner = PadicMatrix2(u0, zero, u1, inverse, p), g.b * inverse
    else:
        inverse = u1.inverse()
        t, corner = PadicMatrix2(u0, -inverse, u1, zero, p), g.d * inverse
    h = PadicMatrix2(_padic(1, 1, e, p), corner, zero, _padic(1, 1, -e, p), p)
    _require(t.is_unimodular_integral(), "iwasawa: integral factor is not unimodular")
    _require(h.is_upper_triangular(), "iwasawa: remainder is not upper triangular")
    return t, h


def borel_past_integral(
    h: PadicMatrix2, t: PadicMatrix2
) -> tuple[PadicMatrix2, PadicMatrix2]:
    """Rewrite h @ t (upper triangular times integral, both det 1) as
    t2 @ h2 with h2 upper triangular, preserving the product exactly.

    A right factor with zero lower-left corner passes through whole:
    t2 = t and h2 = t^-1 h t, which keeps h's diagonal.  Otherwise t2
    is lower unipotent with corner u3 / (a * (a*u1 + c*u3)); the corner
    valuation grows with the spread between h's diagonal and
    off-diagonal scales, which is what keeps compact parts clean when h
    witnesses a truncated type.
    """
    if not h.is_upper_triangular() or h.det() != 1:
        raise ValueError("left factor must be upper triangular with det 1")
    if not t.is_integral() or t.det() != 1:
        raise ValueError("right factor must be integral with det 1")
    p = h.prime
    a, c = h.a, h.b
    u1, u2, u3, u4 = t.entries()
    if u3 == 0:  # det t = 1, so t^-1 is t's adjugate
        t2, h2 = t, PadicMatrix2(u4, -u2, u3, u1, p) @ h @ t
    else:
        lead = a * u1 + c * u3
        if lead == 0:
            raise ValueError("degenerate product: leading entry vanished")
        t2 = PadicMatrix2.of(((1, 0), (u3 / (a * lead), 1)), p)
        h2 = PadicMatrix2.of(((lead, a * u2 + c * u4), (0, lead.inverse())), p)
    if (t2 @ h2).rows() != (h @ t).rows():
        raise ArithmeticError("rewrite failed the exact product check")
    return t2, h2


# --------------------------------------------------------- compact level


def _lift_scaled(entries: tuple[int, int, int, int], p: int) -> tuple[int, tuple]:
    """The exact det-1 lift of K element `entries` as (den, rows): the lift
    is rows / den with integer rows and a p-free den > 0.  Three entries
    stay as they are; the fourth is solved through a unit, which changes
    it only by a multiple of p^m."""
    a, b, c, d = entries
    if a % p:
        return a, ((a * a, a * b), (a * c, 1 + b * c))
    if d % p:
        return d, ((1 + b * c, b * d), (c * d, d * d))
    # det = ad - bc = 1 mod p with a = d = 0 mod p forces c a unit
    return c, ((a * c, a * d - 1), (c * c, c * d))


def k_reduce(g: PadicMatrix2, level_m: int) -> tuple[int, int, int, int]:
    """The entry tuple of integral g mod p^m."""
    if not g.is_integral():
        raise ValueError("only integral matrices reduce")
    mod = g.prime**level_m
    return tuple(x.residue(mod) for x in g.entries())


# `star` lifts the same few compact parts over and over, so each lift is
# built, and checked, once per entry tuple
@lru_cache(maxsize=1024)
def k_lift(k: tuple[int, int, int, int], p: int, level_m: int) -> PadicMatrix2:
    """The exact det-1 integral lift of K element k (see `_lift_scaled`)."""
    den, rows = _lift_scaled(k, p)
    inv = PadicRational.of(den, p).inverse()
    lifted = PadicMatrix2.of(tuple(tuple(inv * x for x in row) for row in rows), p)
    _require(lifted.det() == 1, "lift: determinant is not one")
    _require(k_reduce(lifted, level_m) == k, "lift: reduction differs")
    return lifted


def k_mul(x: tuple, y: tuple, mod: int) -> tuple[int, int, int, int]:
    a, b, c, d = x
    e, f, g, h = y
    return (
        (a * e + b * g) % mod,
        (a * f + b * h) % mod,
        (c * e + d * g) % mod,
        (c * f + d * h) % mod,
    )


def _k_entries(p: int, level_m: int) -> tuple[array, array, array, array]:
    """K's entry columns: the det-1 matrices mod p^m in lexicographic
    order, entries (a, b, c, d) of element i at a[i], b[i], c[i], d[i],
    one `array('i')` per entry.

    For each (a, b, c) the d with a·d = 1 + b·c are solved directly:
    with g = gcd(a, p^m) they exist iff g divides 1 + b·c, and then form
    one residue class mod p^m / g.
    """
    mod = p**level_m
    columns = tuple(array("i") for _ in range(4))
    add_a, add_b, add_c, add_d = (column.append for column in columns)
    for a in range(mod):
        g = gcd(a, mod)
        step = mod // g
        inv = pow(a // g, -1, step)
        for b in range(mod):
            for c in range(mod):
                rhs = (1 + b * c) % mod
                if rhs % g == 0:
                    for d in range(rhs // g * inv % step, mod, step):
                        add_a(a)
                        add_b(b)
                        add_c(c)
                        add_d(d)
    _require(
        len(columns[0]) == (p**3 - p) * p ** (3 * (level_m - 1)), "K enumeration missed elements"
    )
    return columns


@lru_cache(maxsize=None)
def _k_rank(p: int, level_m: int):
    """The K index (position in `_k_entries` order) of entries
    (a, b, c, d), in closed form, so no index of K (a dict or a sorted
    code table) is kept.

    With M = p^m and g = gcd(a, M): a unit a has one d for every (b, c),
    so M² elements, at b·M + c.  Otherwise b must be a unit, the valid c
    are one class mod g and each has g values of d, one class mod M / g:
    M elements per unit b, the c-th valid c at (c // g)·g and the d-th
    d at d // (M / g).
    """
    mod = p**level_m
    units_below = [b - (b + p - 1) // p for b in range(mod + 1)]
    offsets, gcds, steps = [], [], []
    total = 0
    for a in range(mod):
        g = gcd(a, mod)
        offsets.append(total)
        gcds.append(g)
        steps.append(mod // g)
        total += mod * (mod if g == 1 else units_below[mod])
    _require(total == (p**3 - p) * p ** (3 * (level_m - 1)), "K rank: the offsets miss elements")

    def rank(a: int, b: int, c: int, d: int) -> int:
        g = gcds[a]
        if g == 1:
            return offsets[a] + b * mod + c
        return offsets[a] + units_below[b] * mod + c // g * g + d // steps[a]

    return rank


@lru_cache(maxsize=None)
def k_level_group(p: int, level_m: int) -> tuple[tuple[int, int, int, int], ...]:
    """Entries (a, b, c, d) of every det-1 matrix mod p^m, in
    lexicographic order; a K element's int code is its index here.
    The flow never builds this tuple (it reads `_k_entries` and finds
    indices by `_k_rank`); `star`'s callers and the tests read it at
    small levels."""
    return tuple(zip(*_k_entries(p, level_m)))


# ------------------------------------------------------------ flow points


@dataclass(frozen=True)
class GFlowPoint:
    """A K element's entry tuple, reduced mod p^m, paired with a
    triangular type's class."""

    k: tuple[int, int, int, int]
    j: ResidueClass
    level_m: int

    def __post_init__(self) -> None:
        mod = self.j.prime**self.level_m
        a, b, c, d = self.k
        if any(not 0 <= e < mod for e in self.k) or (a * d - b * c) % mod != 1 % mod:
            raise ValueError("k must be det-1 entries reduced mod p^m")

    @classmethod
    def identity(cls, p: int, level_n: int, level_m: int) -> "GFlowPoint":
        return cls((1, 0, 0, 1), class_of(1, level_n, p), level_m)


def _lower_perturbation(p: int, exponent: int) -> PadicMatrix2:
    return PadicMatrix2.of(((1, 0), (PadicRational.of(1, p).shifted(exponent), 1)), p)


def star(
    s: GFlowPoint, t: GFlowPoint, ladder: ScaleLadder, *, perturbed: bool = False
) -> GFlowPoint:
    """Product of two flow points through concrete witnesses.

    The left triangular part is realized on the ladder's first rung
    block, the right one on the block above everything derivable from
    it; the middle factors are refactored with `borel_past_integral` so
    the product splits back into a compact part (reduced mod p^m) and a
    triangular part h1 @ h2, classified at level n by its leading entry
    (`borel.leading_class` forms (h1 @ h2).a alone).  On the identity
    fiber, where t.k = I and lift(I) = I, the left witness rewrites to
    itself and the product is `borel.star(s.j, t.j)`.

    With `perturbed=True` the compact parts carry explicit deep
    identity perturbations the way generic realizations would; they must
    wash out of both coordinates, so this path is the expensive
    self-check of the plain one.
    """
    j, level_m = s.j, s.level_m
    p, level_n = j.prime, j.level_n
    if t.level_m != level_m or t.j.prime != p or t.j.level_n != level_n:
        raise ValueError("mixed truncation levels")
    mod = p**level_m
    compact, h1 = t.k, borel_witness(j, ladder, 0)
    if compact != (1, 0, 0, 1):  # lift(I) = I: the witness rewrites to itself
        mid, h1 = borel_past_integral(h1, k_lift(compact, p, level_m))
        compact = k_reduce(mid, level_m)
    h2 = borel_witness(t.j, ladder, 2)
    if perturbed:
        tau1 = _lower_perturbation(p, level_m + ladder.window_w)
        tau2 = _lower_perturbation(p, ladder.gap * (ladder.rungs[1] + ladder.window_w))
        deep, h1 = borel_past_integral(h1, tau2)
        compact = k_mul(k_mul(k_reduce(tau1, level_m), compact, mod), k_reduce(deep, level_m), mod)
    return GFlowPoint(k_mul(s.k, compact, mod), leading_class(h1, h2, level_n), level_m)


# ------------------------------------------------------------- the flow


def _unit_generator(p: int, exponent: int) -> int:
    """Smallest generator of the units mod p^exponent."""
    modulus = p**exponent
    phi = (p - 1) * p ** (exponent - 1)
    factors = set()
    q, rest = 2, phi
    while q * q <= rest:
        while rest % q == 0:
            factors.add(q)
            rest //= q
        q += 1
    if rest > 1:
        factors.add(rest)
    for g in range(2, modulus):
        if g % p and all(pow(g, phi // q, modulus) != 1 for q in factors):
            return g
    raise ValueError(f"no unit generator mod {p}^{exponent}")


def flow_generators(p: int, unit_level: int) -> tuple[PadicMatrix2, ...]:
    """The documented generator set: both unipotents, a diagonal unit,
    the p-dilation, and the rotation."""
    u = _unit_generator(p, unit_level)
    return (
        PadicMatrix2.of(((1, 1), (0, 1)), p),
        PadicMatrix2.of(((1, 0), (1, 1)), p),
        PadicMatrix2.of(((u, 0), (0, Fraction(1, u))), p),
        PadicMatrix2.of(((p, 0), (0, Fraction(1, p))), p),
        PadicMatrix2.of(((0, -1), (1, 0)), p),
    )


def identification_moves(p: int, level_n: int, unit_level: int) -> tuple:
    """Triangular factors can slide between the coordinates of a flow
    point without changing the type it truncates: absorbing an integral
    element b = [[a, c], [0, 1/a]] multiplies the compact part by b-bar
    and the class by class(a)^-1.  Returns (matrix, class multiplier)
    pairs for the generating moves."""
    u = _unit_generator(p, unit_level)
    return tuple(
        (PadicMatrix2.of(((a, c), (0, Fraction(1, a))), p), class_of(a, level_n, p).inverse())
        for a, c in ((u, 0), (1, 1), (-1, 0))
    )


def _scaled(g: PadicMatrix2) -> tuple[int, int, tuple]:
    """g as (e, den, rows): g = p^e · rows / den with integer rows and a
    p-free den > 0, read off the entries' numerators and denominators."""
    den = lcm(*(x.denominator for x in g.entries()))
    rows = tuple(tuple(x.numerator * (den // x.denominator) for x in row) for row in g.rows())
    e, den = int_valuation(den, g.prime)
    return -e, den, rows


@dataclass(frozen=True)
class SkewProduct:
    """The finite flow K x J on flat int columns: state k·width + j is
    the pair (K element k, `build_group(p, n).elements[j]`), K numbered
    in `k_level_group` order.

    cocycle[g] = (targets, twists) holds two `array('i')` columns: flow
    generator g sends K element k to targets[k] and multiplies the
    class by class twists[k].  slides[i] = (targets, twist) is the same
    for identification move i, whose twist is one class for every k.
    products[r][s] is the index of class r times class s, identity the
    K index of I and trivial the class index of 1.
    """

    width: int
    products: tuple
    cocycle: tuple
    slides: tuple
    identity: int
    trivial: int


def _cocycle_column(
    g: PadicMatrix2, p: int, level_n: int, level_m: int, entries
) -> tuple[array, array]:
    """The column (targets, twists) of flow generator g: iwasawa(g·lift(k))
    = (t, h) read as (t mod p^m, class(h.a)) for every K element k, read
    from K's entry columns (`_k_entries`).

    Write G = g·lift(k) = p^e·Q/D with Q an integer matrix and D p-free.
    Upper-triangular G gives (I, class(G.a)); integral G gives
    (G mod p^m, trivial).  Otherwise, with w = min(v(Q.a), v(Q.c)), t is
    G's first column scaled by p^-(e+w), (A, C)/D, completed on the more
    unit-like of A and C exactly as `iwasawa` does (ties keep the
    diagonal shape), and h.a = p^(e+w).  A twist's class index is read
    from `build_group(p, level_n).slots`.

    For integral g, G is integral, so it is I's or g·k mod p^m with a
    trivial twist, by whether its lower-left entry vanishes; that entry
    is g's lower row against lift(k)'s first column, which `_lift_scaled`
    gives as a nonzero multiple of (a, c), or of (1 + b·c, c·d) when only
    d is a unit.  Only the k where it vanishes take the general path.
    """
    mod = p**level_m
    rank = _k_rank(p, level_m)
    twist = build_group(p, level_n).slots
    hensel = hensel_modulus(p, level_n)
    trivial, identity = twist[0, 1], rank(1, 0, 0, 1)
    e, g_den, ((g00, g01), (g10, g11)) = _scaled(g)
    shift = p ** abs(e)
    integral = g.is_integral()
    if integral:
        ga, gb, gc, gd = k_reduce(g, level_m)
    targets, twists = array("i"), array("i", [trivial]) * len(entries[0])
    for i, k in enumerate(zip(*entries)):
        a, b, c, d = k
        if integral:
            x, y = (1 + b * c, c * d) if a % p == 0 and d % p else (a, c)
            if g10 * x + g11 * y:
                targets.append(
                    rank((ga * a + gb * c) % mod, (ga * b + gb * d) % mod,
                         (gc * a + gd * c) % mod, (gc * b + gd * d) % mod)
                )
                continue
        den, ((l00, l01), (l10, l11)) = _lift_scaled(k, p)
        qa, qb = g00 * l00 + g01 * l10, g00 * l01 + g01 * l11
        qc, qd = g10 * l00 + g11 * l10, g10 * l01 + g11 * l11
        den *= g_den
        if qc == 0:  # upper triangular: t = I
            v, unit = int_valuation(qa, p)
            targets.append(identity)
            twists[i] = twist[(e + v) % level_n, unit * pow(den, -1, hensel) % hensel]
            continue
        inv = pow(den, -1, mod)
        if e >= 0:  # integral: h = I
            t = (qa * shift * inv, qb * shift * inv, qc * shift * inv, qd * shift * inv)
        elif not (qa % shift or qb % shift or qc % shift or qd % shift):
            t = (qa // shift * inv, qb // shift * inv, qc // shift * inv, qd // shift * inv)
        else:
            vc, c_unit = int_valuation(qc, p)
            va, a_unit = int_valuation(qa, p) if qa else (vc + 1, 0)
            w = min(va, vc)
            if va <= vc:
                t = (a_unit * inv, 0, qc // p**w * inv, den * pow(a_unit, -1, mod))
            else:
                t = (qa // p**w * inv, -den * pow(c_unit, -1, mod), c_unit * inv, 0)
            twists[i] = twist[(e + w) % level_n, 1]
        t0, t1, t2, t3 = t[0] % mod, t[1] % mod, t[2] % mod, t[3] % mod
        _require((t0 * t3 - t1 * t2) % mod == 1, "skew product: a compact part is not in K")
        targets.append(rank(t0, t1, t2, t3))
    return targets, twists


def skew_product(p: int, level_n: int, level_m: int, unit_level: int) -> SkewProduct:
    """Tabulate the flow on flat int columns: one `_cocycle_column` per
    flow generator, and each identification move's column k ↦ k·b mod
    p^m with its one class multiplier.  K is read from its entry columns,
    never stored as tuples; an entry tuple's index is `_k_rank`'s closed form."""
    mod = p**level_m
    rank = _k_rank(p, level_m)
    entries = _k_entries(p, level_m)
    group = build_group(p, level_n)
    cocycle = tuple(
        _cocycle_column(g, p, level_n, level_m, entries) for g in flow_generators(p, unit_level)
    )
    slides = []
    for bmat, mult in identification_moves(p, level_n, unit_level):
        e, f, g, h = k_reduce(bmat, level_m)
        targets = array(
            "i",
            (
                rank((a * e + b * g) % mod, (a * f + b * h) % mod,
                     (c * e + d * g) % mod, (c * f + d * h) % mod)
                for a, b, c, d in zip(*entries)
            ),
        )
        slides.append((targets, group.index[mult.representative]))
    return SkewProduct(
        group.order, group.products, cocycle, tuple(slides), rank(1, 0, 0, 1), group.index[1]
    )


def act(flow: SkewProduct, g: int, state: int) -> int:
    """Left translation by the flow's generator g: the compact part moves
    by the base cocycle and its twist σ(g, k) multiplies into the class."""
    k, j = divmod(state, flow.width)
    targets, twists = flow.cocycle[g]
    return targets[k] * flow.width + flow.products[twists[k]][j]


@dataclass(frozen=True)
class EllisReport:
    """Product structure of the identity-fiber points {(I, j)}."""

    prime: int
    level_n: int
    order: int
    levels: tuple[int, ...]
    tables: dict
    iso_by_level: dict
    valuation_injective_by_level: dict
    tower: tuple[tuple[int, int, bool], ...]

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "table": build_group(self.prime, self.level_n).rows(self.tables[self.level_n]),
            "iso_checks": [
                {
                    "level_n": lev,
                    "iso_to_flow_group": self.iso_by_level[lev],
                    "valuation_map_injective": self.valuation_injective_by_level[lev],
                }
                for lev in self.levels
            ],
            "tower": [
                {"from_level": big, "to_level": small, "commutes": ok}
                for big, small, ok in self.tower
            ],
        }


def ellis_group(p: int, level_n: int, ladder: ScaleLadder = DEFAULT_LADDER) -> EllisReport:
    """The identity-fiber points {(I, j)} under `star`, tabulated level
    by level down the divisor tower of level_n.

    The fiber's group is Q_p*/(Q_p*)^n, the triangular flow group (order
    16 at p = 5, n = 4).  It is not the paper's Ellis group Ẑ of
    SL(2, Q_p).  The finite stand-in for Ẑ is the fiber's quotient by
    the compact torus diag(u, 1/u), cyclic of order n, which this report
    does not compute.  On the fiber itself valuations alone need not
    separate the classes (at p = 5, n = 4 they do not), and the report
    keeps saying so.

    On the fiber `star` is `borel.star` (its compact part is I, whose
    lift I the left witness passes through whole), and neither depends
    on the compact level m, so each level's table is
    `borel.build_flow_group`'s cached dict, which callers compare and
    never mutate.  The report records whether the fiber's table equals
    the residue group's at each level (that group is the triangular flow
    group, which the `borel` report and check verify, hence the JSON key
    `iso_to_flow_group`), whether the reductions between levels commute
    with the products, and (reported, never asserted) whether valuations
    alone separate the classes.
    """
    levels = tuple(d for d in range(1, level_n + 1) if level_n % d == 0)
    tables = {lev: build_flow_group(p, lev, ladder) for lev in levels}
    iso = {lev: tables[lev] == build_group(p, lev).table for lev in levels}
    vinj = {lev: induced_valuation_map(build_group(p, lev)).injective for lev in levels}
    tower = []
    for big in levels:
        for small in levels:
            if small < big and big % small == 0:
                down = {
                    c.representative: class_of(c.representative, small, p).representative
                    for c in build_group(p, big).elements
                }
                below = tables[small]
                ok = all(
                    down[value] == below[down[r1], down[r2]]
                    for (r1, r2), value in tables[big].items()
                )
                tower.append((big, small, ok))
    return EllisReport(
        prime=p,
        level_n=level_n,
        order=build_group(p, level_n).order,
        levels=levels,
        tables=tables,
        iso_by_level=iso,
        valuation_injective_by_level=vinj,
        tower=tuple(sorted(tower)),
    )


@dataclass(frozen=True)
class MinimalFlowReport:
    size: int
    strongly_connected: bool
    idempotent: bool
    ellis: EllisReport

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "strongly_connected": self.strongly_connected,
            "idempotent": self.idempotent,
            "ellis": self.ellis.to_json(),
        }


# at most this many states, `minimal_flow` also builds the explicit
# successor lists and cross-checks the holonomy count with Tarjan
CROSS_CHECK_STATES = 2_000


def minimal_flow(
    p: int,
    level_n: int,
    level_m: int,
    ladder: ScaleLadder = DEFAULT_LADDER,
) -> MinimalFlowReport:
    """Build the full finite flow (compact level x triangular types),
    check strong connectivity under the generator action plus the
    coordinate-sliding identifications, and check the basepoint is
    idempotent under both product paths.

    Holonomy decides connectivity: every move translates the class, so
    `skew_components` counts the components on K alone, from the base
    graph's strong connectivity and the subgroup its edge defects
    generate.  Up to `CROSS_CHECK_STATES` states the per-state successor
    lists are built through `act` as well, and Tarjan's component count
    must agree.
    """
    flow = skew_product(p, level_n, level_m, level_m + ladder.window_w)
    width, products = flow.width, flow.products
    columns = flow.cocycle + flow.slides
    size = len(columns[0][0]) * width
    count = skew_components(columns, products, flow.identity, flow.trivial)
    if size <= CROSS_CHECK_STATES:
        gens = range(len(flow.cocycle))
        successors: list[list[int]] = []
        for k in range(len(columns[0][0])):
            for j in range(width):
                state = k * width + j
                successors.append(
                    [act(flow, g, state) for g in gens]
                    + [targets[k] * width + products[twist][j] for targets, twist in flow.slides]
                )
        components = strongly_connected_components(range(size), successors.__getitem__)
        agree = len(components) > 1 if count is None else len(components) == count
        _require(agree, "minimal flow: holonomy and Tarjan disagree on the components")
    base = GFlowPoint.identity(p, level_n, level_m)
    idempotent = (
        star(base, base, ladder) == base
        and star(base, base, ladder, perturbed=True) == base
    )
    return MinimalFlowReport(
        size=size,
        strongly_connected=count == 1,
        idempotent=idempotent,
        ellis=ellis_group(p, level_n, ladder),
    )
