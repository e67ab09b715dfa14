"""Determinant-one 2x2 machinery over the p-adic rationals.

Four layers, all exact:

- `iwasawa` splits any det-1 matrix into an integral factor times an
  upper-triangular one, pivoting on the first column.
- `borel_past_integral` rewrites (triangular)·(integral) as
  (integral)·(triangular), the engine that lets triangular data flow
  through compact factors.  Like every `PadicMatrix2`, a witness matrix
  holds `PadicRational` entries, so it stays p-normalised throughout.
- K, the finite group of det-1 matrices mod p^m, is int-coded: an
  element is its entry tuple, numbered by its index in `k_level_group`,
  with `k_mul`, `k_reduce` and the cached exact det-1 lift `k_lift`.
- `GFlowPoint` pairs a K element with a residue class: a triangular
  truncated type is the power-residue class of its diagonal, so the
  class is the type.  `star` multiplies two points by realizing
  concrete witnesses (`borel.witness` matrices) on separated ladder
  blocks, refactoring the middle, and forming only the leading entry of
  the triangular parts' product, the one entry its class reads
  (`borel.leading_class`).  `ellis_group` tabulates the identity fiber
  under it.  `minimal_flow` builds the finite flow K x J on ints:
  `skew_product` tabulates iwasawa(g·lift(k)) in closed form for every
  (generator, K element), and `act` is table lookups.  Holonomy on K
  decides strong connectivity (`_graph.skew_components`); up to
  `CROSS_CHECK_STATES` states Tarjan on the per-state successor lists
  cross-checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from ._graph import skew_components, strongly_connected_components
from .borel import leading_class, witness as borel_witness
from .padic import PadicMatrix2, PadicRational, _padic, _require, int_valuation, mat_mul
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
    if u3 == 0:
        t2, h2 = t, t.inverse() @ h @ t
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


@lru_cache(maxsize=None)
def k_level_group(p: int, level_m: int) -> tuple[tuple[int, int, int, int], ...]:
    """Entries (a, b, c, d) of every det-1 matrix mod p^m, in
    lexicographic order; a K element's int code is its index here.

    For each (a, b, c) the d with a·d = 1 + b·c are solved directly:
    with g = gcd(a, p^m) they exist iff g divides 1 + b·c, and then form
    one residue class mod p^m / g.
    """
    mod = p**level_m
    out = []
    for a in range(mod):
        g = gcd(a, mod)
        step = mod // g
        inv = pow(a // g, -1, step)
        for b in range(mod):
            for c in range(mod):
                rhs = (1 + b * c) % mod
                if rhs % g == 0:
                    out.extend((a, b, c, d) for d in range(rhs // g * inv % step, mod, step))
    expected = (p**3 - p) * p ** (3 * (level_m - 1))
    _require(len(out) == expected, "K enumeration missed elements")
    return tuple(out)


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


# `ellis_group` multiplies every class by every class, so the rewrite of
# a left witness past a right compact part is built, and checked, once
# per (class, compact part, m, ladder)
@lru_cache(maxsize=1024)
def _left_slide(
    j: ResidueClass, k: tuple[int, int, int, int], level_m: int, ladder: ScaleLadder
) -> tuple[tuple[int, int, int, int], PadicMatrix2]:
    """(mid mod p^m, h1) with mid @ h1 = witness(j, rung 0) @ lift(k)."""
    mid, h1 = borel_past_integral(borel_witness(j, ladder, 0), k_lift(k, j.prime, level_m))
    return k_reduce(mid, level_m), h1


def star(
    s: GFlowPoint, t: GFlowPoint, ladder: ScaleLadder, *, perturbed: bool = False
) -> GFlowPoint:
    """Product of two flow points through concrete witnesses.

    The left triangular part is realized on the ladder's first rung
    block, the right one on the block above everything derivable from
    it; the middle factors are refactored with `borel_past_integral` so
    the product splits back into a compact part (reduced mod p^m) and a
    triangular part h1 @ h2, classified at level n by its leading entry.

    The left rewrite depends only on (s.j, t.k, m, ladder), so
    `_left_slide` caches it, checked once when built; the right
    witness, the compact product and `borel.leading_class`, which forms
    (h1 @ h2).a alone, run on every call.

    With `perturbed=True` the compact parts carry explicit deep
    identity perturbations the way generic realizations would; they must
    wash out of both coordinates, so this path is the expensive
    self-check of the plain one.
    """
    p, level_n, level_m = s.j.prime, s.j.level_n, s.level_m
    if (p, level_n, level_m) != (t.j.prime, t.j.level_n, t.level_m):
        raise ValueError("mixed truncation levels")
    mod = p**level_m
    compact, h1 = _left_slide(s.j, t.k, level_m, ladder)
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
    """The finite flow K x J on ints: state k·width + j is the pair
    (`k_level_group(p, m)[k]`, `build_group(p, n).elements[j]`).

    cocycle[g][k] = (k_out, twist) is the base cocycle of flow generator
    g at K element k, slides[i][k] the same pair for identification move
    i, and products[r][s] the index of class r times class s.  identity
    is the K index of I and trivial the class index of 1.
    """

    width: int
    products: tuple
    cocycle: tuple
    slides: tuple
    identity: int
    trivial: int


def skew_product(p: int, level_n: int, level_m: int, unit_level: int) -> SkewProduct:
    """Tabulate the flow on ints, the base cocycle in closed form.

    The cocycle reads iwasawa(g·lift(k)) = (t, h) as (t mod p^m,
    class(h.a)).  Write G = g·lift(k) = p^e·Q/D with Q an integer matrix
    and D p-free.  Upper-triangular G gives (I, class(G.a)); integral G
    gives (G mod p^m, trivial).  Otherwise, with w = min(v(Q.a), v(Q.c)),
    t is G's first column scaled by p^-(e+w), (A, C)/D, completed on the
    more unit-like of A and C exactly as `iwasawa` does (ties keep the
    diagonal shape), and h.a = p^(e+w).
    """
    mod = p**level_m
    ks = k_level_group(p, level_m)
    k_index = {k: i for i, k in enumerate(ks)}
    group = build_group(p, level_n)
    reps = [c.representative for c in group.elements]
    j_index = {r: i for i, r in enumerate(reps)}
    products = tuple(tuple(j_index[group.table[(r, s)]] for s in reps) for r in reps)
    hensel = hensel_modulus(p, level_n)
    # the class of unit·p^v, keyed by (v mod n, unit mod the Hensel modulus)
    twist = {
        (v, u): j_index[class_of(u * p**v, level_n, p).representative]
        for v in range(level_n)
        for u in range(1, hensel)
        if u % p
    }
    trivial, identity = j_index[1], k_index[(1, 0, 0, 1)]

    def index(entries) -> int:
        out = k_index.get(tuple(x % mod for x in entries))
        _require(out is not None, "skew product: a compact part is not in K")
        return out

    cocycle = []
    for g in flow_generators(p, unit_level):
        e, g_den, g_rows = _scaled(g)
        shift = p ** abs(e)
        row = []
        for k in ks:
            den, lift_rows = _lift_scaled(k, p)
            (qa, qb), (qc, qd) = mat_mul(g_rows, lift_rows)
            den *= g_den
            if qc == 0:  # upper triangular: t = I
                v, unit = int_valuation(qa, p)
                unit = unit * pow(den, -1, hensel) % hensel
                row.append((identity, twist[(e + v) % level_n, unit]))
                continue
            inv = pow(den, -1, mod)
            q = (qa, qb, qc, qd)
            if e >= 0 or not any(x % shift for x in q):  # integral: h = I
                row.append((index((x * shift if e >= 0 else x // shift) * inv for x in q), trivial))
                continue
            vc, c_unit = int_valuation(qc, p)
            va, a_unit = int_valuation(qa, p) if qa else (vc + 1, 0)
            if va <= vc:
                w = va
                t = (a_unit * inv, 0, qc // p**w * inv, den * pow(a_unit, -1, mod))
            else:
                w = vc
                t = (qa // p**w * inv, -den * pow(c_unit, -1, mod), c_unit * inv, 0)
            row.append((index(t), twist[(e + w) % level_n, 1]))
        cocycle.append(tuple(row))
    slides = []
    for bmat, mult in identification_moves(p, level_n, unit_level):
        kb = k_reduce(bmat, level_m)
        slides.append(tuple((index(k_mul(k, kb, mod)), j_index[mult.representative]) for k in ks))
    return SkewProduct(len(reps), products, tuple(cocycle), tuple(slides), identity, trivial)


def act(flow: SkewProduct, g: int, state: int) -> int:
    """Left translation by the flow's generator g: the compact part moves
    by the base cocycle and its twist σ(g, k) multiplies into the class."""
    k, j = divmod(state, flow.width)
    k_out, twist = flow.cocycle[g][k]
    return k_out * flow.width + flow.products[twist][j]


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


def ellis_group(
    p: int, level_n: int, level_m: int, ladder: ScaleLadder = DEFAULT_LADDER
) -> EllisReport:
    """The identity-fiber points {(I, j)} under `star`, tabulated level
    by level down the divisor tower of level_n.

    The fiber's group is Q_p*/(Q_p*)^n, the triangular flow group (order
    16 at p = 5, n = 4).  It is not the paper's Ellis group Ẑ of
    SL(2, Q_p).  The finite stand-in for Ẑ is the fiber's quotient by
    the compact torus diag(u, 1/u), cyclic of order n, which this report
    does not compute.  On the fiber itself valuations alone need not
    separate the classes (at p = 5, n = 4 they do not), and the report
    keeps saying so.

    Every product is computed through the witness path (`star`).  The
    report records whether the fiber's table equals the residue group's
    at each level (that group is the triangular flow group, which the
    `borel` report and check verify, hence the JSON key
    `iso_to_flow_group`), whether the reductions between levels commute
    with the products, and (reported, never asserted) whether valuations
    alone separate the classes.
    """
    levels = tuple(d for d in range(1, level_n + 1) if level_n % d == 0)
    ident_k = GFlowPoint.identity(p, level_n, level_m).k
    tables: dict[int, dict] = {}
    iso: dict[int, bool] = {}
    vinj: dict[int, bool] = {}
    for lev in levels:
        group = build_group(p, lev)
        points = [GFlowPoint(ident_k, j, level_m) for j in group.elements]
        table = {}
        for a in points:
            for b in points:
                out = star(a, b, ladder)
                _require(out.k == ident_k, "identity fiber not closed")
                table[(a.j.representative, b.j.representative)] = out.j.representative
        tables[lev] = table
        iso[lev] = table == group.table
        vinj[lev] = induced_valuation_map(group).injective
    tower = []
    for big in levels:
        for small in levels:
            if small < big and big % small == 0:
                down = {
                    c.representative: class_of(c.representative, small, p).representative
                    for c in build_group(p, big).elements
                }
                ok = all(
                    down[value] == tables[small][(down[r1], down[r2])]
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
    size = len(columns[0]) * width
    count = skew_components(columns, products, flow.identity, flow.trivial)
    if size <= CROSS_CHECK_STATES:
        gens = range(len(flow.cocycle))
        successors: list[list[int]] = []
        for k, slid in enumerate(zip(*flow.slides)):
            for j in range(width):
                state = k * width + j
                successors.append(
                    [act(flow, g, state) for g in gens]
                    + [k_out * width + products[twist][j] for k_out, twist in slid]
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
        ellis=ellis_group(p, level_n, level_m, ladder),
    )
