"""Determinant-one 2x2 machinery over the p-adic rationals.

Four layers, all exact:

- `iwasawa` splits any det-1 matrix into an integral factor times an
  upper-triangular one, pivoting on the first column.
- `borel_past_integral` rewrites (triangular)·(integral) as
  (integral)·(triangular), the engine that lets triangular data flow
  through compact factors.
- `KLevelElem` is the finite group of det-1 matrices mod p^m, with exact
  det-1 lifts back to rationals.
- `GFlowPoint` pairs a K element (a `KLevelElem`) with a residue
  class: a triangular truncated type is the power-residue class of its
  diagonal, so the class is the type.  `star` multiplies two points by
  realizing concrete witnesses on separated ladder blocks and
  refactoring the product, and `minimal_flow` / `ellis_group` assemble
  the finite flow graph and its identity-fiber group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ._graph import strongly_connected_components
from .borel import BorelElem, build_flow_group
from .borel import witness as borel_witness
from .padic import PadicMatrix2, _require, fraction_valuation
from .residues import ResidueClass, build_group, class_of, induced_valuation_map
from .types1 import DEFAULT_LADDER, ScaleLadder


# --------------------------------------------------------------- factoring


def iwasawa(g: PadicMatrix2) -> tuple[PadicMatrix2, PadicMatrix2]:
    """Split det-1 g as (t, h) with g = t @ h, t integral of det 1 and h
    upper triangular.

    Upper-triangular input returns (I, g); integral input returns (g, I).
    Otherwise scale the p-power out of the first column and pivot on
    whichever entry is more unit-like (ties keep the diagonal shape).
    """
    if g.det() != 1:
        raise ValueError("need determinant one")
    ident = PadicMatrix2.identity(g.prime)
    if g.is_upper_triangular():
        return ident, g
    if g.is_integral():
        return g, ident
    p = g.prime
    v_top, v_bot = fraction_valuation(g.a, p), fraction_valuation(g.c, p)
    scale = Fraction(p) ** min(v_top, v_bot)
    u0, u1 = g.a / scale, g.c / scale
    if v_top <= v_bot:
        t = PadicMatrix2.of(((u0, 0), (u1, 1 / u0)), p)
    else:
        t = PadicMatrix2.of(((u0, -1 / u1), (u1, 0)), p)
    h = t.inverse() @ g
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
    a, c = h.a, h.b
    u1, u2, u3, u4 = t.entries()
    if u3 == 0:
        t2, h2 = t, t.inverse() @ h @ t
    else:
        lead = a * u1 + c * u3
        if lead == 0:
            raise ValueError("degenerate product: leading entry vanished")
        t2 = PadicMatrix2.of(((1, 0), (u3 / (a * lead), 1)), h.prime)
        h2 = PadicMatrix2.of(((lead, a * u2 + c * u4), (0, 1 / lead)), h.prime)
    if (t2 @ h2).rows() != (h @ t).rows():
        raise ArithmeticError("rewrite failed the exact product check")
    return t2, h2


# --------------------------------------------------------- compact level


@dataclass(frozen=True)
class KLevelElem:
    """Det-1 matrix over Z/p^m, entries stored reduced in [0, p^m)."""

    prime: int
    level_m: int
    entries: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        mod = self.modulus
        if any(not 0 <= e < mod for e in self.entries):
            raise ValueError("entries must be reduced")
        a, b, c, d = self.entries
        if (a * d - b * c) % mod != 1 % mod:
            raise ValueError("determinant must be 1 at this level")

    @property
    def modulus(self) -> int:
        return self.prime**self.level_m

    @classmethod
    def of(cls, entries, p: int, level_m: int) -> "KLevelElem":
        mod = p**level_m
        return cls(p, level_m, tuple(int(e) % mod for e in entries))

    @classmethod
    def identity(cls, p: int, level_m: int) -> "KLevelElem":
        return cls.of((1, 0, 0, 1), p, level_m)

    @classmethod
    def reduce(cls, g: PadicMatrix2, level_m: int) -> "KLevelElem":
        if not g.is_integral():
            raise ValueError("only integral matrices reduce")
        mod = g.prime**level_m
        reduced = tuple(
            e.numerator % mod * pow(e.denominator % mod, -1, mod) % mod
            for e in g.entries()
        )
        return cls(g.prime, level_m, reduced)

    def __mul__(self, other: "KLevelElem") -> "KLevelElem":
        if (self.prime, self.level_m) != (other.prime, other.level_m):
            raise ValueError("mixed compact levels")
        a, b, c, d = self.entries
        e, f, g, h = other.entries
        return KLevelElem.of(
            (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h),
            self.prime,
            self.level_m,
        )

    def inverse(self) -> "KLevelElem":
        a, b, c, d = self.entries
        return KLevelElem.of((d, -b, -c, a), self.prime, self.level_m)

    def lift(self) -> PadicMatrix2:
        """Exact det-1 integral lift: keep three entries as integers and
        solve the fourth through a unit denominator, which changes it
        only by a multiple of p^m."""
        a, b, c, d = (Fraction(e) for e in self.entries)
        p = self.prime
        if a.numerator % p:
            d = (1 + b * c) / a
        elif d.numerator % p:
            a = (1 + b * c) / d
        else:
            # det = ad - bc = 1 mod p with a = d = 0 mod p forces c a unit
            b = (a * d - 1) / c
        lifted = PadicMatrix2.of(((a, b), (c, d)), p)
        _require(lifted.det() == 1, "lift: determinant is not one")
        _require(KLevelElem.reduce(lifted, self.level_m) == self, "lift: reduction differs")
        return lifted

    def __str__(self) -> str:
        a, b, c, d = self.entries
        return f"[[{a},{b}],[{c},{d}]] mod {self.modulus}"


@lru_cache(maxsize=None)
def k_level_group(p: int, level_m: int) -> tuple[KLevelElem, ...]:
    """All det-1 matrices mod p^m, reached from the two unipotent
    generators by breadth-first closure."""
    gens = (
        KLevelElem.of((1, 1, 0, 1), p, level_m),
        KLevelElem.of((1, 0, 1, 1), p, level_m),
    )
    seen = {KLevelElem.identity(p, level_m)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for k in frontier:
            for g in gens:
                candidate = k * g
                if candidate not in seen:
                    seen.add(candidate)
                    nxt.append(candidate)
        frontier = nxt
    expected = (p**3 - p) * p ** (3 * (level_m - 1))
    _require(len(seen) == expected, "generators failed to span the level")
    return tuple(sorted(seen, key=lambda k: k.entries))


# ------------------------------------------------------------ flow points


@dataclass(frozen=True)
class GFlowPoint:
    """A compact level element paired with a triangular type's class."""

    k: KLevelElem
    j: ResidueClass

    def __str__(self) -> str:
        return f"({self.k}, {self.j})"


def _as_pair(h: PadicMatrix2) -> BorelElem:
    return BorelElem.of(h.a, h.b, h.prime)


def _lower_perturbation(p: int, exponent: int) -> PadicMatrix2:
    return PadicMatrix2.of(((1, 0), (Fraction(p) ** exponent, 1)), p)


def star(
    s: GFlowPoint, t: GFlowPoint, ladder: ScaleLadder, *, perturbed: bool = False
) -> GFlowPoint:
    """Product of two flow points through concrete witnesses.

    The left triangular part is realized on the ladder's first rung
    block, the right one on the block above everything derivable from
    it; the middle factors are refactored with `borel_past_integral` so
    the product splits back into a compact part (reduced mod p^m) and a
    triangular part (classified at level n).

    With `perturbed=True` the compact parts carry explicit deep
    identity perturbations the way generic realizations would; they must
    wash out of both coordinates, so this path is the expensive
    self-check of the plain one.
    """
    p = s.k.prime
    level_m = s.k.level_m
    level_n = s.j.level_n
    if (p, level_m, level_n) != (t.k.prime, t.k.level_m, t.j.level_n):
        raise ValueError("mixed truncation levels")
    h1 = borel_witness(s.j, ladder, 0).to_matrix(p)
    h2 = borel_witness(t.j, ladder, 2)
    mid, h1 = borel_past_integral(h1, t.k.lift())
    k_out = s.k * KLevelElem.reduce(mid, level_m)
    if perturbed:
        tau1 = _lower_perturbation(p, level_m + ladder.window_w)
        k_out = s.k * KLevelElem.reduce(tau1, level_m) * KLevelElem.reduce(mid, level_m)
        tau2 = _lower_perturbation(p, ladder.gap * (ladder.rungs[1] + ladder.window_w))
        deep, h1 = borel_past_integral(h1, tau2)
        k_out = k_out * KLevelElem.reduce(deep, level_m)
    product = _as_pair(h1).mul(h2)
    return GFlowPoint(k_out, class_of(product.a, level_n, p))


@lru_cache(maxsize=None)
def _compact_step(
    g: PadicMatrix2, k: KLevelElem, level_n: int
) -> tuple[KLevelElem, ResidueClass]:
    """The base cocycle of `act`: factor g·lift(k), reduce the integral
    part, and classify the triangular remainder's diagonal.  Neither
    depends on the type, so each (g, k) is factored once."""
    t, h = iwasawa(g @ k.lift())
    return KLevelElem.reduce(t, k.level_m), class_of(h.a, level_n, g.prime)


def act(g: PadicMatrix2, state: GFlowPoint) -> GFlowPoint:
    """Left translation: the compact part moves by the base cocycle and
    its twist σ(g, k) multiplies into the type's class."""
    k_out, twist = _compact_step(g, state.k, state.j.level_n)
    return GFlowPoint(k_out, twist * state.j)


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
    pair b multiplies the compact part by b-bar and the class by
    class(b.a)^-1.  Returns (matrix, class multiplier) pairs for the
    generating moves."""
    u = _unit_generator(p, unit_level)
    moves = []
    for b in (BorelElem.of(u, 0, p), BorelElem.of(1, 1, p), BorelElem.of(-1, 0, p)):
        moves.append(
            (b.to_matrix(p), class_of(b.a, level_n, p).inverse())
        )
    return tuple(moves)


@dataclass(frozen=True)
class EllisReport:
    """Product structure of the identity-fiber points {(I, j)}."""

    prime: int
    level_n: int
    level_m: int
    order: int
    levels: tuple[int, ...]
    tables: dict
    iso_by_level: dict
    valuation_injective_by_level: dict
    tower: tuple[tuple[int, int, bool], ...]

    def to_json(self) -> dict:
        group = build_group(self.prime, self.level_n)
        reps = [c.representative for c in group.elements]
        table = self.tables[self.level_n]
        return {
            "order": self.order,
            "table": [[str(table[(r, s)]) for s in reps] for r in reps],
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
    """The identity-fiber points under `star`, tabulated level by level
    down the divisor tower of level_n.

    Every product is computed through the witness path; the report
    records whether j -> (I, j) is an isomorphism onto the fiber at each
    level, whether the reductions between levels commute with the
    products, and (reported, never asserted) whether valuations alone
    separate the classes.
    """
    levels = tuple(d for d in range(1, level_n + 1) if level_n % d == 0)
    ident_k = KLevelElem.identity(p, level_m)
    tables: dict[int, dict] = {}
    iso: dict[int, bool] = {}
    vinj: dict[int, bool] = {}
    for lev in levels:
        flow = build_flow_group(p, lev, ladder)
        points = [GFlowPoint(ident_k, j) for j in flow.elements]
        table = {}
        for a in points:
            for b in points:
                out = star(a, b, ladder)
                _require(out.k == ident_k, "identity fiber not closed")
                table[(a.j.representative, b.j.representative)] = out.j.representative
        tables[lev] = table
        iso[lev] = table == flow.table
        vinj[lev] = induced_valuation_map(flow.residue_group).injective
    tower = []
    for big in levels:
        for small in levels:
            if small < big and big % small == 0:
                ok = all(
                    class_of(value, small, p).representative
                    == tables[small][
                        (
                            class_of(r1, small, p).representative,
                            class_of(r2, small, p).representative,
                        )
                    ]
                    for (r1, r2), value in tables[big].items()
                )
                tower.append((big, small, ok))
    return EllisReport(
        prime=p,
        level_n=level_n,
        level_m=level_m,
        order=build_group(p, level_n).order,
        levels=levels,
        tables=tables,
        iso_by_level=iso,
        valuation_injective_by_level=vinj,
        tower=tuple(sorted(tower)),
    )


@dataclass(frozen=True)
class MinimalFlowReport:
    prime: int
    level_n: int
    level_m: int
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


def minimal_flow(
    p: int,
    level_n: int,
    level_m: int,
    ladder: ScaleLadder = DEFAULT_LADDER,
) -> MinimalFlowReport:
    """Build the full finite flow (compact level x triangular types),
    check strong connectivity under the generator action plus the
    coordinate-sliding identifications, and check the basepoint is
    idempotent under both product paths."""
    unit_level = level_m + ladder.window_w
    ks = k_level_group(p, level_m)
    classes = build_group(p, level_n).elements
    # state (k, c) is the int k_index * |J| + j_index, in ks x classes order
    k_index = {k.entries: i for i, k in enumerate(ks)}
    j_index = {c.representative: i for i, c in enumerate(classes)}
    width = len(classes)
    gens = flow_generators(p, unit_level)
    moves = identification_moves(p, level_n, unit_level)
    slides = [(KLevelElem.reduce(bmat, level_m), mult) for bmat, mult in moves]
    successors: list[list[int]] = []
    for k in ks:
        slid = [(k_index[(k * kb).entries] * width, mult) for kb, mult in slides]
        for c in classes:
            state = GFlowPoint(k, c)
            outs = [act(g, state) for g in gens]
            successors.append(
                [k_index[o.k.entries] * width + j_index[o.j.representative] for o in outs]
                + [row + j_index[(mult * c).representative] for row, mult in slid]
            )
    components = strongly_connected_components(range(len(successors)), successors.__getitem__)
    base = GFlowPoint(KLevelElem.identity(p, level_m), class_of(1, level_n, p))
    idempotent = (
        star(base, base, ladder) == base
        and star(base, base, ladder, perturbed=True) == base
    )
    return MinimalFlowReport(
        prime=p,
        level_n=level_n,
        level_m=level_m,
        size=len(successors),
        strongly_connected=len(components) == 1,
        idempotent=idempotent,
        ellis=ellis_group(p, level_n, level_m, ladder),
    )
