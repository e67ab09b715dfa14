"""Acceptance battery: the ten exact checks this package ships against.

Every check returns a plain dict with at least ``passed``, and
``run_all`` times each one, so the same battery backs both the test
suite and the command-line ``verify`` subcommand.  All comparisons are
exact — there are no numeric tolerances anywhere.  Each check carries a
wall-time budget in ``CHECKS``: ``run_all`` records whether the check
ran within it, the test suite fails a check that did not, and ``verify``
notes it on stderr without changing its exit code.

The residue-oracle check deserves a note on method.  The full grid of
rationals with numerator and denominator up to p**4 is far too large to
test pointwise, but membership in (Q_p*)^n only depends on the
valuation and on the unit part at a fixed finite modulus.  The check
therefore enumerates every (valuation, unit residue) signature the grid
can produce — at a modulus two p-digits finer than the one the
implementation decides at — and tests one concrete grid representative
per signature against an independently enumerated power-residue set.
The signatures of quotients +-a/b are tabulated per valuation
difference, skipping a table once it holds every unit residue.
A direct, reduction-free sweep over the smaller num, den <= p**2 grid
backs that accounting up pointwise.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from padyn.borel import build_flow_group, witness as borel_witness
from padyn.flows import act_add, minimal_subflows
from padyn.padic import PadicMatrix2, PadicRational
from padyn.proj import (
    ProjLevel,
    all_states,
    collapse_check,
    compact_star,
    minimality_proximality_report,
    triangular_star,
)
from padyn.residues import brute_force_order, build_group, class_of, hensel_modulus, is_nth_power
from padyn.sl2 import (
    borel_past_integral,
    ellis_group,
    iwasawa,
    k_level_group,
    k_lift,
    minimal_flow,
)
from padyn.types1 import (
    DEFAULT_LADDER,
    ScaleLadder,
    TruncType1,
    enumerate_types,
    roundtrip_check,
)

DEFAULT_SEED = 20260814


def _strip(k: int, p: int) -> tuple[int, int]:
    """(valuation, unit part) of a positive integer, by plain division."""
    v = 0
    while k % p == 0:
        k //= p
        v += 1
    return v, k


def _signature_table(side: dict, m_oracle: int, p: int) -> dict[int, dict[int, tuple[int, int]]]:
    """{dv: {q: (num, den)}}: each signature of a quotient +-a/b of `side`
    representatives, at the first (a, b) to reach it.  The b's are grouped
    by valuation; a dv table holding all phi(m_oracle) units is skipped."""
    by_valuation: dict[int, list[tuple[int, int]]] = {}
    for (v2, u2), b in side.items():
        by_valuation.setdefault(v2, []).append((pow(u2, -1, m_oracle), b))
    units = m_oracle - m_oracle // p
    tables: dict[int, dict[int, tuple[int, int]]] = {}
    for (v1, u1), a in side.items():
        for v2, column in by_valuation.items():
            table = tables.setdefault(v1 - v2, {})
            if len(table) == units:
                continue
            for inverse, b in column:
                q = u1 * inverse % m_oracle
                table.setdefault(q, (a, b))
                table.setdefault(m_oracle - q, (-a, b))
    return tables


def check_residue_oracle() -> dict:
    """Power test against enumerated residues over the full grid, by
    signature completeness, plus a pointwise sweep of the small grid and
    group-axiom and order verification at every level (associativity
    decided exactly by Light's test over a generating set the table is
    shown to generate; Clifford and Preston, *The Algebraic Theory of
    Semigroups* I, 1961, section 1.2)."""
    primes = (3, 5, 7)
    levels = (1, 2, 3, 4, 5, 6)
    pairs = []
    mismatches = 0
    for p in primes:
        bound = p**4
        small = p * p
        # the levels sharing each oracle modulus, always two digits finer
        # than the implementation's; each grid rational is built once and
        # tested at every level of its modulus
        by_modulus: dict[int, list[int]] = {}
        for n in levels:
            by_modulus.setdefault(hensel_modulus(p, n) * p * p, []).append(n)
        bad = dict.fromkeys(levels, 0)
        direct_bad = dict.fromkeys(levels, 0)
        signatures = {}
        for m_oracle, shared in sorted(by_modulus.items()):
            side: dict[tuple[int, int], int] = {}
            for a in range(1, bound + 1):
                v, u = _strip(a, p)
                side.setdefault((v, u % m_oracle), a)
            tables = _signature_table(side, m_oracle, p)
            powers = {n: {pow(u, n, m_oracle) for u in range(1, m_oracle) if u % p} for n in shared}
            for n in shared:
                signatures[n] = sum(len(table) for table in tables.values())
            for dv, table in tables.items():
                for q, (num, den) in table.items():
                    x = Fraction(num, den)
                    for n in shared:
                        expected = dv % n == 0 and q in powers[n]
                        if is_nth_power(x, n, p) is not expected:
                            bad[n] += 1
            for num in range(-small, small + 1):
                if num == 0:
                    continue
                v1, u1 = _strip(abs(num), p)
                for den in range(1, small + 1):
                    v2, u2 = _strip(den, p)
                    q = (num // abs(num)) * u1 * pow(u2, -1, m_oracle) % m_oracle
                    x = Fraction(num, den)
                    for n in shared:
                        expected = (v1 - v2) % n == 0 and q in powers[n]
                        if is_nth_power(x, n, p) is not expected:
                            direct_bad[n] += 1
        for n in levels:
            group = build_group(p, n)
            group._verify_axioms()
            order_agrees = brute_force_order(p, n) == group.order
            mismatches += bad[n] + direct_bad[n] + (0 if order_agrees else 1)
            pairs.append(
                {
                    "p": p,
                    "n": n,
                    "grid_rationals": 2 * bound * bound,
                    "signatures": signatures[n],
                    "signature_mismatches": bad[n],
                    "direct_grid_mismatches": direct_bad[n],
                    "group_order": group.order,
                    "order_agrees": order_agrees,
                }
            )
    return {
        "passed": mismatches == 0,
        "pairs": pairs,
    }


def check_type_roundtrip() -> dict:
    """classify(realize(t)) == t for every truncated type over integer
    bases |a| <= 25, all levels n <= 4, windows w <= 3, two ladder gaps."""
    p = 5
    bases = tuple(Fraction(a) for a in range(-25, 26))
    cases = 0
    failures = 0
    for gap in (8, 16):
        for w in (1, 2, 3):
            ladder = ScaleLadder.build(gap=gap, window_w=w, length=3)
            for n in (1, 2, 3, 4):
                catalogue = enumerate_types(bases, n, p)
                catalogue.extend(TruncType1.realized(a) for a in bases)
                for t in catalogue:
                    cases += 1
                    if not roundtrip_check(t, ladder, n, p):
                        failures += 1
    return {
        "passed": failures == 0,
        "cases": cases,
        "failures": failures,
    }


def check_affine_flows(seed: int = DEFAULT_SEED) -> dict:
    """Translations fix every type at infinity; the multiplicative flow
    splits into exactly two minimal subflows of residue-group size."""
    rng = random.Random(seed)
    p = 5
    group = build_group(p, 2)
    at_infinity = [TruncType1.at_infinity(c) for c in group.elements]
    moved = 0
    trials = 1000
    for _ in range(trials):
        b = Fraction(rng.randint(-(p**6), p**6), rng.randint(1, p**6))
        b *= Fraction(p) ** rng.randint(-6, 6)
        for t in at_infinity:
            if act_add(b, t) != t:
                moved += 1
    subflow_shapes = {}
    shapes_ok = True
    for n in (1, 2, 3):
        report = minimal_subflows("gm", p, n, 2)
        sizes = sorted(len(family) for family in report.minimal_subflows)
        order = build_group(p, n).order
        subflow_shapes[n] = {"count": len(sizes), "sizes": sizes, "group_order": order}
        if sizes != [order, order]:
            shapes_ok = False
    return {
        "passed": moved == 0 and shapes_ok,
        "translations": trials,
        "types_moved": moved,
        "gm_subflows": subflow_shapes,
    }


def check_borel_flow_groups() -> dict:
    """The witness `star` table equals the residue group's for n <= 6
    (so the basepoint is idempotent and the axioms hold), with identical
    tables after doubling the ladder gap."""
    p = 5
    ladders = (DEFAULT_LADDER, DEFAULT_LADDER.doubled_gap())
    groups = {n: build_group(p, n) for n in range(1, 7)}
    tables = {n: [build_flow_group(p, n, ladder) for ladder in ladders] for n in groups}
    ok = all(table == groups[n].table for n in groups for table in tables[n])
    stable = all(default == doubled for default, doubled in tables.values())
    return {
        "passed": ok and stable,
        "orders": {n: group.order for n, group in groups.items()},
        "gap_doubling_stable": stable,
    }


def _random_det_one(rng: random.Random, p: int) -> PadicMatrix2:
    """A random det-1 matrix over small rationals: a = an/ad * p**k, b and
    c drawn, d = (1 + b*c)/a; when a = 0, c = -1/b and d is drawn."""
    ratio = PadicRational.ratio
    # randint(lo, hi) draws lo + below(hi - lo + 1), and choice(s) s[below(len(s))]
    below = rng._randbelow
    while True:
        an, ad = below(61) - 30, (1, 1, 1, p, 2 * p)[below(5)]
        k = below(5) - 2
        bn, bd = below(61) - 30, (1, 1, 3)[below(3)]
        cn, cd = below(61) - 30, (1, 1, p)[below(3)]
        if an == 0:
            if bn == 0:
                continue
            a, c, d = ratio(0, 1, p), ratio(-bd, bn, p), ratio(below(7) - 3, 1, p)
        else:
            # (1 + b*c)/a = (bd*cd + bn*cn) * ad / (bd*cd * an) * p**-k
            a, c = ratio(an, ad, p, k), ratio(cn, cd, p)
            d = ratio((bd * cd + bn * cn) * ad, bd * cd * an, p, -k)
        return PadicMatrix2(a, ratio(bn, bd, p), c, d, p)


def check_iwasawa_and_rewrite(seed: int = DEFAULT_SEED) -> dict:
    """Exact g = t·h reconstruction on random determinant-one matrices,
    and the corner rewrite formula reproduced entry-for-entry on every
    level-1 compact element against every identity-class witness block,
    with the lower-unipotent factor congruent to the identity."""
    p = 5
    rng = random.Random(seed + 1)
    reconstruction_failures = 0
    trials = 10_000
    for _ in range(trials):
        g = _random_det_one(rng, p)
        t, h = iwasawa(g)
        if (
            (t @ h).rows() != g.rows()
            or not t.is_unimodular_integral()
            or not h.is_upper_triangular()
        ):
            reconstruction_failures += 1
    ident = class_of(1, 2, p)
    formula_failures = 0
    formula_cases = 0
    pass_through_cases = 0
    min_corner_valuation = None
    compact = k_level_group(p, 1)
    for block in (0, 1, 2):
        h = borel_witness(ident, DEFAULT_LADDER, block)
        a, c = h.a, h.b
        for k in compact:
            tmat = k_lift(k, p, 1)
            t2, h2 = borel_past_integral(h, tmat)
            if (t2 @ h2).rows() != (h @ tmat).rows() or not h2.is_upper_triangular():
                formula_failures += 1
                continue
            u1, u2, u3, u4 = tmat.entries()
            if u3 == 0:
                # upper-triangular right factors pass through whole
                pass_through_cases += 1
                if t2.rows() != tmat.rows():
                    formula_failures += 1
                continue
            formula_cases += 1
            lead = a * u1 + c * u3
            want_t2 = PadicMatrix2.of(((1, 0), (u3 / (a * lead), 1)), p)
            want_h2 = PadicMatrix2.of(((lead, a * u2 + c * u4), (0, 1 / lead)), p)
            if t2.rows() != want_t2.rows() or h2.rows() != want_h2.rows():
                formula_failures += 1
                continue
            if not t2.congruent_to_identity(1):
                formula_failures += 1
                continue
            depth = t2.c.e
            if min_corner_valuation is None or depth < min_corner_valuation:
                min_corner_valuation = depth
    return {
        "passed": reconstruction_failures == 0 and formula_failures == 0,
        "reconstructions": trials,
        "reconstruction_failures": reconstruction_failures,
        "formula_cases": formula_cases,
        "pass_through_cases": pass_through_cases,
        "formula_failures": formula_failures,
        "min_corner_valuation": min_corner_valuation,
    }


def check_main_flow() -> dict:
    """Basepoint idempotent through the witness path and the full
    480-state flow strongly connected at levels (n, m) = (2, 1)."""
    report = minimal_flow(5, 2, 1)
    return {
        "passed": report.size == 480 and report.strongly_connected and report.idempotent,
        "states": report.size,
        "strongly_connected": report.strongly_connected,
        "idempotent": report.idempotent,
    }


def check_ellis_tower() -> dict:
    """Identity-fiber products form a group isomorphic to the residue
    group at every level n <= 4, with commuting reduction maps between
    divisor levels.  Valuation injectivity is reported, not asserted."""
    per_level = {}
    ok = True
    for n in (1, 2, 3, 4):
        report = ellis_group(5, n)
        iso_ok = all(report.iso_by_level.values())
        tower_ok = all(flag for (_, _, flag) in report.tower)
        if not (iso_ok and tower_ok):
            ok = False
        per_level[n] = {
            "order": report.order,
            "iso_all_levels": iso_ok,
            "tower_commutes": tower_ok,
            "valuation_injective": dict(report.valuation_injective_by_level),
        }
    return {
        "passed": ok,
        "levels": per_level,
    }


def check_projective_collapse() -> dict:
    """The composite operator is constant on all 150 truncated
    projective types at (p, n, w) = (5, 2, 2); the triangular product
    lands in the family at infinity on every input, and the compact
    product is constant on that family."""
    level = ProjLevel(5, 2, 2)
    report = collapse_check(level)
    states = all_states(level)
    triangular_in_family = all(
        triangular_star(t, level).point.is_infinity for t in states
    )
    omega = report.collapsed_type
    at_infinity = [t for t in states if t.point.is_infinity]
    compact_constant = all(compact_star(t, level) == omega for t in at_infinity)
    return {
        "passed": (
            report.collapsed
            and report.states_checked == 150
            and triangular_in_family
            and compact_constant
        ),
        "states": report.states_checked,
        "collapsed": report.collapsed,
        "collapsed_type": str(omega),
        "triangular_image_at_infinity": triangular_in_family,
        "compact_constant_on_family": compact_constant,
    }


def check_projective_minimality() -> dict:
    """The 120 nonalgebraic projective types are strongly connected
    under the generator and closure moves, and the flow is proximal."""
    report = minimality_proximality_report(ProjLevel(5, 2, 2))
    return {
        "passed": report.size == 120 and report.strongly_connected and report.proximal,
        "states": report.size,
        "strongly_connected": report.strongly_connected,
        "proximal": report.proximal,
    }


def _symbolic_snapshot(ladder: ScaleLadder) -> dict:
    """Ladder-independent outputs of the flow-group, main-flow,
    identity-fiber, and collapse computations."""
    level = ProjLevel(5, 2, 2)
    return {
        "borel": {n: build_flow_group(5, n, ladder) for n in range(1, 7)},
        "main_flow": minimal_flow(5, 2, 1, ladder).to_json(),
        "ellis": {n: ellis_group(5, n, ladder).to_json() for n in range(1, 5)},
        "collapse": collapse_check(level, ladder=ladder).to_json(),
        "triangular_images": [
            str(triangular_star(t, level, ladder)) for t in all_states(level)
        ],
    }


def check_ladder_stability() -> dict:
    """Checks 4, 6, 7 and 8 produce identical symbolic output when the
    ladder gap is doubled and when every rung magnitude is doubled."""
    base = DEFAULT_LADDER
    doubled_gap = base.doubled_gap()
    doubled_rungs = ScaleLadder(
        tuple(2 * r for r in base.rungs), base.gap, base.window_w
    )
    reference = _symbolic_snapshot(base)
    gap_stable = _symbolic_snapshot(doubled_gap) == reference
    magnitude_stable = _symbolic_snapshot(doubled_rungs) == reference
    return {
        "passed": gap_stable and magnitude_stable,
        "rungs": {
            "default": list(base.rungs),
            "doubled_gap": list(doubled_gap.rungs),
            "doubled_magnitude": list(doubled_rungs.rungs),
        },
        "gap_doubling_stable": gap_stable,
        "magnitude_doubling_stable": magnitude_stable,
    }


# name, wall-time budget in seconds, runner (every runner takes the seed;
# deterministic checks ignore it)
CHECKS = (
    ("residue-oracle", 30.0, lambda seed: check_residue_oracle()),
    ("type-roundtrip", 10.0, lambda seed: check_type_roundtrip()),
    ("affine-flows", 10.0, lambda seed: check_affine_flows(seed)),
    ("borel-flow-group", 20.0, lambda seed: check_borel_flow_groups()),
    ("iwasawa-rewrite", 30.0, lambda seed: check_iwasawa_and_rewrite(seed)),
    ("main-flow", 60.0, lambda seed: check_main_flow()),
    ("ellis-tower", 60.0, lambda seed: check_ellis_tower()),
    ("projective-collapse", 30.0, lambda seed: check_projective_collapse()),
    ("projective-minimality", 30.0, lambda seed: check_projective_minimality()),
    ("ladder-stability", 120.0, lambda seed: check_ladder_stability()),
)


def run_all(seed: int = DEFAULT_SEED, only: str | None = None) -> dict:
    """Run the battery in order; `only` restricts to a single named check."""
    names = [name for name, _, _ in CHECKS]
    if only is not None and only not in names:
        raise ValueError(f"unknown check {only!r}; expected one of {names}")
    results = []
    for name, budget, fn in CHECKS:
        if only is not None and name != only:
            continue
        start = time.perf_counter()
        outcome = fn(seed)
        outcome["seconds"] = round(time.perf_counter() - start, 3)
        outcome["check"] = name
        outcome["budget_seconds"] = budget
        outcome["within_budget"] = outcome["seconds"] < budget
        results.append(outcome)
    total = round(sum(r["seconds"] for r in results), 3)
    return {"total_seconds": total, "results": results}
