"""Command-line front end: machine JSON on stdout, summaries on stderr.

Exit codes: 0 success, 1 a checked property failed, 2 usage error (a
`UsageError`: flags the domain rejects, caught before any work), 3
internal error (any other exception, a domain `ValueError` included,
reported on stderr).

Machine output is deterministic by construction — keys are sorted and
nothing time- or host-dependent is ever written to stdout (wall times
go to the stderr summary) — so identical flags and seed produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd

import padyn
from padyn import acceptance
from padyn.borel import build_flow_group
from padyn.flows import GROUP_TAGS, minimal_subflows, normalize_group_tag
from padyn.padic import PadicMatrix2, int_valuation, parse_rational
from padyn.proj import ProjLevel, collapse_check, minimality_proximality_report
from padyn.residues import RESIDUE_LEVEL_MAX, build_group
from padyn.sl2 import ellis_group, flow_generators, iwasawa, minimal_flow
from padyn.types1 import DEFAULT_LADDER, LADDER_LENGTH, ScaleLadder

_CHECK_NAMES = tuple(name for name, _, _ in acceptance.CHECKS)

# the one copy of each level default, for the flags and verify's echoed "config"
_LEVEL_FLAGS = {
    "p": (5, "prime"),
    "n": (2, "power-class level"),
    "m": (1, "matrix congruence level"),
    "w": (DEFAULT_LADDER.window_w, "valuation window"),
    "gap": (DEFAULT_LADDER.gap, "ladder gap"),
}


class UsageError(ValueError):
    """Flag combination the parser accepts but the domain rejects."""


# the most states `minimal-flow` and `proj minimal` build: minimal-flow
# --m 3, 7 500 000 states, takes about 26 s at a peak RSS of 158 MiB on
# a 2-core x86-64 host, so the cap leaves a third more
MAX_STATES = 10_000_000


# built once per process, on the first `run`; parsing reads it and
# never changes it
@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padyn",
        description="Exact finite truncations of p-adic group flows.",
    )
    common = argparse.ArgumentParser(add_help=False)
    for flag, (value, text) in _LEVEL_FLAGS.items():
        common.add_argument(f"--{flag}", type=int, default=value, help=f"{text} (default {value})")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("residues", parents=[common], help="power-residue class group table")
    flows = sub.add_parser("flows", parents=[common], help="affine flow minimal subflows")
    flows.add_argument("--group", default="gm", help=f"acting group, one of {GROUP_TAGS}")
    sub.add_parser("borel", parents=[common], help="triangular flow group table")
    iwa = sub.add_parser("iwasawa", parents=[common], help="integral-times-triangular factorization")
    iwa.add_argument(
        "--entries",
        default=None,
        help="matrix entries 'a b c d' as exact rationals (default: 1/p 0 1 p)",
    )
    sub.add_parser("minimal-flow", parents=[common], help="full flow connectivity report")
    sub.add_parser(
        "ellis",
        parents=[common],
        help="identity-fiber group Q_p*/(Q_p*)^n and its divisor tower "
        "(the triangular flow group, not the Ellis group of SL(2, Q_p))",
    )
    proj = sub.add_parser("proj", parents=[common], help="projective-line flow reports")
    proj.add_argument("report", choices=("collapse", "minimal"))
    verify = sub.add_parser("verify", help="run the acceptance battery at its pinned levels")
    scope = verify.add_mutually_exclusive_group()
    scope.add_argument("--all", action="store_true", help="run every check (the default)")
    scope.add_argument("--check", choices=_CHECK_NAMES, help="run a single named check")
    seed = acceptance.DEFAULT_SEED
    verify.add_argument("--seed", type=int, default=seed, help=f"sweep seed (default {seed})")
    return parser


def is_prime(k: int) -> bool:
    """Deterministic primality test by trial division (desk-scale inputs)."""
    if k < 2:
        return False
    if k < 4:
        return True
    if k % 2 == 0:
        return False
    d = 3
    while d * d <= k:
        if k % d == 0:
            return False
        d += 2
    return True


def _check_levels(args: argparse.Namespace) -> None:
    """Refuse the first out-of-range level flag, used by the subcommand or not."""
    # at gap 1 the witness blocks overlap and the flow checks answer wrongly
    for ok, message in (
        (is_prime(args.p), f"--p {args.p} is not prime"),
        (args.n >= 1, "residue_level_n must be >= 1"),
        (args.n <= RESIDUE_LEVEL_MAX, f"residue_level_n must be at most {RESIDUE_LEVEL_MAX}"),
        (args.m >= 1, "matrix_level_m must be >= 1"),
        (args.w >= 1, "valuation_window_w must be >= 1"),
        (args.gap >= 2, "ladder_gap must be >= 2"),
    ):
        if not ok:
            raise UsageError(message)


def _ladder(args: argparse.Namespace) -> ScaleLadder:
    return ScaleLadder.build(args.gap, args.w, LADDER_LENGTH)


def _flag_check(check, *args, **kwargs):
    """Run a check on flag values; its ValueError is a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _class_count(p: int, n: int) -> int:
    """|Q_p*/(Q_p*)^n| in closed form: n·gcd(n, p - 1)·p^v_p(n) for odd p
    (Q_p* = p^Z × μ_(p-1) × (1 + pZ_p), the last factor ≅ Z_p), and
    n·gcd(n, 2)·2^v_2(n) for p = 2 (±1 in place of μ_(p-1), 1 + 4Z_2)."""
    v, _ = int_valuation(n, p)
    return n * gcd(n, 2 if p == 2 else p - 1) * p**v


def _require_states(count: int) -> None:
    # before K, a column or a state is built
    if count > MAX_STATES:
        raise UsageError(f"{count} states exceed the cap of {MAX_STATES}")


def _require_flow_generators(args: argparse.Namespace) -> None:
    # the SL(2) flows act through a generator of the units mod p^(m+w),
    # which 2^k lacks for k >= 3: refuse before any work is done
    _flag_check(flow_generators, args.p, args.m + args.w)


def _cmd_residues(args):
    group = build_group(args.p, args.n)
    payload = {"p": args.p, "n": args.n, "group": group.to_json()}
    lines = [f"residue group at p={args.p}, n={args.n}: order {group.order}"]
    return 0, payload, lines


def _cmd_flows(args):
    _flag_check(normalize_group_tag, args.group)
    report = minimal_subflows(args.group, args.p, args.n, args.w)
    sizes = sorted(len(family) for family in report.minimal_subflows)
    lines = [f"{report.group_tag}: {len(sizes)} minimal subflow(s), sizes {sizes}"]
    return 0, report.to_json(), lines


def _cmd_borel(args):
    group = build_group(args.p, args.n)
    table = build_flow_group(args.p, args.n, _ladder(args))
    ok = table == group.table
    payload = {
        "p": args.p,
        "n": args.n,
        "order": group.order,
        "representatives": [str(c.representative) for c in group.elements],
        "table": group.rows(table),
        "idempotent_check": table[(1, 1)] == 1,
        "iso_to_residue_group": ok,
    }
    lines = [f"flow group of order {group.order}; matches residue group: {ok}"]
    return (0 if ok else 1), payload, lines


def _cmd_iwasawa(args):
    if args.entries is None:
        g = PadicMatrix2.of(((Fraction(1, args.p), 0), (1, args.p)), args.p)
    else:
        tokens = args.entries.replace(",", " ").replace(";", " ").split()
        if len(tokens) != 4:
            raise UsageError("--entries needs exactly four rationals")
        try:
            a, b, c, d = (parse_rational(tok) for tok in tokens)
        except ValueError:
            raise UsageError(f"could not parse matrix entries {args.entries!r}")
        except ZeroDivisionError:
            raise UsageError(f"matrix entries {args.entries!r} have a zero denominator")
        g = PadicMatrix2.of(((a, b), (c, d)), args.p)
    if g.det() != 1:
        raise UsageError(f"matrix determinant must be 1, got {g.det().to_fraction()}")
    t, h = iwasawa(g)
    payload = {
        "p": args.p,
        "input": g.to_json(),
        "integral_factor": t.to_json(),
        "triangular_factor": h.to_json(),
        "exact": (t @ h).rows() == g.rows(),
    }
    lines = [f"factored over p={args.p}; reconstruction exact: {payload['exact']}"]
    return 0, payload, lines


def _cmd_minimal_flow(args):
    p, m = args.p, args.m
    _require_states((p**3 - p) * p ** (3 * (m - 1)) * _class_count(p, args.n))
    _require_flow_generators(args)
    report = minimal_flow(args.p, args.n, args.m, _ladder(args))
    ok = report.strongly_connected and report.idempotent
    lines = [
        f"{report.size} states; strongly connected: {report.strongly_connected}; "
        f"basepoint idempotent: {report.idempotent}"
    ]
    return (0 if ok else 1), report.to_json(), lines


def _cmd_ellis(args):
    report = ellis_group(args.p, args.n, _ladder(args))
    iso_ok = all(report.iso_by_level.values())
    tower_ok = all(flag for (_, _, flag) in report.tower)
    lines = [
        f"identity-fiber group of order {report.order}; "
        f"isomorphic at every level: {iso_ok}; tower commutes: {tower_ok}"
    ]
    return (0 if iso_ok and tower_ok else 1), report.to_json(), lines


def _cmd_proj(args):
    level = ProjLevel(args.p, args.n, args.w)
    ladder = _ladder(args)
    # the compact product absorbs a witness only if level m is no deeper
    # than the identity class's rung-2 witness at infinity
    deepest_m = -(-ladder.rungs[2] // args.n) * args.n
    if args.m > deepest_m:
        m, gap = args.m, args.gap
        raise UsageError(f"--m {m} is deeper than --gap {gap} reaches (at most {deepest_m})")
    if args.report == "collapse":
        report = collapse_check(level, ladder=ladder, level_m=args.m)
        ok = report.collapsed
        lines = [
            f"{report.states_checked} types; collapsed: {report.collapsed} "
            f"onto {report.collapsed_type}"
        ]
    else:
        _require_states((args.p**args.w + args.p ** (args.w - 1)) * _class_count(args.p, args.n))
        _require_flow_generators(args)
        report = minimality_proximality_report(level, level_m=args.m, ladder=ladder)
        ok = report.strongly_connected and report.proximal
        lines = [
            f"{report.size} states; strongly connected: {report.strongly_connected}; "
            f"proximal: {report.proximal}"
        ]
    return (0 if ok else 1), report.to_json(), lines


def _cmd_verify(args):
    outcome = acceptance.run_all(seed=args.seed, only=args.check)
    checks = []
    lines = []
    for result in outcome["results"]:
        checks.append(
            {
                key: value
                for key, value in result.items()
                if key not in ("seconds", "budget_seconds", "within_budget")
            }
        )
        verdict = "pass" if result["passed"] else "FAIL"
        budget_note = "" if result["within_budget"] else " (over budget)"
        lines.append(
            f"{result['check']}: {verdict} in {result['seconds']}s"
            f"/{result['budget_seconds']}s{budget_note}"
        )
    passed = all(entry["passed"] for entry in checks)
    lines.append(f"total: {outcome['total_seconds']}s; passed: {passed}")
    payload = {
        "config": {("ladder_gap" if f == "gap" else f): v for f, (v, _) in _LEVEL_FLAGS.items()},
        "seed": args.seed,
        "version": padyn.__version__,
        "passed": passed,
        "checks": checks,
    }
    return (0 if passed else 1), payload, lines


_HANDLERS = {
    "residues": _cmd_residues,
    "flows": _cmd_flows,
    "borel": _cmd_borel,
    "iwasawa": _cmd_iwasawa,
    "minimal-flow": _cmd_minimal_flow,
    "ellis": _cmd_ellis,
    "proj": _cmd_proj,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    try:
        if args.command != "verify":
            _check_levels(args)
        code, payload, lines = _HANDLERS[args.command](args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        import traceback  # only a crash pays for the import

        traceback.print_exc()
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    for line in lines:
        print(line, file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
