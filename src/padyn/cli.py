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
import os
import sys
from fractions import Fraction

import padyn
from padyn import acceptance
from padyn.borel import build_flow_group
from padyn.config import GlobalConfig, is_prime
from padyn.flows import GROUP_TAGS, minimal_subflows, normalize_group_tag
from padyn.padic import PadicMatrix2, parse_rational
from padyn.proj import ProjLevel, collapse_check, minimality_proximality_report
from padyn.residues import build_group
from padyn.sl2 import ellis_group, flow_generators, iwasawa, minimal_flow
from padyn.types1 import LADDER_LENGTH, ScaleLadder

_CHECK_NAMES = tuple(name for name, _, _ in acceptance.CHECKS)


class UsageError(ValueError):
    """Flag combination the parser accepts but the domain rejects."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padyn",
        description="Exact finite truncations of p-adic group flows.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=5, help="prime (default 5)")
    common.add_argument("--n", type=int, default=2, help="power-class level (default 2)")
    common.add_argument("--m", type=int, default=1, help="matrix congruence level (default 1)")
    common.add_argument("--w", type=int, default=2, help="valuation window (default 2)")
    common.add_argument("--gap", type=int, default=8, help="ladder gap (default 8)")
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
    sub.add_parser("ellis", parents=[common], help="identity-fiber group and tower report")
    proj = sub.add_parser("proj", parents=[common], help="projective-line flow reports")
    proj.add_argument("report", choices=("collapse", "minimal"))
    verify = sub.add_parser("verify", help="run the acceptance battery at its pinned levels")
    scope = verify.add_mutually_exclusive_group()
    scope.add_argument("--all", action="store_true", help="run every check (the default)")
    scope.add_argument("--check", choices=_CHECK_NAMES, help="run a single named check")
    verify.add_argument(
        "--seed", type=int, default=None, help="override PADYN_SEED for randomized sweeps"
    )
    return parser


def _config_from(args: argparse.Namespace) -> GlobalConfig:
    if not is_prime(args.p):
        raise UsageError(f"--p {args.p} is not prime")
    return _flag_check(
        GlobalConfig,
        prime=args.p,
        residue_level_n=args.n,
        matrix_level_m=args.m,
        valuation_window_w=args.w,
        ladder_gap=args.gap,
    )


def _flag_check(check, *args, **kwargs):
    """Run a check on flag values; its ValueError is a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _require_flow_generators(config: GlobalConfig) -> None:
    # the SL(2) flows act through a generator of the units mod p^(m+w),
    # which 2^k lacks for k >= 3: refuse before any work is done
    _flag_check(flow_generators, config.prime, config.matrix_level_m + config.valuation_window_w)


def _seed_from(args: argparse.Namespace) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("PADYN_SEED")
    if raw is None:
        return acceptance.DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"PADYN_SEED must be an integer, got {raw!r}")


def _cmd_residues(args, config):
    group = build_group(config.prime, config.residue_level_n)
    payload = {"p": config.prime, "n": config.residue_level_n, "group": group.to_json()}
    lines = [f"residue group at p={config.prime}, n={config.residue_level_n}: order {group.order}"]
    return 0, payload, lines


def _cmd_flows(args, config):
    _flag_check(normalize_group_tag, args.group)
    report = minimal_subflows(args.group, config)
    sizes = sorted(len(family) for family in report.minimal_subflows)
    lines = [f"{report.group_tag}: {len(sizes)} minimal subflow(s), sizes {sizes}"]
    return 0, report.to_json(), lines


def _cmd_borel(args, config):
    ladder = ScaleLadder.from_config(config, LADDER_LENGTH)
    group = build_group(config.prime, config.residue_level_n)
    table = build_flow_group(config.prime, config.residue_level_n, ladder)
    ok = table == group.table
    payload = {
        "p": config.prime,
        "n": config.residue_level_n,
        "order": group.order,
        "representatives": [str(c.representative) for c in group.elements],
        "table": group.rows(table),
        "idempotent_check": table[(1, 1)] == 1,
        "iso_to_residue_group": ok,
    }
    lines = [f"flow group of order {group.order}; matches residue group: {ok}"]
    return (0 if ok else 1), payload, lines


def _cmd_iwasawa(args, config):
    p = config.prime
    if args.entries is None:
        g = PadicMatrix2.of(((Fraction(1, p), 0), (1, p)), p)
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
        g = PadicMatrix2.of(((a, b), (c, d)), p)
    if g.det() != 1:
        raise UsageError(f"matrix determinant must be 1, got {g.det()}")
    t, h = iwasawa(g)
    payload = {
        "p": p,
        "input": g.to_json(),
        "integral_factor": t.to_json(),
        "triangular_factor": h.to_json(),
        "exact": (t @ h).rows() == g.rows(),
    }
    lines = [f"factored over p={p}; reconstruction exact: {payload['exact']}"]
    return 0, payload, lines


def _cmd_minimal_flow(args, config):
    _require_flow_generators(config)
    ladder = ScaleLadder.from_config(config, LADDER_LENGTH)
    report = minimal_flow(config.prime, config.residue_level_n, config.matrix_level_m, ladder)
    ok = report.strongly_connected and report.idempotent
    lines = [
        f"{report.size} states; strongly connected: {report.strongly_connected}; "
        f"basepoint idempotent: {report.idempotent}"
    ]
    return (0 if ok else 1), report.to_json(), lines


def _cmd_ellis(args, config):
    ladder = ScaleLadder.from_config(config, LADDER_LENGTH)
    report = ellis_group(config.prime, config.residue_level_n, config.matrix_level_m, ladder)
    iso_ok = all(report.iso_by_level.values())
    tower_ok = all(flag for (_, _, flag) in report.tower)
    lines = [
        f"identity-fiber group of order {report.order}; "
        f"isomorphic at every level: {iso_ok}; tower commutes: {tower_ok}"
    ]
    return (0 if iso_ok and tower_ok else 1), report.to_json(), lines


def _cmd_proj(args, config):
    level = ProjLevel(config.prime, config.residue_level_n, config.valuation_window_w)
    ladder = ScaleLadder.from_config(config, LADDER_LENGTH)
    # the compact product absorbs a witness only if level m is no deeper
    # than the identity class's rung-2 witness at infinity
    n = config.residue_level_n
    deepest_m = -(-ladder.rungs[2] // n) * n
    if config.matrix_level_m > deepest_m:
        m, gap = config.matrix_level_m, config.ladder_gap
        raise UsageError(f"--m {m} is deeper than --gap {gap} reaches (at most {deepest_m})")
    if args.report == "collapse":
        report = collapse_check(level, ladder=ladder, level_m=config.matrix_level_m)
        ok = report.collapsed
        lines = [
            f"{report.states_checked} types; collapsed: {report.collapsed} "
            f"onto {report.collapsed_type}"
        ]
    else:
        _require_flow_generators(config)
        report = minimality_proximality_report(
            level, level_m=config.matrix_level_m, ladder=ladder
        )
        ok = report.strongly_connected and report.proximal
        lines = [
            f"{report.size} states; strongly connected: {report.strongly_connected}; "
            f"proximal: {report.proximal}"
        ]
    return (0 if ok else 1), report.to_json(), lines


def _cmd_verify(args, config):
    seed = _seed_from(args)
    outcome = acceptance.run_all(seed=seed, only=args.check)
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
        "config": {
            "p": config.prime,
            "n": config.residue_level_n,
            "m": config.matrix_level_m,
            "w": config.valuation_window_w,
            "ladder_gap": config.ladder_gap,
        },
        "seed": seed,
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
        config = GlobalConfig() if args.command == "verify" else _config_from(args)
        code, payload, lines = _HANDLERS[args.command](args, config)
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
