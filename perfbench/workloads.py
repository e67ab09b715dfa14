"""The benchmark's workloads and the output gate every run must pass.

Each workload is one fixed, closed computation driven through the
`padyn` command line (`padyn.cli.main`), because the CLI's stdout is the
contract that stays byte-identical while the library beneath it is
rewritten.  A workload is a list of CLI invocations made in one cold
worker process, in order.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Callable

# The battery: every check except borel-flow-group (its own workload)
# and ladder-stability (25 s cold, it reruns checks 4, 6, 7 and 8).
BATTERY_CHECKS = (
    "residue-oracle",
    "type-roundtrip",
    "affine-flows",
    "iwasawa-rewrite",
    "main-flow",
    "ellis-tower",
    "projective-collapse",
    "projective-minimality",
)


class GateError(Exception):
    """The program's output for a run is wrong; the run counts as failed."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verify_doc(text: str, check: str, seed: int | None) -> dict:
    doc = json.loads(text)
    _require(doc["passed"] is True, f"{check}: battery verdict is not passed")
    (entry,) = doc["checks"]
    _require(entry["check"] == check, f"ran {entry['check']!r}, expected {check!r}")
    _require(entry["passed"] is True, f"{check}: check failed")
    if seed is not None:
        _require(doc["seed"] == seed, f"{check}: seed {doc['seed']} is not {seed}")
    return entry


def _gate_borel(stdouts: list[str], seed: int) -> None:
    entry = _verify_doc(stdouts[0], "borel-flow-group", None)
    _require(entry["gap_doubling_stable"] is True, "flow groups changed under gap doubling")
    orders = {"1": 1, "2": 4, "3": 3, "4": 16, "5": 25, "6": 12}
    _require(entry["orders"] == orders, f"flow group orders {entry['orders']}")


def _gate_proj(stdouts: list[str], seed: int) -> None:
    doc = json.loads(stdouts[0])
    _require(doc["states"] == 600, f"{doc['states']} projective states, expected 600")
    _require(doc["strongly_connected"] is True, "projective flow not strongly connected")
    _require(doc["proximal"] is True, "projective flow not proximal")


def _gate_sl2(stdouts: list[str], seed: int) -> None:
    doc = json.loads(stdouts[0])
    _require(doc["size"] == 12096, f"{doc['size']} flow states, expected 12096")
    _require(doc["strongly_connected"] is True, "flow not strongly connected")
    _require(doc["idempotent"] is True, "basepoint not idempotent")
    _require(doc["ellis"]["order"] == 36, f"|J| = {doc['ellis']['order']}, expected 36")


def _gate_battery(stdouts: list[str], seed: int) -> None:
    for check, text in zip(BATTERY_CHECKS, stdouts, strict=True):
        _verify_doc(text, check, seed)


_SEED_LINE = re.compile(r'^  "seed": -?\d+,$', re.MULTILINE)


def _seed_free(text: str) -> str:
    """The battery's stdout with its echoed seed replaced by 0: the seed
    drives the random sweeps, but a correct run reports the same numbers
    for every seed, so the rest of the output is pinned byte for byte."""
    return _SEED_LINE.sub('  "seed": 0,', text)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argvs: Callable[[int], list[list[str]]]
    structure: Callable[[list[str], int], None]
    digest: str
    normalise: Callable[[str], str] = lambda text: text

    def gate(self, codes: list[int], stdouts: list[str], seed: int) -> None:
        """Raise GateError unless every invocation exited 0, its pass flags
        and structural fields are right, and stdout matches the digest
        recorded at the commit that defined the benchmark."""
        expected = len(self.argvs(seed))
        _require(len(codes) == expected, f"{len(codes)} invocations, expected {expected}")
        _require(all(code == 0 for code in codes), f"exit codes {codes}")
        try:
            self.structure(stdouts, seed)
        except (KeyError, TypeError, ValueError) as err:
            raise GateError(f"malformed output: {err!r}") from err
        got = _digest(self.normalise("".join(stdouts)))
        _require(got == self.digest, f"stdout sha256 {got} differs from the pinned {self.digest}")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="borel-check",
            why="check nearest its budget; huge-witness products in BorelElem.mul "
            "and types1.realize (the writes)",
            argvs=lambda seed: [["verify", "--check", "borel-flow-group"]],
            structure=_gate_borel,
            digest="698cdd43c7d1c0e8840aaef5cd2466430bca11cec24706ad8a5ee1f0b84a18a5",
        ),
        Workload(
            name="proj-flow",
            why="same huge witnesses as borel-check, but valuation queries "
            "(int_valuation via snap_type/class_of, the reads)",
            argvs=lambda seed: [["proj", "minimal", "--w", "3"]],
            structure=_gate_proj,
            digest="a74b5908c744b4844110d87826b34387673fb819403ba13161844b7346eaf2ab",
        ),
        Workload(
            name="sl2-flow",
            why="12 096-state SL(2) flow: sl2.act on small rationals and Tarjan "
            "SCC; shows skew-product tabulation and its memory cost",
            argvs=lambda seed: [["minimal-flow", "--p", "7", "--n", "6"]],
            structure=_gate_sl2,
            digest="753db039445c58c4750bd6f74b34ebcb3e17fd50dc7b289fa7eae97f7447d134",
        ),
        Workload(
            name="battery",
            why="eight small checks, seeded: ~700k small-operand valuations, so a "
            "per-call slowdown the huge-operand workloads hide shows here",
            argvs=lambda seed: [
                ["verify", "--check", check, "--seed", str(seed)] for check in BATTERY_CHECKS
            ],
            structure=_gate_battery,
            digest="876ffe896f3286194c0cf3c7f8fd531556c64b02e3ed3b1203bccbba77cead07",
            normalise=_seed_free,
        ),
    )
}
