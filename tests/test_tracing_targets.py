"""The perfbench tracer's targets still name padyn functions.

`perfbench/tracing.py` wraps padyn functions by module and attribute
name and lists the ones it cannot find as absent, so a rename in padyn
silently turns a per-layer metric into a zero.  The tracer is read here
as source, never imported or installed.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# targets whose padyn code is gone; their metrics read 0 until the
# tracer is pointed at the functions that replaced them
ABSENT = [
    "padic.fraction_valuation",
    "padic.unit_residue",
    "borel.mul",
    "sl2.lift",
    "sl2.reduce",
    "proj.act_proj",
    "proj.snap_type",
    "proj.classify_value",
    "flows.act_mul",
]


def _tracer_targets() -> tuple:
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} defines no TARGETS")


def test_only_the_known_tracer_targets_are_absent_from_padyn():
    # resolved the way `Tracer.install` resolves them: a module function,
    # or "Class.method" looked up on the class
    absent = []
    for name, module_name, attr in _tracer_targets():
        module = importlib.import_module(f"padyn.{module_name}")
        class_name, _, key = attr.rpartition(".")
        owner = getattr(module, class_name, None) if class_name else module
        if owner is None or key not in vars(owner):
            absent.append(name)
    assert absent == ABSENT
