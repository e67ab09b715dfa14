"""Exit codes, JSON shapes, and byte determinism of the command line."""

import ast
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import padyn
from padyn import acceptance, borel, cli, proj, sl2
from padyn.flows import GROUP_TAGS
from padyn.padic import PadicMatrix2, PadicRational
from padyn.residues import build_group


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_residues_emits_group_table(capsys):
    code, out, err = run_cli(capsys, "residues", "--p", "5", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 5 and payload["n"] == 2
    assert payload["group"]["order"] == 4
    assert payload["group"]["representatives"] == ["1", "2", "5", "10"]
    assert "order 4" in err


def test_non_prime_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "residues", "--p", "4", "--n", "2")
    assert code == 2
    assert out == ""
    assert "not prime" in err
    code, out, err = run_cli(capsys, "residues", "--n", "13")
    assert code == 2
    assert out == ""
    assert "at most 12" in err
    # at gap 1 the witness blocks overlap and the flow checks answer wrongly
    for argv in (("minimal-flow", "--gap", "1"), ("proj", "collapse", "--gap", "1")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "ladder_gap must be >= 2" in err


LEVEL_ERRORS = [
    (("--p", "1"), "--p 1 is not prime"),
    (("--p", "4"), "--p 4 is not prime"),
    (("--n", "0"), "residue_level_n must be >= 1"),
    (("--n", "13"), "residue_level_n must be at most 12"),
    (("--m", "0"), "matrix_level_m must be >= 1"),
    (("--w", "0"), "valuation_window_w must be >= 1"),
    (("--gap", "1"), "ladder_gap must be >= 2"),
    # the first failing check wins
    (("--n", "13", "--gap", "1"), "residue_level_n must be at most 12"),
]


@pytest.mark.parametrize("command", [["residues"], ["iwasawa"], ["flows"], ["proj", "collapse"]])
@pytest.mark.parametrize("flags, message", LEVEL_ERRORS)
def test_level_flags_are_checked_before_any_work(capsys, command, flags, message):
    # every level flag is checked, even by a subcommand that ignores it
    code, out, err = run_cli(capsys, *command, *flags)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_unparseable_iwasawa_entries_are_a_usage_error(capsys):
    for entries, message in (
        ("a b c d", "could not parse matrix entries 'a b c d'"),
        # the determinant prints as a rational, not as its p-adic form
        ("2 0 0 1", "matrix determinant must be 1, got 2"),
        ("1/5 0 0 1", "matrix determinant must be 1, got 1/5"),
    ):
        code, out, err = run_cli(capsys, "iwasawa", "--entries", entries)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


def test_a_crash_is_an_internal_error_not_a_failed_property(capsys, monkeypatch):
    def crash(args):
        raise ArithmeticError("lift: determinant is not one")

    monkeypatch.setitem(cli._HANDLERS, "residues", crash)
    code, out, err = run_cli(capsys, "residues")
    assert code == 3
    assert out == ""
    assert "internal error: ArithmeticError: lift: determinant is not one" in err

    def reject(args):
        raise ValueError("bad level")

    # a domain ValueError deep in the stack is a crash too: only a
    # UsageError is the caller's fault
    monkeypatch.setitem(cli._HANDLERS, "residues", reject)
    code, out, err = run_cli(capsys, "residues")
    assert code == 3
    assert out == ""
    assert "internal error: ValueError: bad level" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert cli.run(["frobnicate"]) == 2


def test_unknown_group_tag_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "flows", "--group", "nope")
    assert code == 2
    assert "unknown group tag" in err
    code, out, err = run_cli(capsys, "flows", "--group", "sl2")
    assert code == 2
    assert out == ""
    assert str(GROUP_TAGS) in err


GROUP_SPELLINGS = [
    ("Gm", "Gm"),
    ("gm", "Gm"),
    ("GM", "Gm"),
    ("g-m", "Gm"),
    ("Z-P-ADD", "ZpAdd"),
    ("zp_add", "ZpAdd"),
    ("zpmul", "ZpMul"),
    ("Zp_Mul", "ZpMul"),
    ("ga", "Ga"),
]


@pytest.mark.parametrize("spelling, tag", GROUP_SPELLINGS)
def test_every_group_spelling_prints_the_canonical_tags_stdout(capsys, spelling, tag):
    # case, '-' and '_' are ignored; the canonical tag's digest is pinned below
    code, out, _ = run_cli(capsys, "flows", "--group", spelling)
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == STDOUT_SHA256[f"flows --group {tag}"]


@pytest.mark.parametrize("command", [["minimal-flow"], ["proj", "minimal"]])
def test_p_two_sl2_flow_is_a_usage_error(capsys, command):
    code, out, err = run_cli(capsys, *command, "--p", "2")
    assert code == 2
    assert out == ""
    assert "error: no unit generator mod 2^3" in err


def test_flows_above_the_state_cap_exit_before_building_anything(capsys, monkeypatch):
    # the counts are closed forms, checked before K, a column or a state
    # is built: (p³ - p)·p^(3(m-1))·|J| and (p^w + p^(w-1))·|J|
    def unreachable(*args, **kwargs):
        raise AssertionError("built before the state cap was checked")

    for name in ("k_level_group", "_k_entries", "skew_product", "flow_generators"):
        monkeypatch.setattr(sl2, name, unreachable)
    monkeypatch.setattr(cli, "minimality_proximality_report", unreachable)
    monkeypatch.setattr(cli, "flow_generators", unreachable)
    for argv, count in (
        (("minimal-flow", "--p", "1009"), (1009**3 - 1009) * 4),
        (("minimal-flow", "--m", "4"), 120 * 5**9 * 4),
        (("proj", "minimal", "--w", "12"), (5**12 + 5**11) * 4),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"error: {count} states exceed the cap of {cli.MAX_STATES}" in err


def test_the_state_cap_admits_minimal_flow_at_level_three():
    # minimal-flow --m 3, the largest scaled run, has 7 500 000 states
    assert (5**3 - 5) * 5**6 * cli._class_count(5, 2) == 7_500_000 <= cli.MAX_STATES


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_class_count_closed_form_is_the_residue_group_order(p):
    for n in range(1, 13):
        assert cli._class_count(p, n) == build_group(p, n).order


def test_identical_invocations_are_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "residues", "--p", "7", "--n", "3")
    _, second, _ = run_cli(capsys, "residues", "--p", "7", "--n", "3")
    assert first == second
    _, first, _ = run_cli(capsys, "proj", "collapse")
    _, second, _ = run_cli(capsys, "proj", "collapse")
    assert first == second


def test_one_parser_serves_every_call_in_a_process(capsys):
    cli.build_parser.cache_clear()
    _, first, _ = run_cli(capsys, "residues", "--p", "7", "--n", "3")
    assert run_cli(capsys, "residues", "--p", "0")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    _, second, _ = run_cli(capsys, "residues", "--p", "7", "--n", "3")
    assert first == second
    assert cli.build_parser.cache_info().misses == 1


def test_python_dash_m_padyn_runs_the_cli(capsys):
    src = str(Path(padyn.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = [sys.executable, "-m", "padyn", "residues"]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    code, out, err = run_cli(capsys, "residues")
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)
    assert out


def test_flows_reports_two_multiplicative_subflows(capsys):
    code, out, err = run_cli(capsys, "flows", "--group", "gm")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["minimal_subflows"]) == 2
    assert "sizes [4, 4]" in err


def test_borel_flow_group_table(capsys):
    code, out, _ = run_cli(capsys, "borel", "--p", "5", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 3
    assert payload["idempotent_check"] and payload["iso_to_residue_group"]


def test_iwasawa_default_and_custom_entries(capsys):
    code, out, _ = run_cli(capsys, "iwasawa")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["integral_factor"] == [["1", "0"], ["5", "1"]]
    assert payload["triangular_factor"] == [["1/5", "0"], ["0", "5"]]

    code, out, _ = run_cli(capsys, "iwasawa", "--entries", "2 3 1 2")
    assert code == 0
    assert json.loads(out)["exact"] is True


def test_iwasawa_rejects_bad_input(capsys):
    code, _, err = run_cli(capsys, "iwasawa", "--entries", "1 0 0 2")
    assert code == 2
    assert "determinant" in err
    code, _, err = run_cli(capsys, "iwasawa", "--entries", "1 2 3")
    assert code == 2
    assert "four rationals" in err
    code, out, err = run_cli(capsys, "iwasawa", "--entries", "1/0 0 0 1")
    assert code == 2
    assert out == ""
    assert "zero denominator" in err


def test_minimal_flow_report(capsys):
    code, out, _ = run_cli(capsys, "minimal-flow")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 480
    assert payload["strongly_connected"] and payload["idempotent"]


def test_ellis_report(capsys):
    code, out, _ = run_cli(capsys, "ellis")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 4
    assert all(entry["iso_to_flow_group"] for entry in payload["iso_checks"])


def test_proj_report_shapes(capsys):
    code, out, _ = run_cli(capsys, "proj", "collapse")
    assert code == 0
    payload = json.loads(out)
    assert payload["states"] == 150 and payload["collapsed"] is True
    assert payload["collapsed_type"] == "Near(inf, class 1)"

    code, out, _ = run_cli(capsys, "proj", "minimal")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload) == [
        "boundary_flags",
        "collapsed_type",
        "proximal",
        "states",
        "strongly_connected",
    ]
    assert payload["states"] == 120
    assert payload["strongly_connected"] and payload["proximal"]


@pytest.mark.parametrize(
    "argv, deepest",
    [
        (("collapse", "--n", "2"), 784),
        (("minimal", "--n", "2"), 784),
        (("collapse", "--n", "3"), 786),
        (("minimal", "--n", "3"), 786),
        (("collapse", "--n", "4"), 784),
        (("collapse", "--n", "3", "--w", "3"), 921),
        (("collapse", "--n", "2", "--gap", "16"), 3104),
    ],
)
def test_proj_m_deeper_than_the_ladder_is_a_usage_error(capsys, argv, deepest):
    # the compact product absorbs a witness only down to the identity
    # class's rung-2 witness, n * ceil(rungs[2] / n); deeper is refused
    # before any work
    code, out, _ = run_cli(capsys, "proj", *argv, "--m", str(deepest))
    assert code == 0
    assert json.loads(out)["collapsed_type"] == "Near(inf, class 1)"
    code, out, err = run_cli(capsys, "proj", *argv, "--m", str(deepest + 1))
    assert code == 2
    assert out == ""
    assert "--m" in err and "--gap" in err


def test_verify_single_check_reports_without_timings(capsys):
    code, out, err = run_cli(capsys, "verify", "--check", "affine-flows", "--seed", "12345")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 12345
    assert payload["config"] == {"p": 5, "n": 2, "m": 1, "w": 2, "ladder_gap": 8}
    assert payload["passed"] is True
    (entry,) = payload["checks"]
    assert entry["check"] == "affine-flows"
    assert "seconds" not in entry and "within_budget" not in entry
    assert "affine-flows: pass" in err


def test_verify_rejects_unknown_check(capsys):
    assert cli.run(["verify", "--check", "bogus"]) == 2
    code, out, err = run_cli(capsys, "verify", "--check", "affine-flows", "--seed", "soon")
    assert code == 2
    assert out == ""
    assert "--seed: invalid int value: 'soon'" in err
    # the battery runs at its pinned levels, so a level flag is refused
    code, out, err = run_cli(capsys, "verify", "--check", "main-flow", "--p", "7")
    assert code == 2
    assert out == ""
    assert "--p" in err


def test_verify_all_fails_with_exit_one(capsys, monkeypatch):
    def ok(*args, **kwargs):
        return {"passed": True}

    def bad(*args, **kwargs):
        return {"passed": False}

    for name in (
        "check_residue_oracle",
        "check_type_roundtrip",
        "check_affine_flows",
        "check_borel_flow_groups",
        "check_iwasawa_and_rewrite",
        "check_ellis_tower",
        "check_projective_collapse",
        "check_projective_minimality",
        "check_ladder_stability",
    ):
        monkeypatch.setattr(acceptance, name, ok)
    monkeypatch.setattr(acceptance, "check_main_flow", bad)
    code, out, err = run_cli(capsys, "verify", "--all")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    flags = {entry["check"]: entry["passed"] for entry in payload["checks"]}
    assert flags["main-flow"] is False
    assert sum(1 for value in flags.values() if value) == 9
    assert "main-flow: FAIL" in err


def run_with_asserts_stripped(*argv):
    # python -O strips every assert, so a verdict must rest on explicit
    # errors and comparisons alone
    src = str(Path(padyn.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    argv = [sys.executable, "-O", "-m", "padyn.cli", *argv]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def verify_with_asserts_stripped(check):
    assert json.loads(run_with_asserts_stripped("verify", "--check", check))["passed"] is True


def test_no_assert_in_the_package():
    # python -O strips asserts, so no invariant may live in one
    for path in sorted(Path(padyn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on line(s) {lines}"


def test_the_package_imports_only_the_standard_library():
    # networkx and hypothesis are test-only: the package runs on a bare Python
    for path in sorted(Path(padyn.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "padyn" or top in sys.stdlib_module_names, (
                    f"{path.name}:{node.lineno} imports {name}"
                )


def unreferenced_definitions(package: Path) -> list[str]:
    """module.name of each module-level def or class in the package that
    no Name, Attribute or import in the package names outside its own
    definition."""
    statements = []  # (module, top-level statement, the names it refers to)
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    names.add(sub.name.rpartition(".")[2])
            statements.append((path.stem, node, names))
    return [
        f"{module}.{node.name}"
        for module, node, _ in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]


def test_every_package_definition_is_used_in_the_package():
    # code that only the tests call belongs in the tests
    assert unreferenced_definitions(Path(padyn.__file__).parent) == []


def unused_keyword_options(package: Path) -> list[str]:
    """module.function.option of each keyword-only parameter of a package
    function that no call in the package, to a name or attribute of that
    function's name, passes by name."""
    functions, passed = [], set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((path.stem, node))
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                passed.update((name, keyword.arg) for keyword in node.keywords)
    return [
        f"{module}.{node.name}.{arg.arg}"
        for module, node in functions
        for arg in node.args.kwonlyargs
        if (node.name, arg.arg) not in passed
    ]


def test_every_keyword_option_is_passed_in_the_package():
    # an option production never sets is a second path only the tests run
    assert unused_keyword_options(Path(padyn.__file__).parent) == []


def unread_parameters(package: Path) -> list[str]:
    """module.function.parameter of each parameter of a package `def`,
    other than self and cls, that its body never reads.  Lambdas are not
    scanned: the acceptance runners all take a seed, read or not."""
    unread = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {
                name.id
                for statement in node.body
                for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)
            }
            unread += [
                f"{path.stem}.{node.name}.{arg.arg}"
                for arg in params
                if arg is not None and arg.arg not in ("self", "cls") and arg.arg not in read
            ]
    return unread


def test_every_parameter_is_read_in_the_package():
    # a parameter the body ignores is a knob that changes nothing
    assert unread_parameters(Path(padyn.__file__).parent) == []


def test_borel_flow_group_check_passes_with_asserts_stripped():
    verify_with_asserts_stripped("borel-flow-group")


@pytest.mark.parametrize(
    "check",
    [
        "residue-oracle",
        "type-roundtrip",
        "affine-flows",
        "iwasawa-rewrite",
        "main-flow",
        "ellis-tower",
        "projective-collapse",
        "projective-minimality",
        "ladder-stability",
    ],
)
def test_check_passes_with_asserts_stripped(check):
    verify_with_asserts_stripped(check)


# sha256 of the stdout of each command at default flags, of the scaled
# proj runs (a wider window, a doubled ladder gap) and of the level-2
# compact runs of `star` and of `ellis`, whose fibre does not depend on
# m; any change to these bytes is a change to the CLI's output contract
STDOUT_SHA256 = {
    "residues": "3fcdf32e7a51a534fa73030d26e6813c2ae1afed3b3681f3624745b1f8a62d65",
    "flows --group Ga": "ee54549b2a8d2bd5ce8d32db5b4f93861d76104cdc59ae1c3e6ff439548eb1a3",
    "flows --group Gm": "a6f173e3c06371a6fabc61f068b19d7231d2bd693ee816951eef2d6e0967da9b",
    "flows --group ZpAdd": "5c4da25580488df9c3f69efdd3c31a289b8167a6f17b93affe38aeab3f6a8a21",
    "flows --group ZpMul": "2de5818fe6b140af440f621cf1dda86fb05c8776993d15e728f8a473125e0479",
    "borel": "b50e3e4f7b9a1db1ad063b3b3d8c6e23322e367a9c1989e21fe277c69cca53d4",
    "iwasawa": "eb900f5be722d7b2fb62b4196e3e40c11710a9cb5643c246b7e435dcf0ed9fd1",
    "minimal-flow": "d38d92f8e5ec9a6e54c6116a0e0d49e616c6f6096d94f43cb89cabb82e90bec0",
    "ellis --n 4": "f70e340e5c99976758f3ae2f98420a2f5b606b0163248f0efcca4c01ea3effaf",
    "proj collapse": "f7d20a64cc774f4484a65b04bec0ca5d1da23f86d23520804a6ed90213b1faf0",
    "proj minimal": "9c07170058f50821d251ea8895351524b4ff56cbd63c796bf2f8c6e9f5ad0115",
    "proj minimal --w 3": "a74b5908c744b4844110d87826b34387673fb819403ba13161844b7346eaf2ab",
    "proj minimal --gap 16": "9c07170058f50821d251ea8895351524b4ff56cbd63c796bf2f8c6e9f5ad0115",
    "proj minimal --w 4": "5837ea4b293e3922601dd565e04196139ae86e6bf11b949a7cad56da699f070c",
    # deeper inverted charts than --w 4: 15 000 and 11 664 states
    "proj minimal --w 5": "05f163b1acaf94f5b1a21ba66a86a32439ad0ebb46a2f2fe2917f759112b9828",
    "proj minimal --p 3 --w 7": "e648ec718b839e67e3563b20b62998981accb9946d28e3e758d16717e58a3424",
    "proj minimal --p 3 --n 3 --w 3": "14a4edc0ef262acd63b4cf6a6aa7b05c4627291165e4e5314c095f0e873f5958",
    "proj minimal --p 7 --n 3": "a5fb04b2debe7edd07204a4af48110f9bf21007409b450c271b477e1d566cd92",
    "proj minimal --n 4": "d628f2233ba8b501930b0b2a1767d7b6062ddb0ae7a436b7db07449d6dee108f",
    "proj collapse --w 3": "9f065dd6ae740baf86eba735aa0cf997798faa92124eb29557eb888b27bdeba4",
    "borel --n 6": "bb4c46e9320e88497624a224f407e41fe236c93a95b1941f9717fc69fa2647fd",
    "ellis --p 7 --n 6": "7341327e1c93ddacaa26967a0d0a7468616b762078d6a7ce10b2c8284f88cb86",
    "minimal-flow --p 7 --n 6": "753db039445c58c4750bd6f74b34ebcb3e17fd50dc7b289fa7eae97f7447d134",
    "minimal-flow --p 3 --m 2": "61243b6209281ec89cf6bb41c0c0cff34b51d0e74e9499faf9972f48597c0a6b",
    # the scaled level-two flow: 60 000 states
    "minimal-flow --m 2": "164a5f3650b28a5729a4057af3488ad7a305267d129ad9c209c781b512c82eab",
    "ellis --p 3 --n 6 --m 2": "c6330af60f054e1e75dad78d57e1f858997bbbe77b213ece1d3972e9fe015fd3",
    "verify --check residue-oracle --seed 20260814": (
        "12b586e4a3ce0c3e4cec837ecef9d049240fa3db00f2d025c7aea6e9d9d333a4"
    ),
    "verify --check type-roundtrip --seed 20260814": (
        "a85c1310e682c023dd6c959573ff363e247b7c2d41c80109d876496078474dc5"
    ),
    "verify --check affine-flows --seed 20260814": (
        "b0682083ae32d80c0fe89819519e2d920f0d473921807b16dcfb00f562cd9bdf"
    ),
    # the int-coded affine flow at a scaled level: 628 states
    "flows --group Gm --w 3": "9128e483771d2c22ff83e76a1a5849b29d4d7708b31b37880f24cd6bfc6aaeb3",
    "verify --check iwasawa-rewrite --seed 20260814": (
        "5a0fa78ff1398c15b12a0ef88b2f0a52885315e8d2c12b4b3b8bdeba54feba03"
    ),
    "verify --check borel-flow-group --seed 20260814": (
        "698cdd43c7d1c0e8840aaef5cd2466430bca11cec24706ad8a5ee1f0b84a18a5"
    ),
    "verify --check ellis-tower --seed 20260814": (
        "0705510f6c2f81ab39fceae55278710603d86675dca54c651d38a3279eb4e5b4"
    ),
    "verify --check ladder-stability --seed 20260814": (
        "e3914774dd3fb6dab987a5b194926ed521a505cdd726bf233e3927c413b7eeaf"
    ),
    "residues --p 3 --n 6": "98e97907d9ced10007cf78f979cc69ad26409ca3b890dafa09d9731689e7eb3d",
    # order 144, the largest residue table the CLI accepts at p = 13
    "residues --p 13 --n 12": "e19ada5e965923d04a5cbad01e7dd7122f51cbff3ffa32f642f630e983c690e5",
    "borel --p 3 --n 4": "4ecc7d96e79844750866b1576eeb9b6ae2db401686a34db5e999df39592e93ee",
    "ellis --n 12": "a6cf294814db5490718ebb2105c7b89c805f55e8d558d008ca73c8096770ceb1",
    "proj collapse --p 2": "40039d1adfc183384169296bd3868c3a8943948b1ff69c9b16abd144ee96a6aa",
    "proj collapse --p 3 --n 3 --w 3": (
        "10cf2465e9a0c5efc1b5db8c1e689c69b8686c6dd205b05aa1650d348ccedaf9"
    ),
    "proj collapse --p 7 --n 3 --gap 3 --m 2": (
        "15bca697a9612c7ae873190791384f2e4f93ef53eebeacab978cecc7b84d136f"
    ),
    # the deepest m accepted at n = 3: the compact product's witness is
    # absorbed exactly at its valuation
    "proj collapse --n 3 --m 786": "c5f87b86357c463a2b262d8d04441904269397faff75151a51f9e138eab8f3ed",
    "verify --check projective-collapse --seed 20260814": (
        "ed5b3e91cb89454a1761b397ed9965362b2c36c4814e95f89b3259676883af8f"
    ),
    "verify --check projective-minimality --seed 20260814": (
        "3c5e87ad9460eacda1c11001f0d535b7865eecbefbf54ecbf3b2602cac03d449"
    ),
    # the three branches of iwasawa's general case: pivot on c, a zero a,
    # and a valuation tie that keeps the diagonal shape
    "iwasawa --entries 1,0,1/5,1": "262517bae13d64f5461b597df64400d1e4a0791d703ee7710fb654109dd4b68d",
    "iwasawa --entries 0,1,-1,1/5": "b931110cab450d60e26c0614b1f4638e99bbde0a14ae1e03de306c6a3e11ac48",
    "iwasawa --entries 1/5,0,1/5,5": "14d7ece6c75931be804bd228daacf5764ddee79d8a459daf4801330b037b6494",
}


def test_every_cli_matrix_holds_padic_entries_of_its_prime(capsys, monkeypatch):
    built, wrong = Counter(), []
    init = PadicMatrix2.__init__

    def checked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built[command] += 1
        if not all(type(x) is PadicRational and x.p == self.prime for x in self.entries()):
            wrong.append((command, self))

    monkeypatch.setattr(PadicMatrix2, "__init__", checked)
    caches = (borel.witness, borel.build_flow_group, sl2.k_lift, proj._fiber_witness)
    commands = (
        "iwasawa",
        "iwasawa --entries 1,0,1/5,1",
        "iwasawa --entries 0,1,-1,1/5",
        "iwasawa --entries 1/5,0,1/5,5",
        "borel",
        "minimal-flow",
        "ellis",
        "proj collapse",
        "proj minimal",
        "verify --check iwasawa-rewrite",
    )
    for command in commands:
        # matrices cached by earlier tests or commands would not be built
        # again, so each command starts from empty caches
        for cached in caches:
            cached.cache_clear()
        code, _, _ = run_cli(capsys, *command.split())
        assert code == 0
    assert wrong == []
    assert all(built[command] for command in commands)


@pytest.mark.parametrize("command", list(STDOUT_SHA256))
def test_default_stdout_matches_the_pinned_digest(capsys, command):
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]


def test_proj_minimal_stdout_matches_the_pinned_digest_with_asserts_stripped():
    # the flow table's certification and state-space checks are _require
    # calls, so the report is the same under python -O
    out = run_with_asserts_stripped("proj", "minimal", "--w", "3")
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256["proj minimal --w 3"]


def test_level_two_minimal_flow_stdout_matches_the_pinned_digest_with_asserts_stripped():
    # the flow-point check and the lift's checks at m = 2 are explicit
    # errors and _require calls, so the report is the same under python -O
    out = run_with_asserts_stripped("minimal-flow", "--p", "3", "--m", "2")
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256["minimal-flow --p 3 --m 2"]
