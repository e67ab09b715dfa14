"""One test per shipped acceptance check, at its wall-time budget.

Each check function performs its own exact assertions internally and
reports them through the ``passed`` flag; ``run_all`` times it against
the budget in ``acceptance.CHECKS``, so a slow or failing check shows
up as a single red line.
"""

from padyn import acceptance


def assert_passes_within_budget(name):
    (result,) = acceptance.run_all(only=name)["results"]
    assert result["passed"], result
    assert result["within_budget"], (result["seconds"], result["budget_seconds"])


def test_01_residue_power_test_matches_brute_force():
    assert_passes_within_budget("residue-oracle")


def test_02_type_roundtrip_is_exact():
    assert_passes_within_budget("type-roundtrip")


def test_03_affine_flows_fixed_points_and_subflows():
    assert_passes_within_budget("affine-flows")


def test_04_borel_flow_group_idempotent_and_isomorphic():
    assert_passes_within_budget("borel-flow-group")


def test_05_iwasawa_reconstruction_and_corner_rewrite():
    assert_passes_within_budget("iwasawa-rewrite")


def test_06_main_flow_idempotent_and_connected():
    assert_passes_within_budget("main-flow")


def test_07_ellis_tower_isomorphisms_commute():
    assert_passes_within_budget("ellis-tower")


def test_08_projective_collapse_is_constant():
    assert_passes_within_budget("projective-collapse")


def test_09_projective_minimality_and_proximality():
    assert_passes_within_budget("projective-minimality")


def test_10_symbolic_outputs_stable_under_ladder_doubling():
    assert_passes_within_budget("ladder-stability")
