"""One test per shipped acceptance check, at its wall-time budget.

Each check function performs its own exact assertions internally and
reports them through the ``passed`` flag; ``run_all`` times it against
the budget in ``acceptance.CHECKS``, so a slow or failing check shows
up as a single red line.  The residue oracle's signature table is also
compared with the pairwise sweep it replaced, the iwasawa check's int
matrix generator with the `Fraction` generator it replaced, and the
residue oracle's peak traced memory with its bound.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padyn import acceptance
from padyn.padic import PadicMatrix2


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


def signature_table_pairwise(side, m_oracle):
    # the residue oracle's table as it was first built: every (a, b) pair
    # of grid representatives, in order, the first to reach a signature
    # (dv, q) of +-a/b keeping it
    inverses = {key: pow(key[1], -1, m_oracle) for key in side}
    composed = {}
    for (v1, u1), a in side.items():
        for key2, b in side.items():
            q = (u1 * inverses[key2]) % m_oracle
            dv = v1 - key2[0]
            for sig, num in (((dv, q), a), ((dv, m_oracle - q), -a)):
                if sig not in composed:
                    composed[sig] = (num, b)
    return composed


@pytest.mark.parametrize(
    "p, m_oracle, size",
    [(3, 27, 162), (3, 243, 1350), (5, 125, 900), (5, 3125, 19500), (7, 343, 2646)],
)
def test_signature_table_matches_the_pairwise_sweep(p, m_oracle, size):
    side = {}
    for a in range(1, p**4 + 1):
        v, u = acceptance._strip(a, p)
        side.setdefault((v, u % m_oracle), a)
    tables = acceptance._signature_table(side, m_oracle, p)
    flat = {(dv, q): rep for dv, table in tables.items() for q, rep in table.items()}
    assert flat == signature_table_pairwise(side, m_oracle)
    assert len(flat) == size


def random_det_one_by_fractions(rng: random.Random, p: int) -> PadicMatrix2:
    # the iwasawa check's generator as it was first written, on Fractions
    while True:
        a = Fraction(rng.randint(-30, 30), rng.choice((1, 1, 1, p, 2 * p)))
        a *= Fraction(p) ** rng.randint(-2, 2)
        b = Fraction(rng.randint(-30, 30), rng.choice((1, 1, 3)))
        c = Fraction(rng.randint(-30, 30), rng.choice((1, 1, p)))
        if a == 0:
            if b == 0:
                continue
            return PadicMatrix2.of(((a, b), (-1 / b, rng.randint(-3, 3))), p)
        return PadicMatrix2.of(((a, b), (c, (1 + b * c) / a)), p)


@pytest.mark.parametrize("seed", [acceptance.DEFAULT_SEED + 1, 3])
def test_int_matrix_generator_matches_the_fraction_generator(seed):
    p = 5
    fast, slow = random.Random(seed), random.Random(seed)
    for _ in range(10_000):
        got = acceptance._random_det_one(fast, p)
        want = random_det_one_by_fractions(slow, p)
        assert got.prime == want.prime == p
        for x, y in zip(got.entries(), want.entries()):
            assert (x.num, x.den, x.e, x.rest) == (y.num, y.den, y.e, y.rest)
    # both consumed the same draws
    assert fast.random() == slow.random()


# tracemalloc peak of one cold check_residue_oracle() when each grid
# rational was still built once per level (Python 3.11.7); a change that
# stores the grid's inputs across levels reads about 6 MiB
RESIDUE_ORACLE_PEAK_BYTES = 3_554_159


def test_residue_oracle_peak_memory_stays_within_its_bound():
    # a fresh process, so that no cache filled by another test lowers it
    probe = (
        "import tracemalloc\n"
        "from padyn import acceptance\n"
        "tracemalloc.start()\n"
        "passed = acceptance.check_residue_oracle()['passed']\n"
        "print(passed, tracemalloc.get_traced_memory()[1])\n"
    )
    src = str(Path(acceptance.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    passed, peak = done.stdout.split()
    assert passed == "True"
    assert int(peak) <= RESIDUE_ORACLE_PEAK_BYTES
