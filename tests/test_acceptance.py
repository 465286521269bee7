"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute. Every numeric check is exact (zero tolerance); criteria
with a stated runtime budget assert it.
"""

import time

import numpy as np

from conftest import run_cli

from linca.engine import evolve, reachable_states
from linca.equiv import canonicalize, seed_map, seed_pair_map, verify_isomorphism
from linca.oracle import binomial_parity_row, naive_cell, search_state_maps
from linca.rule import parse_rule, rule_radius
from linca.zmod import gcd, units

RULES_1D = [
    parse_rule(text)
    for text in (
        "1@(-1);1@(1)",
        "1@(-1);1@(0);1@(1)",
        "2@(-1);1@(1)",
        "1@(-2);1@(2)",
        "1@(-1);2@(0);3@(1)",
    )
]
RULE_2D = parse_rule("1@(-1,0);1@(1,0);1@(0,-1);1@(0,1)", dimension=2)
RULE90 = RULES_1D[0]


def _finish(number, label, started, problems, budget=None):
    elapsed = time.perf_counter() - started
    ok = not problems and (budget is None or elapsed < budget)
    print(f"criterion {number} {label}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s)")
    assert not problems, f"criterion {number} {label}: first failures {problems[:3]}"
    if budget is not None:
        assert elapsed < budget, f"criterion {number}: {elapsed:.2f}s exceeds {budget}s"


def test_criterion_1_scaling_law_suite():
    started = time.perf_counter()
    problems = []
    for rule, t_max in [(r, 32) for r in RULES_1D] + [(RULE_2D, 12)]:
        for n in range(2, 11):
            unit = evolve(n, rule, 1, t_max)
            for a in range(1, n):
                seeded = evolve(n, rule, a, t_max)
                for t, (row_a, row_1) in enumerate(zip(seeded.cells, unit.cells)):
                    if not np.array_equal(row_a, (a * row_1) % n):
                        problems.append((rule, n, a, t))
    _finish(1, "scaling law", started, problems, budget=10.0)


def test_criterion_2_canonical_reduction_suite():
    started = time.perf_counter()
    problems = []
    for rule, t_max in [(r, 32) for r in RULES_1D] + [(RULE_2D, 12)]:
        targets = {}
        for n in range(2, 11):
            for a in range(1, n):
                r, mapping = canonicalize(n, a)
                if r not in targets:
                    targets[r] = evolve(r, rule, 1, t_max)
                certificate = verify_isomorphism(evolve(n, rule, a, t_max), targets[r], mapping)
                if not certificate.verified:
                    problems.append((rule, n, a, certificate.failure))
        del targets
    _finish(2, "canonical reduction", started, problems, budget=20.0)


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    problems = []
    for rule in RULES_1D:
        radius = rule_radius(rule)
        for n in range(2, 9):
            patterns = {a: evolve(n, rule, a, 12) for a in range(1, n)}
            for a, pattern in patterns.items():
                for t, row in enumerate(pattern.cells):
                    for offset in range(row.shape[0]):
                        site = offset - radius * t
                        if int(row[offset]) != naive_cell(n, rule, a, t, site):
                            problems.append(("cell", rule, n, a, t, site))
            classes: dict[int, list[int]] = {}
            for a in range(1, n):
                classes.setdefault(gcd(n, a), []).append(a)
            for seeds in classes.values():
                for a in seeds:
                    for a_hat in seeds:
                        constructed = seed_pair_map(n, a, a_hat)
                        restricted = constructed.restricted(reachable_states(patterns[a]))
                        witnesses = search_state_maps(patterns[a], patterns[a_hat])
                        if restricted.table not in [w.table for w in witnesses]:
                            problems.append(("witness", rule, n, a, a_hat))
    _finish(3, "oracle equivalence", started, problems, budget=60.0)


def test_criterion_4_parity_triangle_reproduction():
    started = time.perf_counter()
    problems = []
    pattern = evolve(2, RULE90, 1, 64)
    for t, row in enumerate(pattern.cells):
        if list(row) != binomial_parity_row(t):
            problems.append(t)
    _finish(4, "parity triangle", started, problems, budget=1.0)


def test_criterion_5_reference_tables():
    started = time.perf_counter()
    problems = []
    expected_mod5 = {
        1: {0: 0, 1: 1, 2: 2, 3: 3, 4: 4},
        2: {0: 0, 1: 2, 2: 4, 3: 1, 4: 3},
        3: {0: 0, 1: 3, 2: 1, 3: 4, 4: 2},
        4: {0: 0, 1: 4, 2: 3, 3: 2, 4: 1},
    }
    for a, table in expected_mod5.items():
        if seed_map(5, 1, a).table != table:
            problems.append(("seed_map", a))
    if units(4) != {1, 3}:
        problems.append(("units", 4))
    if units(6) != {1, 5}:
        problems.append(("units", 6))
    if canonicalize(4, 2)[1].table != {0: 0, 2: 1}:
        problems.append(("canonicalize", 4, 2))
    if canonicalize(6, 3)[1].table != {0: 0, 3: 1}:
        problems.append(("canonicalize", 6, 3))
    _finish(5, "reference tables", started, problems)


def test_criterion_6_subgroup_confinement():
    started = time.perf_counter()
    problems = []
    for n, a, allowed in (
        (6, 2, {0, 2, 4}),
        (6, 4, {0, 2, 4}),
        (6, 3, {0, 3}),
        (4, 2, {0, 2}),
    ):
        states = reachable_states(evolve(n, RULE90, a, 32))
        if not states <= allowed:
            problems.append((n, a, states))
    _finish(6, "subgroup confinement", started, problems)


def test_criterion_7_class_separation():
    started = time.perf_counter()
    problems = []
    result = run_cli("verify", "--states", "6", "--seed-a", "2", "--seed-b", "3")
    if result.returncode != 4:
        problems.append(("exit", result.returncode))
    if b"different canonical classes" not in result.stdout:
        problems.append(("message", result.stdout))
    witnesses = search_state_maps(evolve(4, RULE90, 1, 10), evolve(4, RULE90, 2, 10))
    if witnesses != []:
        problems.append(("witnesses", [w.table for w in witnesses]))
    _finish(7, "class separation", started, problems)


def test_criterion_8_sweep_determinism(tmp_path):
    started = time.perf_counter()
    problems = []
    rules = tmp_path / "rules.txt"
    rules.write_text(
        "1@(-1);1@(1)\n1@(-1);1@(0);1@(1)\n2@(-1);1@(1)\n1@(-2);1@(2)\n1@(-1);2@(0);3@(1)\n"
    )
    first = run_cli("sweep", "--states-max", "8", "--rules", str(rules))
    second = run_cli("sweep", "--states-max", "8", "--rules", str(rules))
    if first.returncode != 0 or second.returncode != 0:
        problems.append(("exit", first.returncode, second.returncode))
    if first.stdout != second.stdout:
        problems.append(("stdout differs",))
    if not first.stdout.startswith(b"sweep v1 states-max=8 steps=15\n"):
        problems.append(("header", first.stdout[:40]))
    _finish(8, "sweep determinism", started, problems)
