import tracemalloc

import numpy as np
import pytest

from linca.engine import Pattern, evolve, reachable_states
from linca.equiv import StateMap, seed_map, seed_pair_map, verify_isomorphism
from linca.oracle import (
    T_BOUND,
    binomial_parity_row,
    first_disagreement,
    naive_cell,
    search_state_maps,
)
from linca.rule import parse_rule, rule_radius


def test_naive_cell_base_cases(rule90):
    assert naive_cell(7, rule90, 4, 0, 0) == 4
    assert naive_cell(7, rule90, 4, 0, 3) == 0
    assert naive_cell(7, rule90, 4, 0, -2) == 0


def test_naive_cell_even_binomial_vanishes(rule90):
    # the center of row 4 is a multiple of 2, so it cancels mod 2
    assert naive_cell(2, rule90, 1, 4, 0) == 0


def test_naive_cell_rejects_deep_recursion(rule90):
    with pytest.raises(ValueError, match="recursive oracle"):
        naive_cell(2, rule90, 1, 21, 0)


def test_naive_cell_rejects_zero_seed(rule90):
    with pytest.raises(ValueError, match="seed must be nonzero"):
        naive_cell(2, rule90, 0, 3, 0)


def test_naive_cell_two_dimensional(rule_2d):
    assert naive_cell(3, rule_2d, 2, 1, (0, 1)) == 2
    assert naive_cell(3, rule_2d, 2, 1, (1, 1)) == 0


def test_naive_cell_refuses_a_site_of_the_wrong_arity(rule90):
    with pytest.raises(ValueError) as excinfo:
        naive_cell(5, rule90, 1, 2, (0, 0))
    assert str(excinfo.value) == "site (0, 0) has arity 2, expected 1"


def test_engine_matches_oracle_on_sampled_grid(rules_1d):
    for rule in rules_1d:
        for n in (2, 5, 6):
            for a in (1, n - 1):
                pattern = evolve(n, rule, a, 10)
                radius = rule_radius(rule)
                for t, row in enumerate(pattern.cells):
                    for index, value in enumerate(row.tolist()):
                        i = index - radius * t
                        assert value == naive_cell(n, rule, a, t, i)


def test_search_finds_the_doubling_witness(rule90):
    p = evolve(5, rule90, 1, 10)
    q = evolve(5, rule90, 2, 10)
    witnesses = search_state_maps(p, q)
    assert {0: 0, 1: 2, 2: 4, 3: 1, 4: 3} in [w.table for w in witnesses]


def test_search_rejects_nothing_but_finds_nothing_across_classes(rule90):
    p = evolve(4, rule90, 1, 10)
    q = evolve(4, rule90, 2, 10)
    assert reachable_states(p) == {0, 1, 2, 3}
    assert reachable_states(q) == {0, 2}
    assert search_state_maps(p, q) == []


def test_search_identity_when_patterns_equal(rule90):
    p = evolve(5, rule90, 1, 10)
    q = evolve(5, rule90, 1, 10)
    witnesses = search_state_maps(p, q)
    assert {b: b for b in range(5)} in [w.table for w in witnesses]


def test_light_cone_rows_store_no_padding_zeros():
    # every stored cell of this rule's rows is nonzero mod 5 up to t = 3, so
    # a layout that padded rows with zeros would add state 0 and break all three
    rule = parse_rule("1@(-1);1@(0);1@(1)")
    p = evolve(5, rule, 1, 3)
    q = evolve(5, rule, 2, 3)
    assert reachable_states(p) == {1, 2, 3}
    witnesses = search_state_maps(p, q)
    assert [w.table for w in witnesses] == [{1: 2, 2: 4, 3: 1}]
    assert verify_isomorphism(p, q, StateMap(5, 5, {1: 2, 2: 4, 3: 1})).verified


def test_search_rejects_large_state_sets(rule90):
    # eleven reachable states: the search has no bound on the state count
    p = evolve(11, rule90, 1, 16)
    q = evolve(11, rule90, 2, 16)
    witnesses = search_state_maps(p, q)
    assert [w.table for w in witnesses] == [
        seed_pair_map(11, 1, 2).restricted(reachable_states(p)).table
    ]


def test_search_requires_zero_to_pair_with_zero(rule90):
    # the cell pairs (2, 1) and (0, 2) form a bijection, but one that moves 0
    p = Pattern(3, rule90, 2, (np.array([2]), np.array([0, 2, 0])))
    q = Pattern(3, rule90, 1, (np.array([1]), np.array([2, 1, 2])))
    assert search_state_maps(p, q) == []


def test_search_refuses_a_forced_relation_that_merges_states():
    # the cell pairs are (0,0), (1,1), (4,1), (7,1): no source state has two images
    # and 0 pairs only with 0, but three source states share the target 1
    rule = parse_rule("4@(1)")
    assert search_state_maps(evolve(9, rule, 1, 4), evolve(3, rule, 1, 4)) == []


def test_search_keys_at_the_largest_modulus():
    n = 2**31 - 1
    rule = parse_rule("1@(-1);1@(0);1@(1)")
    p = evolve(n, rule, 1, 128)
    q = evolve(n, rule, 2, 128)
    [witness] = search_state_maps(p, q)
    assert witness.domain() == sorted(reachable_states(p))
    assert all(c == 2 * b % n for b, c in witness.table.items())


def test_search_requires_matching_horizons(rule90):
    with pytest.raises(ValueError, match="horizon"):
        search_state_maps(evolve(3, rule90, 1, 5), evolve(3, rule90, 2, 6))


def test_search_refuses_a_rule_mismatch_with_verifys_message(rule90, rule_2d):
    p = evolve(5, rule90, 1, 4)
    for other in (parse_rule("1@(-2);1@(2)"), rule_2d):
        q = evolve(5, other, 2, 4)
        with pytest.raises(ValueError) as searched:
            search_state_maps(p, q)
        with pytest.raises(ValueError) as verified:
            verify_isomorphism(p, q, seed_map(5, 1, 2))
        assert str(searched.value) == str(verified.value) == "patterns must share the transition rule"


def test_constructed_maps_appear_among_witnesses(rule90):
    for n, a, a_hat in ((5, 1, 3), (6, 2, 4), (8, 3, 5)):
        p = evolve(n, rule90, a, 12)
        q = evolve(n, rule90, a_hat, 12)
        constructed = seed_pair_map(n, a, a_hat).restricted(reachable_states(p))
        assert constructed.table in [w.table for w in search_state_maps(p, q)]


def test_search_results_are_sorted(rule90):
    p = evolve(5, rule90, 1, 10)
    q = evolve(5, rule90, 4, 10)
    witnesses = search_state_maps(p, q)
    tables = [sorted(w.table.items()) for w in witnesses]
    assert tables == sorted(tables)


def test_search_at_horizon_zero_without_state_zero(rule90):
    p = evolve(6, rule90, 2, 0)
    q = evolve(6, rule90, 4, 0)
    assert [w.table for w in search_state_maps(p, q)] == [{2: 4}]


def test_search_allocates_nothing_sized_by_the_modulus(rule90):
    p = evolve(2**24, rule90, 2**23, 6)
    tracemalloc.start()
    try:
        witnesses = search_state_maps(p, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [w.table for w in witnesses] == [{0: 0, 2**23: 2**23}]
    assert peak < 2**20


def test_parity_row_examples():
    assert binomial_parity_row(0) == [1]
    assert binomial_parity_row(2) == [1, 0, 0, 0, 1]
    row4 = binomial_parity_row(4)
    assert len(row4) == 9
    assert row4[4] == 0  # center: an even binomial


def test_parity_row_bound(rule90):
    assert binomial_parity_row(65) == evolve(2, rule90, 1, 65).cells[65].tolist()
    with pytest.raises(ValueError):
        binomial_parity_row(-1)


def test_parity_rows_match_the_engine(rule90):
    pattern = evolve(2, rule90, 1, 16)
    for t, row in enumerate(pattern.cells):
        assert list(row) == binomial_parity_row(t)


def test_seed_map_matches_oracle_search_on_prime_modulus(rule90):
    p = evolve(5, rule90, 2, 10)
    q = evolve(5, rule90, 3, 10)
    constructed = seed_map(5, 2, 3)
    witnesses = search_state_maps(p, q)
    assert constructed.restricted(reachable_states(p)).table in [w.table for w in witnesses]


def doctored(pattern, t, site):
    """The pattern with the cell at (t, site) moved to the next state."""
    cells = list(pattern.cells)
    row = cells[t].copy()
    index = tuple(i + row.shape[0] // 2 for i in site)  # row t is centred on the origin
    row[index] = (row[index] + 1) % pattern.modulus
    cells[t] = row
    return Pattern(pattern.modulus, pattern.rule, pattern.seed, tuple(cells))


def test_first_disagreement_finds_nothing_on_engine_patterns(rule90, rule_2d):
    assert first_disagreement(evolve(6, rule90, 4, 25)) is None
    assert first_disagreement(evolve(7, parse_rule("1@(-1);2@(0);3@(1)"), 5, 12)) is None
    assert first_disagreement(evolve(5, rule_2d, 3, 5)) is None


def test_first_disagreement_reports_a_doctored_cell(rule90, rule_2d):
    assert first_disagreement(doctored(evolve(6, rule90, 4, 9), 7, (-3,))) == (7, (-3,))
    assert first_disagreement(doctored(evolve(5, rule_2d, 3, 5), 4, (1, -2))) == (4, (1, -2))
    # rows past the oracle's bound are not walked
    beyond = doctored(evolve(3, rule90, 1, T_BOUND + 2), T_BOUND + 1, (2,))
    assert first_disagreement(beyond) is None


def test_first_disagreement_walks_the_row_at_its_bound():
    pattern = evolve(7, parse_rule("1@(-1);1@(0);1@(1)"), 3, 24)
    assert pattern.cells[T_BOUND].shape == (41,)  # index 5 is site -15
    assert first_disagreement(doctored(pattern, T_BOUND, (-15,))) == (T_BOUND, (-15,))
