import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linca.engine import _advance, evolve, evolve_rows, reachable_states, single_site_seed
from linca.oracle import first_disagreement, naive_cell
from linca.rule import make_rule, parse_rule, rule_radius
from linca.zmod import MAX_MODULUS


def test_single_site_seed_one_dimensional():
    seed = single_site_seed(3, 1, 2)
    assert seed.tolist() == [2]
    assert seed.shape == (1,)


def test_single_site_seed_two_dimensional():
    seed = single_site_seed(5, 2, 4)
    assert seed.tolist() == [[4]]


def test_single_site_seed_rejects_zero():
    with pytest.raises(ValueError, match="seed must be nonzero"):
        single_site_seed(4, 1, 0)


def test_single_site_seed_rejects_out_of_range():
    with pytest.raises(ValueError):
        single_site_seed(4, 1, 4)
    with pytest.raises(ValueError):
        single_site_seed(4, 4, 1)


def test_step_spreads_the_seed(rule90):
    after = _advance(single_site_seed(2, 1, 1), rule90, 2, 1)
    assert after.tolist() == [1, 0, 1]


def test_step_sums_overlapping_terms(rule90):
    two_cells = _advance(single_site_seed(5, 1, 1), rule90, 5, 1)
    assert two_cells.tolist() == [1, 0, 1]
    after = _advance(two_cells, rule90, 5, 1)
    assert after.tolist() == [1, 0, 2, 0, 1]


def test_step_identity_rule():
    identity = parse_rule("1@(0)")
    row = _advance(single_site_seed(7, 1, 3), parse_rule("1@(-1);1@(1)"), 7, 1)
    again = _advance(row, identity, 7, rule_radius(identity))
    assert again.tolist() == row.tolist()
    assert again.shape == row.shape


def test_step_zero_configuration_is_fixed(rule90):
    zero = np.zeros(3, dtype=np.int64)
    assert np.count_nonzero(_advance(zero, rule90, 5, 1)) == 0


def test_evolve_mod2_center_cancels(rule90):
    pattern = evolve(2, rule90, 1, 2)
    assert pattern.cells[2].tolist() == [1, 0, 0, 0, 1]


def test_evolve_mod3_keeps_center(rule90):
    pattern = evolve(3, rule90, 1, 2)
    assert pattern.cells[2].tolist() == [1, 0, 2, 0, 1]


def test_evolve_zero_steps(rule90):
    pattern = evolve(4, rule90, 3, 0)
    assert pattern.t_max == 0
    assert pattern.cells[0].tolist() == [3]


def test_evolve_rejects_negative_horizon(rule90):
    with pytest.raises(ValueError):
        evolve(4, rule90, 1, -1)


def test_row_boxes_follow_the_light_cone():
    for text in ("1@(-1);1@(1)", "1@(-2);1@(2)"):
        rule = parse_rule(text)
        radius = rule_radius(rule)
        pattern = evolve(5, rule, 1, 6)
        for t, row in enumerate(pattern.cells):
            assert row.shape == (2 * radius * t + 1,)


def test_two_dimensional_cross_rule(rule_2d):
    pattern = evolve(3, rule_2d, 2, 1)
    assert pattern.cells[1].tolist() == [[0, 2, 0], [2, 0, 2], [0, 2, 0]]


def test_three_dimensional_step_works():
    rule = parse_rule("1@(-1,0,0);1@(1,0,0)", dimension=3)
    pattern = evolve(2, rule, 1, 2)
    expected = np.zeros((5, 5, 5), dtype=np.int64)
    expected[0, 2, 2] = expected[4, 2, 2] = 1  # sites (-2, 0, 0) and (2, 0, 0)
    assert np.array_equal(pattern.cells[2], expected)


def test_evolve_at_the_largest_modulus_matches_python_ints():
    # coefficients n-1, n-2, ..., n-5 and seed n-1 make every product about
    # 2**62, so any two unreduced terms would overflow int64
    n = MAX_MODULUS
    rule = make_rule([(-k, (k - 3,)) for k in range(1, 6)], dimension=1)
    pattern = evolve(n, rule, n - 1, 8)
    radius = rule_radius(rule)
    for t, row in enumerate(pattern.cells):
        for index, value in enumerate(row.tolist()):
            assert value == naive_cell(n, rule, n - 1, t, index - radius * t)


def test_a_batch_of_mixed_moduli_matches_per_row_evolve():
    # at 2**31-1 the coefficients reduce to n-1..n-5, so every term needs its own
    # reduction there; at 3 and 2 the sums stay small and only the final % reduces them
    rule = make_rule([(-k, (k - 3,)) for k in range(1, 6)], dimension=1)
    moduli = [MAX_MODULUS, 65537, 3, 2]
    seeds = [m - 1 for m in moduli]
    rows = list(evolve_rows(moduli, rule, seeds, 8))
    for i, (m, a) in enumerate(zip(moduli, seeds)):
        for t, row in enumerate(evolve(m, rule, a, 8).cells):
            assert np.array_equal(rows[t][i], row), (m, t)
            assert 0 <= rows[t][i].min() and rows[t][i].max() < m, (m, t)


# c = (n-1, 1) puts up to n(n-1) in a cell: 181 and 46341 are the last n of the int16 and
# int32 kernels, 182 and 46342 the first of int32 and int64
EDGE_MODULI = (181, 182, 46341, 46342)
EDGE_RULE = "-1@(-1);1@(1)"


@pytest.mark.parametrize("n", EDGE_MODULI)
def test_the_kernel_dtype_edges_agree_with_the_recursion(n):
    assert first_disagreement(evolve(n, parse_rule(EDGE_RULE), n - 1, 20)) is None


def test_a_batch_across_the_kernel_dtype_edges_matches_per_row_evolve():
    rule = parse_rule(EDGE_RULE)
    moduli = [181, 182, 46342]
    rows = list(evolve_rows(moduli, rule, [m - 1 for m in moduli], 20))
    for i, m in enumerate(moduli):
        for t, row in enumerate(evolve(m, rule, m - 1, 20).cells):
            assert np.array_equal(rows[t][i], row), (m, t)


@pytest.mark.parametrize("n", (2,) + EDGE_MODULI + (MAX_MODULUS,))
def test_every_engine_row_is_int64(n):
    rule = parse_rule(EDGE_RULE)
    pattern = evolve(n, rule, n - 1, 6)
    assert all(row.dtype == np.int64 for row in pattern.cells)
    assert all(row.dtype == np.int64 for row in evolve_rows([n, n], rule, [1, n - 1], 6))
    assert _advance(pattern.cells[-1], rule, n, 1).dtype == np.int64


def test_a_batch_whose_largest_modulus_is_32768_does_not_wrap():
    # the sum bound 32767 fits int16 but the modulus 32768 does not
    rule = parse_rule("1@(1)")
    rows = list(evolve_rows([32768, 2], rule, [5, 1], 2))
    assert rows[1].tolist() == [[5, 0, 0], [1, 0, 0]]
    for i, (m, a) in enumerate(((32768, 5), (2, 1))):
        for t, row in enumerate(evolve(m, rule, a, 2).cells):
            assert np.array_equal(rows[t][i], row), (m, t)
            assert 0 <= rows[t][i].min() and rows[t][i].max() < m, (m, t)
    assert first_disagreement(evolve(32768, rule, 32767, 20)) is None


# small n and both sides of each edge where S or n itself passes the int16 or int32 max;
# near 2**31 the two mixed-magnitude rules make S pass INT64_MAX, so the mid-sum % runs
OVERFLOW_MODULI = tuple(range(2, 41)) + (181, 182, 32767, 32768, 46341, 46342, MAX_MODULUS)
MIXED_RULES = ("-1@(-2);-1@(-1);-1@(0);1@(1)", "1@(-1);-1@(0);-1@(1);-1@(2)")
OVERFLOW_RULES = {
    1: ("1@(1)", EDGE_RULE) + MIXED_RULES,
    2: ("1@(0,1)", "-1@(-1,0);1@(0,1)", "-1@(-2,0);-1@(0,-1);-1@(0,0);1@(1,1)",
        "1@(-1,1);-1@(0,0);-1@(1,0);-1@(0,2)"),
}


@st.composite
def overflow_runs(draw):
    dimension = draw(st.sampled_from((1, 2)))
    rule = parse_rule(draw(st.sampled_from(OVERFLOW_RULES[dimension])), dimension)
    moduli = draw(st.lists(st.sampled_from(OVERFLOW_MODULI), min_size=1, max_size=3))
    seeds = [draw(st.integers(1, m - 1)) for m in moduli]
    return rule, moduli, seeds, draw(st.integers(0, 12 if dimension == 1 else 5))


@settings(max_examples=30, deadline=None)
@given(overflow_runs())
@example((parse_rule(MIXED_RULES[0]), [MAX_MODULUS, 32768, 3], [MAX_MODULUS - 1, 32767, 2], 12))
@example((parse_rule(MIXED_RULES[1]), [MAX_MODULUS, 46342, 2], [MAX_MODULUS - 2, 46341, 1], 12))
@example((parse_rule(OVERFLOW_RULES[2][2], 2), [MAX_MODULUS, 182, 5], [MAX_MODULUS - 1, 181, 4], 5))
def test_every_overflow_edge_agrees_with_per_row_evolve_and_the_recursion(run):
    rule, moduli, seeds, t_max = run
    rows = list(evolve_rows(moduli, rule, seeds, t_max))
    for i, (m, a) in enumerate(zip(moduli, seeds)):
        pattern = evolve(m, rule, a, t_max)
        assert first_disagreement(pattern) is None, (m, a)
        for t, row in enumerate(pattern.cells):
            assert np.array_equal(rows[t][i], row), (m, a, t)


def test_a_term_vanishing_under_one_modulus_only():
    rule = parse_rule("2@(-1);1@(1)")  # the first term is 0 mod 2, not mod 3
    rows = list(evolve_rows([2, 3], rule, [1, 1], 6))
    for i, m in enumerate((2, 3)):
        for t, row in enumerate(evolve(m, rule, 1, 6).cells):
            assert np.array_equal(rows[t][i], row)
    assert rows[1].tolist() == [[1, 0, 0], [1, 0, 2]]


def test_reachable_states_examples(rule90):
    assert reachable_states(evolve(4, rule90, 2, 16)) == {0, 2}
    assert reachable_states(evolve(2, rule90, 1, 16)) == {0, 1}
    assert reachable_states(evolve(6, rule90, 3, 16)) == {0, 3}


def test_reachable_states_identity_rule_has_no_zero():
    pattern = evolve(5, parse_rule("1@(0)"), 3, 4)
    assert reachable_states(pattern) == {3}


def test_evolve_is_reproducible(rule90):
    first = evolve(7, rule90, 4, 20)
    second = evolve(7, rule90, 4, 20)
    for a, b in zip(first.cells, second.cells):
        assert a.shape == b.shape
        assert np.array_equal(a, b)


rows = st.integers(2, 10).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=1, max_size=9))
)

rule_texts = st.sampled_from(
    ["1@(-1);1@(1)", "1@(-1);1@(0);1@(1)", "2@(-1);1@(1)", "1@(-2);1@(2)", "1@(-1);2@(0);3@(1)"]
)


@settings(deadline=None)
@given(rows, st.lists(st.integers(0, 9), min_size=1, max_size=9), rule_texts)
def test_step_is_linear(row_data, other_cells, rule_text):
    n, cells = row_data
    rule = parse_rule(rule_text)
    radius = rule_radius(rule)
    width = max(len(cells), len(other_cells))
    u = np.zeros(width, dtype=np.int64)
    v = np.zeros(width, dtype=np.int64)
    u[: len(cells)] = cells
    v[: len(other_cells)] = [x % n for x in other_cells]
    stepped_sum = _advance((u + v) % n, rule, n, radius)
    expected = (_advance(u, rule, n, radius) + _advance(v, rule, n, radius)) % n
    assert np.array_equal(stepped_sum, expected)


@settings(deadline=None)
@given(rows, st.integers(0, 9), rule_texts)
def test_step_commutes_with_scaling(row_data, k, rule_text):
    n, cells = row_data
    rule = parse_rule(rule_text)
    radius = rule_radius(rule)
    u = np.array(cells, dtype=np.int64)
    scaled = _advance((k * u) % n, rule, n, radius)
    assert np.array_equal(scaled, (k * _advance(u, rule, n, radius)) % n)


@settings(deadline=None)
@given(st.integers(2, 10), st.data(), rule_texts, st.integers(0, 12))
def test_pattern_scales_with_the_seed(n, data, rule_text, t_max):
    a = data.draw(st.integers(1, n - 1))
    rule = parse_rule(rule_text)
    seeded = evolve(n, rule, a, t_max)
    unit = evolve(n, rule, 1, t_max)
    for row_a, row_1 in zip(seeded.cells, unit.cells):
        assert np.array_equal(row_a, (a * row_1) % n)


@settings(deadline=None)
@given(st.integers(2, 8), st.data(), rule_texts, st.integers(0, 10))
def test_support_stays_inside_the_light_cone(n, data, rule_text, t_max):
    a = data.draw(st.integers(1, n - 1))
    rule = parse_rule(rule_text)
    radius = rule_radius(rule)
    pattern = evolve(n, rule, a, t_max)
    for t, row in enumerate(pattern.cells):
        # row t stores sites -radius*t..radius*t, so every nonzero site lies in the cone
        assert row.shape == (2 * radius * t + 1,)
