import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from linca.engine import _advance, single_site_seed
from linca.rule import (
    RuleSyntaxError,
    RuleTerm,
    format_rule,
    make_rule,
    parse_rule,
    rule_radius,
)


def test_parse_two_term_rule():
    rule = parse_rule("1@(-1);1@(1)")
    assert rule.dimension == 1
    assert rule.terms == (RuleTerm(1, (-1,)), RuleTerm(1, (1,)))


def test_parse_identity_rule():
    rule = parse_rule("1@(0)")
    assert rule.terms == (RuleTerm(1, (0,)),)


def test_parse_merges_duplicate_offsets():
    rule = parse_rule("2@(1);3@(1)")
    assert rule.terms == (RuleTerm(5, (1,)),)


def test_parse_sorts_terms_by_offset():
    assert parse_rule("1@(1);2@(-1)") == parse_rule("2@(-1);1@(1)")


def test_parse_ignores_whitespace():
    assert parse_rule(" 1 @ ( -1 ) ; 1 @ ( 1 ) ") == parse_rule("1@(-1);1@(1)")


def test_parse_two_dimensional():
    rule = parse_rule("1@(-1,0);1@(0,1)", dimension=2)
    assert rule.terms == (RuleTerm(1, (-1, 0)), RuleTerm(1, (0, 1)))


def test_parse_reports_syntax_position():
    with pytest.raises(RuleSyntaxError) as excinfo:
        parse_rule("1@(-1;1@(1)")
    assert "position" in str(excinfo.value)
    assert excinfo.value.position == 5


def test_parse_rejects_wrong_arity():
    with pytest.raises(RuleSyntaxError, match="arity"):
        parse_rule("1@(1,2)", dimension=1)
    with pytest.raises(RuleSyntaxError, match="arity"):
        parse_rule("1@(1)", dimension=2)


def test_parse_rejects_empty_text():
    with pytest.raises(RuleSyntaxError):
        parse_rule("")


def test_parse_rejects_null_rule():
    with pytest.raises(ValueError, match="null rule"):
        parse_rule("0@(1)")
    with pytest.raises(ValueError, match="null rule"):
        parse_rule("1@(1);-1@(1)")


def test_vanishing_mod_n_is_still_a_rule():
    # all coefficients even: the integer rule is fine, it just zeroes out at n=2
    rule = parse_rule("2@(-1);2@(1)")
    row = _advance(single_site_seed(2, 1, 1), rule, 2, rule_radius(rule))
    assert np.count_nonzero(row) == 0


def test_make_rule_rejects_bad_dimension():
    with pytest.raises(ValueError):
        make_rule([(1, (0,))], dimension=0)


@pytest.mark.parametrize("terms, message", [
    ([(1, (0, 1))], "offset (0, 1) has arity 2, expected 1"),
    ([], "empty term list"),
])
def test_make_rule_refusals(terms, message):
    with pytest.raises(ValueError) as excinfo:
        make_rule(terms, 1)
    assert str(excinfo.value) == message


def test_parse_refuses_terms_without_a_separator():
    with pytest.raises(RuleSyntaxError) as excinfo:
        parse_rule("1@(1) 1@(2)")
    assert str(excinfo.value) == "expected ';' between terms (at position 6)"


def test_radius_examples():
    assert rule_radius(parse_rule("1@(-1);1@(1)")) == 1
    assert rule_radius(parse_rule("1@(0)")) == 0
    assert rule_radius(parse_rule("1@(-2,3);1@(1,1)", dimension=2)) == 3


def test_radius_after_cancellation():
    assert rule_radius(parse_rule("1@(0);1@(5);-1@(5)")) == 0


def test_format_round_trip_examples():
    for text in ("1@(-1);1@(1)", "2@(-1);1@(0);-3@(2)", "1@(-1,0);1@(0,1)"):
        dim = text.count(",") and 2 or 1
        rule = parse_rule(text, dimension=dim)
        assert parse_rule(format_rule(rule), dimension=dim) == rule


offsets = st.integers(-4, 4)
coefficients = st.integers(-9, 9)


@given(st.lists(st.tuples(coefficients, st.tuples(offsets)), min_size=1, max_size=6))
def test_format_parse_round_trip(raw_terms):
    try:
        rule = make_rule(raw_terms, dimension=1)
    except ValueError:
        return  # all coefficients cancelled
    assert parse_rule(format_rule(rule), dimension=1) == rule


@given(
    st.lists(st.tuples(coefficients, st.tuples(offsets)), min_size=1, max_size=6),
    st.integers(2, 9),
    st.lists(st.integers(0, 8), min_size=1, max_size=7),
)
def test_merging_preserves_rule_action(raw_terms, n, seed_cells):
    try:
        rule = make_rule(raw_terms, dimension=1)
    except ValueError:
        return
    cells = {i: v % n for i, v in enumerate(seed_cells)}

    def raw_apply(site: int) -> int:
        total = 0
        for coefficient, (offset,) in raw_terms:
            total += coefficient * cells.get(site + offset, 0)
        return total % n

    width = len(seed_cells)
    radius = rule_radius(rule)
    row = np.array([cells[i] for i in range(width)], dtype=np.int64)  # sites 0..width-1
    swept = _advance(row, rule, n, radius)  # sites -radius..width-1+radius
    for site in range(-radius, width + radius):
        assert int(swept[site + radius]) == raw_apply(site)
