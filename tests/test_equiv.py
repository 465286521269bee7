import numpy as np
import pytest

from linca.engine import evolve, reachable_states
from linca.equiv import (
    StateMap,
    canonicalize,
    equivalence_classes,
    seed_map,
    seed_pair_map,
    verify_isomorphism,
)
from linca.rule import parse_rule
from linca.zmod import gcd


def test_seed_map_mod5_doubling():
    mapping = seed_map(5, 1, 2)
    assert mapping.table == {0: 0, 1: 2, 2: 4, 3: 1, 4: 3}


def test_seed_map_mod3_swap():
    assert seed_map(3, 1, 2).table == {0: 0, 1: 2, 2: 1}


def test_seed_map_same_seed_is_identity():
    assert seed_map(7, 3, 3).table == {b: b for b in range(7)}


def test_seed_map_rejects_non_units():
    with pytest.raises(ValueError, match="unit seeds"):
        seed_map(6, 2, 4)
    with pytest.raises(ValueError, match="unit seeds"):
        seed_map(6, 1, 3)


def test_canonicalize_examples():
    r, mapping = canonicalize(6, 3)
    assert (r, mapping.table) == (2, {0: 0, 3: 1})
    r, mapping = canonicalize(4, 2)
    assert (r, mapping.table) == (2, {0: 0, 2: 1})
    r, mapping = canonicalize(6, 4)
    assert (r, mapping.table) == (3, {0: 0, 2: 2, 4: 1})
    r, mapping = canonicalize(9, 1)
    assert r == 9
    assert mapping.table == {b: b for b in range(9)}


def test_canonicalize_rejects_zero_seed():
    with pytest.raises(ValueError, match="seed must be nonzero"):
        canonicalize(6, 0)


def test_canonicalize_sends_the_seed_to_one():
    for n in range(2, 30):
        for a in range(1, n):
            r, mapping = canonicalize(n, a)
            assert r == n // gcd(n, a)
            assert mapping.table[a] == 1
            assert mapping.table[0] == 0
            assert sorted(mapping.table) == list(range(0, n, gcd(n, a)))


def test_canonicalize_is_idempotent():
    for n, a in ((6, 4), (12, 8), (9, 6)):
        r, _ = canonicalize(n, a)
        r_again, mapping = canonicalize(r, 1)
        assert r_again == r
        assert mapping.table == {b: b for b in range(r)}


def test_state_map_rejects_non_injective_tables():
    with pytest.raises(ValueError, match="injective"):
        StateMap(4, 4, {1: 2, 2: 0, 3: 2})


def test_state_map_rejects_moved_zero():
    with pytest.raises(ValueError, match="send 0 to 0"):
        StateMap(4, 4, {0: 1, 1: 0})


def test_state_map_apply_and_domain():
    mapping = StateMap(6, 3, {0: 0, 2: 1, 4: 2})
    assert mapping.domain() == [0, 2, 4]
    assert mapping.apply(4) == 2
    with pytest.raises(ValueError, match="outside the map domain"):
        mapping.apply(3)


def test_verify_unit_seeds_mod5(rule90):
    p = evolve(5, rule90, 1, 15)
    q = evolve(5, rule90, 2, 15)
    certificate = verify_isomorphism(p, q, seed_map(5, 1, 2))
    assert certificate.verified
    assert certificate.failure is None


def test_verify_reduction_to_two_states(rule90):
    p = evolve(4, rule90, 2, 15)
    q = evolve(2, rule90, 1, 15)
    _, mapping = canonicalize(4, 2)
    assert verify_isomorphism(p, q, mapping).verified


def test_verify_reports_first_failure(rule90):
    p = evolve(5, rule90, 1, 8)
    q = evolve(5, rule90, 2, 8)
    wrong = seed_map(5, 1, 3)  # injective but pairs the wrong seeds
    certificate = verify_isomorphism(p, q, wrong)
    assert not certificate.verified
    assert certificate.failure == (0, (0,))
    assert "status falsified t=0 i=0" in certificate.serialize()


def test_verify_reports_an_off_origin_failure_site(rule_2d):
    p = evolve(5, rule_2d, 1, 4)
    q = evolve(5, rule_2d, 2, 4)
    wrong = StateMap(5, 5, {0: 0, 1: 2, 2: 3, 3: 1, 4: 4})
    certificate = verify_isomorphism(p, q, wrong)
    assert certificate.failure == (2, (-1, -1))
    assert "status falsified t=2 i=-1,-1" in certificate.serialize()


def test_verify_rejects_mismatched_patterns(rule90, rule_2d):
    p = evolve(5, rule90, 1, 10)
    mapping = seed_map(5, 1, 1)
    with pytest.raises(ValueError, match="horizon"):
        verify_isomorphism(p, evolve(5, rule90, 2, 9), mapping)
    with pytest.raises(ValueError, match="rule"):
        verify_isomorphism(p, evolve(5, parse_rule("1@(-2);1@(2)"), 2, 10), mapping)
    with pytest.raises(ValueError, match="rule"):
        verify_isomorphism(p, evolve(5, rule_2d, 2, 10), mapping)


def test_verify_checks_map_moduli(rule90):
    p = evolve(4, rule90, 2, 6)
    q = evolve(2, rule90, 1, 6)
    with pytest.raises(ValueError, match="moduli"):
        verify_isomorphism(p, q, seed_map(4, 1, 3))


def test_verified_certificate_serialization(rule90):
    p = evolve(4, rule90, 2, 2)
    q = evolve(2, rule90, 1, 2)
    _, mapping = canonicalize(4, 2)
    assert verify_isomorphism(p, q, mapping).serialize() == (
        "certificate v1\n"
        'source n=4 a=2 rule="1@(-1);1@(1)" tmax=2\n'
        "target n=2 a=1\n"
        "map 0->0\n"
        "map 2->1\n"
        "status verified\n"
    )


def test_inverse_map_witnesses_the_symmetric_claim(rule90):
    p = evolve(5, rule90, 1, 12)
    q = evolve(5, rule90, 2, 12)
    assert verify_isomorphism(p, q, seed_map(5, 1, 2)).verified
    back = seed_pair_map(5, 2, 1)
    assert back.table == {0: 0, 1: 3, 2: 1, 3: 4, 4: 2}
    assert verify_isomorphism(q, p, back).verified


def test_constructed_tables_match_their_formulas():
    for n in range(2, 41):
        for a in range(1, n):
            d = gcd(n, a)
            r = n // d
            w = pow(a // d, -1, r)
            _, reduction = canonicalize(n, a)
            assert reduction.table == {b: (b // d) * w % r for b in range(0, n, d)}
            # the composition the pair map replaces: a's reduction, then a_hat's inverse
            for a_hat in range(1, n):
                if gcd(n, a_hat) != d:
                    continue
                _, lift = canonicalize(n, a_hat)
                back = {c: b for b, c in lift.table.items()}
                composed = {b: back[c] for b, c in reduction.table.items()}
                assert seed_pair_map(n, a, a_hat).table == composed, (n, a, a_hat)
                if d == 1:
                    assert seed_map(n, a, a_hat).table == composed, (n, a, a_hat)


def test_seed_pair_map_unit_and_subgroup_cases():
    assert seed_pair_map(5, 1, 2).table == seed_map(5, 1, 2).table
    mapping = seed_pair_map(6, 2, 4)
    assert mapping.table == {0: 0, 2: 4, 4: 2}
    with pytest.raises(ValueError, match="different canonical classes"):
        seed_pair_map(6, 2, 3)


def test_seed_pair_map_verifies_cellwise(rule90):
    p = evolve(6, rule90, 2, 20)
    q = evolve(6, rule90, 4, 20)
    assert verify_isomorphism(p, q, seed_pair_map(6, 2, 4)).verified


def test_subgroup_confinement():
    rule = parse_rule("1@(-1);2@(0);3@(1)")
    for n, a in ((6, 2), (6, 3), (6, 4), (4, 2), (12, 8), (10, 4)):
        d = gcd(n, a)
        states = reachable_states(evolve(n, rule, a, 24))
        assert all(b % d == 0 for b in states)


def test_equivalence_classes_mod6(rule90):
    classes = equivalence_classes(6, rule90, 16)
    summary = [(c.canonical_modulus, c.seeds) for c in classes]
    assert summary == [(6, (1, 5)), (3, (2, 4)), (2, (3,))]
    assert all(c.verified for c in classes)
    for seed_class in classes:
        for certificate in seed_class.certificates:
            assert certificate.target_modulus == seed_class.canonical_modulus
            assert certificate.target_seed == 1


def test_equivalence_classes_prime_modulus(rule90):
    classes = equivalence_classes(5, rule90, 16)
    assert [(c.canonical_modulus, c.seeds) for c in classes] == [(5, (1, 2, 3, 4))]
    assert classes[0].verified


def test_equivalence_classes_two_states(rule90):
    classes = equivalence_classes(2, rule90, 16)
    assert [(c.canonical_modulus, c.seeds) for c in classes] == [(2, (1,))]


def test_every_reduction_verifies_across_the_grid(rules_1d):
    # the central claim, checked exhaustively at desk scale
    for rule in rules_1d:
        targets = {}
        for n in range(2, 13):
            for a in range(1, n):
                r, mapping = canonicalize(n, a)
                if (r, rule) not in targets:
                    targets[(r, rule)] = evolve(r, rule, 1, 32)
                certificate = verify_isomorphism(
                    evolve(n, rule, a, 32), targets[(r, rule)], mapping
                )
                assert certificate.verified, (n, a, rule)


def test_unit_seed_patterns_scale_cellwise(rule90):
    for n in (5, 6, 9):
        unit = evolve(n, rule90, 1, 24)
        for a in range(2, n):
            seeded = evolve(n, rule90, a, 24)
            for row_a, row_1 in zip(seeded.rows, unit.rows):
                assert np.array_equal(row_a.cells, (a * row_1.cells) % n)
