import tracemalloc

import numpy as np
import pytest
from conftest import FIXTURE_RULE_2D, FIXTURE_RULES_1D

from linca import equiv
from linca.engine import evolve, reachable_states
from linca.equiv import (
    Certificate,
    StateMap,
    canonicalize,
    equivalence_classes,
    seed_map,
    seed_pair_map,
    verify_isomorphism,
)
from linca.rule import parse_rule, rule_radius
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
                pair = seed_pair_map(n, a, a_hat)
                assert pair.table == composed, (n, a, a_hat)
                assert _images_match_the_table(pair), (n, a, a_hat)
                if d == 1:
                    unit = seed_map(n, a, a_hat)
                    assert unit.table == composed, (n, a, a_hat)
                    assert _images_match_the_table(unit), (n, a, a_hat)
            assert _images_match_the_table(reduction), (n, a)


def _images_match_the_table(f):
    n = f.source_modulus
    return f.images(np.arange(n)).tolist() == [f.table.get(b, -1) for b in range(n)]


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
            for row_a, row_1 in zip(seeded.cells, unit.cells):
                assert np.array_equal(row_a, (a * row_1) % n)


@pytest.mark.parametrize(
    "rule_text, dimension, n_max, t_max",
    [(text, 1, 40, 10) for text in FIXTURE_RULES_1D] + [(FIXTURE_RULE_2D, 2, 9, 6)],
)
def test_batched_certificates_match_the_per_seed_path(rule_text, dimension, n_max, t_max):
    rule = parse_rule(rule_text, dimension)
    for n in range(2, n_max + 1):
        batched = [c for seed_class in equivalence_classes(n, rule, t_max)
                   for c in seed_class.certificates]
        assert sorted(c.source_seed for c in batched) == list(range(1, n))
        for certificate in batched:
            a = certificate.source_seed
            r, reduction = canonicalize(n, a)
            expected = verify_isomorphism(
                evolve(n, rule, a, t_max), evolve(r, rule, 1, t_max), reduction
            )
            assert certificate.serialize() == expected.serialize(), (n, a)


@pytest.mark.parametrize("rule_text, dimension, n, bad_seed", [
    ("1@(-1);1@(0);1@(1)", 1, 12, 5),
    (FIXTURE_RULE_2D, 2, 7, 3),
])
def test_a_wrong_map_falsifies_only_its_own_seed(monkeypatch, rule_text, dimension, n, bad_seed):
    rule = parse_rule(rule_text, dimension)
    t_max = 10
    r, right = canonicalize(n, bad_seed)
    target = evolve(r, rule, 1, t_max)
    source = evolve(n, rule, bad_seed, t_max)
    # swap the images of the last two nonzero states the seed reaches: a bijection
    # that holds at t=0 and fails only where the first of them appears
    order = [int(b) for row in source.cells for b in row.flat]
    first_seen = sorted(set(order) - {0}, key=order.index)
    b, c = first_seen[-2:]
    table = dict(right.table)
    table[b], table[c] = table[c], table[b]
    wrong = StateMap(n, r, table)
    expected = verify_isomorphism(source, target, wrong).failure
    assert expected is not None and expected[0] > 0

    real = equiv.canonicalize
    monkeypatch.setattr(equiv, "canonicalize",
                        lambda n_, a: (r, wrong) if (n_, a) == (n, bad_seed) else real(n_, a))
    certificates = [c for seed_class in equivalence_classes(n, rule, t_max)
                    for c in seed_class.certificates]
    for certificate in certificates:
        if certificate.source_seed == bad_seed:
            assert certificate.failure == expected
            assert certificate.map is wrong
        else:
            assert certificate.verified, certificate.source_seed


def test_two_wrong_maps_in_one_batch_each_fail_where_verify_fails_them(monkeypatch):
    rule = parse_rule("1@(-1);1@(0);1@(1)")
    n, t_max = 12, 10
    wrong, expected = {}, {}
    for a in (5, 4):
        r, right = canonicalize(n, a)
        source = evolve(n, rule, a, t_max)
        order = [int(b) for row in source.cells for b in row.flat]
        first_seen = sorted(set(order) - {0}, key=order.index)
        table = dict(right.table)
        if a == 5:  # swap the images of the last two nonzero states the seed reaches
            b, c = first_seen[-2:]
            table[b], table[c] = table[c], table[b]
        else:  # drop the last one: it gathers the -1 out-of-domain sentinel
            del table[first_seen[-1]]
        wrong[a] = StateMap(n, r, table)
        expected[a] = verify_isomorphism(source, evolve(r, rule, 1, t_max), wrong[a]).failure
    assert expected == {5: (5, (-1,)), 4: (2, (-1,))}

    real = equiv.canonicalize
    monkeypatch.setattr(equiv, "canonicalize",
                        lambda n_, a: (n_ // gcd(n_, a), wrong[a]) if a in wrong else real(n_, a))
    for seed_class in equivalence_classes(n, rule, t_max):
        for certificate in seed_class.certificates:
            a = certificate.source_seed
            if a in wrong:
                assert certificate.failure == expected[a]
                assert certificate.map is wrong[a]
            else:
                assert certificate.verified, a


def test_numpy_integer_states_are_map_keys():
    f = seed_map(5, 1, 2)
    assert f.apply(np.int64(2)) == 4
    assert np.int64(2) in f.table
    assert canonicalize(6, 4)[1].restricted({np.int64(2), 4}).table == {2: 2, 4: 1}


def test_affine_maps_check_their_parameters():
    with pytest.raises(ValueError, match=r"d \| n"):
        StateMap.affine(12, 5, 1, 1)  # 5 does not divide 12
    with pytest.raises(ValueError, match="unit"):
        StateMap.affine(12, 3, 2, 1)  # 2 is not a unit mod r = 4
    assert StateMap.affine(12, 3, 3, 2).table == {0: 0, 3: 6, 6: 4, 9: 2}


def _certificate_by_cell_loop(p, q, f):
    """The certificate from one Python comparison per cell through ``f.table.get``."""
    radius = rule_radius(p.rule)
    for t, (row, target) in enumerate(zip(p.cells, q.cells)):
        for index in np.ndindex(row.shape):
            if f.table.get(int(row[index]), -1) != target[index]:
                failure = (t, tuple(i - radius * t for i in index))
                return Certificate(p.modulus, p.seed, q.modulus, q.seed, p.rule, f, p.t_max, failure)
    return Certificate(p.modulus, p.seed, q.modulus, q.seed, p.rule, f, p.t_max)


@pytest.mark.parametrize("t_max, lookup_sizes", [(2, [1, 3, 5]), (3, [12])])
def test_both_lookup_paths_match_a_per_cell_loop(monkeypatch, t_max, lookup_sizes):
    # n = 12 against 9 cells at T = 2 (arithmetic per row), 16 cells at T = 3 (one table)
    rule = parse_rule("1@(-1);1@(0);1@(1)")
    n, a, a_hat = 12, 1, 5
    p, q = evolve(n, rule, a, t_max), evolve(n, rule, a_hat, t_max)
    right = seed_pair_map(n, a, a_hat)
    order = [int(b) for row in p.cells for b in row.flat]
    first_seen = sorted(set(order) - {0}, key=order.index)
    missing = dict(right.table)
    del missing[first_seen[-1]]  # a reached state outside the domain: its image is -1
    maps = [right, StateMap.affine(n, 1, 7, 1), StateMap(n, n, missing)]

    sizes = []
    real = StateMap.images
    monkeypatch.setattr(StateMap, "images", lambda f, s: sizes.append(np.size(s)) or real(f, s))
    certificates = []
    for f in maps:
        sizes.clear()
        certificates.append(verify_isomorphism(p, q, f))
        assert sizes and sizes == lookup_sizes[:len(sizes)]  # rows stop at the first failure
    assert [c.verified for c in certificates] == [True, False, False]
    for f, certificate in zip(maps, certificates):
        assert certificate.serialize() == _certificate_by_cell_loop(p, q, f).serialize()


def test_equivalence_classes_memory_is_below_the_map_tables(rule90):
    tracemalloc.start()
    try:
        classes = equivalence_classes(1000, rule90, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(c.verified for c in classes)
    assert peak < 16 * 2**20
