import pytest

from linca.engine import evolve, single_site_seed
from linca.equiv import canonicalize, seed_pair_map
from linca.oracle import cell_oracle, naive_cell
from linca.rule import parse_rule
from linca.zmod import check_modulus, check_residue, check_seed, gcd, inverse, units


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


def test_gcd_examples():
    assert gcd(6, 4) == 2
    assert gcd(6, 3) == 3
    assert gcd(5, 2) == 1


def test_gcd_with_zero():
    assert gcd(7, 0) == 7
    assert gcd(0, 7) == 7


def test_gcd_rejects_bad_input():
    with pytest.raises(ValueError):
        gcd(0, 0)
    with pytest.raises(ValueError):
        gcd(-2, 4)


def test_units_examples():
    assert units(4) == {1, 3}
    assert units(6) == {1, 5}
    assert units(5) == {1, 2, 3, 4}


def test_units_of_primes_up_to_97():
    for p in range(2, 98):
        if trial_division_is_prime(p):
            assert units(p) == set(range(1, p))


def test_inverse_examples():
    assert inverse(3, 4) == 3
    assert inverse(1, 7) == 1
    assert inverse(2, 5) == 3


def test_inverse_rejects_non_unit():
    with pytest.raises(ValueError, match="no inverse"):
        inverse(2, 4)
    with pytest.raises(ValueError, match="no inverse"):
        inverse(0, 6)


def raised(call) -> str:
    with pytest.raises(ValueError) as info:
        call()
    return str(info.value)


@pytest.mark.parametrize("a", [0, 7, -1], ids=["zero", "n", "negative"])
def test_every_seed_check_gives_check_seeds_message(a):
    n, rule = 7, parse_rule("1@(-1);1@(1)")

    def open_oracle():
        with cell_oracle(n, rule, a):
            pass

    expected = raised(lambda: check_seed(a, n))
    assert expected == ("seed must be nonzero" if a == 0 else f"residue {a} out of range [0, {n})")
    assert raised(lambda: single_site_seed(n, 1, a)) == expected
    assert raised(lambda: evolve(n, rule, a, 3)) == expected
    assert raised(lambda: canonicalize(n, a)) == expected
    assert raised(lambda: seed_pair_map(n, a, 1)) == expected
    assert raised(lambda: seed_pair_map(n, 1, a)) == expected
    assert raised(lambda: naive_cell(n, rule, a, 2, 0)) == expected
    assert raised(open_oracle) == expected


def test_non_integer_moduli_and_residues_are_refused():
    assert raised(lambda: check_modulus(5.0)) == "modulus must be an integer, got 5.0"
    assert raised(lambda: check_residue("3", 5)) == "residue must be an integer, got '3'"
