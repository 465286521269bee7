import pytest

from linca.zmod import gcd, inverse, units


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
