"""Exact arithmetic and group-structure queries on the residue ring Z/nZ.

Everything here works on plain Python ints with the modulus passed
explicitly. Residues are kept fully reduced to [0, n) and every operation
reduces eagerly, so results are deterministic and bit-exact.
"""

from __future__ import annotations

import math

MAX_MODULUS = 2**31 - 1


def check_modulus(n: int) -> int:
    """Validate a state count: an integer with 2 <= n <= 2**31 - 1."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"modulus must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    if n > MAX_MODULUS:
        raise ValueError(f"modulus must be <= {MAX_MODULUS}, got {n}")
    return n


def check_residue(value: int, n: int) -> int:
    """Validate that ``value`` is a reduced residue in [0, n)."""
    check_modulus(n)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"residue must be an integer, got {value!r}")
    if not 0 <= value < n:
        raise ValueError(f"residue {value} out of range [0, {n})")
    return value


def check_seed(a: int, n: int) -> int:
    """Validate a single-site seed: a residue in [1, n)."""
    check_residue(a, n)
    if a == 0:
        raise ValueError("seed must be nonzero")
    return a


def gcd(x: int, y: int) -> int:
    """Greatest common divisor of two nonnegative integers; gcd(x, 0) == x."""
    if x < 0 or y < 0:
        raise ValueError("gcd arguments must be nonnegative")
    if x == 0 and y == 0:
        raise ValueError("gcd(0, 0) is undefined")
    return math.gcd(x, y)


def units(n: int) -> set[int]:
    """The residues in [1, n) coprime to n.

    These are exactly the generators of the additive cyclic group mod n,
    and they form a group under multiplication.
    """
    check_modulus(n)
    return {b for b in range(1, n) if math.gcd(b, n) == 1}


def inverse(k: int, n: int) -> int:
    """Multiplicative inverse of k mod n; works for composite n, rejects non-units."""
    check_residue(k, n)
    try:
        return pow(k, -1, n)
    except ValueError:
        raise ValueError("no inverse: seed not coprime to modulus") from None
