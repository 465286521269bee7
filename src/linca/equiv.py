"""State maps between reachable-state sets and pattern-isomorphism checks.

The maps built here are explicit finite tables so they can be serialized
into certificates, diffed in tests, and compared against brute-force
searched witnesses. A certificate only ever asserts equality up to its
finite horizon; the algebraic identities behind the constructions hold for
all t and are property-tested on the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Pattern, evolve
from .rule import TransitionRule, format_rule, rule_radius
from .zmod import check_modulus, check_residue, gcd, inverse


@dataclass
class StateMap:
    """An injective state table from one residue ring into another."""

    source_modulus: int
    target_modulus: int
    table: dict[int, int]

    def __post_init__(self):
        check_modulus(self.source_modulus)
        check_modulus(self.target_modulus)
        for b, c in self.table.items():
            check_residue(b, self.source_modulus)
            check_residue(c, self.target_modulus)
        if len(set(self.table.values())) != len(self.table):
            raise ValueError("state map must be injective")
        if 0 in self.table and self.table[0] != 0:
            raise ValueError("state map must send 0 to 0")

    def domain(self) -> list[int]:
        return sorted(self.table)

    def apply(self, b: int) -> int:
        try:
            return self.table[b]
        except KeyError:
            raise ValueError(f"state {b} outside the map domain") from None

    def inverted(self) -> "StateMap":
        """The inverse table; witnesses the symmetric isomorphism."""
        return StateMap(
            self.target_modulus, self.source_modulus, {c: b for b, c in self.table.items()}
        )

    def restricted(self, states) -> "StateMap":
        """The same map cut down to the domain elements in ``states``."""
        return StateMap(
            self.source_modulus,
            self.target_modulus,
            {b: c for b, c in self.table.items() if b in states},
        )


def seed_map(n: int, a: int, a_hat: int) -> StateMap:
    """Unit-multiplication map sending seed a's pattern onto seed a_hat's.

    Both seeds must be units mod n. The map is b -> k*b mod n with
    k = a_hat * a^-1, defined on all of Z/nZ, and the scaling law of the
    engine guarantees it matches the two patterns cell-wise at every t.
    """
    check_residue(a, n)
    check_residue(a_hat, n)
    if gcd(a, n) != 1 or gcd(a_hat, n) != 1:
        raise ValueError(
            "seed map needs unit seeds (coprime to the modulus); "
            "use canonicalize for non-unit seeds"
        )
    k = (a_hat * inverse(a, n)) % n
    return StateMap(n, n, {b: (k * b) % n for b in range(n)})


def canonicalize(n: int, a: int) -> tuple[int, StateMap]:
    """Reduce (n, a) to the canonical pair (r, 1) with r = n / gcd(n, a).

    The map divides out d = gcd(n, a) on the subgroup of multiples of d,
    then rescales by the inverse of a/d mod r so the seed itself lands on 1.
    Always satisfies map.table[a] == 1, and canonicalizing (r, 1) again
    yields the identity.
    """
    check_residue(a, n)
    if a == 0:
        raise ValueError("seed must be nonzero")
    d = gcd(n, a)
    r = n // d
    w = inverse((a // d) % r, r)
    table = {b: ((b // d) * w) % r for b in range(0, n, d)}
    return r, StateMap(n, r, table)


def seed_pair_map(n: int, a: int, a_hat: int) -> StateMap:
    """The constructed map between two seeds of the same canonical class.

    For unit seeds this is seed_map; otherwise it composes a's reduction
    with the inverse of a_hat's, giving a table on the shared subgroup of
    multiples of gcd(n, a). Seeds from different classes are rejected.
    """
    r_a, map_a = canonicalize(n, a)
    r_hat, map_hat = canonicalize(n, a_hat)
    if r_a != r_hat:
        raise ValueError(
            f"seeds lie in different canonical classes: r_a={r_a} r_b={r_hat}"
        )
    if gcd(a, n) == 1:
        return seed_map(n, a, a_hat)
    lift = map_hat.inverted()
    return StateMap(n, n, {b: lift.table[c] for b, c in map_a.table.items()})


def _format_site(site: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in site)


@dataclass
class Certificate:
    """Outcome of a cell-by-cell isomorphism check over a finite horizon."""

    source_modulus: int
    source_seed: int
    target_modulus: int
    target_seed: int
    rule: TransitionRule
    map: StateMap
    verified_horizon: int
    status: str  # "verified" or "falsified"
    failure: tuple[int, tuple[int, ...]] | None = None  # first failing (t, site)

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def serialize(self) -> str:
        lines = [
            "certificate v1",
            f'source n={self.source_modulus} a={self.source_seed} '
            f'rule="{format_rule(self.rule)}" tmax={self.verified_horizon}',
            f"target n={self.target_modulus} a={self.target_seed}",
        ]
        for b in self.map.domain():
            lines.append(f"map {b}->{self.map.table[b]}")
        if self.verified:
            lines.append("status verified")
        else:
            t, site = self.failure
            lines.append(f"status falsified t={t} i={_format_site(site)}")
        return "\n".join(lines) + "\n"


def verify_isomorphism(p: Pattern, q: Pattern, f: StateMap) -> Certificate:
    """Check f(p cell) == q cell on the light cone for every t <= t_max.

    The shared rule puts row t of both patterns on the same box, so rows are
    compared array against array. A source state outside f's domain counts
    as a failure. The first failure in (t, then lexicographic site) order is
    reported.
    """
    if p.rule != q.rule:
        raise ValueError("patterns must share the transition rule")
    if p.dimension != q.dimension:
        raise ValueError("patterns must share the dimension")
    if p.t_max != q.t_max:
        raise ValueError("patterns must share the horizon")
    if f.source_modulus != p.modulus or f.target_modulus != q.modulus:
        raise ValueError("state map moduli do not match the patterns")

    lut = np.full(p.modulus, -1, dtype=np.int64)  # -1 marks out-of-domain states
    for b, c in f.table.items():
        lut[b] = c

    radius = rule_radius(p.rule)
    failure = None
    for t in range(p.t_max + 1):
        mismatch = lut[p.cells[t]] != q.cells[t]
        if mismatch.any():
            index = np.argwhere(mismatch)[0]  # C order == lexicographic site order
            failure = (t, tuple(int(i) - radius * t for i in index))
            break

    return Certificate(
        source_modulus=p.modulus,
        source_seed=p.seed,
        target_modulus=q.modulus,
        target_seed=q.seed,
        rule=p.rule,
        map=f,
        verified_horizon=p.t_max,
        status="verified" if failure is None else "falsified",
        failure=failure,
    )


@dataclass
class SeedClass:
    """Seeds sharing one canonical modulus, with certificates down to (r, 1)."""

    canonical_modulus: int
    seeds: tuple[int, ...]
    certificates: tuple[Certificate, ...]

    @property
    def verified(self) -> bool:
        return all(cert.verified for cert in self.certificates)


def equivalence_classes(n: int, rule: TransitionRule, t_max: int) -> list[SeedClass]:
    """Partition the seeds 1..n-1 by canonical modulus r = n/gcd(n, a).

    Each seed's reduction map is verified cell-wise against the actual
    (r, 1) pattern, so every class carries one certificate per seed.
    Classes are ordered by descending r (unit seeds first).
    """
    check_modulus(n)
    by_r: dict[int, list[int]] = {}
    for a in range(1, n):
        by_r.setdefault(n // gcd(n, a), []).append(a)
    classes = []
    for r in sorted(by_r, reverse=True):
        target = evolve(r, rule, 1, t_max)
        certificates = []
        for a in by_r[r]:
            _, reduction = canonicalize(n, a)
            certificates.append(verify_isomorphism(evolve(n, rule, a, t_max), target, reduction))
        classes.append(SeedClass(r, tuple(by_r[r]), tuple(certificates)))
    return classes
