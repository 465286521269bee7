"""State maps between reachable-state sets and pattern-isomorphism checks.

Every constructed map is one affine table, b -> e*((b/d)*k mod r) on the
multiples of d in Z/nZ. The tables are explicit so they can be serialized
into certificates, diffed in tests, and compared against brute-force
searched witnesses. A certificate only ever asserts equality up to its
finite horizon; the algebraic identities behind the constructions hold for
all t and are property-tested on the engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Pattern, check_comparable, evolve_rows
from .rule import TransitionRule, format_rule, rule_radius
from .zmod import check_modulus, check_residue, check_seed, gcd, inverse


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

    def restricted(self, states) -> "StateMap":
        """The same map cut down to the domain elements in ``states``."""
        return StateMap(
            self.source_modulus,
            self.target_modulus,
            {b: c for b, c in self.table.items() if b in states},
        )


class ClassMismatchError(ValueError):
    """Two seeds with different canonical moduli: no constructed map joins them."""


def _reduction(n: int, a: int) -> tuple[int, int, int]:
    """Validate seed a once; return d = gcd(n, a), r = n/d, w = (a/d)^-1 mod r."""
    check_seed(a, n)
    d = gcd(n, a)
    r = n // d
    return d, r, inverse((a // d) % r, r)


def _affine_map(n: int, d: int, k: int, e: int) -> StateMap:
    """b -> e*((b/d)*k mod r), r = n/d, on the multiples of d into Z/(e*r)Z; (b/d)*k < 2**62."""
    r = n // d
    quotient = np.arange(r, dtype=np.int64)
    images = e * (quotient * k % r)
    return StateMap(n, e * r, dict(zip((quotient * d).tolist(), images.tolist())))


def seed_map(n: int, a: int, a_hat: int) -> StateMap:
    """Unit-multiplication map sending seed a's pattern onto seed a_hat's.

    Both seeds must be units mod n. The map is the affine table with d = 1:
    b -> k*b mod n with k = a_hat * a^-1, defined on all of Z/nZ, and the
    scaling law of the engine matches the two patterns cell-wise at every t.
    """
    check_residue(a, n)
    check_residue(a_hat, n)
    if gcd(a, n) != 1 or gcd(a_hat, n) != 1:
        raise ValueError(
            "seed map needs unit seeds (coprime to the modulus); "
            "use canonicalize for non-unit seeds"
        )
    return _affine_map(n, 1, a_hat * inverse(a, n) % n, 1)


def canonicalize(n: int, a: int) -> tuple[int, StateMap]:
    """Reduce (n, a) to the canonical pair (r, 1) with r = n / gcd(n, a).

    The map is the affine table b -> (b/d)*w mod r on the multiples of
    d = gcd(n, a), with w = (a/d)^-1 mod r, so the seed itself lands on 1.
    Always satisfies map.table[a] == 1, and canonicalizing (r, 1) again
    yields the identity.
    """
    d, r, w = _reduction(n, a)
    return r, _affine_map(n, d, w, 1)


def seed_pair_map(n: int, a: int, a_hat: int) -> StateMap:
    """The constructed map between two seeds of the same canonical class.

    a's reduction followed by the inverse of a_hat's, as one affine table:
    b -> d*((b/d)*w*(a_hat/d) mod r) on the multiples of d = gcd(n, a);
    for unit seeds this is seed_map. Seeds from different classes raise
    ClassMismatchError.
    """
    d, r, w = _reduction(n, a)
    _, r_hat, _ = _reduction(n, a_hat)
    if r != r_hat:
        raise ClassMismatchError(
            f"seeds lie in different canonical classes: r_a={r} r_b={r_hat}"
        )
    return _affine_map(n, d, w * (a_hat // d) % r, d)


def format_map_lines(f: StateMap) -> str:
    """One ``map b->c`` line per domain element, in ascending order."""
    return "".join(f"map {b}->{f.table[b]}\n" for b in f.domain())


def _format_site(site: tuple[int, ...]) -> str:
    return ",".join(str(x) for x in site)


@dataclass
class Certificate:
    """Outcome of a cell-by-cell isomorphism check: verified exactly when no failure was found."""

    source_modulus: int
    source_seed: int
    target_modulus: int
    target_seed: int
    rule: TransitionRule
    map: StateMap
    verified_horizon: int
    failure: tuple[int, tuple[int, ...]] | None = None  # first failing (t, site)

    @property
    def verified(self) -> bool:
        return self.failure is None

    def serialize(self) -> str:
        if self.failure is None:
            status = "status verified"
        else:
            t, site = self.failure
            status = f"status falsified t={t} i={_format_site(site)}"
        return (
            "certificate v1\n"
            f'source n={self.source_modulus} a={self.source_seed} '
            f'rule="{format_rule(self.rule)}" tmax={self.verified_horizon}\n'
            f"target n={self.target_modulus} a={self.target_seed}\n"
            f"{format_map_lines(self.map)}{status}\n"
        )


def _certify(rule: TransitionRule, t_max: int, claims, pairs) -> list[Certificate]:
    """One certificate per claim (a, b, f) from its (mapped, target) rows t = 0..t_max.

    Row t of S claims comes stacked as (S,) + cone; one claim may pass plain cone rows.
    Each claim keeps its first failing (t, then lexicographic site); rows stop coming
    once every claim has failed. Moduli are taken from each claim's map.
    """
    radius = rule_radius(rule)
    failures = [None] * len(claims)
    pending = np.ones(len(claims), dtype=bool)
    for t, (mapped, target) in enumerate(pairs):
        mismatch = mapped != target
        if not mismatch.any():
            continue
        cone = mismatch.shape[-rule.dimension:]
        flat = mismatch.reshape(len(claims), -1)
        for i in np.flatnonzero(pending & flat.any(axis=1)):
            index = np.unravel_index(flat[i].argmax(), cone)  # C order == lexicographic
            failures[i] = (t, tuple(int(x) - radius * t for x in index))
            pending[i] = False
        if not pending.any():
            break
    return [Certificate(f.source_modulus, a, f.target_modulus, b, rule, f, t_max, failure)
            for (a, b, f), failure in zip(claims, failures)]


def verify_isomorphism(p: Pattern, q: Pattern, f: StateMap) -> Certificate:
    """Check f(p cell) == q cell on the light cone for every t <= t_max.

    The shared rule puts row t of both patterns on the same box, so rows are
    compared array against array. A source state outside f's domain counts
    as a failure. The first failure in (t, then lexicographic site) order is
    reported.
    """
    check_comparable(p, q)
    if f.source_modulus != p.modulus or f.target_modulus != q.modulus:
        raise ValueError("state map moduli do not match the patterns")

    lut = np.full(p.modulus, -1, dtype=np.int64)  # -1 marks out-of-domain states
    lut[list(f.table)] = list(f.table.values())
    pairs = ((lut[row], target) for row, target in zip(p.cells, q.cells))
    return _certify(p.rule, p.t_max, [(p.seed, q.seed, f)], pairs)[0]


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

    Each seed's reduction map is verified cell-wise against the actual (r, 1) pattern,
    so every class carries one certificate per seed. Classes are ordered by descending
    r (unit seeds first). The seeds and each target (r, 1), r < n, evolve as one batch,
    each row under its own modulus (the target (n, 1) is seed 1's row), so the scaling
    law under test is never assumed. Row t is checked by one gather, luts[seed, cell].
    """
    check_modulus(n)
    seeds = range(1, n)
    reductions = [canonicalize(n, a) for a in seeds]
    targets = sorted({r for r, _ in reductions} - {n})
    target_rows = np.array([0 if r == n else n - 1 + targets.index(r) for r, _ in reductions])
    luts = np.full((n - 1, n), -1, dtype=np.int64)  # -1 marks out-of-domain states
    for lut, (_, f) in zip(luts, reductions):
        lut[list(f.table)] = list(f.table.values())
    offsets = np.arange(0, luts.size, n).reshape((-1,) + (1,) * rule.dimension)
    rows = evolve_rows([n] * (n - 1) + targets, rule, [*seeds] + [1] * len(targets), t_max)
    pairs = ((luts.take(row[:n - 1] + offsets), row[target_rows]) for row in rows)
    by_r: dict[int, list[Certificate]] = {}
    for cert in _certify(rule, t_max, [(a, 1, f) for a, (_, f) in zip(seeds, reductions)], pairs):
        by_r.setdefault(cert.target_modulus, []).append(cert)
    return [SeedClass(r, tuple(c.source_seed for c in by_r[r]), tuple(by_r[r]))
            for r in sorted(by_r, reverse=True)]
