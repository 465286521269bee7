"""State maps between reachable-state sets and pattern-isomorphism checks.

Every constructed map is one affine formula, b -> e*((b/d)*k mod r) on the
multiples of d in Z/nZ. It is kept as its four numbers (n, d, k, e) and
computed when read, so nothing sized by n is stored. A certificate only ever
asserts equality up to its finite horizon; the algebraic identities behind
the constructions hold for all t and are property-tested on the engine.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .engine import Pattern, check_comparable, evolve_rows, per_state
from .rule import TransitionRule, format_rule, rule_radius
from .zmod import check_modulus, check_residue, check_seed, gcd, inverse


@dataclass(eq=False)  # Mapping's __eq__ compares entries, so equal maps equal dicts
class _AffineTable(Mapping):
    """b -> e*((b/d)*k mod r), r = n/d, on the multiples of d; computed when read."""

    n: int
    d: int
    k: int
    e: int

    def __getitem__(self, b):
        i = operator.index(b) if hasattr(b, "__index__") else -1  # ints and numpy ints
        if not (0 <= i < self.n and i % self.d == 0):
            raise KeyError(b)
        return self.e * (i // self.d * self.k % (self.n // self.d))

    def __iter__(self):
        return iter(range(0, self.n, self.d))

    def __len__(self) -> int:
        return self.n // self.d


@dataclass
class StateMap:
    """An injective state table from one residue ring into another.

    ``table`` is a dict, or the formula of ``StateMap.affine``: it reads like a
    dict but stores only (n, d, k, e), so no constructed map is sized by n.
    """

    source_modulus: int
    target_modulus: int
    table: Mapping[int, int]

    @classmethod
    def affine(cls, n: int, d: int, k: int, e: int) -> "StateMap":
        """b -> e*((b/d)*k mod r), r = n/d, from Z/nZ into Z/(e*r)Z: d | n, k a unit mod r."""
        return cls(n, e * (n // d) if d > 0 else 0, _AffineTable(n, d, k, e))

    def __post_init__(self):
        check_modulus(self.source_modulus)
        check_modulus(self.target_modulus)
        t = self.table
        if isinstance(t, _AffineTable):  # O(1): injective and 0 -> 0 by construction
            r = t.n // t.d if t.d > 0 and t.n % t.d == 0 else 0
            if not r or t.n != self.source_modulus or self.target_modulus != t.e * r:
                raise ValueError(f"affine map needs d | n and target modulus e*n/d, got {t}")
            if not (0 <= t.k < r and gcd(t.k, r) == 1):
                raise ValueError(f"affine map needs k a unit mod r={r}, got k={t.k}")
            return
        for b, c in t.items():
            check_residue(b, self.source_modulus)
            check_residue(c, self.target_modulus)
        if len(set(t.values())) != len(t):
            raise ValueError("state map must be injective")
        if 0 in t and t[0] != 0:
            raise ValueError("state map must send 0 to 0")

    def domain(self) -> list[int]:
        return sorted(self.table)

    def apply(self, b: int) -> int:
        try:
            return self.table[b]
        except KeyError:
            raise ValueError(f"state {b} outside the map domain") from None

    def images(self, states) -> np.ndarray:
        """The image of each state as int64, -1 outside the domain; nothing sized by n."""
        s = np.asarray(states, dtype=np.int64)
        t = self.table
        if isinstance(t, _AffineTable):  # s < n and k < r keep every product below 2**62
            inside = (s >= 0) & (s < t.n) & (s % t.d == 0)
            return np.where(inside, t.e * (s // t.d * t.k % (t.n // t.d)), -1)
        return np.array([t.get(b, -1) for b in s.ravel().tolist()], dtype=np.int64).reshape(s.shape)

    def restricted(self, states) -> "StateMap":
        """The same map cut down to the domain elements in ``states``."""
        table = {operator.index(b): self.table[b] for b in states if b in self.table}
        return StateMap(self.source_modulus, self.target_modulus, table)


class ClassMismatchError(ValueError):
    """Two seeds with different canonical moduli: no constructed map joins them."""


def _reduction(n: int, a: int) -> tuple[int, int, int]:
    """Validate seed a once; return d = gcd(n, a), r = n/d, w = (a/d)^-1 mod r."""
    check_seed(a, n)
    d = gcd(n, a)
    r = n // d
    return d, r, inverse((a // d) % r, r)


def seed_map(n: int, a: int, a_hat: int) -> StateMap:
    """Unit-multiplication map sending seed a's pattern onto seed a_hat's.

    Both seeds must be units mod n. The map is seed_pair_map's affine map with
    d = 1: b -> k*b mod n with k = a_hat * a^-1, defined on all of Z/nZ, and the
    scaling law of the engine matches the two patterns cell-wise at every t.
    """
    check_residue(a, n)
    check_residue(a_hat, n)
    if gcd(a, n) != 1 or gcd(a_hat, n) != 1:
        raise ValueError(
            "seed map needs unit seeds (coprime to the modulus); "
            "use canonicalize for non-unit seeds"
        )
    return seed_pair_map(n, a, a_hat)


def canonicalize(n: int, a: int) -> tuple[int, StateMap]:
    """Reduce (n, a) to the canonical pair (r, 1) with r = n / gcd(n, a).

    The map is the affine map b -> (b/d)*w mod r on the multiples of
    d = gcd(n, a), with w = (a/d)^-1 mod r, so the seed itself lands on 1.
    Always satisfies map.table[a] == 1, and canonicalizing (r, 1) again
    yields the identity.
    """
    d, r, w = _reduction(n, a)
    return r, StateMap.affine(n, d, w, 1)


def seed_pair_map(n: int, a: int, a_hat: int) -> StateMap:
    """The constructed map between two seeds of the same canonical class.

    a's reduction followed by the inverse of a_hat's, as one affine map:
    b -> d*((b/d)*w*(a_hat/d) mod r) on the multiples of d = gcd(n, a);
    seed_map is its unit-seed case. Seeds from different classes raise
    ClassMismatchError.
    """
    d, r, w = _reduction(n, a)
    _, r_hat, _ = _reduction(n, a_hat)
    if r != r_hat:
        raise ClassMismatchError(
            f"seeds lie in different canonical classes: r_a={r} r_b={r_hat}"
        )
    return StateMap.affine(n, d, w * (a_hat // d) % r, d)


def format_map_lines(f: StateMap) -> str:
    """One ``map b->c`` line per domain element, in ascending order."""
    domain = f.domain()
    return "".join(f"map {b}->{c}\n" for b, c in zip(domain, f.images(domain).tolist()))


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
    pairs = zip(per_state(p.modulus, p.rule, p.t_max, p.cells, f.images), q.cells)
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
    states = np.arange(n)
    luts = np.empty((n - 1, n), dtype=np.int64)
    for lut, (_, f) in zip(luts, reductions):
        lut[:] = f.images(states)  # -1 marks out-of-domain states
    offsets = np.arange(0, luts.size, n).reshape((-1,) + (1,) * rule.dimension)
    rows = evolve_rows([n] * (n - 1) + targets, rule, [*seeds] + [1] * len(targets), t_max)
    pairs = ((luts.take(row[:n - 1] + offsets), row[target_rows]) for row in rows)
    by_r: dict[int, list[Certificate]] = {}
    for cert in _certify(rule, t_max, [(a, 1, f) for a, (_, f) in zip(seeds, reductions)], pairs):
        by_r.setdefault(cert.target_modulus, []).append(cert)
    return [SeedClass(r, tuple(c.source_seed for c in by_r[r]), tuple(by_r[r]))
            for r in sorted(by_r, reverse=True)]
