"""Reference implementations that recompute results by independent routes.

Nothing here reuses the engine's row sweep: cells are recomputed by
top-down memoized recursion, isomorphism witnesses are found by exhaustive
bijection enumeration, and the two-state nearest-neighbor pattern is
rebuilt from Pascal's triangle. These paths exist to catch the engine and
the constructed maps lying in the same way. ``first_disagreement`` walks
an engine pattern against the recursion, as ``linca evolve --oracle`` does.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import lru_cache
from operator import add

import numpy as np

from .engine import Pattern, check_comparable, reachable_states
from .equiv import StateMap
from .rule import TransitionRule, rule_radius
from .zmod import check_seed

T_BOUND = 20
PARITY_T_BOUND = 64
SEARCH_BOUND = 8


def _site_tuple(site, dimension: int) -> tuple[int, ...]:
    if isinstance(site, (int, np.integer)):
        site = (site,)
    site = tuple(int(x) for x in site)
    if len(site) != dimension:
        raise ValueError(f"site {site} has arity {len(site)}, expected {dimension}")
    return site


def naive_cell(n: int, rule: TransitionRule, a: int, t: int, site) -> int:
    """One cell of the pattern at time t, by memoized top-down recursion.

    ``site`` is a plain int in one dimension or a coordinate tuple
    otherwise. Bounded at t <= 20: without the light-cone memo the
    recursion would blow up exponentially, with it the bound keeps the memo
    small. The memo lives for this one call; to check many cells of one
    pattern, share one ``cell_oracle`` instead.
    """
    with cell_oracle(n, rule, a) as cell:
        if t < 0 or t > T_BOUND:
            raise ValueError(f"t must be in [0, {T_BOUND}] for the recursive oracle, got {t}")
        return cell(t, _site_tuple(site, rule.dimension))


@contextmanager
def cell_oracle(n: int, rule: TransitionRule, a: int) -> Iterator[Callable]:
    """Validate (n, a) once and yield cell(t, site) for seed a's pattern.

    ``site`` must be a coordinate tuple of the rule's arity and t should
    stay within T_BOUND; neither is checked per call. The memo belongs to
    this one check and is emptied when the ``with`` block ends, so no cell
    outlives it.
    """
    check_seed(a, n)
    terms = tuple((term.coefficient % n, term.offset) for term in rule.terms)

    @lru_cache(maxsize=None)
    def cell(t: int, site: tuple[int, ...]) -> int:
        if t == 0:
            return 0 if any(site) else a
        total = 0
        for c, offset in terms:
            total = (total + c * cell(t - 1, tuple(map(add, site, offset)))) % n
        return total

    try:
        yield cell
    finally:
        cell.cache_clear()


def first_disagreement(pattern: Pattern) -> tuple[int, tuple[int, ...]] | None:
    """The first (t, site) where the pattern differs from the recursion, or None.

    Rows t <= T_BOUND are walked in (t, then lexicographic site) order with one memo.
    """
    radius = rule_radius(pattern.rule)
    with cell_oracle(pattern.modulus, pattern.rule, pattern.seed) as cell:
        for t, row in enumerate(pattern.cells[:T_BOUND + 1]):
            for index, value in zip(np.ndindex(row.shape), row.ravel().tolist()):
                site = tuple(i - radius * t for i in index)
                if value != cell(t, site):
                    return t, site
    return None


def search_state_maps(p: Pattern, q: Pattern) -> list[StateMap]:
    """All state bijections under which p lands cell-for-cell on q.

    Enumerates every bijection between the two truncated reachable-state
    sets that pins 0 to 0, and keeps those that match the patterns at every
    site of the light cone for every t <= t_max. An empty list means
    no finite-horizon witness exists. Results are ordered lexicographically
    by table, the order in which permutations of the sorted candidates come;
    since every domain state occurs in some cell, at most one can match.
    Cells are looked up by their index among the sorted reachable states, so
    nothing sized by the modulus is allocated.
    """
    check_comparable(p, q)

    source_states = reachable_states(p)
    target_states = reachable_states(q)
    if len(source_states) > SEARCH_BOUND or len(target_states) > SEARCH_BOUND:
        raise ValueError(
            f"reachable-state sets exceed the search bound ({SEARCH_BOUND})"
        )
    if len(source_states) != len(target_states) or (0 in source_states) != (0 in target_states):
        return []  # no bijection pinning 0 to 0 exists

    # the shared rule gives both patterns the same row boxes
    states = sorted(source_states)
    index = np.searchsorted(states, np.concatenate([row.ravel() for row in p.cells]))
    dst_all = np.concatenate([row.ravel() for row in q.cells])
    pinned = [0] if 0 in source_states else []

    found = []
    for perm in itertools.permutations(sorted(target_states - {0})):
        image = np.array(pinned + list(perm))  # image[i] is the image of states[i]
        if np.array_equal(image[index], dst_all):
            found.append(StateMap(p.modulus, q.modulus, dict(zip(states, image.tolist()))))
    return found


def binomial_parity_row(t: int) -> list[int]:
    """Row t of the two-state nearest-neighbor-sum pattern on sites [-t, t].

    Computed from Pascal's triangle over the integers and reduced mod 2:
    the cell at site i is C(t, (t+i)/2) mod 2 when t+i is even, else 0.
    """
    if t < 0 or t > PARITY_T_BOUND:
        raise ValueError(f"t must be in [0, {PARITY_T_BOUND}], got {t}")
    binomials = [1]
    for _ in range(t):
        binomials = [1] + [x + y for x, y in zip(binomials, binomials[1:])] + [1]
    row = [0] * (2 * t + 1)
    for k, value in enumerate(binomials):
        row[2 * k] = value % 2  # site i = 2k - t; odd t+i stays 0
    return row
