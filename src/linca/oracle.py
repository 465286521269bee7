"""Reference implementations that recompute results by independent routes.

Nothing here reuses the engine's row sweep: cells are recomputed by
top-down memoized recursion, the isomorphism witness is read off the
pairs of corresponding cells as the one state map they force, and the
two-state nearest-neighbor pattern is rebuilt from the parity of binomial
coefficients by Lucas's theorem. These paths exist to catch the engine and
the constructed maps lying in the same way. ``first_disagreement`` walks
an engine pattern against the recursion, as ``linca evolve --oracle`` does.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from contextlib import contextmanager
from functools import lru_cache
from operator import add

import numpy as np

from .engine import Pattern, check_comparable
from .equiv import StateMap
from .rule import TransitionRule, rule_radius
from .zmod import check_seed

T_BOUND = 20


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

    The shared rule gives both patterns one cell layout, so a bijection f
    with f(p) = q is forced cell by cell: f(p[t][i]) = q[t][i]. The
    distinct (p cell, q cell) pairs are therefore the only candidate. It is
    a witness exactly when no state of either side occurs in two pairs and
    0 pairs only with 0. The result holds that one map, over p's reachable
    states up to t_max, or is empty: no finite-horizon witness exists.
    Nothing sized by the modulus is allocated.
    """
    check_comparable(p, q)
    m = q.modulus
    # both moduli are below 2**31, so every key b*m + c is below 2**62
    keys = np.concatenate([(b * m + c).ravel() for b, c in zip(p.cells, q.cells)])
    pairs = np.unique(keys)
    source, target = pairs // m, pairs % m  # source comes out ascending
    if (
        np.any(source[1:] == source[:-1])
        or len(np.unique(target)) != len(target)
        or np.any((source == 0) != (target == 0))
    ):
        return []
    return [StateMap(p.modulus, q.modulus, dict(zip(source.tolist(), target.tolist())))]


def binomial_parity_row(t: int) -> list[int]:
    """Row t of the two-state nearest-neighbor-sum pattern on sites [-t, t].

    The cell at site i is C(t, k) mod 2 with k = (t+i)/2 when t+i is even,
    else 0; by Lucas's theorem C(t, k) is odd exactly when k & (t-k) == 0.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    row = [0] * (2 * t + 1)
    for k in range(t + 1):
        row[2 * k] = int(k & (t - k) == 0)  # site i = 2k - t; odd t+i stays 0
    return row
