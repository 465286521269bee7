"""Exact evolution of single-site seeds on the integer lattice Z^D, D <= 3.

The engine is deliberately naive-but-exact: row t is computed from row t-1
by a dense sweep, with no fast exponentiation or transform shortcuts, so it
is the easiest code in the package to trust. Independent recomputation
paths live in the oracle module.

A pattern stores row t as a plain int64 array on its light cone, the box
[-radius*t, radius*t]^D, so the state at site i sits at index i + radius*t
on every axis. The box depends on (rule, t) only: two patterns under one
rule are compared array against array, with no re-boxing. These arrays
are the package's only row type, the seed and the text reader's included;
a step sums in the narrowest exact integer type, but its rows leave as int64.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .rule import TransitionRule, rule_radius
from .zmod import check_modulus, check_seed

MAX_DIMENSION = 3
INT64_MAX = 2**63 - 1


def single_site_seed(n: int, dimension: int, a: int) -> np.ndarray:
    """Row 0 of seed a's pattern: the single cell (1,)*D holding a, the origin."""
    check_modulus(n)
    if not 1 <= dimension <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {dimension}")
    check_seed(a, n)
    return np.full((1,) * dimension, a, dtype=np.int64)


def _kernel(rule: TransitionRule, n, radius: int) -> Callable[[np.ndarray], np.ndarray]:
    """The step out[i] = sum_j c_j * in[i + v_j] mod n on the trailing D axes, grown by radius.

    ``n`` is one modulus or a column of them, one per batch row; each c_j is reduced per
    modulus once. One rule decides overflow: the exact sum of a cell is at most
    S = sum_j max c_j * (max n - 1), and the step sums in the first of int16, int32 whose
    max holds both S and max n, else in int64. Only when S passes ``INT64_MAX`` does the
    cell reduce before each term after the first: a reduced cell plus one term is below
    n + n**2 < 2**63. The final ``%`` always runs.
    """
    n = np.asarray(n, dtype=np.int64)
    top = int(n.max()) - 1
    reduced = [(t.offset, np.asarray(t.coefficient % n.astype(object), dtype=np.int64))
               for t in rule.terms]
    total = sum(int(c.max()) * top for _, c in reduced)
    dtype = next((d for d in (np.int16, np.int32) if max(total, top + 1) <= np.iinfo(d).max),
                 np.int64)
    terms = [(offset, c.astype(dtype)) for offset, c in reduced if c.any()]
    wide = total > INT64_MAX
    n = n.astype(dtype)

    def advance(cells: np.ndarray) -> np.ndarray:
        in_shape = cells.shape[-rule.dimension:]
        out_shape = cells.shape[:-rule.dimension] + tuple(e + 2 * radius for e in in_shape)
        acc = np.zeros(out_shape, dtype=dtype)
        for j, (offset, c) in enumerate(terms):
            if j and wide:
                acc %= n
            window = tuple(slice(radius - v, radius - v + e) for v, e in zip(offset, in_shape))
            acc[(...,) + window] += c * cells
        acc %= n
        return acc

    return advance


def _advance(cells: np.ndarray, rule: TransitionRule, n, radius: int) -> np.ndarray:
    return _kernel(rule, n, radius)(cells).astype(np.int64, copy=False)


def evolve_rows(n, rule: TransitionRule, seeds, t_max: int) -> Iterator[np.ndarray]:
    """Rows 0..t_max of single-site seeds by one ``_kernel`` per run, made as asked for.

    A seed a under modulus n gives ``Pattern.cells`` rows; sequences give (S,) + cone rows.
    The rows are carried in the kernel's dtype and yielded as int64.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    shape = np.shape(seeds) + (1,) * rule.dimension
    pairs = zip(np.asarray(n, dtype=object).flat, np.asarray(seeds, dtype=object).flat)
    row = np.reshape([single_site_seed(m, rule.dimension, a) for m, a in pairs], shape)
    advance = _kernel(rule, np.reshape(n, shape), rule_radius(rule))
    rows = accumulate(range(t_max), lambda cells, _: advance(cells), initial=row)
    return (cells.astype(np.int64, copy=False) for cells in rows)


@dataclass(frozen=True, eq=False)
class Pattern:
    """Rows T^0 u, ..., T^t_max u of one seed's evolution under a fixed rule.

    ``cells[t]`` is row t as a plain int64 array on its light cone
    [-radius*t, radius*t]^D, outer zeros included: the state at site i is
    ``cells[t][i + radius*t]`` on every axis, and sites outside hold 0.
    """

    modulus: int
    rule: TransitionRule
    seed: int
    cells: tuple[np.ndarray, ...]

    @property
    def t_max(self) -> int:
        return len(self.cells) - 1

    @property
    def dimension(self) -> int:
        return self.rule.dimension


def check_comparable(p: Pattern, q: Pattern) -> None:
    """Require one rule (so one dimension and one box per row) and one horizon."""
    if p.rule != q.rule:
        raise ValueError("patterns must share the transition rule")
    if p.t_max != q.t_max:
        raise ValueError("patterns must share the horizon")


def evolve(n: int, rule: TransitionRule, a: int, t_max: int) -> Pattern:
    """Evolve the single-site seed a for t_max steps."""
    return Pattern(n, rule, a, tuple(evolve_rows(n, rule, a, t_max)))


def per_state(n: int, rule: TransitionRule, t_max: int, rows: Iterable[np.ndarray],
              fn: Callable[[np.ndarray], np.ndarray]) -> Iterator[np.ndarray]:
    """fn of every row t = 0..t_max, from the n-entry table fn(arange(n)) while n is at most
    the cell count sum_t (2*radius*t + 1)**D (no table outweighs the pattern), else per row."""
    radius = rule_radius(rule)
    small = n <= sum((2 * radius * t + 1) ** rule.dimension for t in range(t_max + 1))
    return map(fn(np.arange(n)).take if small else fn, rows)


def reachable_states(pattern: Pattern) -> set[int]:
    """Every state stored anywhere in the rows.

    This is the truncation at horizon t_max of the full reachable-state set:
    rows beyond the pattern's horizon could still introduce new states.
    """
    states: set[int] = set()
    for row in pattern.cells:
        states.update(int(v) for v in np.unique(row))
    return states
