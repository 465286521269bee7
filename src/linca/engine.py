"""Exact evolution of single-site seeds on the integer lattice Z^D, D <= 3.

The engine is deliberately naive-but-exact: row t is computed from row t-1
by a dense sweep, with no fast exponentiation or transform shortcuts, so it
is the easiest code in the package to trust. Independent recomputation
paths live in the oracle module.

A pattern stores row t as a plain int64 array on its light cone, the box
[-radius*t, radius*t]^D, so the state at site i sits at index i + radius*t
on every axis. The box depends on (rule, t) only: two patterns under one
rule are compared array against array, with no re-boxing. These arrays
are the package's only row type, the seed and the text reader's included.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _advance(cells: np.ndarray, rule: TransitionRule, n: int, radius: int) -> np.ndarray:
    """out[i] = sum_j c_j * in[i + v_j] mod n on the input box grown by radius.

    The grown box covers every site where a nonzero cell can appear.
    Coefficients are reduced mod n here (floor-mod, result in [0, n)), so
    each term adds at most c_j * (n-1) to a cell. ``bound`` tracks that
    running upper bound on ``acc``; the sum is reduced only when the next
    term could carry it past INT64_MAX, and once at the end. Every product
    c_j * in[i] is below n**2 <= 2**62, so a reduced ``acc`` (at most n-1)
    always has room for one more term. For small n that is one ``%`` per
    step instead of one per term.
    """
    in_shape = cells.shape
    out_shape = tuple(extent + 2 * radius for extent in in_shape)
    acc = np.zeros(out_shape, dtype=np.int64)
    bound = 0
    for term in rule.terms:
        c = term.coefficient % n
        if c == 0:
            continue
        if bound + c * (n - 1) > INT64_MAX:
            acc %= n
            bound = n - 1
        window = tuple(
            slice(radius - v, radius - v + extent) for v, extent in zip(term.offset, in_shape)
        )
        acc[window] += c * cells
        bound += c * (n - 1)
    if bound >= n:
        acc %= n
    return acc


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
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    radius = rule_radius(rule)
    cells = [single_site_seed(n, rule.dimension, a)]
    for _ in range(t_max):
        cells.append(_advance(cells[-1], rule, n, radius))
    return Pattern(n, rule, a, tuple(cells))


def reachable_states(pattern: Pattern) -> set[int]:
    """Every state stored anywhere in the rows.

    This is the truncation at horizon t_max of the full reachable-state set:
    rows beyond the pattern's horizon could still introduce new states.
    """
    states: set[int] = set()
    for row in pattern.cells:
        states.update(int(v) for v in np.unique(row))
    return states
