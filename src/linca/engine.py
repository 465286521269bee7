"""Finite-support configurations on the integer lattice and exact evolution.

The engine is deliberately naive-but-exact: row t is computed from row t-1
by a dense sweep, with no fast exponentiation or transform shortcuts, so it
is the easiest code in the package to trust. Independent recomputation
paths live in the oracle module.

A pattern stores row t as a plain int64 array on its light cone, the box
[-radius*t, radius*t]^D, so the state at site i sits at index i + radius*t
on every axis. The box depends on (rule, t) only: two patterns under one
rule are compared array against array, with no re-boxing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rule import TransitionRule, rule_radius
from .zmod import check_modulus, check_seed

MAX_DIMENSION = 3
INT64_MAX = 2**63 - 1


def _site_tuple(site, dimension: int) -> tuple[int, ...]:
    if isinstance(site, (int, np.integer)):
        site = (site,)
    site = tuple(int(x) for x in site)
    if len(site) != dimension:
        raise ValueError(f"site {site} has arity {len(site)}, expected {dimension}")
    return site


@dataclass(frozen=True, eq=False)
class Configuration:
    """States over a finite axis-aligned box; sites outside the box are 0.

    ``cells`` is indexed box-relative: lattice site i lives at
    ``cells[i - origin]``. Zeros may be stored inside the box, but every
    nonzero cell is inside it.
    """

    modulus: int
    dimension: int
    origin: tuple[int, ...]
    cells: np.ndarray

    def __post_init__(self):
        check_modulus(self.modulus)
        if not 1 <= self.dimension <= MAX_DIMENSION:
            raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {self.dimension}")
        if len(self.origin) != self.dimension or self.cells.ndim != self.dimension:
            raise ValueError("origin and cell array must match the dimension")
        if self.cells.dtype != np.int64:
            object.__setattr__(self, "cells", self.cells.astype(np.int64))
        if self.cells.size == 0:
            raise ValueError("cell array must be nonempty")
        if self.cells.min() < 0 or self.cells.max() >= self.modulus:
            raise ValueError("cell values must be reduced to [0, n)")

    @property
    def box(self) -> tuple[tuple[int, int], ...]:
        """Inclusive (lo, hi) bounds of the stored box, per axis."""
        return tuple((o, o + extent - 1) for o, extent in zip(self.origin, self.cells.shape))

    def value_at(self, site) -> int:
        """State at a lattice site; 0 outside the stored box."""
        index = tuple(
            s - o for s, o in zip(_site_tuple(site, self.dimension), self.origin)
        )
        if any(i < 0 or i >= extent for i, extent in zip(index, self.cells.shape)):
            return 0
        return int(self.cells[index])

    def to_dict(self) -> dict:
        """Nonzero cells keyed by site (plain int keys in one dimension)."""
        out = {}
        for index in np.argwhere(self.cells):
            site = tuple(int(i) + o for i, o in zip(index, self.origin))
            key = site[0] if self.dimension == 1 else site
            out[key] = int(self.cells[tuple(index)])
        return out


def single_site_seed(n: int, dimension: int, a: int) -> Configuration:
    """The configuration holding state a at the origin and 0 everywhere else."""
    check_modulus(n)
    if not 1 <= dimension <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in [1, {MAX_DIMENSION}], got {dimension}")
    check_seed(a, n)
    cells = np.full((1,) * dimension, a, dtype=np.int64)
    return Configuration(n, dimension, (0,) * dimension, cells)


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


def step(config: Configuration, rule: TransitionRule) -> Configuration:
    """One synchronous update: out[i] = sum_j c_j * in[i + v_j] mod n.

    The output box is the input box grown by the rule radius on every side.
    """
    if rule.dimension != config.dimension:
        raise ValueError(
            f"rule dimension {rule.dimension} != configuration dimension {config.dimension}"
        )
    radius = rule_radius(rule)
    cells = _advance(config.cells, rule, config.modulus, radius)
    origin = tuple(o - radius for o in config.origin)
    return Configuration(config.modulus, config.dimension, origin, cells)


@dataclass(frozen=True, eq=False)
class Pattern:
    """Rows T^0 u, ..., T^t_max u of one seed's evolution under a fixed rule.

    ``cells[t]`` is row t as a plain int64 array on its light cone
    [-radius*t, radius*t]^D, outer zeros included. ``rows`` is a view
    derived from it on demand, for callers that want Configurations.
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

    @property
    def rows(self) -> tuple[Configuration, ...]:
        """Derived view: each row of ``cells`` as a light-cone Configuration."""
        radius = rule_radius(self.rule)
        return tuple(
            Configuration(self.modulus, self.dimension, (-radius * t,) * self.dimension, row)
            for t, row in enumerate(self.cells)
        )


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
    cells = [single_site_seed(n, rule.dimension, a).cells]
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
