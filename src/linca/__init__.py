"""n-state linear cellular automata from single-site seeds.

Exact evolution over Z/nZ, constructive reduction of any seed a to the
canonical pair (n/gcd(n, a), 1), and machine-checked certificates that two
spatio-temporal patterns are state-isomorphic over a finite horizon. Every
row is a plain int64 array on its light cone, as stored in ``Pattern.cells``.
"""

from .engine import Pattern, evolve, reachable_states, single_site_seed
from .equiv import (
    Certificate,
    SeedClass,
    StateMap,
    canonicalize,
    equivalence_classes,
    seed_map,
    seed_pair_map,
    verify_isomorphism,
)
from .oracle import binomial_parity_row, naive_cell, search_state_maps
from .render import parse_pattern_text, pattern_to_text, render_image
from .rule import (
    RuleSyntaxError,
    RuleTerm,
    TransitionRule,
    format_rule,
    make_rule,
    parse_rule,
    rule_radius,
)
from .zmod import gcd, inverse, units

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Pattern",
    "RuleSyntaxError",
    "RuleTerm",
    "SeedClass",
    "StateMap",
    "TransitionRule",
    "binomial_parity_row",
    "canonicalize",
    "equivalence_classes",
    "evolve",
    "format_rule",
    "gcd",
    "inverse",
    "make_rule",
    "naive_cell",
    "parse_pattern_text",
    "parse_rule",
    "pattern_to_text",
    "reachable_states",
    "render_image",
    "rule_radius",
    "search_state_maps",
    "seed_map",
    "seed_pair_map",
    "single_site_seed",
    "units",
    "verify_isomorphism",
]
