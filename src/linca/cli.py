"""Command-line front end: evolve and render patterns, canonicalize seeds,
verify pattern isomorphisms, and sweep seed partitions over many state
counts.

Commands only parse flags, call the library and write what it returns;
a ValueError, OSError or MemoryError from the library is reported as
exit 2, with one ``error:`` line on stderr.

Exit codes: 0 success/verified, 1 falsified, 2 usage or parse error,
3 oracle disagreement, 4 seeds in incomparable canonical classes.
All output is deterministic: identical flags give byte-identical results.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from itertools import chain, islice
from pathlib import Path

from . import oracle, render
from .engine import Pattern, evolve, evolve_rows
from .equiv import (
    ClassMismatchError,
    _format_site,
    canonicalize,
    equivalence_classes,
    format_map_lines,
    seed_pair_map,
    verify_isomorphism,
)
from .rule import format_rule, parse_rule

DEFAULT_RULE = "1@(-1);1@(1)"
DEFAULT_STEPS = 15

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3
EXIT_CLASS_MISMATCH = 4


def cmd_evolve(args: argparse.Namespace) -> int:
    rule = parse_rule(args.rule, args.dim)
    # refuse what the writer cannot lay out before evolving anything
    render.check_dimension(args.dim, args.format)
    if args.format == "pgm" and not args.out:
        raise ValueError("--format pgm requires --out")
    rows = evolve_rows(args.states, rule, args.seed, args.steps)
    if args.oracle:  # checked before the first byte is written
        head = Pattern(args.states, rule, args.seed, tuple(islice(rows, oracle.T_BOUND + 1)))
        disagreement = oracle.first_disagreement(head)
        if disagreement is not None:
            t, site = disagreement
            print(f"oracle disagreement at t={t} i={_format_site(site)}")
            return EXIT_ORACLE
        rows = chain(head.cells, rows)
    if args.format == "pgm":  # each writer allocates its final box before it writes
        render.render_rows(args.states, rule, args.steps, rows, args.out)
        return EXIT_OK
    chunks = render.rows_to_text(args.states, args.seed, rule, args.steps, rows)
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as out:
        out.writelines(chunks)
    return EXIT_OK


def cmd_canon(args: argparse.Namespace) -> int:
    rule = parse_rule(args.rule, args.dim)
    r, reduction = canonicalize(args.states, args.seed)
    certificate = None
    if args.certify:  # evolve first: a refused run must leave nothing on stdout
        source = evolve(args.states, rule, args.seed, args.steps)
        target = evolve(r, rule, 1, args.steps)
        certificate = verify_isomorphism(source, target, reduction)
    print(f"r={r} d={args.states // r}")
    sys.stdout.write(format_map_lines(reduction))
    if certificate is None:
        return EXIT_OK
    sys.stdout.write(certificate.serialize())
    return EXIT_OK if certificate.verified else EXIT_FALSIFIED


def cmd_verify(args: argparse.Namespace) -> int:
    rule = parse_rule(args.rule, args.dim)
    n, a, a_hat = args.states, args.seed_a, args.seed_b
    try:
        mapping = seed_pair_map(n, a, a_hat)
    except ClassMismatchError as err:
        print(err)
        return EXIT_CLASS_MISMATCH
    p = evolve(n, rule, a, args.steps)
    q = evolve(n, rule, a_hat, args.steps)
    certificate = verify_isomorphism(p, q, mapping)
    # search first: a search that fails must not leave a certificate on stdout
    witnesses = oracle.search_state_maps(p, q) if args.search else None
    sys.stdout.write(certificate.serialize())
    if witnesses is not None:
        print(f"witnesses {len(witnesses)}")
        for witness in witnesses:
            pairs = " ".join(f"{b}->{witness.table[b]}" for b in witness.domain())
            print(f"witness {pairs}")
    return EXIT_OK if certificate.verified else EXIT_FALSIFIED


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        lines = Path(args.rules).read_text().splitlines()
    except OSError as err:
        raise ValueError(f"cannot read rules file: {err}") from None
    rules = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rules.append(parse_rule(line, args.dim))
        except ValueError as err:
            raise ValueError(f"rules file line {lineno}: {err}") from None
    if not rules:
        raise ValueError("rules file contains no rules")

    # the report is written once, whole: a refused sweep leaves nothing on stdout
    report = [f"sweep v1 states-max={args.states_max} steps={args.steps}"]
    any_falsified = False
    for rule in rules:
        report.append(f'rule "{format_rule(rule)}"')
        for n in range(2, args.states_max + 1):
            for seed_class in equivalence_classes(n, rule, args.steps):
                status = "verified" if seed_class.verified else "falsified"
                any_falsified = any_falsified or not seed_class.verified
                seeds = ",".join(str(a) for a in seed_class.seeds)
                r = seed_class.canonical_modulus
                report.append(f"n={n} r={r} seeds={seeds} status={status}")
    sys.stdout.write("\n".join(report) + "\n")
    return EXIT_FALSIFIED if any_falsified else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linca",
        description="n-state linear cellular automata from single-site seeds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--rule", default=DEFAULT_RULE, help=f"rule text (default {DEFAULT_RULE!r})")
        p.add_argument("--dim", type=int, default=1, help="lattice dimension (default 1)")
        p.add_argument("--steps", type=int, default=DEFAULT_STEPS,
                       help=f"number of time steps (default {DEFAULT_STEPS})")

    p_evolve = sub.add_parser("evolve", help="evolve a seed and write the pattern")
    p_evolve.add_argument("--states", type=int, required=True, help="number of states n")
    p_evolve.add_argument("--seed", type=int, required=True, help="seed value at the origin")
    add_common(p_evolve)
    p_evolve.add_argument("--out", help="output path (stdout for text if omitted)")
    p_evolve.add_argument("--format", choices=("text", "pgm"), default="text")
    p_evolve.add_argument("--oracle", action="store_true",
                          help="cross-check rows against the recursive oracle")
    p_evolve.set_defaults(func=cmd_evolve)

    p_canon = sub.add_parser("canon", help="reduce (n, a) to its canonical (r, 1)")
    p_canon.add_argument("--states", type=int, required=True)
    p_canon.add_argument("--seed", type=int, required=True)
    add_common(p_canon)
    p_canon.add_argument("--certify", action="store_true",
                         help="also evolve both patterns and print the certificate")
    p_canon.set_defaults(func=cmd_canon)

    p_verify = sub.add_parser("verify", help="verify two seeds' patterns are isomorphic")
    p_verify.add_argument("--states", type=int, required=True)
    p_verify.add_argument("--seed-a", type=int, required=True)
    p_verify.add_argument("--seed-b", type=int, required=True)
    add_common(p_verify)
    p_verify.add_argument("--search", action="store_true",
                          help="also search for the witness state map cell by cell")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser("sweep", help="partition seeds for every n up to a bound")
    p_sweep.add_argument("--states-max", type=int, required=True)
    p_sweep.add_argument("--rules", required=True, help="file with one rule per line")
    p_sweep.add_argument("--dim", type=int, default=1)
    p_sweep.add_argument("--steps", type=int, default=DEFAULT_STEPS)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
