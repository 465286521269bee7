"""Independent recomputation of every CLI output the benchmark checks.

Nothing here imports linca. A rule is a list of (coefficient, offset)
terms; row t of a pattern is a * phi**t mod n, where phi is the rule's
Laurent polynomial, computed by multiplying the previous row by phi on one
fixed array spanning the final light cone. State maps come from the closed
form b -> (b/d) * w mod r with w = (a/d)**-1 mod r, and the text, PGM,
certificate and sweep layouts are rebuilt from their documented formats.
"""

from __future__ import annotations

from math import gcd

import numpy as np


def rule_text(terms) -> str:
    """Rule text in normal form: distinct offsets, ascending, no zero terms."""
    return ";".join(f"{c}@({','.join(str(x) for x in v)})" for c, v in terms)


def radius(terms) -> int:
    return max(max(abs(x) for x in v) for _, v in terms)


def rows(n: int, terms, a: int, t_max: int):
    """Yield rows 0..t_max, each on the final box [-R, R]^D with R = radius * t_max.

    Multiplying by phi sends in[i + v] to out[i] for every term (c, v), a
    roll by -v. Row t's support lies within radius * t of the origin, so a
    roll never wraps a nonzero cell around the box.
    """
    dim = len(terms[0][1])
    reach = radius(terms) * t_max
    row = np.zeros((2 * reach + 1,) * dim, dtype=np.int64)
    row[(reach,) * dim] = a
    yield row
    axes = tuple(range(dim))
    for _ in range(t_max):
        product = np.zeros_like(row)
        for c, v in terms:
            product += (c % n) * np.roll(row, tuple(-x for x in v), axis=axes)
        row = product % n
        yield row


def row_boxes(n: int, terms, a: int, t_max: int) -> list[np.ndarray]:
    """Row t cut to its own box [-radius * t, radius * t]^D, for every t."""
    r = radius(terms)
    reach = r * t_max
    return [row[(slice(reach - r * t, reach + r * t + 1),) * row.ndim]
            for t, row in enumerate(rows(n, terms, a, t_max))]


def reachable(n: int, terms, a: int, t_max: int) -> set[int]:
    """States stored anywhere in the row boxes."""
    return set().union(*(np.unique(box).tolist() for box in row_boxes(n, terms, a, t_max)))


def pattern_text(n: int, terms, a: int, t_max: int) -> str:
    dim = len(terms[0][1])
    header = (
        f"linca-pattern v1 dim={dim} n={n} seed={a} tmax={t_max} radius={radius(terms)}"
    )
    if dim == 1:
        blocks = (" ".join(map(str, row.tolist())) for row in rows(n, terms, a, t_max))
        separator = "\n"
    else:
        blocks = (
            "\n".join(" ".join(map(str, line)) for line in row.tolist())
            for row in rows(n, terms, a, t_max)
        )
        separator = "\n\n"
    return header + "\n" + separator.join(blocks) + "\n"


def pgm_bytes(n: int, terms, a: int, t_max: int) -> bytes:
    """One-dimensional pattern as P5: time down, space across, 0 white."""
    width = 2 * radius(terms) * t_max + 1
    parts = [f"P5\n{width} {t_max + 1}\n255\n".encode("ascii")]
    for row in rows(n, terms, a, t_max):
        parts.append(np.where(row == 0, 255, 255 - row * 255 // (n - 1)).astype(np.uint8).tobytes())
    return b"".join(parts)


def pair_map(n: int, a: int, a_hat: int, states=None) -> dict[int, int]:
    """The constructed map from seed a's pattern onto a_hat's, on ``states``.

    Both seeds share d = gcd(n, a); on the multiples of d (the default
    domain) it is b -> d * ((b/d) * w * (a_hat/d) mod r) with r = n/d and
    w = (a/d)**-1 mod r.
    """
    d = gcd(n, a)
    r = n // d
    k = pow(a // d, -1, r) * (a_hat // d) % r
    if states is None:
        states = range(0, n, d)
    return {b: d * ((b // d) * k % r) for b in sorted(states)}


def canon_map(n: int, a: int) -> tuple[int, dict[int, int]]:
    """(r, table) of the reduction b -> (b/d) * w mod r of seed a onto (r, 1)."""
    d = gcd(n, a)
    r = n // d
    w = pow(a // d, -1, r)
    return r, {b: (b // d) * w % r for b in range(0, n, d)}


def map_lines(table: dict[int, int]) -> str:
    return "".join(f"map {b}->{c}\n" for b, c in table.items())


def certificate(n: int, a: int, rule: str, t_max: int, target_n: int, target_a: int,
                lines: str) -> str:
    return (
        "certificate v1\n"
        f'source n={n} a={a} rule="{rule}" tmax={t_max}\n'
        f"target n={target_n} a={target_a}\n"
        f"{lines}status verified\n"
    )


def canon_output(n: int, a: int, rule: str, t_max: int, certify: bool) -> str:
    r, table = canon_map(n, a)
    lines = map_lines(table)
    out = f"r={r} d={gcd(n, a)}\n{lines}"
    if certify:
        out += certificate(n, a, rule, t_max, r, 1, lines)
    return out


def verify_output(n: int, a: int, a_hat: int, rule: str, t_max: int) -> str:
    return certificate(n, a, rule, t_max, n, a_hat, map_lines(pair_map(n, a, a_hat)))


def witness_line(table: dict[int, int]) -> str:
    return "witness " + " ".join(f"{b}->{c}" for b, c in table.items())


def witnesses_ok(n: int, terms, a: int, a_hat: int, t_max: int, lines: list[str]) -> bool:
    """True if the ``witness`` lines are distinct, include the constructed map,
    and each is a bijection on seed a's reachable states that carries its
    pattern cell for cell onto seed a_hat's, in every row's own box."""
    p, q = row_boxes(n, terms, a, t_max), row_boxes(n, terms, a_hat, t_max)
    states = sorted(set().union(*(np.unique(box).tolist() for box in p)))
    if len(set(lines)) != len(lines) or witness_line(pair_map(n, a, a_hat, states)) not in lines:
        return False
    for line in lines:
        head, *tokens = line.split(" ")
        try:
            pairs = [tuple(int(x) for x in token.split("->")) for token in tokens]
        except ValueError:
            return False
        images = [c for _, c in pairs]
        if (head != "witness" or [b for b, _ in pairs] != states
                or len(set(images)) != len(images) or not all(0 <= c < n for c in images)):
            return False
        lut = np.zeros(n, dtype=np.int64)
        lut[states] = images
        if not all(np.array_equal(lut[x], y) for x, y in zip(p, q)):
            return False
    return True


def sweep_output(states_max: int, steps: int, rules) -> str:
    """Seeds of every n grouped by r = n / gcd(n, a), largest r first."""
    lines = [f"sweep v1 states-max={states_max} steps={steps}"]
    for rule in rules:
        lines.append(f'rule "{rule}"')
        for n in range(2, states_max + 1):
            by_r: dict[int, list[int]] = {}
            for a in range(1, n):
                by_r.setdefault(n // gcd(n, a), []).append(a)
            for r in sorted(by_r, reverse=True):
                seeds = ",".join(map(str, by_r[r]))
                lines.append(f"n={n} r={r} seeds={seeds} status=verified")
    return "\n".join(lines) + "\n"
