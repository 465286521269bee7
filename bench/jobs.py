"""Seeded CLI job lists for the four workloads, and the check of each job's output.

A workload deals one round at a time from a ``random.Random`` seeded by the
workload seed and the round number. Each job carries its expected output,
built lazily by the reference module so that building it stays off the
clock.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref


@dataclass
class Job:
    kind: str
    argv: list[str]
    expected: Callable[[], str]  # the exact stdout
    out: Path | None = None  # a file the job writes ...
    expected_file: Callable[[], bytes] | None = None  # ... and its exact bytes
    witnesses: Callable[[list[str]], bool] | None = None  # test of --search's witness lines
    temp: list[Path] = field(default_factory=list)  # inputs to delete after the job


@dataclass
class Context:
    """What the generators share across the rounds of one run."""

    work_dir: Path
    scale: float = 1.0  # shrinks every size; below 1 only in the self-test
    oracle_keys: set = field(default_factory=set)  # (n, rule, seed, dim) already dealt
    files: itertools.count = field(default_factory=itertools.count)

    def size(self, value: int, floor: int = 2) -> int:
        return max(floor, int(value * self.scale))

    def path(self, suffix: str) -> Path:
        return self.work_dir / f"job{next(self.files)}{suffix}"


def check(job: Job, code: int, stdout: str) -> bool:
    """True if the job exited 0 and its stdout and file match the reference exactly."""
    if code != 0:
        return False
    expected = job.expected()
    if job.witnesses is None:
        ok = stdout == expected
    else:  # the certificate, then "witnesses K" and K witness lines
        lines = stdout[len(expected):].split("\n")
        ok = (
            stdout.startswith(expected)
            and lines[-1] == ""
            and lines[0] == f"witnesses {len(lines) - 2}"
            and job.witnesses(lines[1:-1])
        )
    if job.out is not None:
        ok = ok and job.out.is_file() and job.out.read_bytes() == job.expected_file()
    return ok


# ---------------------------------------------------------------- inputs


def random_rule(rng: random.Random, dim: int, radius: int, terms: int):
    """``terms`` distinct offsets within ``radius``, one of them at exactly
    ``radius``, with nonzero coefficients in [-3, 3], in normal form."""
    offsets = list(itertools.product(range(-radius, radius + 1), repeat=dim))
    while True:
        chosen = rng.sample(offsets, terms)
        if any(max(abs(x) for x in v) == radius for v in chosen):
            break
    return sorted(((rng.choice((-3, -2, -1, 1, 2, 3)), v) for v in chosen), key=lambda t: t[1])


VON_NEUMANN_2D = ((-1, 0), (0, -1), (0, 1), (1, 0))


def random_unit(rng: random.Random, r: int) -> int:
    while True:
        u = rng.randint(1, max(1, r - 1))
        if math.gcd(u, r) == 1:
            return u


def same_class_seeds(rng: random.Random, n: int, unit: bool = False) -> tuple[int, int]:
    """Two seeds with equal gcd with n, so their patterns share a canonical class;
    distinct unless n/gcd is 2, which has a single unit."""
    d = 1 if unit else rng.choice([d for d in range(1, n) if n % d == 0])
    r = n // d
    u = u_hat = random_unit(rng, r)
    while r > 2 and u_hat == u:
        u_hat = random_unit(rng, r)
    return d * u, d * u_hat


def jitter(rng: random.Random, value: float, ctx: Context, floor: int = 2) -> int:
    """``value`` moved by at most 1%, so a slot costs about the same in every round."""
    return ctx.size(round(value * rng.uniform(0.99, 1.01)), floor)


# ---------------------------------------------------------------- job kinds


def evolve_text(n: int, terms, a: int, t_max: int, oracle: bool = False) -> Job:
    argv = ["evolve", "--states", str(n), "--seed", str(a), "--steps", str(t_max),
            f"--rule={ref.rule_text(terms)}", "--dim", str(len(terms[0][1]))]
    if oracle:
        argv.append("--oracle")
    return Job("evolve-oracle" if oracle else "evolve-text", argv,
               lambda: ref.pattern_text(n, terms, a, t_max))


def evolve_pgm(ctx: Context, n: int, terms, a: int, t_max: int) -> Job:
    out = ctx.path(".pgm")
    argv = ["evolve", "--states", str(n), "--seed", str(a), "--steps", str(t_max),
            f"--rule={ref.rule_text(terms)}", "--format", "pgm", "--out", str(out)]
    return Job("evolve-pgm", argv, lambda: "", out=out,
               expected_file=lambda: ref.pgm_bytes(n, terms, a, t_max))


def canon(n: int, terms, a: int, t_max: int, certify: bool) -> Job:
    rule = ref.rule_text(terms)
    argv = ["canon", "--states", str(n), "--seed", str(a), "--steps", str(t_max),
            f"--rule={rule}", "--dim", str(len(terms[0][1]))]
    if certify:
        argv.append("--certify")
    return Job("canon-certify" if certify else "canon", argv,
               lambda: ref.canon_output(n, a, rule, t_max, certify))


def verify(n: int, terms, a: int, a_hat: int, t_max: int, search: bool = False) -> Job:
    rule = ref.rule_text(terms)
    argv = ["verify", "--states", str(n), "--seed-a", str(a), "--seed-b", str(a_hat),
            "--steps", str(t_max), f"--rule={rule}", "--dim", str(len(terms[0][1]))]
    job = Job("verify", argv, lambda: ref.verify_output(n, a, a_hat, rule, t_max))
    if search:
        argv.append("--search")
        job.kind = f"verify-search-{len(terms[0][1])}d"
        job.witnesses = lambda lines: ref.witnesses_ok(n, terms, a, a_hat, t_max, lines)
    return job


def sweep(ctx: Context, rules, states_max: int, steps: int) -> Job:
    texts = [ref.rule_text(terms) for terms in rules]
    path = ctx.path(".rules")
    path.write_text("".join(text + "\n" for text in texts))
    argv = ["sweep", "--states-max", str(states_max), "--steps", str(steps),
            "--rules", str(path)]
    return Job("sweep", argv, lambda: ref.sweep_output(states_max, steps, texts),
               temp=[path])


# ---------------------------------------------------------------- workloads
#
# A workload is a ladder of slots, each with fixed sizes (horizon, modulus,
# radius, term count) that set its cost; the seed picks the rest (rule
# coefficients and offsets, seeds, moduli where the cost does not depend on
# them). So every round costs about the same, and the slots spread the job
# latencies evenly over the workload's range.


def deep_1d(rng: random.Random, ctx: Context) -> list[Job]:
    """Long 1D horizons: engine row sweep, per-row verify bookkeeping, rendering."""
    jobs = []
    # (kind, radius, horizon); r=1 rules use all 3 offsets, r=2 rules 4 of 5
    for kind, radius, horizon in (
        ("text", 1, 512), ("text", 2, 576), ("text", 1, 832),
        ("pgm", 2, 704), ("pgm", 1, 1152), ("pgm", 1, 1600), ("pgm", 1, 2048),
        ("certify", 2, 960), ("certify", 1, 1408), ("certify", 1, 1920),
        ("verify", 2, 1024), ("verify", 1, 1664), ("verify", 1, 2048),
    ):
        terms = random_rule(rng, 1, radius, radius + 2)
        t_max = jitter(rng, horizon, ctx)
        if kind == "text":  # n <= 10 keeps one digit per cell, so text size is fixed
            n = rng.randint(4, 10)
            jobs.append(evolve_text(n, terms, rng.randint(1, n - 1), t_max))
            continue
        n = rng.randint(4, 16)
        if kind == "pgm":
            jobs.append(evolve_pgm(ctx, n, terms, rng.randint(1, n - 1), t_max))
        elif kind == "certify":
            jobs.append(canon(n, terms, rng.randint(1, n - 1), t_max, True))
        else:
            jobs.append(verify(n, terms, *same_class_seeds(rng, n), t_max))
    return jobs


def sweep_workload(rng: random.Random, ctx: Context) -> list[Job]:
    """Many short evolve and verify calls: per-call Python overhead."""
    jobs = []
    # (states-max, steps, radius); the cost grows about as states-max**2 * steps,
    # which rises by a factor of about 1.2 from one slot to the next
    for states_max, steps, radius in (
        (12, 32, 1), (13, 33, 2), (14, 34, 1), (16, 31, 2), (17, 33, 1),
        (18, 35, 2), (20, 34, 1), (22, 34, 2), (24, 34, 1),
    ):
        rule = random_rule(rng, 1, radius, radius + 2)
        jobs.append(sweep(ctx, [rule], ctx.size(states_max, 3), jitter(rng, steps, ctx)))
    return jobs


def big_modulus(rng: random.Random, ctx: Context) -> list[Job]:
    """Large n, short horizons: state-map construction and printing grow with n."""
    jobs = []
    # (kind, map size n/d, d); verify takes unit seeds, so d = 1 and n is the size.
    # Costs grow by a factor of about 1.4 from one slot to the next.
    for kind, size, d in (
        ("canon", 13_600, 1), ("certify", 14_000, 3), ("verify", 9_400, 1),
        ("canon", 37_000, 1), ("certify", 38_700, 1), ("canon", 73_600, 2),
        ("verify", 36_500, 1), ("certify", 105_000, 2), ("verify", 71_000, 1),
    ):
        n = d * jitter(rng, size, ctx, 5)
        terms = random_rule(rng, 1, rng.randint(1, 2), 3)
        t_max = rng.randint(8, 32)
        if kind == "verify":
            jobs.append(verify(n, terms, *same_class_seeds(rng, n, unit=True), t_max))
        else:
            a = d * random_unit(rng, n // d)
            jobs.append(canon(n, terms, a, t_max, kind == "certify"))
    return jobs


def oracle_multid(rng: random.Random, ctx: Context) -> list[Job]:
    """Exhaustive witness search in 2D and 3D and the recursive --oracle check in 2D.

    3D appears only under verify: the text and PGM writers support D <= 2,
    so a 3D evolve always exits 2.
    """
    jobs = []
    # 2D search over (k-1)! bijections: (n, reachable-state count k, horizon)
    for n, k, horizon in ((7, 7, 20), (8, 8, 14)):
        t_max = jitter(rng, horizon, ctx)
        for _ in range(200):
            terms = random_rule(rng, 2, 1, 4)
            a, a_hat = same_class_seeds(rng, n, unit=True)
            if len(ref.reachable(n, terms, a, t_max)) == k:
                break
        jobs.append(verify(n, terms, a, a_hat, t_max, search=True))
    # 3D search: five states at most, so the engine's T**4 cells do the work
    for horizon in (16, 18):
        jobs.append(verify(5, random_rule(rng, 3, 1, 4),
                           *same_class_seeds(rng, 5, unit=True), jitter(rng, horizon, ctx),
                           search=True))
    # --oracle recomputes every cell up to t = 20. oracle._cell's memo lives for
    # the whole process, so no two of these jobs share (n, rule, seed, dim).
    for horizon in (10, 11, 12, 14, 16):
        while True:
            n = rng.randint(5, 16)
            # the four nearest neighbours: the memo's size, and so the cost,
            # depends on the offsets, so only the coefficients vary
            terms = [(rng.choice((-3, -2, -1, 1, 2, 3)), v) for v in VON_NEUMANN_2D]
            a = rng.randint(1, n - 1)
            key = (n, ref.rule_text(terms), a, 2)
            if key not in ctx.oracle_keys:
                ctx.oracle_keys.add(key)
                break
        jobs.append(evolve_text(n, terms, a, jitter(rng, horizon, ctx), oracle=True))
    return jobs


WORKLOADS = {
    "deep-1d": deep_1d,
    "sweep": sweep_workload,
    "big-modulus": big_modulus,
    "oracle-multid": oracle_multid,
}


def deal(workload: str, seed: int, round_no: int, ctx: Context) -> list[Job]:
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}/{round_no}"), ctx)
