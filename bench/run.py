"""linca's benchmark: seeded CLI jobs run in process, one at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; linca is imported from its ``src``.
Jobs are argument lists for ``linca.cli.main``, run back to back by one
client (a closed loop) in this one process, with stdout captured. They
come in rounds: a round is the workload's fixed job list, dealt afresh from
the seed for every round. Rounds repeat until ``--seconds`` of job time
and at least MIN_JOBS jobs are done. After each job, off the clock, the
output is compared with an independent reference and the process is reset
to how a fresh CLI process would find it.

Times are reported in reference-speed seconds. The shared hosts this runs
on change speed by up to 40% for tens of seconds at a time, and linca's
timings move with them. So a fixed kernel (``machine_speed``) is timed
right before and right after each timed section, and the section's time is
scaled by REFERENCE_KERNEL_S over the kernel's time. The raw times are
recorded beside the metrics.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` rounds alternate between untraced and traced, and it reports
the per-layer metrics of the traced rounds (per round) and the tracing
overhead. The line before the last records the environment and the run.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import jobs
import tracing

try:
    LIBC = ctypes.CDLL(None)
    LIBC.malloc_trim  # glibc only
except (OSError, AttributeError):
    LIBC = None

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

TAIL_PERCENTILE = 75
MIN_JOBS = 40  # ten jobs lie above the 75th percentile
SETUP_REPEATS = 5
TIME_LIMIT_S = 120  # deal no further round after this, so a run ends within 180 s
# machine_speed() on a 2-vCPU Intel Xeon (KVM guest), Python 3.11.7, numpy 2.4.6,
# at the fast end of that host's range
REFERENCE_KERNEL_S = 0.0065

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_share": "share",
}

PER_LAYER = {
    "cli.main.calls": "count/round",
    "cli.main.self_s": "s/round",
    "cli.stdout_bytes": "B/round",
    "rule.parse_rule.calls": "count/round",
    "rule.parse_rule.self_s": "s/round",
    "engine.evolve.calls": "count/round",
    "engine.evolve.self_s": "s/round",
    "engine.evolve.cells": "count/round",
    "engine.evolve.bytes_computed": "B/round",
    "engine.step.calls": "count/round",
    "engine.step.self_s": "s/round",
    "engine.reachable_states.self_s": "s/round",
    "equiv.canonicalize.calls": "count/round",
    "equiv.canonicalize.self_s": "s/round",
    "equiv.canonicalize.table_entries": "count/round",
    "equiv.seed_pair_map.self_s": "s/round",
    "equiv.seed_pair_map.table_entries": "count/round",
    "equiv.verify_isomorphism.calls": "count/round",
    "equiv.verify_isomorphism.self_s": "s/round",
    "equiv.verify_isomorphism.verified_ratio": "share",
    "equiv.equivalence_classes.self_s": "s/round",
    "equiv.Certificate.serialize.self_s": "s/round",
    "oracle.search_state_maps.calls": "count/round",
    "oracle.search_state_maps.self_s": "s/round",
    "oracle.search_state_maps.permutations": "count/round",
    "oracle.search_state_maps.witness_ratio": "share",
    "oracle.naive_cell.calls": "count/round",
    "oracle.naive_cell.self_s": "s/round",
    "render.pattern_to_text.self_s": "s/round",
    "render.pattern_to_text.bytes": "B/round",
    "render.render_image.self_s": "s/round",
    "render.render_image.bytes_written": "B/round",
    "trace.overhead_share": "share",
}


def machine_speed() -> float:
    """Seconds the host takes right now for a fixed kernel.

    The kernel builds a dict of 20 000 ints, a set of its values and one
    formatted line per entry, much as linca builds and prints state maps.
    Of the kernels tried (arithmetic, small numpy operations, allocation,
    formatting, large arrays), its time tracked the time of every job kind
    most closely across the host's fast and slow spells. The garbage
    collector is paused so the heap a job leaves cannot slow it.
    """
    gc.disable()
    start = time.perf_counter()
    table = {b: b * 7 % 100003 for b in range(20000)}
    images = set(table.values())
    text = "".join(f"map {b}->{c}\n" for b, c in table.items())
    elapsed = time.perf_counter() - start
    del table, images, text
    gc.enable()
    return elapsed


def timed(section):
    """(result, raw seconds, reference-speed seconds) of ``section()``."""
    before = machine_speed()
    start = time.perf_counter()
    result = section()
    elapsed = time.perf_counter() - start
    speed = math.sqrt(before * machine_speed())
    return result, elapsed, elapsed * REFERENCE_KERNEL_S / speed


def load_linca():
    """Import linca.cli from the checkout's sources, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import linca
    import linca.cli
    import linca.oracle

    if Path(linca.__file__).resolve().parent != SRC / "linca":
        raise ImportError(f"linca imported from {linca.__file__}, not from {SRC}")
    return linca.cli, linca.oracle


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median (reference-speed, raw) wall time of ``import linca.cli`` in a
    fresh interpreter, which then times machine_speed() itself. One extra
    import runs first and is dropped: it may compile bytecode."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import linca.cli; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
        "from run import machine_speed; print(t, min(machine_speed() for _ in range(7)))"
    )
    scaled, raw = [], []
    for attempt in range(repeats + 1):
        done = subprocess.run(
            [sys.executable, "-E", "-c", code, str(SRC), str(Path(__file__).parent)],
            capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
        )
        import_s, speed = map(float, done.stdout.split())
        if attempt:
            raw.append(import_s)
            scaled.append(import_s * REFERENCE_KERNEL_S / speed)
    return statistics.median(scaled), statistics.median(raw)


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def fresh_process(oracle) -> None:
    """Leave the process as the next CLI call would find a new one: without the
    oracle's cell memo, and with freed memory handed back to the system, so a
    job's peak RSS does not sit on heap that earlier jobs left behind."""
    cache_clear = getattr(getattr(oracle, "_cell", None), "cache_clear", None)
    if cache_clear is not None:
        cache_clear()
    gc.collect()
    if LIBC is not None:
        LIBC.malloc_trim(0)


def run_job(cli, argv: list[str]) -> tuple[object, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse refused the arguments
        code = exc.code
    except Exception:  # a job that raises fails; the run goes on
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
        min_jobs: int = MIN_JOBS, corrupt=None) -> tuple[dict, dict]:
    """Run one workload; return (result, info) for the last two output lines.

    ``corrupt``, used by the self-test, edits each captured stdout before
    its check.
    """
    cli, oracle = load_linca()
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _run(cli, oracle, work, workload, seed, seconds, trace, scale, min_jobs, corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(cli, oracle, work, workload, seed, seconds, trace, scale, min_jobs, corrupt):
    ctx = jobs.Context(work, scale)
    tracer = tracing.Tracer() if trace else None
    rounds = []  # (traced, raw seconds, reference-speed seconds) of each round
    latencies, raw_latencies = [], []  # untraced jobs
    by_kind = {}
    job_kinds = []  # kind of each job, by job id
    attempted = failed = traced_bytes = 0
    began = time.monotonic()

    def more() -> bool:
        if time.monotonic() - began > TIME_LIMIT_S:
            return False
        clock = sum(raw for _, raw, _ in rounds)
        if trace:
            return not any(traced for traced, _, _ in rounds) or clock < seconds
        return clock < seconds or attempted < min_jobs

    while more():
        traced = trace and len(rounds) % 2 == 1
        dealt = jobs.deal(workload, seed, len(rounds), ctx)
        if traced:
            tracer.install()
        round_raw = round_ref = 0.0
        for job in dealt:
            job_kinds.append(job.kind)
            if tracer is not None:
                tracer.current_job = attempted
            (code, stdout, stderr), raw, ref = timed(lambda: run_job(cli, job.argv))
            round_raw += raw
            round_ref += ref
            if traced:
                traced_bytes += len(stdout.encode())
            else:
                latencies.append(ref)
                raw_latencies.append(raw)
                by_kind.setdefault(job.kind, []).append(ref)
            if corrupt is not None:
                stdout = corrupt(stdout)
            attempted += 1
            if not jobs.check(job, code, stdout):
                failed += 1
                print(f"FAILED {job.kind} exit={code}: linca {' '.join(job.argv)}\n{stderr}",
                      file=sys.stderr)
            for path in [job.out, *job.temp]:
                if path is not None:
                    path.unlink(missing_ok=True)
            del stdout, stderr
            fresh_process(oracle)
        if traced:
            tracer.uninstall()
        rounds.append((traced, round_raw, round_ref))

    plain = [ref for traced, _, ref in rounds if not traced]
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "jobs_per_round": attempted // len(rounds),
        "job_kinds_per_round": {k: v // len(rounds) for k, v in sorted(Counter(job_kinds).items())},
        "rounds": len(rounds),
        "jobs": attempted,
        "fail_share": failed / attempted,
        "round_seconds": [{"traced": t, "raw": raw, "reference": ref} for t, raw, ref in rounds],
        "environment": environment(),
    }
    if trace:
        traced_times = [ref for traced, _, ref in rounds if traced]
        overhead = statistics.median(traced_times) / statistics.median(plain) - 1
        metrics = layer_metrics(tracer, len(traced_times), traced_bytes, overhead)
        info["layer_self_share"] = layer_shares(tracer)
        info["layer_self_share_by_kind"] = {
            kind: layer_shares(tracer, [i for i, k in enumerate(job_kinds) if k == kind])
            for kind in sorted(set(job_kinds))
        }
        WORK.mkdir(exist_ok=True)
        spans = WORK / f"spans-{workload}-seed{seed}.npz"
        tracer.save(spans)
        info["spans_file"] = str(spans.relative_to(ROOT))
    else:
        raw_plain = [raw for traced, raw, _ in rounds if not traced]
        info["tail_percentile"] = TAIL_PERCENTILE
        info["tail_samples"] = len(latencies)
        info["kind_p50_ms"] = {k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())}
        info["raw"] = {
            "wall_s": statistics.fmean(raw_plain),
            "job_p50_ms": 1e3 * float(np.percentile(raw_latencies, 50)),
            "job_tail_ms": 1e3 * float(np.percentile(raw_latencies, TAIL_PERCENTILE)),
        }
        values = {
            "wall_s": statistics.fmean(plain),
            "job_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
            "job_tail_ms": 1e3 * float(np.percentile(latencies, TAIL_PERCENTILE)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_share": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def layer_metrics(tracer: tracing.Tracer, rounds: int, stdout_bytes: int, overhead: float) -> dict:
    self_s, calls, counts = tracer.self_times(), tracer.calls(), tracer.counts

    def ratio(x: float, y: float) -> float:
        return x / y if y else 0.0

    values = {}
    for name in PER_LAYER:
        label, _, kind = name.rpartition(".")
        if name == "cli.stdout_bytes":
            value = stdout_bytes / rounds
        elif name == "trace.overhead_share":
            value = overhead
        elif kind == "verified_ratio":
            value = ratio(counts.get(f"{label}.verified", 0), calls.get(label, 0))
        elif kind == "witness_ratio":
            value = ratio(counts.get(f"{label}.witnesses", 0), counts.get(f"{label}.permutations", 0))
        elif kind == "calls":
            value = calls.get(label, 0) / rounds
        elif kind == "self_s":
            value = self_s.get(label, 0.0) / rounds
        else:
            value = counts.get(name, 0) / rounds
        values[name] = {"value": value, "unit": PER_LAYER[name]}
    return values


def layer_shares(tracer: tracing.Tracer, jobs=None) -> dict:
    """Each module's share of the traced self time of ``jobs`` (job ids) or
    of all jobs, counting spans excluded."""
    totals = Counter()
    for label, seconds in tracer.self_times(jobs).items():
        if label != tracing.COUNTER_SPAN:
            totals[label.split(".")[0]] += seconds
    whole = sum(totals.values()) or 1.0
    return {layer: seconds / whole for layer, seconds in sorted(totals.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "linca" / "cli.py").is_file():
        print("error: run from a checkout of linca: src/linca/cli.py is missing", file=sys.stderr)
        return 2
    setup = None if args.trace else measure_setup()
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if setup is not None:
        result["metrics"] = {"setup_s": {"value": setup[0], "unit": "s"}, **result["metrics"]}
        info["raw"]["setup_s"] = setup[1]
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
