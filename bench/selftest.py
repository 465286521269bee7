"""Self-test of the benchmark: python3 bench/selftest.py (about a minute).

For every workload, at a tiny scale: an untraced and a traced run report
exactly the metrics that BENCHMARK.json names and fail no job; a run whose
first non-empty capture has one flipped byte reports a failed job; and for
every job of a round, flipping one byte of its stdout (or of the file it
wrote) makes its check fail. Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import random
import sys

import jobs
import run

TINY = 0.02


def flip(data, position: int):
    """``data`` (str or bytes) with the bits of one byte at ``position`` inverted."""
    raw = bytearray(data.encode() if isinstance(data, str) else data)
    raw[position] ^= 0xFF
    return raw.decode("latin-1") if isinstance(data, str) else bytes(raw)


def flip_first_capture():
    done = []

    def corrupt(stdout: str) -> str:
        if done or not stdout:
            return stdout
        done.append(True)
        return flip(stdout, len(stdout) // 2)

    return corrupt


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def flipped_byte_is_caught(workload: str) -> None:
    cli, _ = run.load_linca()
    work = run.WORK / f"selftest-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(workload)
    for job in jobs.deal(workload, 3, 0, jobs.Context(work, TINY)):
        code, stdout, stderr = run.run_job(cli, job.argv)
        expect(jobs.check(job, code, stdout), f"{job.kind} fails its check untouched: {stderr}")
        if stdout:
            expect(not jobs.check(job, code, flip(stdout, rng.randrange(len(stdout)))),
                   f"{job.kind}: a flipped stdout byte passes")
        if job.out is not None:
            data = job.out.read_bytes()
            job.out.write_bytes(flip(data, rng.randrange(len(data))))
            expect(not jobs.check(job, code, stdout), f"{job.kind}: a flipped file byte passes")
        for path in [job.out, *job.temp]:
            if path is not None:
                path.unlink(missing_ok=True)
    work.rmdir()


def main() -> int:
    expect(min(run.measure_setup(repeats=1)) > 0, "setup time is not positive")
    for workload in sorted(jobs.WORKLOADS):
        result, info = run.run(workload, 1, 0, False, scale=TINY, min_jobs=1)
        names = ["setup_s", *result["metrics"]]
        expect(sorted(names) == sorted(run.END_TO_END), f"{workload}: end-to-end names {names}")
        expect(result["failed"] == 0 and info["fail_share"] == 0, f"{workload}: jobs failed")
        print(workload, "end-to-end:", " ".join(names))

        result, info = run.run(workload, 1, 0, True, scale=TINY, min_jobs=1)
        names = list(result["metrics"])
        expect(names == list(run.PER_LAYER), f"{workload}: per-layer names {names}")
        expect(result["failed"] == 0, f"{workload}: traced jobs failed")
        print(workload, "per-layer:", " ".join(names))

        print(workload, "flipped capture: the FAILED line on stderr is expected")
        result, info = run.run(workload, 1, 0, False, scale=TINY, min_jobs=1,
                               corrupt=flip_first_capture())
        expect(result["failed"] >= 1 and info["fail_share"] > 0 and not result["correct"],
               f"{workload}: a flipped capture byte went unnoticed")
        print(workload, "flipped capture: fail_share", info["fail_share"])

        flipped_byte_is_caught(workload)
        print(workload, "flipped byte caught in every job kind")
    print(json.dumps({"selftest": "passed"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
