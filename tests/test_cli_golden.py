"""Byte pins of the CLI: exit code, stdout, stderr and every written file.

Each case runs ``cli.main`` in process inside an empty directory. The pins
in cli_golden.json hold the exit code, the sha256 of stdout, stderr
verbatim and the sha256 of each file the command left behind. After an
intended output change, rewrite them with

    PYTHONPATH=src python tests/test_cli_golden.py

and review the diff of cli_golden.json.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from conftest import FIXTURE_RULE_2D

from linca import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")
RULE_1D = "1@(-1);2@(0);3@(1)"
RULE_3D = "1@(-1,0,0);1@(1,0,0);1@(0,-1,0);1@(0,0,1)"
BIG = str(2**31 - 1)
RULES_FILE = "rules.txt"
RULE_DEEP = "2@(-1);3@(0);1@(1)"

# id -> (argv, rules file text or None)
CASES = {
    "evolve-1d-text": (["evolve", "--states", "2", "--seed", "1", "--steps", "8"], None),
    "evolve-1d-text-rule": (
        ["evolve", "--states", "7", "--seed", "3", "--steps", "40", "--rule", RULE_1D], None),
    "evolve-1d-text-max-modulus": (
        ["evolve", "--states", BIG, "--seed", str(2**31 - 2), "--steps", "12", "--rule", RULE_1D],
        None),
    "evolve-1d-text-out": (
        ["evolve", "--states", "5", "--seed", "2", "--steps", "9", "--out", "p.txt"], None),
    "evolve-1d-zero-steps": (["evolve", "--states", "9", "--seed", "4", "--steps", "0"], None),
    "evolve-1d-radius-2": (
        ["evolve", "--states", "6", "--seed", "5", "--steps", "7", "--rule=-1@(-2);4@(1)"],
        None),
    "evolve-2d-text": (
        ["evolve", "--states", "5", "--seed", "2", "--dim", "2", "--steps", "6",
         "--rule", FIXTURE_RULE_2D], None),
    "evolve-2d-text-max-modulus": (
        ["evolve", "--states", BIG, "--seed", "3", "--dim", "2", "--steps", "4",
         "--rule", FIXTURE_RULE_2D], None),
    "evolve-1d-pgm": (
        ["evolve", "--states", "5", "--seed", "3", "--steps", "30", "--format", "pgm",
         "--out", "fig.pgm"], None),
    "evolve-1d-pgm-max-modulus": (
        ["evolve", "--states", BIG, "--seed", "12345", "--steps", "20", "--rule", RULE_1D,
         "--format", "pgm", "--out", "big.pgm"], None),
    "evolve-1d-pgm-deep": (
        ["evolve", "--states", "13", "--seed", "5", "--steps", "2048", "--rule", RULE_DEEP,
         "--format", "pgm", "--out", "deep.pgm"], None),
    "evolve-2d-pgm": (
        ["evolve", "--states", "7", "--seed", "3", "--dim", "2", "--steps", "8",
         "--rule", FIXTURE_RULE_2D, "--format", "pgm", "--out", "frame.pgm"], None),
    "evolve-1d-oracle": (
        ["evolve", "--states", "6", "--seed", "4", "--steps", "25", "--oracle"], None),
    "evolve-2d-oracle": (
        ["evolve", "--states", "5", "--seed", "2", "--dim", "2", "--steps", "5",
         "--rule", FIXTURE_RULE_2D, "--oracle"], None),
    "canon": (["canon", "--states", "6", "--seed", "4"], None),
    "canon-large": (["canon", "--states", "12000", "--seed", "4500"], None),
    "canon-subgroup": (["canon", "--states", "12", "--seed", "8", "--steps", "20"], None),
    "canon-certify-1d": (
        ["canon", "--states", "12", "--seed", "8", "--steps", "20", "--certify"], None),
    "canon-certify-large": (
        ["canon", "--states", "100000", "--seed", "40000", "--steps", "16", "--certify"], None),
    "canon-certify-2d": (
        ["canon", "--states", "10", "--seed", "4", "--dim", "2", "--steps", "5",
         "--rule", FIXTURE_RULE_2D, "--certify"], None),
    "verify-1d": (
        ["verify", "--states", "5", "--seed-a", "1", "--seed-b", "2", "--steps", "30"], None),
    "verify-1d-subgroup": (
        ["verify", "--states", "12", "--seed-a", "2", "--seed-b", "10", "--steps", "20",
         "--rule", RULE_1D], None),
    "verify-2d": (
        ["verify", "--states", "9", "--seed-a", "3", "--seed-b", "6", "--dim", "2",
         "--steps", "6", "--rule", FIXTURE_RULE_2D], None),
    "verify-class-mismatch": (
        ["verify", "--states", "12", "--seed-a", "2", "--seed-b", "3"], None),
    "verify-search-1d": (
        ["verify", "--states", "7", "--seed-a", "1", "--seed-b", "3", "--steps", "10",
         "--search"], None),
    "verify-search-2d": (
        ["verify", "--states", "5", "--seed-a", "1", "--seed-b", "2", "--dim", "2",
         "--steps", "4", "--rule", FIXTURE_RULE_2D, "--search"], None),
    "verify-search-3d": (
        ["verify", "--states", "4", "--seed-a", "1", "--seed-b", "3", "--dim", "3",
         "--steps", "3", "--rule", RULE_3D, "--search"], None),
    "verify-search-11-states": (
        ["verify", "--states", "11", "--seed-a", "1", "--seed-b", "2", "--steps", "16",
         "--search"], None),
    "sweep-1d": (
        ["sweep", "--states-max", "12", "--steps", "12", "--rules", RULES_FILE],
        "1@(-1);1@(1)\n\n1@(-1);2@(0);3@(1)\n"),
    "sweep-2d": (
        ["sweep", "--states-max", "6", "--dim", "2", "--steps", "4", "--rules", RULES_FILE],
        FIXTURE_RULE_2D + "\n"),
    "error-seed-zero": (["evolve", "--states", "5", "--seed", "0"], None),
    "error-seed-equals-n": (["canon", "--states", "5", "--seed", "5"], None),
    "error-seed-negative": (["verify", "--states", "5", "--seed-a", "1", "--seed-b", "-1"], None),
    "error-one-state": (["evolve", "--states", "1", "--seed", "1"], None),
    "error-3d-text": (
        ["evolve", "--states", "5", "--seed", "1", "--dim", "3", "--rule", RULE_3D], None),
    "error-3d-pgm": (
        ["evolve", "--states", "5", "--seed", "1", "--dim", "3", "--rule", RULE_3D,
         "--format", "pgm", "--out", "x.pgm"], None),
    "error-pgm-without-out": (["evolve", "--states", "5", "--seed", "3", "--format", "pgm"], None),
    "error-negative-steps": (["evolve", "--states", "5", "--seed", "1", "--steps", "-1"], None),
    "error-bad-rule-text": (["evolve", "--states", "5", "--seed", "1", "--rule", "1@(-1;1@(1)"],
                            None),
    "error-rule-dimension": (["canon", "--states", "5", "--seed", "1", "--dim", "2"], None),
    "error-missing-rules-file": (
        ["sweep", "--states-max", "4", "--rules", "no-such-rules.txt"], None),
    "error-bad-rules-line": (
        ["sweep", "--states-max", "4", "--rules", RULES_FILE], "1@(-1);1@(1)\n1@(\n"),
    "error-empty-rules-file": (["sweep", "--states-max", "4", "--rules", RULES_FILE], "\n\n"),
    "error-canon-negative-steps": (
        ["canon", "--states", "6", "--seed", "4", "--certify", "--steps", "-1"], None),
    "error-canon-dimension": (
        ["canon", "--states", "6", "--seed", "4", "--certify", "--dim", "4",
         "--rule", "1@(1,0,0,0)"], None),
    "error-sweep-negative-steps": (
        ["sweep", "--states-max", "4", "--rules", RULES_FILE, "--steps", "-1"],
        "1@(-1);1@(1)\n"),
}
# n on both sides of the engine's int16 and int32 edges: c = (n-1, 1) sums to n(n-1) per cell
CASES.update({
    f"evolve-1d-text-{n}-states": (
        ["evolve", "--states", str(n), "--seed", str(n - 1), "--steps", "40",
         "--rule=-1@(-1);1@(1)"], None)
    for n in (181, 182, 46341, 46342)
})


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(case: str, workdir: Path) -> dict:
    """Run one invocation in the empty directory ``workdir`` and return its pin."""
    argv, rules = CASES[case]
    if rules is not None:
        (workdir / RULES_FILE).write_text(rules)
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse exits on usage errors
                code = exc.code
    finally:
        os.chdir(cwd)
    files = {
        path.name: sha256(path.read_bytes())
        for path in sorted(workdir.iterdir())
        if path.name != RULES_FILE
    }
    return {
        "exit": code,
        "stdout_sha256": sha256(out.getvalue().encode()),
        "stderr": err.getvalue(),
        "files": files,
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_its_pin(case, tmp_path):
    assert run_case(case, tmp_path) == json.loads(GOLDEN.read_text())[case]


def test_every_case_has_a_pin():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


if __name__ == "__main__":
    pins = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as workdir:
            pins[case] = run_case(case, Path(workdir))
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
