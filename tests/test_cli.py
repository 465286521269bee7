import contextlib
import functools
import gc
import tracemalloc

import pytest

from conftest import FIXTURE_RULE_2D, run_cli

from linca import cli, equiv, oracle


def test_evolve_writes_pattern_text():
    result = run_cli("evolve", "--states", "2", "--seed", "1", "--steps", "2")
    assert result.returncode == 0
    assert result.stdout.decode() == (
        "linca-pattern v1 dim=1 n=2 seed=1 tmax=2 radius=1\n"
        "0 0 1 0 0\n"
        "0 1 0 1 0\n"
        "1 0 0 0 1\n"
    )


def test_evolve_zero_steps_single_row():
    result = run_cli("evolve", "--states", "2", "--seed", "1", "--steps", "0")
    assert result.returncode == 0
    assert result.stdout.decode().splitlines()[1:] == ["1"]


def test_evolve_rejects_zero_seed():
    result = run_cli("evolve", "--states", "5", "--seed", "0")
    assert result.returncode == 2
    assert "seed must be nonzero" in result.stderr.decode()


def test_evolve_rejects_bad_rule_text():
    result = run_cli("evolve", "--states", "5", "--seed", "1", "--rule", "1@(-1;1@(1)")
    assert result.returncode == 2
    assert "position" in result.stderr.decode()


@pytest.mark.parametrize("command", [
    ("evolve", "--states", "2", "--seed", "1"),
    ("canon", "--states", "2", "--seed", "1", "--certify"),
    ("verify", "--states", "3", "--seed-a", "1", "--seed-b", "2"),
    ("sweep", "--states-max", "2"),
])
def test_a_run_too_large_to_allocate_exits_2_without_a_traceback(command, tmp_path):
    # a row of 2*10**15 int64 cells exceeds any 64-bit address space
    rule = "1@(999999999999999)"
    (tmp_path / "rules.txt").write_text(rule + "\n")
    extra = ("--rules", "rules.txt") if command[0] == "sweep" else ("--rule", rule)
    result = run_cli(*command, *extra, "--steps", "1", cwd=tmp_path)
    assert result.returncode == 2
    assert result.stdout == b""
    stderr = result.stderr.decode()
    assert stderr.startswith("error: ") and "Traceback" not in stderr


@pytest.mark.parametrize("fmt, name", [("text", "x.txt"), ("pgm", "x.pgm")])
def test_a_row_too_wide_for_the_writer_leaves_no_output(fmt, name, tmp_path):
    # the writer's final box is allocated before its header or file
    result = run_cli("evolve", "--states", "2", "--seed", "1", "--rule", "1@(999999999999999)",
                     "--steps", "1", "--format", fmt, "--out", name, cwd=tmp_path)
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr.decode().startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fmt", ["text", "pgm"])
def test_evolve_streams_rows_to_its_output(fmt, tmp_path):
    # the whole 2049-row pattern would take 113 MiB as text and 40 MiB as PGM
    tracemalloc.start()
    try:
        code = cli.main(["evolve", "--states", "13", "--seed", "5", "--steps", "2048",
                         "--rule", "2@(-1);3@(0);1@(1)", "--format", fmt,
                         "--out", str(tmp_path / "deep")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (tmp_path / "deep").stat().st_size > 2049 * 4097
    assert peak < 4 * 2**20


def test_evolve_writes_pgm(tmp_path):
    out = tmp_path / "fig.pgm"
    result = run_cli(
        "evolve", "--states", "5", "--seed", "3", "--steps", "15",
        "--format", "pgm", "--out", str(out),
    )
    assert result.returncode == 0
    assert out.read_bytes().startswith(b"P5\n31 16\n255\n")


def test_evolve_pgm_requires_out():
    result = run_cli("evolve", "--states", "5", "--seed", "3", "--format", "pgm")
    assert result.returncode == 2
    assert "--out" in result.stderr.decode()


def test_evolve_oracle_agreement():
    result = run_cli("evolve", "--states", "6", "--seed", "4", "--steps", "10", "--oracle")
    assert result.returncode == 0


def test_evolve_oracle_disagreement_exits_3(monkeypatch, capsys):
    real = oracle.cell_oracle

    @contextlib.contextmanager
    def lying_oracle(n, rule, a):
        with real(n, rule, a) as cell:

            def lying_cell(t, site):
                value = cell(t, site)
                if t == 2 and site == (-2,):
                    return (value + 1) % n
                return value

            yield lying_cell

    monkeypatch.setattr(cli.oracle, "cell_oracle", lying_oracle)
    code = cli.main(["evolve", "--states", "3", "--seed", "1", "--steps", "4", "--oracle"])
    assert code == 3
    assert "oracle disagreement at t=2 i=-2" in capsys.readouterr().out


@pytest.mark.parametrize(
    "fmt, message",
    [("text", "pattern text format supports D <= 2"), ("pgm", "render supports D <= 2")],
    ids=["text", "pgm"],
)
def test_evolve_refuses_3d_before_evolving(fmt, message, tmp_path, monkeypatch, capsys):
    def no_evolve(*args):
        raise AssertionError("evolve called for a pattern the writer refuses")

    monkeypatch.setattr(cli, "evolve", no_evolve)
    code = cli.main([
        "evolve", "--states", "5", "--seed", "1", "--dim", "3", "--steps", "50",
        "--rule", "1@(-1,0,0);1@(1,0,0)", "--format", fmt, "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_evolve_refuses_pgm_without_out_before_evolving(monkeypatch, capsys):
    def no_evolve(*args):
        raise AssertionError("evolve called for a pattern that has nowhere to go")

    monkeypatch.setattr(cli, "evolve", no_evolve)
    code = cli.main([
        "evolve", "--states", "7", "--seed", "1", "--steps", "3000", "--format", "pgm",
    ])
    assert code == 2
    assert "error: --format pgm requires --out" in capsys.readouterr().err


def test_oracle_check_keeps_no_cells_after_it_returns(capsys):
    code = cli.main([
        "evolve", "--states", "7", "--seed", "3", "--dim", "2", "--steps", "6",
        "--rule", FIXTURE_RULE_2D, "--oracle",
    ])
    assert code == 0
    memo_type = type(functools.lru_cache(maxsize=None)(lambda: 0))
    kept = [
        obj.cache_info().currsize
        for obj in gc.get_objects()
        if isinstance(obj, memo_type) and obj.__module__ == oracle.__name__
    ]
    assert sum(kept) == 0


def test_verify_exits_1_on_a_false_map(monkeypatch, capsys):
    monkeypatch.setattr(cli, "seed_pair_map", lambda n, a, b: equiv.StateMap.affine(7, 1, 3, 1))
    code = cli.main(["verify", "--states", "7", "--seed-a", "1", "--seed-b", "2", "--steps", "4",
                     "--rule", "1@(-1);1@(0);1@(1)"])
    assert code == 1
    assert capsys.readouterr().out == (
        "certificate v1\n"
        'source n=7 a=1 rule="1@(-1);1@(0);1@(1)" tmax=4\n'
        "target n=7 a=2\n"
        "map 0->0\nmap 1->3\nmap 2->6\nmap 3->2\nmap 4->5\nmap 5->1\nmap 6->4\n"
        "status falsified t=0 i=0\n"
    )


def test_canon_certify_exits_1_on_a_false_map(monkeypatch, capsys):
    monkeypatch.setattr(cli, "canonicalize", lambda n, a: (7, equiv.StateMap.affine(7, 1, 2, 1)))
    code = cli.main(["canon", "--states", "7", "--seed", "3", "--certify",
                     "--rule", "1@(-1);1@(0);1@(1)"])
    assert code == 1
    lines = "map 0->0\nmap 1->2\nmap 2->4\nmap 3->6\nmap 4->1\nmap 5->3\nmap 6->5\n"
    assert capsys.readouterr().out == (
        "r=7 d=1\n" + lines + "certificate v1\n"
        'source n=7 a=3 rule="1@(-1);1@(0);1@(1)" tmax=15\n'
        "target n=7 a=1\n" + lines + "status falsified t=0 i=0\n"
    )


def test_sweep_exits_1_on_a_false_map(monkeypatch, capsys, tmp_path):
    real = equiv.canonicalize

    def one_false_map(n, a):
        return (3, equiv.StateMap.affine(6, 2, 2, 1)) if (n, a) == (6, 2) else real(n, a)

    monkeypatch.setattr(equiv, "canonicalize", one_false_map)
    (tmp_path / "rules.txt").write_text("1@(-1);1@(0);1@(1)\n")
    code = cli.main(["sweep", "--states-max", "6", "--steps", "4",
                     "--rules", str(tmp_path / "rules.txt")])
    assert code == 1
    assert capsys.readouterr().out == (
        "sweep v1 states-max=6 steps=4\n"
        'rule "1@(-1);1@(0);1@(1)"\n'
        "n=2 r=2 seeds=1 status=verified\n"
        "n=3 r=3 seeds=1,2 status=verified\n"
        "n=4 r=4 seeds=1,3 status=verified\n"
        "n=4 r=2 seeds=2 status=verified\n"
        "n=5 r=5 seeds=1,2,3,4 status=verified\n"
        "n=6 r=6 seeds=1,5 status=verified\n"
        "n=6 r=3 seeds=2,4 status=falsified\n"
        "n=6 r=2 seeds=3 status=verified\n"
    )


def test_canon_output():
    result = run_cli("canon", "--states", "6", "--seed", "4")
    assert result.returncode == 0
    assert result.stdout.decode() == "r=3 d=2\nmap 0->0\nmap 2->2\nmap 4->1\n"


def test_canon_seed_three():
    result = run_cli("canon", "--states", "6", "--seed", "3")
    assert result.stdout.decode() == "r=2 d=3\nmap 0->0\nmap 3->1\n"


def test_canon_identity():
    result = run_cli("canon", "--states", "7", "--seed", "1")
    lines = result.stdout.decode().splitlines()
    assert lines[0] == "r=7 d=1"
    assert lines[1:] == [f"map {b}->{b}" for b in range(7)]


def test_canon_certify():
    result = run_cli("canon", "--states", "6", "--seed", "3", "--certify", "--steps", "12")
    assert result.returncode == 0
    out = result.stdout.decode()
    assert "certificate v1" in out
    assert 'source n=6 a=3 rule="1@(-1);1@(1)" tmax=12' in out
    assert "target n=2 a=1" in out
    assert "status verified" in out


def test_verify_swapped_states():
    result = run_cli("verify", "--states", "3", "--seed-a", "1", "--seed-b", "2")
    assert result.returncode == 0
    out = result.stdout.decode()
    assert "map 1->2" in out and "map 2->1" in out
    assert out.endswith("status verified\n")


def test_verify_different_classes_exit_4():
    result = run_cli("verify", "--states", "6", "--seed-a", "2", "--seed-b", "3")
    assert result.returncode == 4
    assert result.stdout.decode() == "seeds lie in different canonical classes: r_a=3 r_b=2\n"


def test_verify_same_seed_identity():
    result = run_cli("verify", "--states", "9", "--seed-a", "4", "--seed-b", "4")
    assert result.returncode == 0
    assert "status verified" in result.stdout.decode()


def test_verify_search_lists_witnesses():
    result = run_cli(
        "verify", "--states", "5", "--seed-a", "1", "--seed-b", "2",
        "--steps", "10", "--search",
    )
    assert result.returncode == 0
    out = result.stdout.decode()
    assert "witnesses 1" in out
    assert "witness 0->0 1->2 2->4 3->1 4->3" in out


def test_verify_search_refuses_before_writing(capsys):
    # eleven reachable states: the search has no bound on the state count
    code = cli.main([
        "verify", "--states", "11", "--seed-a", "1", "--seed-b", "2", "--steps", "16", "--search",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out.endswith(
        "witnesses 1\n"
        "witness 0->0 1->2 2->4 3->6 4->8 5->10 6->1 7->3 8->5 9->7 10->9\n"
    )


@pytest.mark.parametrize(
    "seeds, message",
    [
        (("0", "1"), "seed must be nonzero"),
        (("1", "0"), "seed must be nonzero"),
        (("6", "1"), "residue 6 out of range [0, 6)"),
        (("-1", "1"), "residue -1 out of range [0, 6)"),
    ],
    ids=["seed-a-zero", "seed-b-zero", "seed-a-n", "seed-a-negative"],
)
def test_verify_rejects_bad_seeds(seeds, message):
    result = run_cli("verify", "--states", "6", "--seed-a", seeds[0], "--seed-b", seeds[1])
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr.decode() == f"error: {message}\n"


def test_commands_build_one_state_map_at_most(monkeypatch, capsys):
    built = []
    real = equiv.StateMap.__post_init__

    def counting(self):
        built.append(len(self.table))
        real(self)

    monkeypatch.setattr(equiv.StateMap, "__post_init__", counting)
    assert cli.main(["verify", "--states", "12", "--seed-a", "2", "--seed-b", "10"]) == 0
    assert built == [6]
    built.clear()
    assert cli.main(["canon", "--states", "12", "--seed", "8", "--certify"]) == 0
    assert built == [3]
    built.clear()
    capsys.readouterr()
    code = cli.main(["verify", "--states", "2000000", "--seed-a", "2", "--seed-b", "3"])
    assert code == 4
    assert built == []
    out = capsys.readouterr().out
    assert out == "seeds lie in different canonical classes: r_a=1000000 r_b=2000000\n"


def test_canon_certify_allocates_nothing_sized_by_the_modulus(capsys):
    tracemalloc.start()
    try:
        code = cli.main(["canon", "--states", "16777216", "--seed", "8388608",
                         "--certify", "--steps", "8"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out.endswith("map 8388608->1\nstatus verified\n")
    assert peak < 4 * 2**20


def test_sweep_partitions(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("1@(-1);1@(1)\n")
    result = run_cli("sweep", "--states-max", "6", "--rules", str(rules), "--steps", "12")
    assert result.returncode == 0
    out = result.stdout.decode()
    assert out.startswith("sweep v1 states-max=6 steps=12\n")
    assert 'rule "1@(-1);1@(1)"' in out
    assert "n=6 r=6 seeds=1,5 status=verified" in out
    assert "n=6 r=3 seeds=2,4 status=verified" in out
    assert "n=6 r=2 seeds=3 status=verified" in out


def test_sweep_two_states_trivial(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("1@(-1);1@(1)\n")
    result = run_cli("sweep", "--states-max", "2", "--rules", str(rules), "--steps", "8")
    assert result.returncode == 0
    assert "n=2 r=2 seeds=1 status=verified" in result.stdout.decode()


def test_sweep_reports_bad_rule_line(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("1@(-1);1@(1)\n1@(0)\n1@(oops)\n")
    result = run_cli("sweep", "--states-max", "4", "--rules", str(rules))
    assert result.returncode == 2
    assert "line 3" in result.stderr.decode()


def test_sweep_missing_rules_file(tmp_path):
    result = run_cli("sweep", "--states-max", "4", "--rules", str(tmp_path / "absent.txt"))
    assert result.returncode == 2


def test_sweep_is_byte_deterministic(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("1@(-1);1@(1)\n2@(-1);1@(1)\n")
    first = run_cli("sweep", "--states-max", "6", "--rules", str(rules), "--steps", "10")
    second = run_cli("sweep", "--states-max", "6", "--rules", str(rules), "--steps", "10")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_usage_error_without_subcommand():
    result = run_cli()
    assert result.returncode == 2


def test_evolve_two_dimensional_text():
    result = run_cli(
        "evolve", "--states", "3", "--seed", "2", "--dim", "2",
        "--rule", "1@(-1,0);1@(1,0);1@(0,-1);1@(0,1)", "--steps", "1",
    )
    assert result.returncode == 0
    lines = result.stdout.decode().splitlines()
    assert lines[0] == "linca-pattern v1 dim=2 n=3 seed=2 tmax=1 radius=1"
    assert lines[1:4] == ["0 0 0", "0 2 0", "0 0 0"]
    assert lines[4] == ""
    assert lines[5:8] == ["0 2 0", "2 0 2", "0 2 0"]
