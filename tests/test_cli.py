"""Command-line interface: subcommands, formats, exit codes."""

import os
import subprocess
import sys
from importlib.metadata import (EntryPoint, PackageNotFoundError,
                                distribution)
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest itself requires tomli there
    import tomli as tomllib

import numpy as np
import pytest

import oblivjoin.cli as cli
from oblivjoin.harness import ClassVerdict
from oblivjoin.pipeline import oblivious_join
from oblivjoin.tablefile import format_table_text

FIXTURES = Path(__file__).parent / "fixtures"
PYPROJECT = Path(__file__).parent.parent / "pyproject.toml"
VALID = sorted(FIXTURES.glob("valid_*.txt"))
MALFORMED = {
    name: int(line)
    for name, line in (
        ln.split() for ln in
        (FIXTURES / "malformed_manifest.txt").read_text().splitlines())
}


def run(args):
    return cli.main(args)


def sorted_lines(text):
    rows = [tuple(int(v) for v in ln.split()) for ln in text.splitlines() if ln]
    return sorted(rows)


def test_fixture_corpus_is_populated():
    assert len(VALID) >= 10
    assert len(MALFORMED) >= 5


@pytest.mark.parametrize("path", VALID, ids=lambda p: p.stem)
def test_join_fixtures_match_expected(path, capsys):
    rc = run(["join", str(path)])
    out = capsys.readouterr()
    assert rc == 0
    expected = path.with_suffix(".expected").read_text()
    assert sorted_lines(out.out) == sorted_lines(expected)
    assert "m=" in out.err


@pytest.mark.parametrize("name", sorted(MALFORMED), ids=str)
def test_malformed_fixtures_exit_1_with_line(name, capsys):
    rc = run(["join", str(FIXTURES / name)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"line {MALFORMED[name]}:" in err


def test_join_out_file(tmp_path, capsys):
    out = tmp_path / "result.txt"
    rc = run(["join", str(VALID[0]), "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    expected = VALID[0].with_suffix(".expected").read_text()
    assert sorted_lines(out.read_text()) == sorted_lines(expected)


def test_join_missing_input_exits_2(tmp_path, capsys):
    rc = run(["join", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_join_unwritable_out_exits_2(tmp_path, capsys):
    rc = run(["join", str(VALID[0]), "--out", str(tmp_path / "no" / "dir")])
    assert rc == 2


def test_join_unopenable_out_runs_no_join(tmp_path, monkeypatch, capsys):
    # the output path is opened before the join, so a bad one costs none
    calls = []
    monkeypatch.setattr(cli, "oblivious_join",
                        lambda *args: calls.append(args))
    out = tmp_path / "missing" / "out.txt"
    rc = run(["join", str(VALID[0]), "--out", str(out)])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_join_trace_hash(capsys):
    rc = run(["join", str(VALID[0]), "--trace", "hash"])
    err = capsys.readouterr().err
    assert rc == 0
    digest = [ln for ln in err.splitlines() if ln.startswith("trace sha256:")]
    assert len(digest) == 1
    assert len(digest[0].split()[-1]) == 64


def test_join_trace_log(tmp_path, capsys):
    p = tmp_path / "t.txt"
    p.write_text("1 1\n---\n1 2\n")
    rc = run(["join", str(p), "--trace", "log"])
    err = capsys.readouterr().err
    assert rc == 0
    ev = [ln for ln in err.splitlines() if ln and ln[0] in "RW"]
    assert len(ev) > 10
    assert all(len(ln.split()) == 3 for ln in ev)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_join_streams_rows_in_chunks(monkeypatch, tmp_path, capsys, to_file):
    # m = 8 rows over chunks of 3: the bytes equal one string of all rows
    u64_max = (1 << 64) - 1
    t1 = [[7, u64_max], [7, 3], [u64_max, 0]]
    t2 = [[7, 1], [7, u64_max], [7, 2], [u64_max, 5], [u64_max, u64_max]]
    res = oblivious_join(t1, t2)
    assert res.m == 8
    want = "".join(f"{d1} {d2}\n" for d1, d2 in res.rows())
    assert str(u64_max) in want
    src = tmp_path / "t.txt"
    src.write_text(format_table_text(t1, t2))
    monkeypatch.setattr(cli, "_OUT_CHUNK", 3)
    out = tmp_path / "result.txt"
    rc = run(["join", str(src)] + (["--out", str(out)] if to_file else []))
    got = capsys.readouterr().out
    assert rc == 0
    assert (out.read_text() if to_file else got) == want


@pytest.mark.parametrize("args", [
    ["join", str(VALID[0])], ["verify"], ["bench"], ["cost", "--n", "4"],
], ids=lambda a: a[0])
def test_engine_is_not_a_cli_option(args, capsys):
    # the scalar engine is the library's test reference, not a user setting
    with pytest.raises(SystemExit) as exc:
        run(args + ["--engine", "scalar"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "unrecognized arguments: --engine scalar" in err


def test_verify_ok(capsys):
    rc = run(["verify", "--n1", "8", "--n2", "8", "--instances", "4",
              "--shapes", "all-1x1,disjoint"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("OK") == 2
    assert "digest=" in out


def test_verify_reports_infeasible(capsys):
    rc = run(["verify", "--n1", "1", "--n2", "1", "--instances", "2",
              "--shapes", "mixed"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "infeasible" in out


def test_verify_divergence_exits_3(monkeypatch, capsys):
    def fake_verify(tc):
        return ClassVerdict(False, ["a", "b"], (0, 1))
    monkeypatch.setattr(cli, "verify_trace_class", fake_verify)
    rc = run(["verify", "--n1", "4", "--n2", "4", "--instances", "2",
              "--shapes", "all-1x1"])
    out = capsys.readouterr().out
    assert rc == 3
    assert "DIVERGENT" in out


def test_bench_csv_stdout(capsys):
    rc = run(["bench", "--sizes", "32,64", "--reps", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,oblivious_s,sortmerge_s,events"
    assert len(lines) == 3


def test_bench_csv_file(tmp_path):
    p = tmp_path / "bench.csv"
    rc = run(["bench", "--sizes", "32", "--reps", "1", "--csv", str(p)])
    assert rc == 0
    assert p.read_text().startswith("n,m,")


def test_bench_unopenable_csv_runs_no_bench(tmp_path, monkeypatch, capsys):
    # the CSV path is opened before the bench, so a bad one costs no timing
    calls = []
    monkeypatch.setattr(cli, "bench", lambda *args, **kw: calls.append(args))
    out = tmp_path / "missing" / "bench.csv"
    rc = run(["bench", "--sizes", "32", "--reps", "1", "--csv", str(out)])
    assert rc == 2
    assert "error" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_cost_command(capsys):
    rc = run(["cost", "--n", "16"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "initial_sorts" in out
    assert out.startswith("n1=16")


@pytest.mark.parametrize("args", [
    ["cost", "--n", "-1"],
    ["cost", "--n", "x"],
    ["verify", "--n1", "-5"],
    ["verify", "--n2", "-1"],
    ["verify", "--instances", "0"],
    ["verify", "--seed", "-1"],
    ["bench", "--reps", "0"],
    ["bench", "--sizes", "32,-4"],
    ["bench", "--sizes", ","],
    ["verify", "--shapes", "bogus"],
    ["verify", "--shapes", ","],
], ids=" ".join)
def test_bad_counts_are_usage_errors(args, capsys):
    # argparse rejects them before any work starts: exit 2 and a usage
    # message naming the option, never a traceback or a nan row
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"argument {args[1]}:" in err


def test_zero_sizes_are_accepted(capsys):
    assert run(["cost", "--n", "0"]) == 0
    assert run(["bench", "--sizes", "0", "--reps", "1"]) == 0
    assert run(["verify", "--n1", "0", "--n2", "0", "--instances", "1",
                "--shapes", "all-1x1"]) == 0
    assert "all-1x1: OK" in capsys.readouterr().out


def test_entry_point_matches_main():
    # the console script declared in pyproject.toml resolves to cli.main
    with open(PYPROJECT, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["oblivjoin"] == "oblivjoin.cli:main"
    ep = EntryPoint(name="oblivjoin", value=scripts["oblivjoin"],
                    group="console_scripts")
    assert ep.load() is cli.main


def test_python_m_oblivjoin_runs_the_cli():
    # `python -m oblivjoin` is the same CLI as the console script
    path = VALID[0]
    src = Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "oblivjoin", "join",
                           str(path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expected = path.with_suffix(".expected").read_text()
    assert sorted_lines(proc.stdout) == sorted_lines(expected)
    assert "m=" in proc.stderr


def _installed():
    try:
        distribution("oblivjoin")
    except PackageNotFoundError:
        return False
    return True


@pytest.mark.skipif(not _installed(),
                    reason="no installed oblivjoin distribution")
def test_installed_entry_point_matches_main():
    # the installed metadata carries the same console script
    eps = distribution("oblivjoin").entry_points
    ours = [ep for ep in eps
            if ep.group == "console_scripts" and ep.name == "oblivjoin"]
    assert len(ours) == 1
    assert ours[0].value == "oblivjoin.cli:main"
    assert ours[0].load() is cli.main
