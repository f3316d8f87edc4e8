import subprocess
import sys
from pathlib import Path

import pytest

import credal
from credal.bench import gen_reach_ba
from credal.bounds import SolveTimeout
from credal.cli import _build_parser, dispatch
from credal.syntax import render_program

import programs

DATA = Path(__file__).parent / "data"


@pytest.fixture
def prob_edges(tmp_path):
    path = tmp_path / "edges.pasp"
    path.write_text(programs.PROB_EDGES_RECURSIVE)
    return str(path)


def test_solve_output_line(prob_edges, capsys):
    code = dispatch(["solve", prob_edges, "--query", "path(a,d)",
                     "--mode", "residual", "--engine", "enum"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out == "P(path(a,d)) = [0.000000, 0.030000]\n"
    assert "solve" in out.err  # timings land on the diagnostic stream


@pytest.mark.parametrize("mode", ["direct", "residual"])
@pytest.mark.parametrize("engine", ["enum", "twoamc"])
def test_solve_all_modes_and_engines(prob_edges, capsys, mode, engine):
    code = dispatch(["solve", prob_edges, "--query", "path(a,d)",
                     "--mode", mode, "--engine", engine])
    assert code == 0
    assert capsys.readouterr().out == "P(path(a,d)) = [0.000000, 0.030000]\n"


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_engine_choices_and_help_lines(command, capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch([command, "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert f"--engine {{{','.join(credal.bounds.ENGINES)}}}" in out
    assert ("enum lists every answer set of each distinct reduced world program; "
            "worlds that reduce alike share one result (the reference)") in out
    assert "twoamc looks for one witness per question" in out


def test_residual_command(tmp_path, capsys):
    path = tmp_path / "certain.pasp"
    path.write_text(programs.EDGES_RECURSIVE)
    code = dispatch(["residual", str(path), "--query", "path(a,d)"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert lines[-1] == "% status: undefined"
    assert len(lines) == 7  # six rules plus the status line
    assert "edge(a,b) :- not nedge(a,b)." in lines


def test_residual_certain_status(tmp_path, capsys):
    path = tmp_path / "p.pasp"
    path.write_text("q.\n0.5::a.\n")
    assert dispatch(["residual", str(path), "--query", "q"]) == 0
    assert capsys.readouterr().out == "q.\n% status: certain-true\n"


def test_stats_command(tmp_path, capsys):
    path = tmp_path / "chain.pasp"
    path.write_text("a1 :- a2.\na2 :- a3.\na3.\n")
    assert dispatch(["stats", str(path)]) == 0
    assert capsys.readouterr().out == "bags=2 width_ub=1 vertices=3\n"


@pytest.mark.parametrize("argv, expected", [
    (["stats", "reach.pasp"], "reach6_stats.txt"),
    (["residual", "reach.pasp", "--query", "path(0,5)"], "reach6_residual.txt"),
])
def test_reach6_output_matches_pinned_file(tmp_path, monkeypatch, capsys, argv, expected):
    # the installed-package check in CI diffs the same two commands against
    # the same files
    monkeypatch.chdir(tmp_path)
    (tmp_path / "reach.pasp").write_text(render_program(gen_reach_ba(6, 0).program))
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == (DATA / expected).read_text()


def test_bench_command(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code = dispatch(["bench", "--datasets", "reachGrid", "--sizes", "2",
                     "--runs", "2", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("dataset,size,run,mode,engine,")
    assert len(lines) == 1 + 2 * 2
    assert all(line.endswith(",ok") for line in lines[1:])


def test_bench_timeout_defaults_to_a_minute_per_row():
    # without a budget a default sweep runs for hours: smokersGrid 3 direct
    # enumerates 2^21 worlds under the default 25-fact cap
    args = _build_parser().parse_args(["bench", "--sizes", "2"])
    assert args.timeout == 60.0


@pytest.mark.parametrize("args, message", [
    (["--sizes", "2"], "reachBA needs at least 3 nodes, got 2"),
    (["--datasets", "nope", "--sizes", "2"], "unknown dataset(s): nope"),
    (["--sizes", "-1"], "reachBA needs at least 3 nodes, got -1"),
    (["--sizes", ","], "a sweep needs at least one dataset and one size"),
    (["--datasets", ",", "--sizes", "2"], "a sweep needs at least one dataset and one size"),
])
def test_bench_rejected_sweep_is_a_usage_error(capsys, args, message):
    code = dispatch(["bench", "--runs", "1", *args])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""  # no CSV header before the error
    assert out.err == f"error[usage]: {message}\n"


@pytest.mark.parametrize("args,message", [
    (["bench", "--sizes", "2", "--runs", "0"], "argument --runs: must be at least 1, got 0"),
    (["bench", "--sizes", "2", "--runs", "-1"], "argument --runs: must be at least 1, got -1"),
    (["bench", "--sizes", "2", "--timeout", "0"], "argument --timeout: must be positive, got 0"),
    (["bench", "--sizes", "2", "--timeout", "-1"], "argument --timeout: must be positive, got -1"),
    (["bench", "--sizes", "2", "--max-undefined", "-1"],
     "argument --max-undefined: must be at least 0, got -1"),
    (["bench", "--sizes", "2", "--max-prob-facts", "-1"],
     "argument --max-prob-facts: must be at least 0, got -1"),
    (["solve", "FILE", "--query", "path(a,d)", "--max-undefined", "-1"],
     "argument --max-undefined: must be at least 0, got -1"),
    (["solve", "FILE", "--query", "path(a,d)", "--max-prob-facts", "-1"],
     "argument --max-prob-facts: must be at least 0, got -1"),
], ids=["bench-runs-0", "bench-runs-neg", "bench-timeout-0", "bench-timeout-neg",
        "bench-max-undefined", "bench-max-prob-facts", "solve-max-undefined",
        "solve-max-prob-facts"])
def test_unusable_count_or_budget_is_a_usage_error(prob_edges, capsys, args, message):
    code = dispatch([prob_edges if a == "FILE" else a for a in args])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err == f"error[usage]: {message}\n"


def test_zero_caps_are_accepted(prob_edges, capsys):
    code = dispatch(["solve", prob_edges, "--query", "path(a,d)", "--max-undefined", "0"])
    assert code == 2  # a cap of 0 is usable; this query needs more
    assert capsys.readouterr().err.startswith("error[limit]:")


def test_olon_exit_code(tmp_path, capsys):
    path = tmp_path / "olon.pasp"
    path.write_text(programs.OLON_LOOP + "0.5::x.\n")
    code = dispatch(["solve", str(path), "--query", "q"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error[olon]:")
    assert "p/0" in err  # witness names the cycle


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.pasp"
    path.write_text("p :- q\n")
    code = dispatch(["solve", str(path), "--query", "p"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[syntax]:")


def test_safety_error_exit_code(tmp_path, capsys):
    path = tmp_path / "unsafe.pasp"
    path.write_text("p(X) :- not q(X).\nq(a).\n")
    code = dispatch(["solve", str(path), "--query", "p(a)"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[program]:")


def test_missing_file_exit_code(capsys):
    code = dispatch(["solve", "/nonexistent/file.pasp", "--query", "p"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error[io]:")


@pytest.mark.parametrize("command", ["solve", "residual", "stats"])
def test_bad_input_files_give_one_error_line(command, capsys):
    # the committed files that CI's bare-venv step also runs
    query = [] if command == "stats" else ["--query", "a"]
    assert dispatch([command, str(DATA / "malformed.pasp"), *query]) == 2
    assert capsys.readouterr().err == (DATA / "malformed.err").read_text()
    path = str(DATA / "not_utf8.pasp")
    assert dispatch([command, path, *query]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error[io]: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command, out", [
    ("solve", "P(q) = [0.500000, 0.500000]\n"),
    ("residual", "0.5::a.\nq :- a.\n% status: undefined\n"),
    ("stats", "bags=1 width_ub=1 vertices=2\n"),
])
def test_leading_byte_order_mark_is_skipped(command, out, capsys):
    path = DATA / "bom.pasp"
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    query = [] if command == "stats" else ["--query", "q"]
    assert dispatch([command, str(path), *query]) == 0
    assert capsys.readouterr().out == out


def test_engine_timeout_names_its_kind(prob_edges, capsys, monkeypatch):
    # `solve` sets no budget, so no input file reaches this kind
    failure = SolveTimeout("time budget exceeded at world 0 of 1")

    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr("credal.cli.solve_query", fail)
    assert dispatch(["solve", prob_edges, "--query", "path(a,d)"]) == 2
    assert capsys.readouterr().err == f"error[timeout]: {failure}\n"


def test_usage_error_exit_code(capsys):
    code = dispatch(["solve"])  # missing input and query
    assert code == 1
    assert capsys.readouterr().err.startswith("error[usage]:")


def test_limit_error_exit_code(tmp_path, capsys):
    path = tmp_path / "many.pasp"
    path.write_text("\n".join(f"0.5::g{i}(a)." for i in range(6)) + "\n")
    code = dispatch(["solve", str(path), "--query", "g0(a)",
                     "--mode", "direct", "--max-prob-facts", "5"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error[limit]:")


def test_emit_graphs(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "edges.pasp"
    path.write_text(programs.PROB_EDGES_RECURSIVE)
    code = dispatch(["solve", str(path), "--query", "path(a,d)",
                     "--emit-graphs"])
    assert code == 0
    call_dot = (tmp_path / "edges.call.dot").read_text()
    dep_dot = (tmp_path / "edges.dep.dot").read_text()
    assert '"edge/2" -> "nedge/2" [label="-"];' in call_dot
    assert '"path(a,d)" -> "edge(a,b)";' in dep_dot


def test_console_entry_point(prob_edges):
    proc = subprocess.run(
        [sys.executable, "-m", "credal.cli", "solve", prob_edges,
         "--query", "path(a,d)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "P(path(a,d)) = [0.000000, 0.030000]\n"


def test_commands_run_without_networkx(prob_edges, tmp_path):
    # credal has no runtime dependency: with networkx made unimportable,
    # every command that does not fail on its input exits 0
    commands = [["solve", prob_edges, "--query", "path(a,d)"],
                ["residual", prob_edges, "--query", "path(a,d)"],
                ["stats", prob_edges],
                ["bench", "--datasets", "reachGrid,smokersGrid", "--sizes", "2",
                 "--runs", "1", "--out", str(tmp_path / "rows.csv")]]
    src = str(Path(credal.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "sys.modules['networkx'] = None  # any import of it raises\n"
            "from credal.cli import dispatch\n"
            f"print([dispatch(args) for args in {commands!r}])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0]"
