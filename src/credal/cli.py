"""Command-line interface.

Subcommands: ``solve`` (credal bounds for a query), ``residual`` (print the
query's reduced program), ``stats`` (tree-decomposition statistics), and
``bench`` (CSV benchmark sweep).  Exit codes: 0 success, 1 usage or I/O
problem, 2 semantic failure (bad program text, odd loop over negation,
cap exceeded, time budget exceeded).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import bench as bench_mod
from .bounds import (DEFAULT_MAX_PROB_FACTS, DEFAULT_MAX_UNDEFINED, ENGINES,
                     MODES, ProbFactLimitError, SolveTimeout, solve_query)
from .ground import (OlonError, build_call_graph, build_dependency_graph, dot_call_graph,
                     dot_dependency_graph, ground_program)
from .residual import extract_residual
from .stable import UndefinedAtomLimitError
from .syntax import (ParseError, ProgramError, parse_program, parse_query,
                     render_program)


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _bounded(convert, accept, wanted: str):
    """An argparse type: ``convert`` the text and keep the value only if
    ``accept`` holds, so an unusable count or budget is a usage error
    before any output."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {convert.__name__} value: {text!r}")
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text}")
        return value
    return parse


_CAP = _bounded(int, lambda n: n >= 0, "at least 0")
_RUNS = _bounded(int, lambda n: n >= 1, "at least 1")
_SECONDS = _bounded(float, lambda t: t > 0, "positive")

_ENGINE_HELP = {"enum": "lists every answer set of each distinct reduced world "
                        "program; worlds that reduce alike share one result "
                        "(the reference)",
                "twoamc": "looks for one witness per question"}


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="credal",
                             description="credal inference for probabilistic "
                                         "answer set programs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, query_required):
        p.add_argument("input", help="program file")
        p.add_argument("--query", required=query_required,
                       help="ground query atom, e.g. 'path(a,d)'")
        p.add_argument("--emit-graphs", action="store_true",
                       help="write call/dependency graphs as DOT files")

    def add_engine(p):
        p.add_argument("--engine", choices=tuple(ENGINES), default="enum",
                       help="; ".join(f"{name} {_ENGINE_HELP[name]}" for name in ENGINES))

    solve = sub.add_parser("solve", help="print credal bounds for a query")
    add_common(solve, True)
    solve.add_argument("--mode", choices=MODES, default="residual")
    add_engine(solve)
    solve.add_argument("--max-prob-facts", type=_CAP, default=DEFAULT_MAX_PROB_FACTS)
    solve.add_argument("--max-undefined", type=_CAP, default=DEFAULT_MAX_UNDEFINED)

    residual = sub.add_parser("residual", help="print the query's residual program")
    add_common(residual, True)
    residual.add_argument("--out", help="write the residual here instead of stdout")

    stats = sub.add_parser("stats", help="print decomposition statistics")
    stats.add_argument("input", help="program file")

    bench = sub.add_parser("bench", help="run the benchmark sweep, emit CSV")
    bench.add_argument("--datasets", default="reachBA,reachGrid,smokersBA,smokersGrid",
                       help="comma-separated dataset names")
    bench.add_argument("--sizes", required=True, help="comma-separated sizes")
    bench.add_argument("--runs", type=_RUNS, default=10)
    bench.add_argument("--seed", type=int, default=0)
    add_engine(bench)
    bench.add_argument("--timeout", type=_SECONDS, default=60.0,
                       help="per-row solve budget in seconds (default %(default)g)")
    bench.add_argument("--max-prob-facts", type=_CAP, default=DEFAULT_MAX_PROB_FACTS)
    bench.add_argument("--max-undefined", type=_CAP, default=DEFAULT_MAX_UNDEFINED)
    bench.add_argument("--out", help="write CSV here instead of stdout")
    return parser


def _read_program(path: str):
    try:
        # the mark goes after decoding, so a bad byte's position is the file's
        text = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from exc
    return parse_program(text)


def _emit_graphs(program, input_path: str) -> None:
    stem = Path(input_path).stem
    call_path = Path(f"{stem}.call.dot")
    call_path.write_text(dot_call_graph(build_call_graph(program)), encoding="utf-8")
    grounded = ground_program(program)
    dep_path = Path(f"{stem}.dep.dot")
    dep_path.write_text(dot_dependency_graph(build_dependency_graph(grounded)),
                        encoding="utf-8")
    print(f"# wrote {call_path} and {dep_path}", file=sys.stderr)


def _cmd_solve(args) -> int:
    t0 = time.perf_counter()
    program = _read_program(args.input)
    query = parse_query(args.query)
    parse_ms = (time.perf_counter() - t0) * 1000.0
    if args.emit_graphs:
        _emit_graphs(program, args.input)
    t0 = time.perf_counter()
    interval, _residual = solve_query(program, query, mode=args.mode,
                                      engine=args.engine,
                                      max_prob_facts=args.max_prob_facts,
                                      max_undefined=args.max_undefined)
    solve_ms = (time.perf_counter() - t0) * 1000.0
    print(f"# parse {parse_ms:.3f} ms", file=sys.stderr)
    print(f"# {args.mode}/{args.engine} solve {solve_ms:.3f} ms", file=sys.stderr)
    print(f"P({query}) = {interval}")
    return 0


def _cmd_residual(args) -> int:
    program = _read_program(args.input)
    query = parse_query(args.query)
    if args.emit_graphs:
        _emit_graphs(program, args.input)
    residual = extract_residual(program, query)
    text = render_program(residual.program)
    out = text + f"% status: {residual.query_status}\n"
    if args.out:
        Path(args.out).write_text(out, encoding="utf-8")
    else:
        sys.stdout.write(out)
    return 0


def _cmd_stats(args) -> int:
    program = _read_program(args.input)
    grounded = ground_program(program)
    stats = bench_mod.primal_graph_stats(grounded)
    print(f"bags={stats.bag_count} width_ub={stats.width_upper_bound} "
          f"vertices={stats.vertex_count}")
    return 0


def _cmd_bench(args) -> int:
    datasets = [d.strip() for d in args.datasets.split(",") if d.strip()]
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise _UsageError(f"--sizes must be a comma-separated list of integers, "
                          f"got {args.sizes!r}")
    try:
        rows = bench_mod.run_benchmark(datasets, sizes, runs=args.runs,
                                       engine=args.engine, time_budget=args.timeout,
                                       base_seed=args.seed,
                                       max_prob_facts=args.max_prob_facts,
                                       max_undefined=args.max_undefined)
    except ValueError as exc:  # e.g. an empty sweep, or a size a generator rejects
        raise _UsageError(str(exc))
    sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        print(bench_mod.CSV_HEADER, file=sink)
        for row in rows:
            print(row, file=sink)
            sink.flush()
    finally:
        if args.out:
            sink.close()
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "residual": _cmd_residual,
    "stats": _cmd_stats,
    "bench": _cmd_bench,
}


# error kind and exit code per exception type; the first type that matches wins
_FAILURES = {
    _UsageError: ("usage", 1),
    OSError: ("io", 1),
    ParseError: ("syntax", 2),
    ProgramError: ("program", 2),
    OlonError: ("olon", 2),
    ProbFactLimitError: ("limit", 2),
    UndefinedAtomLimitError: ("limit", 2),
    SolveTimeout: ("timeout", 2),
}


def dispatch(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except tuple(_FAILURES) as exc:
        kind, code = next(v for t, v in _FAILURES.items() if isinstance(exc, t))
        print(f"error[{kind}]: {exc}", file=sys.stderr)
        return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
