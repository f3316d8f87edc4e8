import itertools
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from networkx.algorithms.approximation import treewidth_min_fill_in

import credal
from credal.bench import (CSV_HEADER, DecompositionStats, GENERATORS,
                          _ba_edges, gen_reach_ba, gen_reach_grid, gen_smokers_ba,
                          gen_smokers_grid, instance_seed, primal_graph,
                          primal_graph_stats, run_benchmark)
from credal.ground import build_call_graph, detect_olon, ground_program
from credal.residual import encode_probabilistic_facts
from credal.syntax import Program, parse_program, render_program

from corpus import (canonical_program, exact_treewidth, ground_rule_count,
                    random_pasp)


class StubClock:
    """Monotone fake clock: one millisecond per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now


def test_reach_ba_structure():
    inst = gen_reach_ba(5, seed=7)
    assert inst.dataset == "reachBA"
    assert len(inst.program.prob_facts) == 6  # (n-2)*2 attachment edges
    assert all(pf.prob == 0.1 for pf in inst.program.prob_facts)
    assert len(inst.program.rules) == 4
    assert str(inst.query) == "path(0,4)"
    with pytest.raises(ValueError):
        gen_reach_ba(2, seed=0)


def test_reach_grid_structure():
    inst = gen_reach_grid(2, seed=3)
    assert len(inst.program.prob_facts) == 4  # 2k(k-1)
    assert str(inst.query).startswith("path(0,")
    inst3 = gen_reach_grid(3, seed=3)
    assert len(inst3.program.prob_facts) == 12
    with pytest.raises(ValueError):
        gen_reach_grid(1, seed=0)


def test_grid_query_is_reachable_node():
    # right/down edges reach every node from 0, and the query is never 0
    for seed in range(20):
        inst = gen_reach_grid(3, seed=seed)
        target = int(inst.query.atom.args[1].name)
        assert 1 <= target <= 8


def test_smokers_structure():
    inst = gen_smokers_ba(5, seed=11)
    stress = [pf for pf in inst.program.prob_facts if pf.atom.predicate == "stress"]
    edges = [pf for pf in inst.program.prob_facts if pf.atom.predicate == "e"]
    assert len(stress) == 5 and all(pf.prob == 0.1 for pf in stress)
    assert len(edges) == 6 and all(pf.prob == 0.2 for pf in edges)
    assert len(inst.program.rules) == 4
    assert str(inst.query) == "smokes(4)"

    grid = gen_smokers_grid(2, seed=11)
    assert sum(pf.atom.predicate == "stress" for pf in grid.program.prob_facts) == 4
    assert sum(pf.atom.predicate == "e" for pf in grid.program.prob_facts) == 4


def test_ba_edges_match_networkx():
    for n in range(3, 81):
        for seed in range(30):
            graph = nx.barabasi_albert_graph(n, 2, seed=seed)
            expected = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
            assert _ba_edges(n, seed) == expected, (n, seed)


def test_query_path_does_not_import_networkx():
    src = str(Path(credal.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "import credal.cli\n"
            "from credal.bench import gen_reach_ba\n"
            "gen_reach_ba(50, 0)\n"
            "print('networkx' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_generators_deterministic():
    for name, gen in GENERATORS.items():
        size = 2 if name.endswith("Grid") else 5
        first = gen(size, seed=99)
        second = gen(size, seed=99)
        assert render_program(first.program) == render_program(second.program)
        assert first.query == second.query
        assert first == second


def test_generated_instances_are_olon_free_and_parse():
    for name, gen in GENERATORS.items():
        for size in ((2, 3) if name.endswith("Grid") else (3, 5, 8)):
            for seed in (0, 1):
                inst = gen(size, seed=seed)
                text = render_program(inst.program)
                assert parse_program(text) == canonical_program(inst.program)
                encoded, _ = encode_probabilistic_facts(inst.program)
                assert detect_olon(build_call_graph(encoded)) is None


def test_primal_stats_path_clique_cycle():
    chain = parse_program("a1 :- a2.\na2 :- a3.\na3 :- a4.\na4 :- a5.\na5.")
    stats = primal_graph_stats(ground_program(chain))
    assert stats.width_upper_bound == 1
    assert stats.vertex_count == 5

    clique = parse_program("a :- b, c, d.\nb. c. d.")
    stats = primal_graph_stats(ground_program(clique))
    assert stats.width_upper_bound == 3
    assert stats.vertex_count == 4

    cycle = parse_program("c0 :- c1.\nc1 :- c2.\nc2 :- c3.\nc3 :- c4.\n"
                          "c4 :- c5.\nc5 :- c0.")
    stats = primal_graph_stats(ground_program(cycle))
    assert stats.width_upper_bound == 2
    assert stats.vertex_count == 6


def test_primal_stats_empty_program():
    assert primal_graph_stats(ground_program(Program())) == DecompositionStats(0, 0, 0)


def test_min_fill_width_at_least_exact_treewidth():
    rng = random.Random(77)
    checked = 0
    for _ in range(200):
        program = random_pasp(rng)
        graph = primal_graph(ground_program(program))
        if len(graph) == 0 or len(graph) > 8:
            continue
        stats = primal_graph_stats(ground_program(program))
        exact = exact_treewidth(graph)
        assert stats.width_upper_bound >= exact
        assert stats.vertex_count == len(graph)
        checked += 1
    assert checked >= 50


def networkx_min_fill_stats(g):
    """The statistics as networkx computes them, on a ``networkx.Graph``
    built straight from the grounding with nodes added in ``str`` order."""
    graph = nx.Graph()
    graph.add_nodes_from(sorted(g.herbrand_base, key=str))
    for rule in g.rules:
        atoms = sorted({rule.head, *(l.atom for l in rule.body)}, key=str)
        graph.add_edges_from(itertools.combinations(atoms, 2))
    if graph.number_of_nodes() == 0:
        return DecompositionStats(0, 0, 0)
    width, decomposition = treewidth_min_fill_in(graph)
    return DecompositionStats(decomposition.number_of_nodes(), width,
                              graph.number_of_nodes())


def test_min_fill_stats_match_networkx():
    from credal.residual import extract_residual

    # every criterion-9 (base seed 0) and criterion-10 (base seed 7)
    # instance in both modes, the grids at sizes 2-3, and random programs
    sweeps = [(0, "reachGrid", (2, 3)), (0, "reachBA", (5, 10)),
              (0, "smokersBA", (5, 10)), (0, "smokersGrid", (2, 3)),
              (7, "reachGrid", (2, 3)), (7, "smokersGrid", (2, 3))]
    programs = []
    for base, dataset, sizes in sweeps:
        for size in sizes:
            for run in range(10):
                inst = GENERATORS[dataset](size, instance_seed(base, dataset, size, run), run)
                programs += [inst.program,
                             extract_residual(inst.program, inst.query).program]
    rng = random.Random(2024)
    programs += [random_pasp(rng) for _ in range(500)]
    for program in programs:
        g = ground_program(program)
        assert primal_graph_stats(g) == networkx_min_fill_stats(g), render_program(program)


def test_instance_seed_is_stable():
    assert instance_seed(0, "reachGrid", 2, 0) == instance_seed(0, "reachGrid", 2, 0)
    assert instance_seed(0, "reachGrid", 2, 0) != instance_seed(1, "reachGrid", 2, 0)


def test_run_benchmark_rows_and_determinism():
    def run():
        return list(run_benchmark(["reachGrid"], [2], runs=3,
                                  time_budget=None, base_seed=0,
                                  clock=StubClock()))

    rows_a, rows_b = run(), run()
    assert rows_a == rows_b
    assert len(rows_a) == 3 * 2  # runs x modes
    header_cols = CSV_HEADER.split(",")
    for row in rows_a:
        cols = row.split(",")
        assert len(cols) == len(header_cols)
        assert cols[0] == "reachGrid"
        assert cols[-1] == "ok"
    # both modes report identical bounds on every run
    by_run = {}
    for row in rows_a:
        cols = row.split(",")
        by_run.setdefault(cols[2], {})[cols[3]] = (cols[10], cols[11])
    for run_id, modes in by_run.items():
        assert modes["direct"] == modes["residual"]


def test_run_benchmark_residual_not_larger():
    rows = list(run_benchmark(["reachGrid", "smokersGrid"], [2], runs=2,
                              time_budget=None, base_seed=0, clock=StubClock()))
    stats = {}
    for row in rows:
        cols = row.split(",")
        key = (cols[0], cols[2])
        stats.setdefault(key, {})[cols[3]] = (int(cols[12]), int(cols[13]),
                                              int(cols[14]))
    for key, modes in stats.items():
        bags_r, width_r, verts_r = modes["residual"]
        bags_d, width_d, verts_d = modes["direct"]
        assert bags_r <= bags_d
        assert width_r <= width_d
        assert verts_r <= verts_d


def test_run_benchmark_rejects_unknown_dataset():
    with pytest.raises(ValueError, match="unknown dataset"):
        list(run_benchmark(["nope"], [2], runs=1))


@pytest.mark.parametrize("kwargs, message", [
    ({"runs": 0}, "runs must be at least 1, got 0"),
    ({"runs": -1}, "runs must be at least 1, got -1"),
    ({"time_budget": 0}, "time_budget must be positive, got 0"),
    ({"time_budget": -1.5}, "time_budget must be positive, got -1.5"),
    ({"max_prob_facts": -1}, "max_prob_facts must be at least 0, got -1"),
    ({"max_undefined": -1}, "max_undefined must be at least 0, got -1"),
    ({"engine": "foo"}, "unknown engine 'foo'; known engines: enum, twoamc"),
])
def test_run_benchmark_refuses_unusable_counts(kwargs, message):
    # raised by the call itself, before the row iterator is returned
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_benchmark(["reachGrid"], [2], **{"runs": 1, **kwargs})


def test_ground_rule_count_monotone_under_residual():
    from credal.residual import extract_residual

    inst = gen_reach_grid(3, seed=5)
    residual = extract_residual(inst.program, inst.query)
    assert ground_rule_count(residual.program) <= ground_rule_count(inst.program)
    assert len(residual.program.prob_facts) <= len(inst.program.prob_facts)


def test_twoamc_rows_equal_enum_rows_but_for_timings():
    # the engines share the world fold and differ in the per-world leaf, so
    # only the *_ms columns may differ; the stub clock counts the witness
    # search's fewer clock reads as less solve time (a far budget makes the
    # engines read the clock).  A cap of 12 facts keeps smokersGrid 3 direct
    # (21 facts) from enumerating 2^21 worlds.
    header = CSV_HEADER.split(",")
    kept = [header.index(c) for c in
            ("dataset", "size", "run", "mode", "lower", "upper",
             "bags", "width_ub", "vertices", "status")]
    solve_ms = header.index("solve_ms")
    rows = {}
    for engine in ("enum", "twoamc"):
        rows[engine] = [row.split(",") for row in
                        run_benchmark(["reachGrid", "smokersGrid"], [2, 3], runs=3,
                                      engine=engine, time_budget=1e6,
                                      max_prob_facts=12, clock=StubClock())]
    assert [[r[i] for i in kept] for r in rows["twoamc"]] == \
        [[r[i] for i in kept] for r in rows["enum"]]
    assert all(r[4] == "twoamc" for r in rows["twoamc"])
    assert sum(float(r[solve_ms]) for r in rows["twoamc"]) < \
        sum(float(r[solve_ms]) for r in rows["enum"])


def _stats_line(program):
    stats = primal_graph_stats(ground_program(program))
    return (f"bags={stats.bag_count} width_ub={stats.width_upper_bound} "
            f"vertices={stats.vertex_count}")


def test_generated_residuals_and_stats_match_pinned_file():
    # per criterion-9 instance (base seed 0, runs 0-2) the file pins the
    # residual as `credal residual` prints it and the min-fill statistics of
    # the program's and the residual's groundings, so a change in how facts
    # are grounded or the residual is read must reproduce them byte for byte
    from credal.residual import extract_residual

    lines = []
    for dataset, sizes in (("reachBA", (5, 10)), ("smokersBA", (5, 10)),
                           ("reachGrid", (2, 3)), ("smokersGrid", (2, 3))):
        for size in sizes:
            for run in range(3):
                inst = GENERATORS[dataset](size, instance_seed(0, dataset, size, run), run)
                residual = extract_residual(inst.program, inst.query)
                lines += [f"== {dataset} {size} run {run} query {inst.query}",
                          render_program(residual.program)
                          + f"% status: {residual.query_status}",
                          f"% program {_stats_line(inst.program)}",
                          f"% residual {_stats_line(residual.program)}"]
    pinned = Path(__file__).parent / "data" / "generated_seed0.txt"
    assert ("\n".join(lines) + "\n").encode() == pinned.read_bytes()
