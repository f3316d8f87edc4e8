"""Benchmark instance generators and the direct-vs-residual runner.

Two problem families, each in a random-graph and a grid variant:

* reachability over a probabilistic edge relation (query: a path atom),
* a smokers social network where stress and influence are probabilistic
  (query: a smokes atom).

Random graphs follow the standard preferential-attachment process with two
edges per new node; grids are directed right/down.  Instances are pure
functions of (size, seed): the rendered program text is byte-identical
across invocations.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass

from .bounds import (DEFAULT_MAX_PROB_FACTS, DEFAULT_MAX_UNDEFINED, MODES,
                     ProbFactLimitError, SolveTimeout, select_engine)
from .ground import GroundProgram, OlonError, ground_program
from .residual import extract_residual
from .stable import UndefinedAtomLimitError, check_caps
from .syntax import (Atom, Program, ProbFact, Query, const, parse_program,
                     render_program)

REACH_RULES = """
edge(X,Y) :- e(X,Y), not nedge(X,Y).
nedge(X,Y) :- e(X,Y), not edge(X,Y).
path(X,Y) :- edge(X,Y).
path(X,Z) :- edge(X,Y), path(Y,Z).
"""

SMOKERS_RULES = """
influences(X,Y) :- e(X,Y), not ninfluences(X,Y).
ninfluences(X,Y) :- e(X,Y), not influences(X,Y).
smokes(X) :- stress(X).
smokes(X) :- smokes(Y), influences(Y,X).
"""

EDGE_PROB = 0.1
STRESS_PROB = 0.1
INFLUENCE_PROB = 0.2


@dataclass(frozen=True)
class BenchmarkInstance:
    dataset: str
    size: int
    run_index: int
    seed: int
    program: Program
    query: Query


@dataclass(frozen=True)
class DecompositionStats:
    bag_count: int
    width_upper_bound: int
    vertex_count: int


def _int_term(i: int):
    return const(str(i))


def _ba_edges(n: int, seed: int) -> list[tuple[int, int]]:
    """Preferential-attachment edges, oriented low index -> high index.

    The same draws as ``networkx.barabasi_albert_graph(n, 2, seed)``: start
    from the star on nodes 0, 1, 2, then attach each new node to two
    distinct nodes drawn with probability proportional to their degree."""
    rng = random.Random(seed)
    repeated = [0, 0, 1, 2]  # each node once per incident edge
    edges = [(0, 1), (0, 2)]
    for source in range(3, n):
        targets: set[int] = set()
        while len(targets) < 2:
            targets.add(rng.choice(repeated))
        repeated.extend(targets)
        repeated.extend((source, source))
        edges.extend((t, source) for t in targets)
    return sorted(edges)


def _grid_edges(k: int) -> list[tuple[int, int]]:
    """Directed right/down edges of a k x k grid, nodes in row-major order."""
    edges = []
    for row in range(k):
        for col in range(k):
            node = row * k + col
            if col + 1 < k:
                edges.append((node, node + 1))
            if row + 1 < k:
                edges.append((node, node + k))
    return sorted(edges)


def _edge_facts(edges, prob: float) -> list[ProbFact]:
    return [ProbFact(prob, Atom("e", (_int_term(u), _int_term(v))))
            for u, v in edges]


def gen_reach_ba(n: int, seed: int, run: int = 0) -> BenchmarkInstance:
    if n < 3:
        raise ValueError(f"reachBA needs at least 3 nodes, got {n}")
    rules = parse_program(REACH_RULES).rules
    facts = _edge_facts(_ba_edges(n, seed), EDGE_PROB)
    query = Query(Atom("path", (_int_term(0), _int_term(n - 1))))
    return BenchmarkInstance("reachBA", n, run, seed,
                             Program(tuple(facts), rules), query)


def gen_reach_grid(k: int, seed: int, run: int = 0) -> BenchmarkInstance:
    if k < 2:
        raise ValueError(f"reachGrid needs side length >= 2, got {k}")
    rules = parse_program(REACH_RULES).rules
    facts = _edge_facts(_grid_edges(k), EDGE_PROB)
    rng = random.Random(seed)
    target = rng.choice(range(1, k * k))  # every node is grid-reachable from 0
    query = Query(Atom("path", (_int_term(0), _int_term(target))))
    return BenchmarkInstance("reachGrid", k, run, seed,
                             Program(tuple(facts), rules), query)


def gen_smokers_ba(n: int, seed: int, run: int = 0) -> BenchmarkInstance:
    if n < 3:
        raise ValueError(f"smokersBA needs at least 3 people, got {n}")
    rules = parse_program(SMOKERS_RULES).rules
    facts = [ProbFact(STRESS_PROB, Atom("stress", (_int_term(i),)))
             for i in range(n)]
    facts += _edge_facts(_ba_edges(n, seed), INFLUENCE_PROB)
    query = Query(Atom("smokes", (_int_term(n - 1),)))
    return BenchmarkInstance("smokersBA", n, run, seed,
                             Program(tuple(facts), rules), query)


def gen_smokers_grid(k: int, seed: int, run: int = 0) -> BenchmarkInstance:
    if k < 2:
        raise ValueError(f"smokersGrid needs side length >= 2, got {k}")
    rules = parse_program(SMOKERS_RULES).rules
    facts = [ProbFact(STRESS_PROB, Atom("stress", (_int_term(i),)))
             for i in range(k * k)]
    facts += _edge_facts(_grid_edges(k), INFLUENCE_PROB)
    rng = random.Random(seed)
    target = rng.choice(range(k * k))
    query = Query(Atom("smokes", (_int_term(target),)))
    return BenchmarkInstance("smokersGrid", k, run, seed,
                             Program(tuple(facts), rules), query)


GENERATORS = {
    "reachBA": gen_reach_ba,
    "reachGrid": gen_reach_grid,
    "smokersBA": gen_smokers_ba,
    "smokersGrid": gen_smokers_grid,
}


def primal_graph(g: GroundProgram) -> dict[Atom, set[Atom]]:
    """Undirected co-occurrence graph of a grounding as adjacency sets:
    ground atoms are vertices, inserted in ``str`` order, and adjacent when
    they appear together in some rule."""
    graph = {a: set() for a in sorted(g.herbrand_base, key=str)}
    for rule in g.rules:
        atoms = {rule.head, *(l.atom for l in rule.body)}
        for a in atoms:
            graph[a] |= atoms - {a}
    return graph


def _min_fill_vertex(graph: dict[Atom, set[Atom]]) -> Atom | None:
    """The vertex whose elimination adds the fewest edges, ties broken as
    networkx's ``min_fill_in_heuristic`` does: the first strict minimum in
    a stable sort by degree.  None once the graph is a clique."""
    order = sorted(graph, key=lambda v: len(graph[v]))
    if len(graph[order[0]]) == len(graph) - 1:
        return None
    best, best_fill = None, float("inf")  # fill-in counted twice
    for v in order:
        nbrs, fill = graph[v], 0
        for u in nbrs:
            fill += len(nbrs - graph[u]) - 1
            if fill >= best_fill:
                break
        if fill < best_fill:
            if fill == 0:
                return v
            best, best_fill = v, fill
    return best


def primal_graph_stats(g: GroundProgram) -> DecompositionStats:
    """Min-fill tree decomposition statistics of a grounding's primal graph
    (Bodlaender & Koster 2010), as networkx's ``treewidth_min_fill_in``
    computes them: each eliminated vertex and its neighbours form a bag,
    and the clique left at the end forms one more.  The bags are distinct,
    since each holds its eliminated vertex and no later bag does.  The
    reported width is the upper bound max bag size minus one."""
    graph = primal_graph(g)
    if not graph:
        return DecompositionStats(0, 0, 0)
    bags, width = 1, 0
    while (v := _min_fill_vertex(graph)) is not None:
        nbrs = graph.pop(v)
        for u in nbrs:
            graph[u] = (graph[u] | nbrs) - {u, v}
        bags, width = bags + 1, max(width, len(nbrs))
    return DecompositionStats(bags, max(width, len(graph) - 1), len(g.herbrand_base))


CSV_HEADER = ("dataset,size,run,mode,engine,parse_ms,ground_ms,residual_ms,"
              "solve_ms,total_ms,lower,upper,bags,width_ub,vertices,status")


def instance_seed(base_seed: int, dataset: str, size: int, run: int) -> int:
    return zlib.crc32(f"{base_seed}:{dataset}:{size}:{run}".encode())


def run_benchmark(datasets, sizes, runs: int = 10,
                  engine: str = "enum", time_budget: float | None = None,
                  base_seed: int = 0,
                  max_prob_facts: int = DEFAULT_MAX_PROB_FACTS,
                  max_undefined: int = DEFAULT_MAX_UNDEFINED,
                  clock=time.perf_counter):
    """One CSV row per (dataset, size, run, mode), in that order, produced
    lazily.

    Every instance is generated up front, so ``ValueError`` comes before any
    row for an empty dataset or size list, an unknown dataset or engine, a size
    that a generator rejects, ``runs`` below 1, a ``time_budget`` that is not
    positive and a negative cap.  Solving respects ``time_budget`` seconds per
    row; rows that run out of budget or hit a cap are reported with status
    timeout/error instead of aborting the sweep.  All semantic columns are
    deterministic under a fixed seed; the *_ms columns read ``clock``, so
    passing a monotone stub makes entire rows reproducible byte for byte.
    """
    if not datasets or not sizes:
        raise ValueError("a sweep needs at least one dataset and one size")
    unknown = [d for d in datasets if d not in GENERATORS]
    if unknown:
        raise ValueError(f"unknown dataset(s): {', '.join(unknown)}")
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    if time_budget is not None and time_budget <= 0:
        raise ValueError(f"time_budget must be positive, got {time_budget}")
    check_caps(max_prob_facts=max_prob_facts, max_undefined=max_undefined)
    solve = select_engine(engine)
    instances = [GENERATORS[dataset](size, instance_seed(base_seed, dataset, size, run), run)
                 for dataset in datasets for size in sizes for run in range(runs)]
    return (_bench_row(instance, mode, engine, solve, time_budget,
                       max_prob_facts, max_undefined, clock)
            for instance in instances for mode in MODES)


def _bench_row(instance, mode, engine, solve, time_budget,
               max_prob_facts, max_undefined, clock):
    t0 = clock()
    program = parse_program(render_program(instance.program))
    parse_ms = (clock() - t0) * 1000.0

    residual_ms = 0.0
    status = "ok"
    interval = None
    target = program
    if mode == "residual":
        t0 = clock()
        try:
            target = extract_residual(program, instance.query).program
        except OlonError:
            status = "error"
        residual_ms = (clock() - t0) * 1000.0

    t0 = clock()
    grounded = ground_program(target)
    ground_ms = (clock() - t0) * 1000.0
    stats = primal_graph_stats(grounded)

    t0 = clock()
    if status == "ok":
        try:
            deadline = None if time_budget is None else clock() + time_budget
            interval = solve(target, instance.query, max_prob_facts=max_prob_facts,
                             max_undefined=max_undefined, deadline=deadline,
                             clock=clock)
        except SolveTimeout:
            status = "timeout"
        except (ProbFactLimitError, UndefinedAtomLimitError, OlonError):
            status = "error"
    solve_ms = (clock() - t0) * 1000.0

    total_ms = parse_ms + ground_ms + residual_ms + solve_ms
    lower = f"{interval.lower:.10f}" if interval is not None else ""
    upper = f"{interval.upper:.10f}" if interval is not None else ""
    return (f"{instance.dataset},{instance.size},{instance.run_index},{mode},"
            f"{engine},{parse_ms:.3f},{ground_ms:.3f},{residual_ms:.3f},"
            f"{solve_ms:.3f},{total_ms:.3f},{lower},{upper},"
            f"{stats.bag_count},{stats.width_upper_bound},{stats.vertex_count},"
            f"{status}")
