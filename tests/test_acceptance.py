"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <n> PASS`` line (run pytest with
``-s`` or ``-rP`` to see them) and enforces its runtime budget.
"""

import importlib.util
import itertools
import time
from pathlib import Path

import pytest

from credal.bench import run_benchmark
from credal.bounds import (credal_bounds_2amc, credal_bounds_enumeration,
                           solve_query)
from credal.ground import build_call_graph, detect_olon, ground_program
from credal.residual import (UNDEFINED, encode_probabilistic_facts,
                             extract_residual)
from credal.syntax import (Program, Rule, parse_program, parse_query,
                           render_program)
from credal.wfs import wf_reduct, wfm

import programs
from corpus import (canonical_program, dynamically_stratified,
                    enumerate_answer_sets, ground_rule_count, inner_count,
                    project_answer_sets, random_pasp, subsets_stable_models,
                    world_weight)

EX4 = parse_program(programs.PROB_EDGES_RECURSIVE)
Q_PATH = parse_query("path(a,d)")


def _report(number: int, started: float, budget: float, detail: str) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:.2f}s): {detail}")


def test_criterion_01_world_table():
    started = time.perf_counter()
    facts = [pf.atom for pf in EX4.prob_facts]
    n = len(facts)
    expected_probs = programs.WORLD_PROBABILITIES
    # The fact-free world has exactly one answer set, the empty one; a world
    # with zero answer sets would make the credal semantics undefined and
    # the bounds of this program could not come out as [0, 0.03].
    expected_counts = programs.WORLD_COUNTS
    worlds = itertools.product((False, True), repeat=n)
    for index, selection in enumerate(worlds):
        assert float(world_weight(EX4, selection)) == expected_probs[index]
        chosen = tuple(Rule(a) for a, sel in zip(facts, selection) if sel)
        answer_sets = enumerate_answer_sets(
            ground_program(Program((), EX4.rules + chosen)))
        assert inner_count(answer_sets, Q_PATH) == expected_counts[index]
    _report(1, started, 1.0, "8 world probabilities and answer-set counts")


def test_criterion_02_query_bounds_all_modes_and_engines():
    started = time.perf_counter()
    for mode in ("direct", "residual"):
        for engine in ("enum", "twoamc"):
            interval, _ = solve_query(EX4, Q_PATH, mode=mode, engine=engine)
            assert interval.lower == pytest.approx(0.0, abs=1e-9), (mode, engine)
            assert interval.upper == pytest.approx(0.03, abs=1e-9), (mode, engine)
    _report(2, started, 1.0, "P(path(a,d)) = [0, 0.03] in 4 mode/engine combinations")


def test_criterion_03_golden_residual():
    started = time.perf_counter()
    program = parse_program(programs.EDGES_RECURSIVE)
    residual = extract_residual(program, Q_PATH)
    assert residual.query_status == UNDEFINED
    golden = parse_program(programs.GOLDEN_RESIDUAL)
    canonical = {(r.head, frozenset(r.body)) for r in residual.program.rules}
    expected = {(r.head, frozenset(r.body)) for r in golden.rules}
    assert canonical == expected
    assert len(residual.program.rules) == 6
    _report(3, started, 1.0, "six-rule residual for path(a,d) reproduced")


def test_criterion_04_answer_set_projections():
    started = time.perf_counter()
    program = parse_program(programs.EDGES_TWO_HOP)
    g = ground_program(program)
    answer_sets = enumerate_answer_sets(g)
    assert len(answer_sets) == 8
    path_atoms = frozenset(a for a in g.herbrand_base if a.predicate == "path")
    projections = project_answer_sets(answer_sets, path_atoms)
    expected = {frozenset(parse_query(s).atom for s in names)
                for names in programs.TWO_HOP_PATH_PROJECTIONS}
    assert projections == expected
    _report(4, started, 1.0, "8 answer sets project to the listed path/2 sets")


def test_criterion_05_olon_and_stable_models():
    started = time.perf_counter()
    with_olon = parse_program(programs.OLON_LOOP)
    without_olon = parse_program(programs.EVEN_LOOP)
    assert detect_olon(build_call_graph(with_olon)) is not None
    assert detect_olon(build_call_graph(without_olon)) is None

    g_olon = ground_program(with_olon)
    assert enumerate_answer_sets(g_olon) == frozenset()
    assert subsets_stable_models(g_olon) == frozenset()

    g_even = ground_program(without_olon)
    expected = {frozenset({parse_query("p").atom, parse_query("q").atom}),
                frozenset({parse_query("r").atom})}
    assert enumerate_answer_sets(g_even) == expected
    assert subsets_stable_models(g_even) == expected
    _report(5, started, 1.0, "odd loop detected, 0 vs 2 stable models as listed")


def test_criterion_06_residual_and_engine_agreement(corpus200, even_loop_corpus):
    started = time.perf_counter()
    for program, query in corpus200 + even_loop_corpus:
        direct_enum = credal_bounds_enumeration(program, query)
        direct_2amc = credal_bounds_2amc(program, query)
        assert direct_enum.lower == pytest.approx(direct_2amc.lower, abs=1e-12)
        assert direct_enum.upper == pytest.approx(direct_2amc.upper, abs=1e-12)
        for engine in ("enum", "twoamc"):
            via_residual, _ = solve_query(program, query, mode="residual",
                                          engine=engine)
            assert via_residual.lower == pytest.approx(direct_enum.lower, abs=1e-9)
            assert via_residual.upper == pytest.approx(direct_enum.upper, abs=1e-9)
    _report(6, started, 60.0,
            "direct = residual (1e-9) and enum = 2AMC (1e-12) on 440 programs")


def test_criterion_07_reduct_and_projection_properties(corpus200):
    started = time.perf_counter()
    for program, query in corpus200:
        encoded, _ = encode_probabilistic_facts(program)
        g = ground_program(encoded)
        answer_sets = enumerate_answer_sets(g)
        reduct = wf_reduct(g, wfm(g))
        assert enumerate_answer_sets(reduct) == answer_sets

        residual = extract_residual(program, query)
        encoded_res, _ = encode_probabilistic_facts(residual.program)
        res_ground = ground_program(encoded_res)
        assert project_answer_sets(answer_sets, res_ground.herbrand_base) == \
            enumerate_answer_sets(res_ground)
    _report(7, started, 60.0,
            "answer sets survive the reduct and project onto the residual")


def test_criterion_08_wfs_bounds_stable_models(corpus200):
    started = time.perf_counter()
    stratified_seen = 0
    for program, _query in corpus200:
        encoded, _ = encode_probabilistic_facts(program)
        g = ground_program(encoded)
        model = wfm(g)
        answer_sets = enumerate_answer_sets(g)
        for answer_set in answer_sets:
            assert model.true_set <= answer_set
            assert not (model.false_set & answer_set)
        if dynamically_stratified(g, model):
            stratified_seen += 1
            assert answer_sets == frozenset({frozenset(model.true_set)})
    assert stratified_seen > 0
    _report(8, started, 60.0,
            f"WFM brackets every answer set ({stratified_seen} stratified programs)")


def _family_oracle():
    """``perfbench/oracle.py``, the exact bounds of the reach and smokers
    families, computed without any of credal's code."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("family_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _criterion_09_rows():
    budget = 4.0
    sweeps = (("reachGrid", (2, 3)), ("reachBA", (5, 10)), ("smokersBA", (5, 10)))
    rows = []
    for dataset, sizes in sweeps:
        rows.extend(run_benchmark([dataset], list(sizes), runs=10,
                                  time_budget=budget, base_seed=0,
                                  clock=time.process_time))
    return rows


def test_criterion_09_size_and_width_trend():
    started = time.perf_counter()
    from credal.bench import GENERATORS, instance_seed

    rows = _criterion_09_rows()
    parsed = {}
    for row in rows:
        cols = row.split(",")
        key = (cols[0], int(cols[1]), int(cols[2]))
        parsed.setdefault(key, {})[cols[3]] = {
            "bounds": (cols[10], cols[11]),
            "bags": int(cols[12]), "width": int(cols[13]),
            "vertices": int(cols[14]), "status": cols[15],
        }
    assert len(parsed) == 60

    oracle = _family_oracle()
    strict = 0
    both_ok = 0
    oracle_checked = 0
    for (dataset, size, run), modes in sorted(parsed.items()):
        seed = instance_seed(0, dataset, size, run)
        instance = GENERATORS[dataset](size, seed, run)
        facts = [(pf.atom.predicate, tuple(t.name for t in pf.atom.args), pf.prob)
                 for pf in instance.program.prob_facts]
        query = instance.query.atom
        exact = oracle.exact_bounds(
            "reach" if dataset.startswith("reach") else "smokers", facts,
            (query.predicate, tuple(t.name for t in query.args)))
        for mode, row in modes.items():
            if row["status"] == "ok":
                oracle_checked += 1
                for got, want in zip(row["bounds"], exact):
                    assert float(got) == pytest.approx(want, abs=1e-9), \
                        (dataset, size, run, mode)
        residual = extract_residual(instance.program, instance.query)
        rules_direct = ground_rule_count(instance.program)
        rules_residual = ground_rule_count(residual.program)
        facts_direct = len(instance.program.prob_facts)
        facts_residual = len(residual.program.prob_facts)
        direct, resid = modes["direct"], modes["residual"]

        assert rules_residual <= rules_direct, (dataset, size, run)
        assert facts_residual <= facts_direct, (dataset, size, run)
        assert resid["bags"] <= direct["bags"], (dataset, size, run)
        assert resid["width"] <= direct["width"], (dataset, size, run)
        if (rules_residual < rules_direct or facts_residual < facts_direct
                or resid["bags"] < direct["bags"]
                or resid["width"] < direct["width"]):
            strict += 1

        if direct["status"] == "ok" and resid["status"] == "ok":
            both_ok += 1
            lo_d, hi_d = (float(x) for x in direct["bounds"])
            lo_r, hi_r = (float(x) for x in resid["bounds"])
            assert lo_d == pytest.approx(lo_r, abs=1e-9), (dataset, size, run)
            assert hi_d == pytest.approx(hi_r, abs=1e-9), (dataset, size, run)
        # the small sizes must be solvable in both modes
        if (dataset, size) in (("reachGrid", 2), ("reachBA", 5), ("smokersBA", 5)):
            assert direct["status"] == "ok" == resid["status"], (dataset, size, run)

    assert strict >= 0.8 * len(parsed)
    _report(9, started, 300.0,
            f"residual never larger on 60 instances, strictly smaller on "
            f"{strict}, equal bounds on {both_ok} instances solved both ways, "
            f"{oracle_checked} solved rows equal to the family oracle")


def test_criterion_10_round_trip_and_csv_determinism():
    started = time.perf_counter()
    import random

    rng = random.Random(424242)
    for _ in range(500):
        program = canonical_program(random_pasp(rng))
        assert parse_program(render_program(program)) == program

    class StubClock:
        def __init__(self):
            self.now = 0.0

        def __call__(self):
            self.now += 0.001
            return self.now

    def csv_once():
        lines = list(run_benchmark(["reachGrid", "smokersGrid"], [2], runs=3,
                                   time_budget=None, base_seed=7,
                                   clock=StubClock()))
        return "\n".join(lines).encode()

    assert csv_once() == csv_once()
    _report(10, started, 120.0,
            "parse/render identity on 500 programs, byte-identical CSV")
