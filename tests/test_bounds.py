import math
import random

import pytest

from credal.bounds import (ProbabilityInterval, ProbFactLimitError, SolveTimeout,
                           World, _count_leaf, credal_bounds_2amc,
                           credal_bounds_enumeration, solve_query, world_probability)
from credal.ground import OlonError, ground_program
from credal.stable import iter_answer_sets, query_witnesses, reduce_world
from credal.syntax import (Atom, Literal, ProbFact, Program, Query, Rule, const,
                           parse_program, parse_query, render_program)

import programs
from corpus import (dynamically_stratified, enumerate_answer_sets, inner_count,
                    oracle_bounds, witness_pair)


EX4 = parse_program(programs.PROB_EDGES_RECURSIVE)
Q_PATH = parse_query("path(a,d)")


def test_world_probabilities_table():
    n = len(EX4.prob_facts)
    probs = [world_probability(EX4, World.from_index(i, n)) for i in range(2 ** n)]
    assert probs == pytest.approx(list(programs.WORLD_PROBABILITIES), abs=1e-12)
    assert math.fsum(probs) == pytest.approx(1.0, abs=1e-12)


def test_world_probability_empty_product():
    p = parse_program("q :- r.\nr.")
    assert world_probability(p, World(())) == 1.0


def test_world_from_index_bit_order():
    w = World.from_index(5, 3)  # binary 101, first fact = most significant
    assert w.selection == (True, False, True)


def test_world_counts_table():
    facts = [pf.atom for pf in EX4.prob_facts]
    n = len(facts)
    for index, (expected_q, expected_total) in enumerate(programs.WORLD_COUNTS):
        world = World.from_index(index, n)
        chosen = tuple(Rule(a) for a, sel in zip(facts, world.selection) if sel)
        g = ground_program(Program((), EX4.rules + chosen))
        answer_sets = enumerate_answer_sets(g)
        assert inner_count(answer_sets, Q_PATH) == (expected_q, expected_total)


def test_inner_count_neutral_element():
    assert inner_count((), Q_PATH) == (0, 0)


def test_bounds_prob_edges_all_engines_and_modes():
    for engine in (credal_bounds_enumeration, credal_bounds_2amc):
        interval = engine(EX4, Q_PATH)
        assert interval.lower == pytest.approx(0.0, abs=1e-9)
        assert interval.upper == pytest.approx(0.03, abs=1e-9)
    for mode in ("direct", "residual"):
        for engine in ("enum", "twoamc"):
            interval, _ = solve_query(EX4, Q_PATH, mode=mode, engine=engine)
            assert interval.lower == pytest.approx(0.0, abs=1e-9)
            assert interval.upper == pytest.approx(0.03, abs=1e-9)


def test_bounds_single_fact():
    p = parse_program("0.3::q.")
    q = parse_query("q")
    interval = credal_bounds_enumeration(p, q)
    assert interval.lower == pytest.approx(0.3, abs=1e-12)
    assert interval.upper == pytest.approx(0.3, abs=1e-12)


def test_bounds_independent_even_loop():
    p = parse_program("0.4::a.\nq :- not nq.\nnq :- not q.")
    interval = credal_bounds_enumeration(p, parse_query("q"))
    assert (interval.lower, interval.upper) == (0.0, 1.0)


def test_bounds_plain_fact_query():
    p = parse_program("q.\n0.5::a.")
    for engine in (credal_bounds_enumeration, credal_bounds_2amc):
        interval = engine(p, parse_query("q"))
        assert (interval.lower, interval.upper) == (1.0, 1.0)


def test_bounds_absent_query_atom():
    p = parse_program("0.5::a.")
    interval = credal_bounds_enumeration(p, parse_query("zzz"))
    assert (interval.lower, interval.upper) == (0.0, 0.0)


def test_bounds_query_on_prob_fact_atom():
    p = parse_program("0.25::a.\nq :- a.")
    for engine in (credal_bounds_enumeration, credal_bounds_2amc):
        interval = engine(p, parse_query("a"))
        assert interval.lower == pytest.approx(0.25, abs=1e-12)
        assert interval.upper == pytest.approx(0.25, abs=1e-12)


def test_world_solver_matches_fresh_grounding(corpus200, even_loop_corpus):
    # the engines ground once with every fact present and re-attach selected
    # facts per world; that must agree with grounding each world from scratch
    from credal.bounds import _WorldSolver

    for program, query in corpus200[:40] + even_loop_corpus[:40]:
        solver = _WorldSolver(program, query, max_prob_facts=25,
                              max_undefined=24, deadline=None, clock=None)
        facts = [pf.atom for pf in program.prob_facts]
        query_id = solver.index.ids.get(query.atom)
        for index in range(1 << solver.n):
            world = World.from_index(index, solver.n)
            chosen = tuple(Rule(a) for a, sel in zip(facts, world.selection) if sel)
            fresh = enumerate_answer_sets(
                ground_program(Program((), program.rules + chosen)))
            fact_ids = [i for i, sel in zip(solver.fact_ids, world.selection) if sel]
            answer_sets = frozenset(
                solver.index.to_atoms(ids)
                for ids in iter_answer_sets(reduce_world(solver.index, fact_ids, 24), None, None))
            assert answer_sets == fresh
            for leaf in (_count_leaf, query_witnesses):
                assert leaf(reduce_world(solver.index, fact_ids, 24), query_id, None, None) == \
                    witness_pair(fresh, query.atom), (leaf.__name__, world)


def test_engines_agree_on_corpus(corpus200, even_loop_corpus):
    for program, query in corpus200 + even_loop_corpus:
        a = credal_bounds_enumeration(program, query)
        b = credal_bounds_2amc(program, query)
        assert a.lower == pytest.approx(b.lower, abs=1e-12)
        assert a.upper == pytest.approx(b.upper, abs=1e-12)
        assert 0.0 <= a.lower <= a.upper <= 1.0


def test_world_probabilities_sum_to_one(corpus200):
    for program, _query in corpus200[:50]:
        n = len(program.prob_facts)
        total = math.fsum(world_probability(program, World.from_index(i, n))
                          for i in range(2 ** n))
        assert total == pytest.approx(1.0, abs=1e-9)


def test_point_interval_when_every_world_stratified(corpus200):
    from credal.wfs import wfm

    checked = 0
    for program, query in corpus200:
        facts = [pf.atom for pf in program.prob_facts]
        n = len(facts)
        stratified = True
        for index in range(2 ** n):
            world = World.from_index(index, n)
            chosen = tuple(Rule(a) for a, sel in zip(facts, world.selection) if sel)
            g = ground_program(Program((), program.rules + chosen))
            if not dynamically_stratified(g, wfm(g)):
                stratified = False
                break
        if not stratified:
            continue
        checked += 1
        interval = credal_bounds_enumeration(program, query)
        assert interval.lower == pytest.approx(interval.upper, abs=1e-12)
    assert checked >= 10


def test_prob_fact_cap():
    text = "\n".join(f"0.5::g{i}(a)." for i in range(6))
    p = parse_program(text)
    with pytest.raises(ProbFactLimitError, match="residual"):
        credal_bounds_enumeration(p, parse_query("g0(a)"), max_prob_facts=5)
    interval = credal_bounds_enumeration(p, parse_query("g0(a)"),
                                         max_prob_facts=6)
    assert interval.lower == pytest.approx(0.5)
    # the default cap admits 25 facts and refuses 26
    many = parse_program("\n".join(f"0.5::g{i}(a)." for i in range(26)))
    with pytest.raises(ProbFactLimitError) as exc:
        credal_bounds_enumeration(many, parse_query("g0(a)"))
    assert exc.value.count == 26 and exc.value.limit == 25


@pytest.mark.parametrize("cap", ["max_prob_facts", "max_undefined"])
def test_solve_query_refuses_negative_cap_before_any_work(cap):
    # an odd loop would raise OlonError once any work started
    olon = parse_program(programs.OLON_LOOP + "0.5::x.\n")
    decided = parse_program("a.\n")  # the residual decides the query
    for program, mode in ((olon, "direct"), (olon, "residual"), (decided, "residual")):
        with pytest.raises(ValueError, match=f"^{cap} must be at least 0, got -1$"):
            solve_query(program, parse_query("p"), mode=mode, **{cap: -1})
    interval, _ = solve_query(decided, parse_query("a"), max_prob_facts=0, max_undefined=0)
    assert (interval.lower, interval.upper) == (1.0, 1.0)


def test_solve_query_refuses_unknown_engine_before_any_work():
    olon = parse_program(programs.OLON_LOOP + "0.5::x.\n")
    for mode in ("direct", "residual"):
        with pytest.raises(ValueError,
                           match="^unknown engine 'foo'; known engines: enum, twoamc$"):
            solve_query(olon, parse_query("p"), mode=mode, engine="foo")


@pytest.mark.parametrize("cap", ["max_prob_facts", "max_undefined"])
def test_engines_refuse_negative_cap_before_any_work(cap):
    olon = parse_program(programs.OLON_LOOP + "0.5::x.\n")
    for engine in (credal_bounds_enumeration, credal_bounds_2amc):
        with pytest.raises(ValueError, match=f"^{cap} must be at least 0, got -1$"):
            engine(olon, parse_query("p"), **{cap: -1})


def test_engine_refuses_olon():
    p = parse_program(programs.OLON_LOOP + "0.5::x.\n")
    with pytest.raises(OlonError):
        credal_bounds_enumeration(p, parse_query("p"))


def test_timeout_raises():
    p = parse_program(programs.PROB_EDGES_RECURSIVE)
    ticks = iter(range(1000))

    def clock():
        return float(next(ticks))

    with pytest.raises(SolveTimeout):
        credal_bounds_enumeration(p, Q_PATH, deadline=2.0, clock=clock)


def test_timeout_inside_one_component():
    # an even ring of 18 atoms leaves every atom undefined in every world,
    # and the answer-set search reads the clock once per node; the budget
    # must stop that search inside world 0, not wait for the world loop
    ring = "\n".join(f"a{i} :- not a{(i + 1) % 18}." for i in range(18))
    p = parse_program(ring + "\n0.5::f.\nq :- a0, f.")
    reads = 0

    def clock():
        nonlocal reads
        reads += 1
        return float(reads)

    with pytest.raises(SolveTimeout):
        solve_query(p, parse_query("q"), mode="direct", deadline=2.0, clock=clock)
    assert reads < 10


def ten_even_loops():
    loops = "\n".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}." for i in range(10))
    return parse_program("0.5::f.\n" + loops + "\nq :- a0, f.")


@pytest.mark.parametrize("engine", ["enum", "twoamc"])
def test_engines_differ_in_clock_reads(engine):
    # each world has 2^10 answer sets: enum reads the clock once per search
    # node over all of them, twoamc once per node of at most two searches
    # that each stop at their first answer set
    reads = 0

    def clock():
        nonlocal reads
        reads += 1
        return 0.0

    interval, _ = solve_query(ten_even_loops(), parse_query("q"), mode="direct",
                              engine=engine, deadline=1e9, clock=clock)
    assert (interval.lower, interval.upper) == (0.0, 0.5)
    if engine == "twoamc":
        assert reads <= 60
    else:
        assert reads >= 2048


@pytest.mark.parametrize("engine", ["enum", "twoamc"])
def test_worlds_that_reduce_alike_share_one_search(engine):
    # nothing depends on g, so each world with f reduces to the program of
    # the same world with g flipped: four worlds, two searches.  One enum
    # search over the ten loops visits 2^11 - 1 nodes and reads the clock at
    # each, so four searches would read it at least 4 * 2^11 - 4 times
    program = parse_program("0.5::g.\n" + render_program(ten_even_loops()))
    reads = 0

    def clock():
        nonlocal reads
        reads += 1
        return 0.0

    interval, _ = solve_query(program, parse_query("q"), mode="direct",
                              engine=engine, deadline=1e9, clock=clock)
    assert (interval.lower, interval.upper) == (0.0, 0.5)
    if engine == "enum":
        assert reads < 3 * (2 ** 11 - 1)


def test_timeout_inside_the_witness_search():
    # the stub clock crosses the deadline in the second world, where the WFM
    # leaves q undefined, while twoamc searches for a witness; the search
    # raises at the first read past the deadline, the 21st
    p = ten_even_loops()
    reads = 0

    def clock():
        nonlocal reads
        reads += 1
        return float(reads)

    with pytest.raises(SolveTimeout) as exc:
        credal_bounds_2amc(p, parse_query("q"), deadline=20.0, clock=clock)
    assert "answer-set search" in str(exc.value)
    frames = [entry.name for entry in exc.traceback]
    assert frames[-1] == "_search" and "query_witnesses" in frames
    assert reads == 21


def test_interval_validation():
    with pytest.raises(ValueError):
        ProbabilityInterval(0.8, 0.2)
    assert str(ProbabilityInterval(0.0, 0.03)) == "[0.000000, 0.030000]"


def test_bounds_equal_exact_oracle(corpus200, even_loop_corpus):
    non_point = 0
    for program, query in corpus200 + even_loop_corpus:
        lower, upper = oracle_bounds(program, query)
        non_point += lower < upper
        for mode in ("direct", "residual"):
            for engine in ("enum", "twoamc"):
                interval, _ = solve_query(program, query, mode=mode, engine=engine)
                assert interval.lower == pytest.approx(float(lower), abs=1e-12), \
                    (mode, engine, render_program(program), query)
                assert interval.upper == pytest.approx(float(upper), abs=1e-12), \
                    (mode, engine, render_program(program), query)
    assert non_point >= 100


# Metamorphic checks: each pair of (program, query) must get the same
# interval, so none needs an oracle.  Every second pair of the even-loop
# corpus keeps their run time to a few seconds.

def assert_same_bounds(first, second):
    for mode in ("direct", "residual"):
        a, _ = solve_query(*first, mode=mode)
        b, _ = solve_query(*second, mode=mode)
        assert (a.lower, a.upper) == pytest.approx((b.lower, b.upper), abs=1e-12), \
            (mode, render_program(first[0]), first[1])


def renamed(program, query, rng):
    """The program and query under a random one-to-one renaming of their
    predicates and of their constants."""
    atoms = [query.atom, *(pf.atom for pf in program.prob_facts),
             *(a for r in program.rules for a in (r.head, *(l.atom for l in r.body)))]
    preds = sorted({a.predicate for a in atoms})
    consts = sorted({t.name for a in atoms for t in a.args if not t.is_variable})
    pred_map = dict(zip(preds, (f"n{i}" for i in rng.sample(range(100), len(preds)))))
    const_map = dict(zip(consts, (const(f"k{i}") for i in rng.sample(range(100), len(consts)))))

    def atom(a):
        return Atom(pred_map[a.predicate],
                    tuple(t if t.is_variable else const_map[t.name] for t in a.args))

    return (Program(tuple(ProbFact(pf.prob, atom(pf.atom)) for pf in program.prob_facts),
                    tuple(Rule(atom(r.head), tuple(Literal(atom(l.atom), l.negated)
                                                   for l in r.body))
                          for r in program.rules)),
            Query(atom(query.atom)))


def test_renaming_predicates_and_constants_keeps_bounds(even_loop_corpus):
    rng = random.Random(31)
    for program, query in even_loop_corpus[::2]:
        assert_same_bounds((program, query), renamed(program, query, rng))


def test_shuffling_statements_keeps_bounds(even_loop_corpus):
    rng = random.Random(32)
    for program, query in even_loop_corpus[::2]:
        shuffled = Program(tuple(rng.sample(program.prob_facts, len(program.prob_facts))),
                           tuple(rng.sample(program.rules, len(program.rules))))
        assert_same_bounds((program, query), (shuffled, query))


def test_unreachable_fact_keeps_bounds(even_loop_corpus):
    for program, query in even_loop_corpus[::2]:
        extra = Program(program.prob_facts + (ProbFact(0.37, Atom("unreached")),),
                        program.rules)
        assert_same_bounds((program, query), (extra, query))


def test_certain_and_impossible_facts(even_loop_corpus):
    # 0.0::a is the same as leaving a out, and 1.0::a the same as a.
    checked = 0
    for program, query in even_loop_corpus[::2]:
        facts = program.prob_facts
        for i, pf in enumerate(facts):
            rest = facts[:i] + facts[i + 1:]
            impossible = Program(rest + (ProbFact(0.0, pf.atom),), program.rules)
            assert_same_bounds((impossible, query), (Program(rest, program.rules), query))
            certain = Program(rest + (ProbFact(1.0, pf.atom),), program.rules)
            assert_same_bounds((certain, query),
                               (Program(rest, program.rules + (Rule(pf.atom),)), query))
            checked += 1
    assert checked >= 100
