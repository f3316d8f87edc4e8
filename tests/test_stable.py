import itertools
import random

import pytest

from credal.ground import GroundProgram, build_call_graph, ground_program
from credal.residual import encode_probabilistic_facts
from credal.stable import (UndefinedAtomLimitError, iter_answer_sets,
                           query_witnesses, reduce_world)
from credal.syntax import Atom, Program, Rule, parse_program, parse_query
from credal.wfs import IndexedProgram, wfm

import programs
from corpus import (derivable_ground, dynamically_stratified, enumerate_answer_sets,
                    gl_reduct, has_odd_cycle, is_stable, least_model,
                    project_answer_sets, random_olon_free_pasp, random_pasp,
                    subsets_stable_models, wfm_restricted_stable_models,
                    with_even_loops, witness_pair)


def world_ground(text, selected):
    """Ground program of one world of a probabilistic program."""
    p = parse_program(text)
    facts = tuple(Rule(pf.atom) for pf in p.prob_facts
                  if str(pf.atom) in selected)
    assert len(facts) == len(selected)
    return ground_program(Program((), p.rules + facts))


def test_gl_reduct_even_loop():
    g = ground_program(parse_program(programs.EVEN_LOOP))
    reduct = gl_reduct(g, frozenset({Atom("p"), Atom("q")}))
    assert set(reduct.rules) == set(parse_program("p :- q.\nq.").rules)


def test_gl_reduct_negation_free():
    g = ground_program(parse_program("a.\nb :- a.\nc :- d."))
    reduct = gl_reduct(g, frozenset({Atom("a"), Atom("b")}))
    assert set(reduct.rules) == set(parse_program("a.\nb :- a.\nc :- d.").rules)


def test_gl_reduct_odd_loop_empty_interpretation():
    # the reduct drops a rule only when its negative body meets I, so the
    # empty interpretation keeps every rule, and its least model is not I
    g = ground_program(parse_program(programs.OLON_LOOP))
    reduct = gl_reduct(g, frozenset())
    assert set(reduct.rules) == set(parse_program("p :- q.\nq.\nr :- p.").rules)
    assert least_model(reduct) == {Atom("p"), Atom("q"), Atom("r")}


def test_least_model():
    assert least_model(ground_program(parse_program("a.\nb :- a."))) == \
        {Atom("a"), Atom("b")}
    assert least_model(GroundProgram((), frozenset())) == frozenset()
    chain = ground_program(parse_program("p :- q.\nq.\nr :- p."))
    assert least_model(chain) == {Atom("p"), Atom("q"), Atom("r")}


def test_least_model_rejects_negation():
    with pytest.raises(ValueError):
        least_model(ground_program(parse_program("a :- not b.\nb.")))


def test_is_stable_even_loop():
    g = ground_program(parse_program(programs.EVEN_LOOP))
    assert is_stable(g, frozenset({Atom("p"), Atom("q")}))
    assert is_stable(g, frozenset({Atom("r")}))
    assert not is_stable(g, frozenset())
    # exactly those two among all eight subsets
    assert subsets_stable_models(g) == {frozenset({Atom("p"), Atom("q")}),
                                        frozenset({Atom("r")})}


def test_odd_loop_has_no_stable_model():
    g = ground_program(parse_program(programs.OLON_LOOP))
    assert subsets_stable_models(g) == frozenset()
    assert enumerate_answer_sets(g) == frozenset()


def test_is_stable_simple_fact_program():
    g = ground_program(parse_program("q :- a.\na."))
    assert is_stable(g, frozenset({Atom("q"), Atom("a")}))


def test_enumerate_two_hop_example():
    g = ground_program(parse_program(programs.EDGES_TWO_HOP))
    answer_sets = enumerate_answer_sets(g)
    assert len(answer_sets) == 8
    path_atoms = frozenset(a for a in g.herbrand_base if a.predicate == "path")
    projections = project_answer_sets(answer_sets, path_atoms)
    expected = {frozenset(parse_query(s).atom for s in names)
                for names in programs.TWO_HOP_PATH_PROJECTIONS}
    assert projections == expected


def test_enumerate_world_counts():
    q = parse_query("path(a,d)").atom
    full = world_ground(programs.PROB_EDGES_RECURSIVE,
                        {"e(a,b)", "e(a,c)", "e(b,d)"})
    answer_sets = enumerate_answer_sets(full)
    assert len(answer_sets) == 8
    assert sum(q in a for a in answer_sets) == 2

    w5 = world_ground(programs.PROB_EDGES_RECURSIVE, {"e(a,b)", "e(b,d)"})
    answer_sets = enumerate_answer_sets(w5)
    assert len(answer_sets) == 4
    assert sum(q in a for a in answer_sets) == 1


def test_projection_corner_cases():
    sets = frozenset({frozenset({Atom("a")}), frozenset({Atom("b")})})
    assert project_answer_sets(sets, frozenset()) == {frozenset()}
    assert project_answer_sets(sets, frozenset({Atom("a"), Atom("b")})) == sets


def test_enumeration_limit_error():
    text = "\n".join(f"a{i} :- not b{i}.\nb{i} :- not a{i}." for i in range(13))
    g = ground_program(parse_program(text))
    with pytest.raises(UndefinedAtomLimitError) as exc:
        enumerate_answer_sets(g, max_undefined=24)
    assert exc.value.count == 26
    assert "26" in str(exc.value)
    assert len(enumerate_answer_sets(g, max_undefined=26)) == 2 ** 13


def test_enumeration_refuses_negative_cap():
    g = ground_program(parse_program("a :- not b.\nb :- not a."))
    with pytest.raises(ValueError, match="^max_undefined must be at least 0, got -1$"):
        enumerate_answer_sets(g, max_undefined=-1)
    with pytest.raises(UndefinedAtomLimitError):
        enumerate_answer_sets(g, max_undefined=0)


def test_chained_components_need_no_global_check():
    # undefined atoms split into the components {a,b} < {c,d} < {e,f} <
    # {g,h}; {c,d} is a positive loop supported only through a, and the
    # local answer sets of {e,f} and {g,h} depend on the earlier choices
    g = ground_program(parse_program("""
        a :- not b.  b :- not a.
        c :- a.  c :- d.  d :- c.
        e :- c, not f.  f :- not e.
        g :- e, not h.  h :- not g.
    """))
    assert wfm(g).undefined_in(g.herbrand_base) == g.herbrand_base
    answer_sets = enumerate_answer_sets(g)
    assert answer_sets == subsets_stable_models(g)
    assert len(answer_sets) == 4


def ring(n):
    """``a_i :- not a_{i+1 mod n}``: two answer sets for even n, none for odd."""
    return "\n".join(f"a{i} :- not a{(i + 1) % n}." for i in range(n))


def test_even_ring_search_visits_few_nodes():
    # 2^18 candidate subsets, of which 2 are stable; the search reads the
    # clock once per node, so the reads count the nodes it visits
    index = IndexedProgram(ground_program(parse_program(ring(18))))
    reads = 0

    def clock():
        nonlocal reads
        reads += 1
        return 0.0

    found = {index.to_atoms(ids) for ids in
             iter_answer_sets(reduce_world(index, (), 24), 1.0, clock)}
    assert found == {frozenset(Atom(f"a{i}") for i in range(parity, 18, 2))
                     for parity in (0, 1)}
    assert reads <= 40


@pytest.mark.parametrize("n", [1, 3, 17])
def test_odd_ring_has_no_answer_set(n):
    assert enumerate_answer_sets(ground_program(parse_program(ring(n)))) == frozenset()


def test_every_world_of_an_odd_loop_free_program_has_an_answer_set():
    # the engines rely on this theorem instead of checking each world (see
    # the stable and bounds module docstrings); the subset filter shares no
    # code with them.  Even loops give some worlds several answer sets.
    rng = random.Random(2718)
    checked = several = 0
    for _ in range(80):
        program = random_olon_free_pasp(rng)
        for p in (program, with_even_loops(rng, program)[0]):
            if has_odd_cycle(build_call_graph(p)):
                continue
            for selection in itertools.product((False, True), repeat=len(p.prob_facts)):
                chosen = tuple(Rule(pf.atom) for pf, sel in zip(p.prob_facts, selection) if sel)
                g = derivable_ground(Program((), p.rules + chosen))
                if len(g.herbrand_base) > 9:  # 2^9 candidate sets at most
                    continue
                answer_sets = subsets_stable_models(g)
                assert answer_sets, (p, selection)
                checked += 1
                several += len(answer_sets) > 1
    assert checked >= 400 and several >= 50


def negation_heavy_program(rng):
    """Up to 8 atoms and mostly rules ``a_i :- not a_j``, often mirrored
    into an even loop, some with a second negative or a positive literal,
    and the odd fact.  Up to 10 atoms would make the subset filter take
    about 9 s for 300 programs."""
    n = rng.randint(2, 8)
    lines = []
    for _ in range(rng.randint(n, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if rng.random() < 0.05:
            lines.append(f"a{i}.")
            continue
        body = [f"not a{j}"]
        if rng.random() < 0.2:
            body.append(f"not a{rng.randrange(n)}")
        if rng.random() < 0.2:
            body.append(f"a{rng.randrange(n)}")
        lines.append(f"a{i} :- {', '.join(body)}.")
        if rng.random() < 0.4:
            lines.append(f"a{j} :- not a{i}.")
    return ground_program(parse_program("\n".join(lines)))


def test_search_equals_subset_filter_on_negation_heavy_programs():
    rng = random.Random(31337)
    several = none = 0
    for _ in range(300):
        g = negation_heavy_program(rng)
        index = IndexedProgram(g)
        # a list, as the engines count answer sets: none may come twice
        answer_sets = [index.to_atoms(ids) for ids in
                       iter_answer_sets(reduce_world(index, (), 10), None, None)]
        assert len(set(answer_sets)) == len(answer_sets), g.rules
        assert set(answer_sets) == subsets_stable_models(g), g.rules
        # query_witnesses relies on the world having an answer set, which
        # holds for every program the engines accept (no odd loop)
        for atom in g.herbrand_base if answer_sets else ():
            assert query_witnesses(reduce_world(index, (), 10), index.ids[atom], None, None) == \
                witness_pair(answer_sets, atom), (atom, g.rules)
        several += len(answer_sets) > 1
        none += not answer_sets
    assert several >= 50 and none >= 50


@pytest.mark.parametrize("text, query, expected", [
    ("t.\na :- not b.\nb :- not a.", "t", (True, False)),  # the WFM makes t true
    ("t.\nf :- not t.\na :- not b.\nb :- not a.", "f", (False, True)),  # and f false
    ("a :- not b.\nb :- not a.", "zzz", (False, True)),  # outside the grounding
    ("a :- not b.\nb :- not a.", "a", (True, True)),
    ("a :- not b.\nb :- not a.\nq :- a, b.", "q", (False, True)),  # undefined, in none
])
def test_query_witnesses_on_decided_and_absent_queries(text, query, expected):
    g = ground_program(parse_program(text))
    index = IndexedProgram(g)
    atom = parse_query(query).atom
    pair = query_witnesses(reduce_world(index, (), 10), index.ids.get(atom), None, None)
    assert pair == expected == witness_pair(subsets_stable_models(g), atom)


def test_query_witnesses_reads_a_decided_query_without_a_search():
    # the clock is past the deadline, so any search would raise SolveTimeout
    g = ground_program(parse_program("t.\nf :- not t.\na :- not b.\nb :- not a."))
    index = IndexedProgram(g)
    world = reduce_world(index, (), 10)
    assert query_witnesses(world, index.ids[Atom("t")], 0.0, lambda: 1.0) == (True, False)
    assert query_witnesses(world, index.ids[Atom("f")], 0.0, lambda: 1.0) == (False, True)
    assert query_witnesses(world, None, 0.0, lambda: 1.0) == (False, True)


def test_enumeration_equals_subset_filter_small(corpus200):
    checked = 0
    for program, _query in corpus200:
        encoded, _ = encode_probabilistic_facts(program)
        g = ground_program(encoded)
        if len(g.herbrand_base) > 12:
            continue
        checked += 1
        assert enumerate_answer_sets(g) == subsets_stable_models(g)
    assert checked >= 20


def test_enumeration_equals_wfm_restricted_filter(corpus200):
    for program, _query in corpus200:
        encoded, _ = encode_probabilistic_facts(program)
        g = ground_program(encoded)
        assert enumerate_answer_sets(g) == wfm_restricted_stable_models(g)


def test_every_answer_set_is_a_classical_model(corpus200):
    for program, _query in corpus200[:100]:
        encoded, _ = encode_probabilistic_facts(program)
        g = ground_program(encoded)
        for answer_set in enumerate_answer_sets(g):
            for rule in g.rules:
                body_holds = all(
                    (lit.atom not in answer_set) if lit.negated
                    else (lit.atom in answer_set)
                    for lit in rule.body)
                assert not body_holds or rule.head in answer_set


def test_negation_free_program_has_unique_answer_set():
    rng = random.Random(12)
    for _ in range(100):
        raw = random_pasp(rng)
        rules = tuple(Rule(r.head, tuple(l for l in r.body if not l.negated))
                      for r in raw.rules)
        g = ground_program(Program((), rules))
        assert enumerate_answer_sets(g) == frozenset({least_model(g)})


def test_dynamically_stratified_unique_answer_set(corpus200):
    checked = 0
    for program, _query in corpus200:
        encoded, _ = encode_probabilistic_facts(program)
        g = ground_program(encoded)
        model = wfm(g)
        if not dynamically_stratified(g, model):
            continue
        checked += 1
        assert enumerate_answer_sets(g) == frozenset({frozenset(model.true_set)})
    assert checked >= 5
