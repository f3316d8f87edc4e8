import random

import pytest

from credal.ground import (CallGraph, OlonError, OlonWitness, build_call_graph,
                           build_dependency_graph, detect_olon,
                           dot_call_graph, dot_dependency_graph,
                           ground_program, reachable_atoms)
from credal.bench import gen_reach_grid
from credal.bounds import credal_bounds_2amc, credal_bounds_enumeration, solve_query
from credal.residual import encode_probabilistic_facts, extract_residual
from credal.syntax import Atom, Program, Query, Rule, parse_program, parse_query
from credal.wfs import wfm

import programs
from corpus import (derivable_ground, enumerate_answer_sets, has_odd_cycle,
                    make_corpus, naive_ground, random_pasp,
                    random_pasp_with_fact_heads, relevant_subprogram)


def atoms(*names):
    return {parse_query(n).atom for n in names}


def test_grounding_two_hop_example():
    p = parse_program(programs.EDGES_TWO_HOP)
    g = ground_program(p)
    # 3 facts + one edge/nedge pair per fact + 3 one-hop path rules
    # + the single derivable two-hop instance path(a,d)
    assert len(g.rules) == 13
    heads = sorted(str(r.head) for r in g.rules)
    assert heads.count("path(a,d)") == 1
    assert "path(c,d)" not in set(heads)


def test_grounding_propositional_identity():
    p = parse_program("p :- q.\nq :- not r.\nr :- p.")
    g = ground_program(p)
    assert set(g.rules) == set(p.rules)


def test_grounding_keeps_underivable_ground_rule():
    p = parse_program("p :- q.")
    g = ground_program(p)
    assert set(g.rules) == set(p.rules)


def test_overapproximation_matches_naive_grounding_semantics():
    corpus = make_corpus(seed=515, count=200, max_undefined=14)
    for program in corpus:
        encoded, _ = encode_probabilistic_facts(program)
        fast = ground_program(encoded)
        slow = naive_ground(encoded)
        fast_model, slow_model = wfm(fast), wfm(slow)
        assert fast_model.true_set == slow_model.true_set
        assert fast_model.undefined_in(fast.herbrand_base) == \
            slow_model.undefined_in(slow.herbrand_base)
        assert fast_model.false_set == slow_model.false_set & fast.herbrand_base
        assert enumerate_answer_sets(fast) == enumerate_answer_sets(slow)


def _open_fact_oracle(program):
    """``derivable_ground`` of the program with its facts demoted to rules
    ``a.``, minus those rules, with every fact atom in the base."""
    facts = [Rule(pf.atom) for pf in program.prob_facts]
    oracle = derivable_ground(Program((), program.rules + tuple(facts)))
    return (tuple(r for r in oracle.rules if r not in facts),
            oracle.herbrand_base | {pf.atom for pf in program.prob_facts})


def test_grounding_rule_for_rule_against_oracle():
    rng = random.Random(4242)
    sources = (make_corpus(seed=515, count=200, max_undefined=14)
               + [random_pasp(rng) for _ in range(200)])
    cases = [encode_probabilistic_facts(p)[0] for p in sources] + sources
    for program in cases:
        g = ground_program(program)
        assert (g.rules, g.herbrand_base) == _open_fact_oracle(program)


def test_grounding_keeps_facts_open():
    g = ground_program(parse_program("0.1::a. 0.2::lonely. b :- a."))
    assert g.rules == (parse_program("b :- a.").rules[0],)
    assert g.herbrand_base == atoms("a", "b", "lonely")
    program = parse_program("0.5::lonely. 0.5::a. q :- a.")
    for mode in ("direct", "residual"):
        for engine in ("enum", "twoamc"):
            interval, _ = solve_query(program, parse_query("q"), mode=mode, engine=engine)
            assert [interval.lower, interval.upper] == [0.5, 0.5]


def _heads(g):
    return {str(r.head) for r in g.rules}


def test_grounding_delta_at_later_body_position():
    # e/2 is derived a round after path(c,d), so the join that finds
    # path(b,d) starts from the new e atoms at the second body position
    p = parse_program("path(c,d).\ne0(a,b).\ne0(b,c).\n"
                      "e(X,Y) :- e0(X,Y).\npath(X,Z) :- path(Y,Z), e(X,Y).")
    g = ground_program(p)
    assert g.rules == derivable_ground(p).rules
    assert {"path(b,d)", "path(a,d)"} <= _heads(g)
    assert "path(a,c)" not in _heads(g)


def test_grounding_repeated_variable():
    p = parse_program("e(a,a).\ne(a,b).\ne(b,a).\n"
                      "loop(X) :- e(X,X).\nsym(X,Y) :- e(X,Y), e(Y,X).")
    g = ground_program(p)
    assert g.rules == derivable_ground(p).rules
    assert {h for h in _heads(g) if h.startswith("loop")} == {"loop(a)"}
    assert {h for h in _heads(g) if h.startswith("sym")} == \
        {"sym(a,a)", "sym(a,b)", "sym(b,a)"}


def test_grounding_constant_in_body():
    p = parse_program("r(b,a).\nr(c,b).\nq(X) :- r(X,a).")
    g = ground_program(p)
    assert g.rules == derivable_ground(p).rules
    assert {h for h in _heads(g) if h.startswith("q")} == {"q(b)"}


def test_grounding_zero_arity_atoms():
    p = parse_program("a.\nf(x).\nf(y).\nb :- a, not c.\n"
                      "p(X) :- b, f(X), not a.\nq :- p(X).\nc :- d.")
    g = ground_program(p)
    assert g.rules == derivable_ground(p).rules
    assert {"b", "p(x)", "p(y)", "q"} <= _heads(g)
    assert sum(str(r.head) == "q" for r in g.rules) == 2  # one per p(_)
    assert "c :- d." in {str(r) for r in g.rules}  # ground, so kept verbatim


def test_grounding_body_first_satisfiable_in_round_three():
    # a(x) and s(x) in round 0, b(x) in round 1, c(x) in round 2, t(x) in 3
    p = parse_program("a(x).\ns(x).\nb(X) :- a(X).\nc(X) :- b(X).\n"
                      "t(X) :- c(X), s(X).")
    g = ground_program(p)
    assert g.rules == derivable_ground(p).rules
    assert "t(x) :- c(x), s(x)." in {str(r) for r in g.rules}


def test_grounding_reach_grid_10_size():
    instance = gen_reach_grid(10, seed=0)
    encoded, _ = encode_probabilistic_facts(instance.program)
    assert len(ground_program(encoded).rules) == 5670


def test_call_graph_edges():
    graph = build_call_graph(parse_program(programs.OLON_LOOP))
    assert graph.edges == {(("p", 0), ("q", 0), "+"),
                           (("q", 0), ("r", 0), "-"),
                           (("r", 0), ("p", 0), "+")}
    graph_b = build_call_graph(parse_program(programs.EVEN_LOOP))
    assert (("r", 0), ("p", 0), "-") in graph_b.edges
    assert build_call_graph(parse_program("0.1::a.")).edges == frozenset()


def test_detect_olon_fig_examples():
    witness = detect_olon(build_call_graph(parse_program(programs.OLON_LOOP)))
    assert witness is not None
    assert set(witness.nodes) == {("p", 0), ("q", 0), ("r", 0)}
    assert witness.signs.count("-") == 1
    assert detect_olon(build_call_graph(parse_program(programs.EVEN_LOOP))) is None


def test_detect_olon_negation_free():
    assert detect_olon(build_call_graph(parse_program("a :- b.\nb :- a."))) is None


def test_detect_olon_negative_self_loop():
    witness = detect_olon(build_call_graph(parse_program("p :- not p.")))
    assert witness is not None
    assert witness.nodes == (("p", 0),)
    assert witness.signs == ("-",)


def test_detect_olon_witness_with_two_odd_loops():
    # a reaches an odd loop without lying on one; b is the first node on one
    text = ("a :- b.\nb :- not c.\nc :- d.\nd :- b.\n"
            "x :- not y.\ny :- not z.\nz :- not x, a.")
    witness = detect_olon(build_call_graph(parse_program(text)))
    assert witness == OlonWitness((("b", 0), ("c", 0), ("d", 0)), ("-", "+", "+"))
    assert str(OlonError(witness)) == \
        "odd loop over negation: b/0 -[-]-> c/0 -[+]-> d/0 -[+]-> b/0"


def test_detect_olon_on_program_agrees_with_encoded_program():
    # the fact loops add only even two-cycles p -> __not_p -> p, so the
    # program's own call graph has an odd loop exactly when the encoded
    # one does, with the same witness unless a fact predicate lies on one
    rng = random.Random(1010)
    olon = same = 0
    for _ in range(2000):
        program = random_pasp_with_fact_heads(rng)
        graph = build_call_graph(program)
        witness = detect_olon(graph)
        encoded = detect_olon(build_call_graph(encode_probabilistic_facts(program)[0]))
        assert (witness is None) == (encoded is None), program
        if not any(_on_odd_loop(graph, pf.atom.signature) for pf in program.prob_facts):
            assert witness == encoded, program
            same += witness is not None
        for check in (extract_residual, credal_bounds_enumeration):
            if witness is None:
                check(program, Query(Atom("p")))
            else:
                with pytest.raises(OlonError) as exc:
                    check(program, Query(Atom("p")))
                assert exc.value.witness == witness
        olon += witness is not None
    assert 500 < olon < 1500 and same > 100


def _on_odd_loop(graph, node) -> bool:
    """Whether a closed walk through ``node`` crosses an odd number of
    negative edges: a search of the parity cover from its even copy."""
    seen, frontier = {(node, 0)}, [(node, 0)]
    while frontier:
        current, parity = frontier.pop()
        for src, dst, sign in graph.edges:
            nxt = (dst, parity ^ (sign == "-"))
            if src == current and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return (node, 1) in seen


def test_olon_witness_is_first_predicate_on_an_odd_loop():
    # two odd loops, one through the fact predicate e/1: the witness is the
    # loop through d/0, the first predicate on one in sorted order
    program = parse_program("0.5::e(a).\ne(b) :- not e(b).\nd :- not d.\n")
    message = "odd loop over negation: d/0 -[-]-> d/0"
    assert detect_olon(build_call_graph(program)) == OlonWitness((("d", 0),), ("-",))
    for check in (extract_residual, credal_bounds_enumeration, credal_bounds_2amc):
        with pytest.raises(OlonError) as exc:
            check(program, parse_query("d"))
        assert str(exc.value) == message
    with pytest.raises(OlonError, match="d/0 -"):
        solve_query(program, parse_query("d"), mode="direct")


def _random_call_graph(rng):
    n = rng.randint(1, 8)
    nodes = [(f"n{i}", 0) for i in range(n)]
    edges = set()
    for _ in range(rng.randint(0, 2 * n)):
        edges.add((rng.choice(nodes), rng.choice(nodes), rng.choice("+-")))
    return CallGraph(frozenset(nodes), frozenset(edges))


def test_detect_olon_agrees_with_cycle_enumeration():
    rng = random.Random(2024)
    for _ in range(300):
        graph = _random_call_graph(rng)
        witness = detect_olon(graph)
        assert (witness is not None) == has_odd_cycle(graph)
        if witness is not None:
            # the witness itself must be an odd cycle of the graph
            assert witness.signs.count("-") % 2 == 1
            k = len(witness.nodes)
            for i in range(k):
                src, dst = witness.nodes[i], witness.nodes[(i + 1) % k]
                assert (src, dst, witness.signs[i]) in graph.edges
            assert len(set(witness.nodes)) == k


def test_dependency_graph_shared_by_fig_programs():
    for text in (programs.OLON_LOOP, programs.EVEN_LOOP):
        g = ground_program(parse_program(text))
        dep = build_dependency_graph(g)
        assert dep.edges == {(Atom("p"), Atom("q")), (Atom("q"), Atom("r")),
                             (Atom("r"), Atom("p"))}


def test_dependency_graph_fact_only():
    g = ground_program(parse_program("a. b."))
    assert build_dependency_graph(g).edges == frozenset()


def test_dependency_reachability_two_hop():
    g = ground_program(parse_program(programs.EDGES_TWO_HOP))
    dep = build_dependency_graph(g)
    reach = reachable_atoms(dep, parse_query("path(a,d)").atom)
    assert atoms("edge(a,b)", "edge(b,d)", "nedge(a,b)", "nedge(b,d)",
                 "e(a,b)", "e(b,d)") <= reach
    assert parse_query("e(a,c)").atom not in reach


def test_dependency_edges_backed_by_rules():
    g = ground_program(parse_program(programs.EDGES_RECURSIVE))
    dep = build_dependency_graph(g)
    for head, body in dep.edges:
        assert any(r.head == head and body in {l.atom for l in r.body}
                   for r in g.rules)


def test_relevant_subprogram():
    p = parse_program("q :- a.\na.")
    g = ground_program(p)
    rel = relevant_subprogram(g, parse_query("q"))
    assert set(rel.rules) == set(g.rules)

    p2 = parse_program("q :- a.\na.\nb.")
    g2 = ground_program(p2)
    rel2 = relevant_subprogram(g2, parse_query("q"))
    assert Atom("b") not in rel2.herbrand_base
    assert len(rel2.rules) == 2


def test_relevant_subprogram_idempotent_and_shrinking():
    rng = random.Random(31)
    for _ in range(50):
        program = random_pasp(rng)
        encoded, _ = encode_probabilistic_facts(program)
        g = ground_program(encoded)
        if not g.herbrand_base:
            continue
        query = Query(sorted(g.herbrand_base, key=str)[0])
        rel = relevant_subprogram(g, query)
        assert set(rel.rules) <= set(g.rules)
        assert relevant_subprogram(rel, query) == rel


def test_relevance_drops_unrelated_prob_fact():
    p = parse_program(programs.PROB_EDGES_RECURSIVE)
    encoded, _ = encode_probabilistic_facts(p)
    g = ground_program(encoded)
    rel = relevant_subprogram(g, parse_query("path(a,d)"))
    assert parse_query("e(a,c)").atom not in rel.herbrand_base
    assert parse_query("e(a,b)").atom in rel.herbrand_base


def test_dot_outputs():
    p = parse_program(programs.OLON_LOOP)
    call_dot = dot_call_graph(build_call_graph(p))
    assert '"q/0" -> "r/0" [label="-"];' in call_dot
    dep_dot = dot_dependency_graph(build_dependency_graph(ground_program(p)))
    assert '"q" -> "r";' in dep_dot
    assert dep_dot.startswith("digraph")


def test_odd_cycle_extraction_splices_even_subloops():
    from credal.ground import _extract_odd_cycle

    # closed walk a -> b -> c -> b -> d -> a where the b..c..b detour is an
    # even loop; the witness must be the simple odd cycle a, b, d
    walk = [("a", 0), ("b", 0), ("c", 1), ("b", 0), ("d", 1), ("a", 1)]
    witness = _extract_odd_cycle(walk)
    assert witness.nodes == ("a", "b", "d")
    assert witness.signs.count("-") % 2 == 1
