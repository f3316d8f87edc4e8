import pytest

from credal.bounds import solve_query
from credal.ground import (GroundProgram, OlonError, build_dependency_graph,
                           ground_program, reachable_atoms)
from credal.residual import (CERTAIN_FALSE, CERTAIN_TRUE, UNDEFINED,
                             EncodingError, decode_probabilistic_facts,
                             encode_probabilistic_facts, extract_residual)
from credal.syntax import (Atom, Literal, ProbFact, Program, Rule,
                           parse_program, parse_query, render_program)
from credal.wfs import wf_reduct, wfm

import programs
from corpus import enumerate_answer_sets, project_answer_sets


def rule_key(rule):
    return (rule.head, frozenset(rule.body))


def same_rules_modulo_body_order(left, right):
    return {rule_key(r) for r in left} == {rule_key(r) for r in right}


def test_encode_single_fact():
    p = parse_program("0.3::q.")
    encoded, enc = encode_probabilistic_facts(p)
    assert not encoded.prob_facts
    nq = Atom("__not_q")
    assert set(encoded.rules) == {Rule(Atom("q"), (Literal(nq, True),)),
                                  Rule(nq, (Literal(Atom("q"), True),))}
    assert enc == ((Atom("q"), nq, 0.3),)


def test_encode_no_facts_is_identity():
    p = parse_program("a :- b.\nb.")
    encoded, enc = encode_probabilistic_facts(p)
    assert encoded.rules == p.rules
    assert enc == ()


def test_encode_prob_edges_counts():
    p = parse_program(programs.PROB_EDGES_RECURSIVE)
    encoded, _ = encode_probabilistic_facts(p)
    assert len(encoded.rules) == 4 + 6


def test_encode_collision_detected():
    p = Program((ProbFact(0.5, Atom("a")),),
                (Rule(Atom("b"), (Literal(Atom("__not_a"), True),)),
                 Rule(Atom("__not_a"), (Literal(Atom("b"), True),))))
    with pytest.raises(EncodingError):
        encode_probabilistic_facts(p)


def test_golden_residual_certain_edges():
    p = parse_program(programs.EDGES_RECURSIVE)
    residual = extract_residual(p, parse_query("path(a,d)"))
    assert residual.query_status == UNDEFINED
    expected = parse_program(programs.GOLDEN_RESIDUAL)
    assert same_rules_modulo_body_order(residual.program.rules, expected.rules)
    assert not residual.program.prob_facts


def test_residual_drops_irrelevant_fact():
    p = parse_program(programs.PROB_EDGES_RECURSIVE)
    residual = extract_residual(p, parse_query("path(a,d)"))
    assert residual.query_status == UNDEFINED
    kept = {str(pf.atom): pf.prob for pf in residual.program.prob_facts}
    assert kept == {"e(a,b)": 0.1, "e(b,d)": 0.3}
    assert residual.kept_fact_atoms == {parse_query("e(a,b)").atom,
                                        parse_query("e(b,d)").atom}
    # two loops fold back into facts; edge/nedge pairs for the two kept
    # edges and the two path rules remain
    assert len(residual.program.rules) == 6
    golden_rules = parse_program("""
        edge(a,b) :- e(a,b), not nedge(a,b).
        nedge(a,b) :- e(a,b), not edge(a,b).
        edge(b,d) :- e(b,d), not nedge(b,d).
        nedge(b,d) :- e(b,d), not edge(b,d).
        path(b,d) :- edge(b,d).
        path(a,d) :- edge(a,b), path(b,d).
    """).rules
    assert same_rules_modulo_body_order(residual.program.rules, golden_rules)


def test_residual_certain_true_and_false():
    p = parse_program("q.\n0.5::a.")
    residual = extract_residual(p, parse_query("q"))
    assert residual.query_status == CERTAIN_TRUE
    assert residual.program == Program((), (Rule(Atom("q")),))

    residual = extract_residual(p, parse_query("zzz"))
    assert residual.query_status == CERTAIN_FALSE

    p2 = parse_program("q :- not r.\nr.\n0.5::a.")
    residual = extract_residual(p2, parse_query("q"))
    assert residual.query_status == CERTAIN_FALSE


def test_residual_refuses_olon():
    p = parse_program(programs.OLON_LOOP + "0.5::x.\n")
    with pytest.raises(OlonError):
        extract_residual(p, parse_query("p"))


def test_residual_rendering_round_trips():
    p = parse_program(programs.PROB_EDGES_RECURSIVE)
    residual = extract_residual(p, parse_query("path(a,d)"))
    text = render_program(residual.program)
    assert parse_program(text) == residual.program


def test_residual_idempotent(corpus200, even_loop_corpus):
    for program, query in corpus200[:60] + even_loop_corpus:
        first = extract_residual(program, query)
        second = extract_residual(first.program, query)
        assert render_program(second.program) == render_program(first.program)


def test_residual_shrinkage(corpus200):
    for program, query in corpus200:
        residual = extract_residual(program, query)
        assert len(residual.program.prob_facts) <= len(program.prob_facts)
        assert residual.kept_fact_atoms <= {pf.atom for pf in program.prob_facts}


def test_query_reaches_only_undefined_atoms(corpus200, even_loop_corpus):
    # every body atom of a well-founded-reduct rule is undefined, so
    # relevance alone keeps the residual inside the undefined atoms
    checked = 0
    for program, query in corpus200 + even_loop_corpus:
        g = ground_program(encode_probabilistic_facts(program)[0])
        model = wfm(g)
        undefined = model.undefined_in(g.herbrand_base)
        if query.atom in undefined:
            reduct = wf_reduct(g, model)
            assert reachable_atoms(build_dependency_graph(reduct), query.atom) <= undefined
            checked += 1
    assert checked == 175


def test_decode_without_pairs():
    g = GroundProgram.from_rules(parse_program("a :- b.\nb.").rules)
    p = parse_program("0.5::f.")
    _, enc = encode_probabilistic_facts(p)
    decoded = decode_probabilistic_facts(g, enc)
    assert decoded.prob_facts == ()
    assert len(decoded.rules) == 2


def test_decode_all_pairs_survive():
    p = parse_program("0.2::f. 0.7::g(a).")
    encoded, enc = encode_probabilistic_facts(p)
    g = GroundProgram.from_rules(encoded.rules)
    decoded = decode_probabilistic_facts(g, enc)
    assert {(pf.prob, str(pf.atom)) for pf in decoded.prob_facts} == \
        {(0.2, "f"), (0.7, "g(a)")}
    assert decoded.rules == ()


def test_decode_half_pair_is_error():
    p = parse_program("0.2::f.")
    encoded, enc = encode_probabilistic_facts(p)
    half = GroundProgram.from_rules(encoded.rules[:1])
    with pytest.raises(EncodingError):
        decode_probabilistic_facts(half, enc)


def test_projected_answer_sets_match_residual(corpus200):
    # answer sets of the encoded program, projected onto the residual's
    # alphabet, coincide with the answer sets of the encoded residual
    for program, query in corpus200:
        residual = extract_residual(program, query)
        encoded_full, _ = encode_probabilistic_facts(program)
        full_sets = enumerate_answer_sets(ground_program(encoded_full))

        encoded_res, _ = encode_probabilistic_facts(residual.program)
        res_ground = ground_program(encoded_res)
        res_sets = enumerate_answer_sets(res_ground)
        projected = project_answer_sets(full_sets, res_ground.herbrand_base)
        assert projected == res_sets


def test_residual_preserves_bounds(corpus200):
    for program, query in corpus200[:80]:
        direct, _ = solve_query(program, query, mode="direct", engine="enum")
        via, _ = solve_query(extract_residual(program, query).program, query,
                             mode="direct", engine="enum")
        assert repr(direct) == repr(via)


def test_printed_residual_answers_its_query(corpus200, even_loop_corpus):
    # the residual as `credal residual` prints it, parsed back and solved
    # directly, gives residual mode's bounds; a query the well-founded
    # model decides reduces to the fact `q.` or to the empty program
    for program, query in corpus200 + even_loop_corpus:
        for engine in ("enum", "twoamc"):
            interval, residual = solve_query(program, query, engine=engine)
            printed = render_program(residual.program)
            again, _ = solve_query(parse_program(printed), query, mode="direct",
                                   engine=engine)
            assert repr(again) == repr(interval), (printed, query, engine)
