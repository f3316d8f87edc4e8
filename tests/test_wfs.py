import random

from credal.ground import GroundProgram, ground_program
from credal.residual import encode_probabilistic_facts
from credal.syntax import Atom, Literal, Rule, parse_program, parse_query
from credal.wfs import (IndexedProgram, ThreeValuedInterpretation, least_model,
                        wf_reduct, wfm)

import corpus
import programs
from corpus import (EMPTY_INTERPRETATION, dynamically_stratified,
                    enumerate_answer_sets, gfp_of, is_fact, iterated_wfm, leq,
                    lfp_ot, naive_ground)

import pytest


def interp(true=(), false=()):
    return ThreeValuedInterpretation(
        frozenset(parse_query(a).atom for a in true),
        frozenset(parse_query(a).atom for a in false))


def test_lfp_ot_positive_program():
    g = ground_program(parse_program("a.\nb :- a."))
    assert lfp_ot(g, EMPTY_INTERPRETATION) == {Atom("a"), Atom("b")}


def test_lfp_ot_guard_excludes_known_truth():
    g = ground_program(parse_program("p :- not r.\nr."))
    out = lfp_ot(g, interp(true=("r",)))
    assert out == frozenset()


def test_lfp_ot_even_loop_all_undefined():
    g = ground_program(parse_program(programs.EVEN_LOOP))
    assert lfp_ot(g, EMPTY_INTERPRETATION) == frozenset()


def test_gfp_of_unsupported_atoms():
    g = ground_program(parse_program("a.\nb :- c."))
    assert gfp_of(g, EMPTY_INTERPRETATION) == {Atom("b"), Atom("c")}


def test_gfp_of_even_loop():
    g = ground_program(parse_program(programs.EVEN_LOOP))
    assert gfp_of(g, EMPTY_INTERPRETATION) == frozenset()


def test_gfp_of_underivable_paths():
    # full naive grounding so that junk instances like path(c,d) exist
    p = parse_program(programs.EDGES_RECURSIVE)
    g = naive_ground(p)
    known = interp(true=("e(a,b)", "e(a,c)", "e(b,d)"))
    false = gfp_of(g, known)
    assert parse_query("path(c,d)").atom in false
    assert parse_query("path(a,d)").atom not in false


def test_wfm_stratified():
    g = ground_program(parse_program("r.\np :- not r."))
    model = wfm(g)
    assert model.true_set == {Atom("r")}
    assert model.false_set == {Atom("p")}
    assert dynamically_stratified(g, model)


def test_wfm_odd_loop_all_undefined():
    g = ground_program(parse_program(programs.OLON_LOOP))
    model = wfm(g)
    assert model.true_set == frozenset()
    assert model.false_set == frozenset()
    assert model.undefined_in(g.herbrand_base) == {Atom("p"), Atom("q"), Atom("r")}
    assert not dynamically_stratified(g, model)


def test_wfm_certain_edges_leaves_choices_undefined():
    g = ground_program(parse_program(programs.EDGES_RECURSIVE))
    model = wfm(g)
    e_atoms = {a for a in g.herbrand_base if a.predicate == "e"}
    assert e_atoms <= model.true_set
    undefined = model.undefined_in(g.herbrand_base)
    for name in ("edge(a,b)", "nedge(a,b)", "edge(a,c)", "nedge(a,c)",
                 "edge(b,d)", "nedge(b,d)", "path(a,d)"):
        assert parse_query(name).atom in undefined


def test_wfm_monotone_iteration(corpus200):
    # the iterated fixpoint only ever grows the interpretation, and ends in
    # the model the alternating fixpoint computes
    grounds = [ground_program(parse_program(programs.EDGES_RECURSIVE))]
    grounds += [ground_program(encode_probabilistic_facts(program)[0])
                for program, _query in corpus200]
    for g in grounds:
        stages = iterated_wfm(g)
        for earlier, later in zip(stages, stages[1:]):
            assert leq(earlier, later)
        assert stages[-1] == wfm(g)


def test_wf_reduct_stratified_becomes_facts():
    g = ground_program(parse_program("r.\np :- not r.\nq :- r."))
    model = wfm(g)
    reduct = wf_reduct(g, model)
    assert all(is_fact(r) for r in reduct.rules)
    assert {r.head for r in reduct.rules} == set(model.true_set)


def test_wf_reduct_all_undefined_is_identity():
    g = ground_program(parse_program(programs.OLON_LOOP))
    reduct = wf_reduct(g, wfm(g))
    assert reduct == g


def test_wf_reduct_certain_edges():
    g = ground_program(parse_program(programs.EDGES_RECURSIVE))
    reduct = wf_reduct(g, wfm(g))
    expected_pairs = parse_program(programs.GOLDEN_RESIDUAL).rules
    kept = set(reduct.rules)
    # e-literals disappear from the surviving bodies ...
    for rule in expected_pairs:
        assert any(r.head == rule.head and
                   {str(l) for l in r.body} == {str(l) for l in rule.body}
                   for r in kept)
    # ... true facts stay as facts, (a,c) pair rules stay too
    for name in ("e(a,b)", "e(a,c)", "e(b,d)"):
        assert any(r.head == parse_query(name).atom and is_fact(r) for r in kept)
    assert any(r.head == parse_query("edge(a,c)").atom for r in kept)
    assert len(reduct.rules) == 13


def test_wfs_bounds_every_stable_model(corpus200):
    for program, _query in corpus200:
        encoded, _ = encode_probabilistic_facts(program)
        g = ground_program(encoded)
        model = wfm(g)
        for answer_set in enumerate_answer_sets(g):
            assert model.true_set <= answer_set
            assert not (model.false_set & answer_set)


def test_wf_reduct_preserves_answer_sets(corpus200):
    for program, _query in corpus200:
        encoded, _ = encode_probabilistic_facts(program)
        g = ground_program(encoded)
        reduct = wf_reduct(g, wfm(g))
        assert enumerate_answer_sets(g) == enumerate_answer_sets(reduct)


def test_wfm_of_reduct_keeps_undefined_set(corpus200):
    for program, _query in corpus200[:100]:
        encoded, _ = encode_probabilistic_facts(program)
        g = ground_program(encoded)
        model = wfm(g)
        undefined = model.undefined_in(g.herbrand_base)
        reduct = wf_reduct(g, model)
        model2 = wfm(reduct)
        assert model2.undefined_in(reduct.herbrand_base) == undefined
        assert not (model2.true_set & undefined)
        assert not (model2.false_set & undefined)


def test_inconsistent_interpretation_rejected():
    with pytest.raises(ValueError):
        ThreeValuedInterpretation(frozenset({Atom("a")}), frozenset({Atom("a")}))


def random_ground_program(rng):
    """Up to 8 atoms and 14 rules; bodies may be empty, purely negative or
    repeat an atom, so the compiled form's empty-body list and per-occurrence
    watch lists are both exercised."""
    atoms = [Atom(f"a{i}") for i in range(rng.randint(1, 8))]
    rules = []
    for _ in range(rng.randint(1, 14)):
        pos = [Literal(rng.choice(atoms)) for _ in range(rng.choice((0, 0, 1, 2, 3)))]
        neg = [Literal(rng.choice(atoms), negated=True) for _ in range(rng.randint(0, 2))]
        rules.append(Rule(rng.choice(atoms), tuple(pos + neg)))
    return GroundProgram.from_rules(rules)


def test_least_model_kernel_equals_least_model_of_the_reduct():
    # the kernel with ``blocked`` switches off every rule with a negative
    # literal on it: the Gelfond-Lifschitz reduct by ``blocked``, built here
    # from the ground rules, plus the seeds as facts
    rng = random.Random(1984)
    for _ in range(500):
        g = random_ground_program(rng)
        index = IndexedProgram(g)
        base = sorted(g.herbrand_base, key=str)
        for _ in range(4):
            blocked = frozenset(a for a in base if rng.random() < 0.4)
            seeds = frozenset(a for a in base if rng.random() < 0.15)
            reduct = GroundProgram.from_rules(
                [Rule(r.head, tuple(l for l in r.body if not l.negated))
                 for r in g.rules
                 if not any(l.negated and l.atom in blocked for l in r.body)]
                + [Rule(a) for a in seeds])
            got = least_model(index.compiled, {index.ids[a] for a in blocked},
                              [index.ids[a] for a in seeds])
            assert index.to_atoms(got) == corpus.least_model(reduct), (g.rules, blocked, seeds)
