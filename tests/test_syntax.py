import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

import credal
from credal.syntax import (Atom, Literal, ParseError, ProbFact, Program,
                           ProgramError, Query, Rule, const, parse_program,
                           parse_query, render_program, var)

import programs
from corpus import (canonical_program, is_fact, negative_body, positive_body,
                    random_pasp)


def test_parse_prob_edges():
    p = parse_program(programs.PROB_EDGES_RECURSIVE)
    assert [pf.prob for pf in p.prob_facts] == [0.1, 0.2, 0.3]
    assert len(p.rules) == 4
    assert p.prob_facts[0].atom == Atom("e", (const("a"), const("b")))


def test_parse_empty():
    assert parse_program("") == Program()
    assert parse_program("  % just a comment\n") == Program()


def test_parse_negation_tokens():
    p1 = parse_program("a :- not b.\nb.")
    p2 = parse_program("a :- \\+ b.\nb.")
    assert p1 == p2
    assert p1.rules[0].body[0].negated


def test_parse_fact_and_zero_arity():
    p = parse_program("p.\nq :- p.")
    assert p.rules[0] == Rule(Atom("p"))
    assert p.rules[1].body == (Literal(Atom("p")),)


def test_parse_integer_constants():
    p = parse_program("0.1::e(0,12).\npath(X,Y) :- e(X,Y).")
    assert p.prob_facts[0].atom.args == (const("0"), const("12"))


def test_unsafe_rule_names_variable():
    with pytest.raises(ProgramError, match=r"X"):
        parse_program("p(X) :- not q(X).")


def test_unsafe_fact_with_variable():
    with pytest.raises(ProgramError, match=r"unsafe"):
        parse_program("p(X).")


def test_probability_out_of_range():
    with pytest.raises(ParseError, match=r"\[0,1\]"):
        parse_program("1.5::a.")


def test_duplicate_prob_fact():
    with pytest.raises(ProgramError, match="duplicate"):
        parse_program("0.1::a. 0.2::a.")


def test_prob_fact_unifiable_with_head():
    with pytest.raises(ProgramError, match="unifies"):
        parse_program("0.1::q(a).\nq(X) :- r(X).\nr(a).")


def test_prob_fact_not_unifiable_when_constant_differs():
    parse_program("0.1::q(a).\nq(b) :- r(b).\nr(b).")


def test_function_symbols_rejected():
    with pytest.raises(ParseError, match="function symbols"):
        parse_program("p(f(a)).")


def test_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_program("a :- b\nc.")
    # the offending token is 'c' at line 2 (missing '.' after b)
    assert exc.value.line == 2
    assert exc.value.column == 1


def test_reserved_complement_prefix_rejected():
    with pytest.raises(ParseError):
        parse_program("__not_a :- b.\nb.")


def test_render_orders_facts_lexicographically():
    p = parse_program(programs.PROB_EDGES_RECURSIVE)
    out = render_program(p)
    lines = out.splitlines()
    assert lines[0] == "0.1::e(a,b)."
    assert lines[1] == "0.2::e(a,c)."
    assert lines[2] == "0.3::e(b,d)."
    assert render_program(Program()) == ""


def test_query_parsing():
    q = parse_query("path(a,d)")
    assert q.atom == Atom("path", (const("a"), const("d")))
    assert parse_query("path(a,d).") == q
    with pytest.raises(ParseError):
        parse_query("path(X,d)")
    with pytest.raises(ValueError):
        Query(Atom("p", (var("X"),)))


def test_round_trip_500_random_programs():
    rng = random.Random(99)
    for _ in range(500):
        p = canonical_program(random_pasp(rng))
        assert parse_program(render_program(p)) == p


def test_render_parse_is_idempotent_on_any_program():
    rng = random.Random(7)
    for _ in range(50):
        p = random_pasp(rng)
        once = parse_program(render_program(p))
        assert parse_program(render_program(once)) == once


# Hand-written front-end edge cases for the pinned outcomes below.
_EDGE_INPUTS = [
    "", "% only a comment\n", "not.", "a :- not.", "a :- not not.", "a :- not",
    "a :- \\+", "p(a", "p(a,", "p(a b)", "p(f(a)).", "1.5::a.", "0.5::p(X).",
    "0.5:a.", "a :- b,", "a :- .", "p(a)..", "path(X,d)",
    "a :- b.\r\nc :- d\r\ne.", "a :- b\n\t\tc.", "p(a).\r\n",
    "0.5::a. 1::b. 0::c.", "2::a.", "0.00001::a.", "1e-5::a.", "-0.5::a.",
    "p(a) :- q(a), \\+ r(a), not s.", "not(a).", "a :- not b(X).",
    "0.1::a. 0.2::a.", "0.1::q(a).\nq(X) :- r(X).\nr(a).", "p(_) :- q(_).",
    "__not_a :- b.", "p(1.5).", "p( a , b ) .", "x!", "p(a) % tail\n.",
    "q(a)\n\n   r", "p(a)\u00e9", "p(a).q(b).", "p(a,)", "p()", "p(a)(b)",
    "0.5::", "0.5", "::a.", ":- a.", "a :- b :- c.", "p(12, 0) :- q(X, 3), r(X).",
    "a :- b\nc. x!",
]

_MUTATION_ALPHABET = ["(", ")", ",", ".", ":", "-", "\\", "+", "%", " ", "\t",
                      "\n", "\r\n", "X", "_", "a", "f", "0", "1", "5", "not ",
                      "::", ":-", "!", "\u00e9"]


def _mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randint(0, len(text))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(_MUTATION_ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + rng.randint(1, 3):]
        elif op == 2:
            text = text[:i] + text[i:i + rng.randint(1, 6)] + text[i:]
        else:
            text = text[:i]
    return text


def _outcome(parse, text: str) -> str:
    try:
        result = parse(text)
    except ParseError as exc:
        return f"ParseError {exc.line}:{exc.column} {exc.message!r}"
    except ProgramError as exc:
        return f"ProgramError {str(exc)!r}"
    return f"ok {render_program(result) if isinstance(result, Program) else str(result)!r}"


def parse_outcomes_text() -> str:
    """Each input with what parse_program and parse_query make of it: 360
    mutated windows of one to three lines of rendered random programs, then
    the hand-written edge cases."""
    rng = random.Random(1717)
    inputs = []
    while len(inputs) < 360:
        lines = render_program(random_pasp(rng)).splitlines(keepends=True)
        start = rng.randrange(len(lines))
        inputs.append(_mutate("".join(lines[start:start + rng.randint(1, 3)]), rng))
    return "".join(f"input {text!r}\nprogram {_outcome(parse_program, text)}\n"
                   f"query {_outcome(parse_query, text)}\n"
                   for text in inputs + _EDGE_INPUTS)


def test_parse_outcomes_match_pinned_file():
    # the rendered program, or the error class, message, line and column,
    # that both entry points give on each input, recorded before the
    # tokenizer and parser were rewritten; any change must keep them
    pinned = Path(__file__).parent / "data" / "parse_outcomes.txt"
    assert parse_outcomes_text().encode() == pinned.read_bytes()


def test_small_probabilities_round_trip():
    # repr writes these with an exponent, which the grammar has no token for
    rng = random.Random(31)
    values = [1e-5, 9.999999999999999e-05, 1.2345678901234568e-05, 1e-21,
              5e-324, 0.0, -0.0]
    values += [rng.random() * 10.0 ** -rng.randint(4, 31) for _ in range(2000)]
    program = Program(tuple(ProbFact(p, Atom(f"a{i}")) for i, p in enumerate(values)))
    back = {str(pf.atom): pf.prob for pf in parse_program(render_program(program)).prob_facts}
    assert [p for i, p in enumerate(values) if back[f"a{i}"] != p] == []
    assert render_program(Program((ProbFact(-0.0, Atom("a")),))) == "0.0::a.\n"


def test_rule_accessors():
    p = parse_program("a :- b, not c.\nb.")
    rule = next(r for r in p.rules if r.body)
    assert positive_body(rule) == (Atom("b"),)
    assert negative_body(rule) == (Atom("c"),)
    assert not is_fact(rule)
    assert is_fact(p.rules[0]) or is_fact(p.rules[1])


def test_prob_fact_validation():
    with pytest.raises(ValueError):
        ProbFact(1.2, Atom("a"))
    with pytest.raises(ValueError):
        ProbFact(0.5, Atom("a", (var("X"),)))


def test_atom_hash_survives_pickling_across_hash_seeds():
    # an atom's hash is taken once and stored; a pickle must not carry it
    # into a process whose string hashes differ
    code = ("import pickle, sys\n"
            "from credal.syntax import Atom, const\n"
            "atoms = {Atom('p', (const('a'), const(str(i)))) for i in range(50)}\n"
            "sys.stdout.buffer.write(pickle.dumps(atoms | {Atom('q')}))\n")
    src = str(Path(credal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    atoms = pickle.loads(proc.stdout)
    fresh = {Atom("p", (const("a"), const(str(i)))) for i in range(50)} | {Atom("q")}
    assert all(a in atoms for a in fresh)
    assert atoms == fresh
    assert sorted(map(hash, atoms)) == sorted(map(hash, fresh))


def test_atom_keeps_its_dataclass_surface():
    a, b = Atom("p", (const("a"),)), Atom("p", (const("b"),))
    assert repr(a) == "Atom(predicate='p', args=(Term(kind='constant', name='a'),))"
    assert a == Atom("p", (const("a"),)) and a != b
    assert hash(a) == hash(("p", (const("a"),)))
    assert a < b and sorted([b, Atom("o"), a]) == [Atom("o"), a, b]
    assert [f.name for f in dataclasses.fields(Atom)] == ["predicate", "args"]
    assert pickle.loads(pickle.dumps(a)) == a
