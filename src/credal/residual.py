"""Query-directed reduction of a probabilistic program.

Each probabilistic fact ``p::a`` is first rewritten into the even loop

    a :- not __not_a.
    __not_a :- not a.

so the whole program becomes a normal program whose well-founded model
leaves exactly the query-relevant choices undefined.  The well-founded
reduct then discards everything the model already decides, relevance keeps
the rules the query can reach, and surviving loops are folded back into
their probabilistic facts.  The result answers the query with the same
credal bounds as the original program, usually from a much smaller
grounding, and can be solved again as it stands: a query the well-founded
model makes true reduces to the fact ``q.``, one it makes false to the
empty program.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ground import (GroundProgram, OlonError, build_call_graph,
                     build_dependency_graph, detect_olon, ground_program,
                     reachable_atoms)
from .syntax import Atom, Literal, ProbFact, Program, Query, Rule
from .wfs import wf_reduct, wfm

COMPLEMENT_PREFIX = "__not_"

CERTAIN_TRUE = "certain-true"
CERTAIN_FALSE = "certain-false"
UNDEFINED = "undefined"


class EncodingError(Exception):
    """A fresh complement atom collides with an existing predicate, or a
    surviving loop lost one of its two rules."""


@dataclass(frozen=True)
class ResidualProgram:
    program: Program
    query_status: str  # certain-true | certain-false | undefined

    @property
    def kept_fact_atoms(self) -> frozenset[Atom]:
        return frozenset(pf.atom for pf in self.program.prob_facts)


def _complement_atom(atom: Atom) -> Atom:
    return Atom(COMPLEMENT_PREFIX + atom.predicate, atom.args)


def encode_probabilistic_facts(program: Program) -> tuple[Program, tuple]:
    """Replace every probabilistic fact with its two-rule even loop; return
    the encoded program and an ``(atom, complement, prob)`` entry per fact."""
    used = {sig[0] for sig in program.predicates()}
    entries = []
    pair_rules = []
    for pf in program.prob_facts:
        na = _complement_atom(pf.atom)
        if na.predicate in used:
            raise EncodingError(f"complement predicate {na.predicate} already "
                                f"occurs in the program")
        entries.append((pf.atom, na, pf.prob))
        pair_rules.append(Rule(pf.atom, (Literal(na, negated=True),)))
        pair_rules.append(Rule(na, (Literal(pf.atom, negated=True),)))
    encoded = Program((), program.rules + tuple(pair_rules))
    return encoded, tuple(entries)


def decode_probabilistic_facts(g: GroundProgram, entries: tuple) -> Program:
    """Fold surviving even loops back into probabilistic facts, given the
    encoding's ``(atom, complement, prob)`` entries."""
    rule_set = set(g.rules)
    prob_facts = []
    pair_rules = set()
    for atom, complement, prob in entries:
        fwd = Rule(atom, (Literal(complement, negated=True),))
        bwd = Rule(complement, (Literal(atom, negated=True),))
        have_fwd, have_bwd = fwd in rule_set, bwd in rule_set
        if have_fwd != have_bwd:
            raise EncodingError(f"half of the loop for {atom} survived without "
                                f"its twin")
        if have_fwd:
            prob_facts.append(ProbFact(prob, atom))
            pair_rules.add(fwd)
            pair_rules.add(bwd)
    rules = tuple(sorted((r for r in g.rules if r not in pair_rules), key=str))
    for rule in rules:
        for atom in (rule.head, *(l.atom for l in rule.body)):
            if atom.predicate.startswith(COMPLEMENT_PREFIX):
                raise EncodingError(f"complement atom {atom} left outside its loop")
    prob_facts.sort(key=lambda pf: str(pf.atom))
    return Program(tuple(prob_facts), rules)


def extract_residual(program: Program, query: Query) -> ResidualProgram:
    """Reduce a program to the part that can still decide the query.

    Pipeline: encode the probabilistic facts, ground, take the well-founded
    model.  A query the model makes true reduces to the fact ``q.``, one it
    makes false to the empty program, whose grounding lacks the query atom;
    either way with a certain status.  Otherwise the well-founded reduct is
    restricted to the rules whose head the query reaches, and surviving
    loops are decoded back into probabilistic facts.  Solving the residual
    gives the query the same bounds as solving the program.
    """
    witness = detect_olon(build_call_graph(program))
    if witness is not None:
        raise OlonError(witness)
    encoded, entries = encode_probabilistic_facts(program)

    g = ground_program(encoded)
    model = wfm(g)
    if query.atom in model.true_set:
        return ResidualProgram(Program((), (Rule(query.atom),)), CERTAIN_TRUE)
    if query.atom in model.false_set or query.atom not in g.herbrand_base:
        return ResidualProgram(Program(), CERTAIN_FALSE)

    reduct = wf_reduct(g, model)
    undefined = model.undefined_in(g.herbrand_base)
    keep = reachable_atoms(build_dependency_graph(reduct), query.atom)
    restricted = GroundProgram.from_rules(
        r for r in reduct.rules if r.head in keep and r.head in undefined)
    return ResidualProgram(decode_probabilistic_facts(restricted, entries), UNDEFINED)
