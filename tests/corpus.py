"""Seeded random program corpora, independent brute-force oracles, and the
helpers on the library's types that only the tests use.

The oracles deliberately avoid the library's own algorithms: grounding by
full cross-product instantiation, stable models by filtering every subset
of the atom base through the reduct definition, the well-founded model by
the iterated provability/refutability fixpoint, credal bounds from those
per world in exact arithmetic, treewidth by dynamic programming over
vertex subsets, and odd-loop detection by enumerating simple cycles.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from credal.ground import (CallGraph, GroundProgram, build_call_graph,
                           build_dependency_graph, ground_program,
                           reachable_atoms)
from credal.residual import encode_probabilistic_facts
from credal.stable import check_caps, iter_answer_sets, reduce_world
from credal.syntax import (Atom, Literal, ProbFact, Program, Query, Rule, Term,
                           const, var)
from credal.wfs import IndexedProgram, ThreeValuedInterpretation, wfm
from credal.ground import detect_olon

# ---------------------------------------------------------------------------
# helpers on the library's types

EMPTY_INTERPRETATION = ThreeValuedInterpretation(frozenset(), frozenset())


def substitute(atom: Atom, binding: dict[str, Term]) -> Atom:
    return Atom(atom.predicate, tuple(
        binding.get(t.name, t) if t.is_variable else t for t in atom.args))


def is_fact(rule: Rule) -> bool:
    return not rule.body


def positive_body(rule: Rule) -> tuple[Atom, ...]:
    return tuple(l.atom for l in rule.body if not l.negated)


def negative_body(rule: Rule) -> tuple[Atom, ...]:
    return tuple(l.atom for l in rule.body if l.negated)


def constants(program: Program) -> set[str]:
    names = set()
    for pf in program.prob_facts:
        names.update(t.name for t in pf.atom.args)
    for r in program.rules:
        for atom in (r.head, *(l.atom for l in r.body)):
            names.update(t.name for t in atom.args if not t.is_variable)
    return names


def canonical_program(program: Program) -> Program:
    """The same program with facts and rules in canonical (rendered) order."""
    return Program(
        tuple(sorted(program.prob_facts, key=lambda pf: str(pf.atom))),
        tuple(sorted(program.rules, key=str)),
    )


def leq(earlier: ThreeValuedInterpretation, later: ThreeValuedInterpretation) -> bool:
    """Knowledge order: both truth sets grow."""
    return earlier.true_set <= later.true_set and earlier.false_set <= later.false_set


def dynamically_stratified(g: GroundProgram, model: ThreeValuedInterpretation) -> bool:
    """Whether the model is two-valued on the program's atoms."""
    return not model.undefined_in(g.herbrand_base)


def project_answer_sets(answer_sets, atoms: frozenset[Atom]) -> frozenset:
    """Deduplicated intersections of each answer set with ``atoms``."""
    atoms = frozenset(atoms)
    return frozenset(frozenset(a & atoms) for a in answer_sets)


def inner_count(world_answer_sets, query: Query) -> tuple[int, int]:
    """(answer sets containing the query, answer sets in total).

    Every literal weighs (1, 1) except the negated query, which weighs
    (0, 1); an answer set therefore multiplies out to (1, 1) when it
    contains the query and (0, 1) otherwise, and the sum over answer sets
    is the pair of counts."""
    n1 = n2 = 0
    for answer_set in world_answer_sets:
        n1 += query.atom in answer_set
        n2 += 1
    return n1, n2


def witness_pair(answer_sets, atom) -> tuple[bool, bool]:
    """(some answer set contains ``atom``, some answer set omits it): what
    either engine's leaf returns for one world."""
    return (any(atom in s for s in answer_sets),
            any(atom not in s for s in answer_sets))


def ground_rule_count(program: Program) -> int:
    """Ground rules, counting each probabilistic fact as the rule ``a.``."""
    return len(ground_program(program).rules) + len(program.prob_facts)


def enumerate_answer_sets(g: GroundProgram, max_undefined: int = 24) -> frozenset:
    """All stable models of the ground program, as a set of atom sets."""
    check_caps(max_undefined=max_undefined)
    index = IndexedProgram(g)
    return frozenset(index.to_atoms(ids) for ids in
                     iter_answer_sets(reduce_world(index, (), max_undefined), None, None))


# ---------------------------------------------------------------------------
# corpora

CONSTANTS = [const("a"), const("b"), const("c"), const("d")]
RULE_PREDS = [("p", 0), ("q", 1), ("r", 1), ("s", 2)]
FACT_PREDS = [("f", 0), ("g", 1), ("h", 2)]


def _random_atom(rng, preds, terms):
    name, arity = rng.choice(preds)
    return Atom(name, tuple(rng.choice(terms) for _ in range(arity)))


def random_pasp(rng: random.Random) -> Program:
    """A small random program: up to 4 probabilistic facts over dedicated
    fact predicates, up to 8 safe rules over the rest."""
    n_consts = rng.randint(2, 4)
    consts = CONSTANTS[:n_consts]

    facts = []
    seen = set()
    for _ in range(rng.randint(0, 4)):
        atom = _random_atom(rng, FACT_PREDS, consts)
        if atom in seen:
            continue
        seen.add(atom)
        facts.append(ProbFact(round(rng.uniform(0.05, 0.95), 3), atom))

    variables = [var("X"), var("Y")]
    rules = []
    for _ in range(rng.randint(1, 8)):
        pos = []
        for _ in range(rng.randint(0, 2)):
            preds = FACT_PREDS if rng.random() < 0.4 else RULE_PREDS
            pos.append(Literal(_random_atom(rng, preds, consts + variables)))
        bound = sorted({t for lit in pos for t in lit.atom.args if t.is_variable},
                       key=str)
        safe_terms = consts + bound
        neg = []
        for _ in range(rng.randint(0, 2)):
            preds = FACT_PREDS if rng.random() < 0.3 else RULE_PREDS
            neg.append(Literal(_random_atom(rng, preds, safe_terms), negated=True))
        head = _random_atom(rng, RULE_PREDS, safe_terms)
        rules.append(Rule(head, tuple(pos + neg)))

    facts.sort(key=lambda pf: str(pf.atom))
    rules = sorted(set(rules), key=str)
    return Program(tuple(facts), tuple(rules))


def random_pasp_with_fact_heads(rng: random.Random) -> Program:
    """A small random program whose rules also define the fact predicates
    g/1 and h/2 (the first rule always does), at other constants: the
    probabilistic facts range over a and b, and each such rule head
    carries c or d in some argument, so it unifies with no fact."""
    facts = {}
    for _ in range(rng.randint(1, 4)):
        atom = _random_atom(rng, FACT_PREDS, CONSTANTS[:2])
        facts.setdefault(atom, ProbFact(round(rng.uniform(0.05, 0.95), 3), atom))
    preds = FACT_PREDS + RULE_PREDS
    rules = []
    for _ in range(rng.randint(1, 8)):
        pos = [Literal(_random_atom(rng, preds, CONSTANTS + [var("X"), var("Y")]))
               for _ in range(rng.randint(0, 2))]
        terms = CONSTANTS + sorted(
            {t for lit in pos for t in lit.atom.args if t.is_variable}, key=str)
        neg = [Literal(_random_atom(rng, preds, terms), negated=True)
               for _ in range(rng.randint(0, 2))]
        if not rules or rng.random() < 0.5:
            name, arity = rng.choice(FACT_PREDS[1:])
            args = [rng.choice(terms) for _ in range(arity)]
            args[rng.randrange(arity)] = rng.choice(CONSTANTS[2:])
            head = Atom(name, tuple(args))
        else:
            head = _random_atom(rng, RULE_PREDS, terms)
        rules.append(Rule(head, tuple(pos + neg)))
    return Program(tuple(sorted(facts.values(), key=lambda pf: str(pf.atom))),
                   tuple(sorted(set(rules), key=str)))


def random_olon_free_pasp(rng: random.Random, max_undefined: int = 18) -> Program:
    """Rejection-sample until the encoded program has no odd loop and its
    well-founded model leaves few enough atoms undefined to enumerate."""
    while True:
        program = random_pasp(rng)
        encoded, _ = encode_probabilistic_facts(program)
        if detect_olon(build_call_graph(encoded)) is not None:
            continue
        g = ground_program(encoded)
        model = wfm(g)
        if len(model.undefined_in(g.herbrand_base)) <= max_undefined:
            return program


def random_query(rng: random.Random, program: Program) -> Query:
    """A ground atom over the program's rule predicates, preferring atoms
    that actually occur in the grounding."""
    encoded, _ = encode_probabilistic_facts(program)
    g = ground_program(encoded)
    rule_names = {name for name, _ in RULE_PREDS}
    candidates = sorted((a for a in g.herbrand_base if a.predicate in rule_names),
                        key=str)
    if candidates and rng.random() < 0.9:
        return Query(rng.choice(candidates))
    return Query(Atom("p"))


def make_corpus(seed: int, count: int, max_undefined: int = 18):
    rng = random.Random(seed)
    return [random_olon_free_pasp(rng, max_undefined) for _ in range(count)]


def with_even_loops(rng: random.Random, program: Program) -> tuple[Program, list[Atom]]:
    """The program plus one to three even loops over negation, each guarded
    by a ground atom ``b`` of the program: ``c :- b, not d.`` and
    ``d :- not c.`` give every world where ``b`` holds a choice between two
    answer sets, and ``t :- c.`` passes the choice on to ``t``, a fresh
    atom or one over the program's rule predicates.  ``b`` is an atom the
    well-founded model does not make false, so some world can choose.
    Returns the program and the atoms that see a choice."""
    encoded, _ = encode_probabilistic_facts(program)
    g = ground_program(encoded)
    false = wfm(g).false_set
    base = [a for a in sorted(g.herbrand_base, key=str)
            if a not in false and not a.predicate.startswith("__")] or [Atom("p")]
    consts = sorted(constants(program)) or ["a"]
    rules, seen = list(program.rules), []
    for i in range(rng.randint(1, 3)):
        c, d = Atom(f"c{i}"), Atom(f"d{i}")
        t = Atom(f"t{i}") if rng.random() < 0.5 else \
            _random_atom(rng, RULE_PREDS, [const(n) for n in consts])
        rules += [Rule(c, (Literal(rng.choice(base)), Literal(d, negated=True))),
                  Rule(d, (Literal(c, negated=True),)),
                  Rule(t, (Literal(c),))]
        seen += [c, t]
    return Program(program.prob_facts, tuple(sorted(set(rules), key=str))), seen


def make_even_loop_corpus(seed: int, count: int, max_undefined: int = 10):
    """(program, query) pairs whose worlds can have several answer sets:
    odd-loop-free random programs with even loops added, kept only while
    still odd-loop-free and small enough for the subset oracles.  The query
    is an atom that sees a choice, or one of the program's rule atoms."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        program, seen = with_even_loops(rng, random_pasp(rng))
        encoded, _ = encode_probabilistic_facts(program)
        if detect_olon(build_call_graph(encoded)) is not None:
            continue
        g = ground_program(encoded)
        if len(wfm(g).undefined_in(g.herbrand_base)) > max_undefined:
            continue
        query = Query(rng.choice(seen)) if rng.random() < 0.7 else random_query(rng, program)
        pairs.append((program, query))
    return pairs


# ---------------------------------------------------------------------------
# oracles

def naive_ground(program: Program) -> GroundProgram:
    """Full cross-product instantiation over the program's constants."""
    if program.prob_facts:
        raise ValueError("encode probabilistic facts before grounding")
    consts = sorted(constants(program)) or ["a"]
    rules = set()
    for rule in program.rules:
        names = sorted({t.name for atom in (rule.head, *(l.atom for l in rule.body))
                        for t in atom.args if t.is_variable})
        for values in itertools.product(consts, repeat=len(names)):
            binding = {n: const(v) for n, v in zip(names, values)}
            rules.add(Rule(substitute(rule.head, binding),
                           tuple(Literal(substitute(l.atom, binding), l.negated)
                                 for l in rule.body)))
    return GroundProgram.from_rules(rules)


def derivable_ground(program: Program) -> GroundProgram:
    """Rule-for-rule oracle for ``ground_program``: the rules already
    ground, verbatim, plus every naive instance whose positive body lies in
    the least model of the negation-free naive grounding."""
    naive = naive_ground(program)
    derivable = least_model(GroundProgram.from_rules(
        Rule(r.head, tuple(Literal(b) for b in positive_body(r))) for r in naive.rules))
    verbatim = [r for r in program.rules
                if r.head.is_ground() and all(l.atom.is_ground() for l in r.body)]
    return GroundProgram.from_rules(
        verbatim + [r for r in naive.rules
                    if all(b in derivable for b in positive_body(r))])


def gl_reduct(g: GroundProgram, interpretation: frozenset[Atom]) -> GroundProgram:
    """The Gelfond-Lifschitz reduct: the rules whose negative body misses
    the interpretation, negative literals removed; the result is a positive
    program."""
    kept = {Rule(rule.head, tuple(Literal(b) for b in positive_body(rule)))
            for rule in g.rules
            if not any(c in interpretation for c in negative_body(rule))}
    return GroundProgram(tuple(sorted(kept, key=str)), g.herbrand_base)


def least_model(g: GroundProgram) -> frozenset[Atom]:
    """Least fixpoint of rule application; input must be negation-free."""
    for rule in g.rules:
        if any(l.negated for l in rule.body):
            raise ValueError(f"least_model requires a positive program; "
                             f"rule '{rule}' contains negation")
    derived: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for rule in g.rules:
            if rule.head not in derived and \
               all(l.atom in derived for l in rule.body):
                derived.add(rule.head)
                changed = True
    return frozenset(derived)


def is_stable(g: GroundProgram, interpretation: frozenset[Atom]) -> bool:
    return frozenset(interpretation) == least_model(gl_reduct(g, frozenset(interpretation)))


def lfp_ot(g: GroundProgram, interp: ThreeValuedInterpretation) -> frozenset[Atom]:
    """Least fixpoint of one provability step: atoms not already true whose
    derivation needs only the given knowledge and earlier iterates."""
    derived: set[Atom] = set()
    changed = True
    while changed:
        changed = False
        for rule in g.rules:
            if rule.head in interp.true_set or rule.head in derived:
                continue
            if all(b in interp.true_set or b in derived for b in positive_body(rule)) and \
               all(c in interp.false_set for c in negative_body(rule)):
                derived.add(rule.head)
                changed = True
    return frozenset(derived)


def gfp_of(g: GroundProgram, interp: ThreeValuedInterpretation) -> frozenset[Atom]:
    """Greatest fixpoint of one refutability step, iterated downward from
    every atom not known true; atoms already false are left out."""
    candidate = set(g.herbrand_base) - interp.true_set
    changed = True
    while changed:
        changed = False
        for rule in g.rules:
            # a rule that can still fire makes its head not refutable
            if rule.head in candidate and \
               all(b not in interp.false_set and b not in candidate
                   for b in positive_body(rule)) and \
               all(c not in interp.true_set for c in negative_body(rule)):
                candidate.discard(rule.head)
                changed = True
    return frozenset(candidate - interp.false_set)


def iterated_wfm(g: GroundProgram) -> list[ThreeValuedInterpretation]:
    """The stages of the iterated fixpoint, from the empty interpretation
    to the well-founded model (the last stage repeats the one before)."""
    stages = [EMPTY_INTERPRETATION]
    while True:
        current = stages[-1]
        stages.append(ThreeValuedInterpretation(
            current.true_set | lfp_ot(g, current),
            current.false_set | gfp_of(g, current)))
        if stages[-1] == current:
            return stages


def subsets_stable_models(g: GroundProgram) -> frozenset:
    """Every subset of the atom base, filtered through the reduct check."""
    atoms = sorted(g.herbrand_base, key=str)
    found = set()
    for k in range(len(atoms) + 1):
        for combo in itertools.combinations(atoms, k):
            candidate = frozenset(combo)
            if least_model(gl_reduct(g, candidate)) == candidate:
                found.add(candidate)
    return frozenset(found)


def wfm_restricted_stable_models(g: GroundProgram) -> frozenset:
    """Subsets of the undefined atoms on top of the well-founded truths."""
    model = wfm(g)
    undefined = sorted(model.undefined_in(g.herbrand_base), key=str)
    found = set()
    for k in range(len(undefined) + 1):
        for combo in itertools.combinations(undefined, k):
            candidate = frozenset(model.true_set) | frozenset(combo)
            if least_model(gl_reduct(g, candidate)) == candidate:
                found.add(candidate)
    return frozenset(found)


def world_weight(program: Program, selection) -> Fraction:
    """The exact probability of one world: each fact's probability read as
    the decimal it prints as, or its complement where the fact is not
    selected."""
    weight = Fraction(1)
    for pf, sel in zip(program.prob_facts, selection):
        p = Fraction(repr(pf.prob))
        weight *= p if sel else 1 - p
    return weight


def oracle_bounds(program: Program, query: Query) -> tuple[Fraction, Fraction]:
    """Credal bounds straight from the definition, in exact arithmetic.

    For every world: ground the rules and the chosen facts naively, take
    the well-founded model by the iterated fixpoint, and keep the subsets
    of its undefined atoms that make the true atoms a stable model.  A
    world adds its probability to the lower bound when every answer set
    holds the query and to the upper bound when some answer set does."""
    lower = upper = Fraction(0)
    facts = program.prob_facts
    for selection in itertools.product((False, True), repeat=len(facts)):
        weight = world_weight(program, selection)
        chosen = tuple(Rule(pf.atom) for pf, sel in zip(facts, selection) if sel)
        g = naive_ground(Program((), program.rules + chosen))
        model = iterated_wfm(g)[-1]
        undefined = sorted(g.herbrand_base - model.true_set - model.false_set, key=str)
        holds = [query.atom in candidate
                 for k in range(len(undefined) + 1)
                 for combo in itertools.combinations(undefined, k)
                 if is_stable(g, candidate := model.true_set | frozenset(combo))]
        if not holds:
            raise ValueError(f"world {selection} has no answer set")
        lower += weight if all(holds) else 0
        upper += weight if any(holds) else 0
    return lower, upper


def relevant_subprogram(g: GroundProgram, query: Query) -> GroundProgram:
    """Rules whose head the query reaches in the dependency graph."""
    keep = reachable_atoms(build_dependency_graph(g), query.atom)
    return GroundProgram.from_rules(r for r in g.rules if r.head in keep)


def has_odd_cycle(graph: CallGraph) -> bool:
    """Enumerate simple cycles (with per-edge sign choices) directly.

    Each cycle is explored from its smallest node only, over nodes that are
    not smaller, so every simple cycle is tried exactly once per edge-sign
    combination."""
    nodes = sorted(graph.nodes)
    adj = {n: [] for n in nodes}
    for src, dst, sign in sorted(graph.edges):
        adj[src].append((dst, 1 if sign == "-" else 0))

    def dfs(start, node, parity, visited):
        for succ, flip in adj[node]:
            new_parity = parity ^ flip
            if succ == start:
                if new_parity & 1:
                    return True
                continue
            if succ < start or succ in visited:
                continue
            if dfs(start, succ, new_parity, visited | {succ}):
                return True
        return False

    return any(dfs(start, start, 0, {start}) for start in nodes)


def exact_treewidth(neighbors: dict) -> int:
    """Subset dynamic program over elimination orders (<= ~12 vertices)."""
    nodes = sorted(neighbors)
    n = len(nodes)
    if n == 0:
        return 0
    index = {v: i for i, v in enumerate(nodes)}
    adj = [0] * n
    for v, ns in neighbors.items():
        for u in ns:
            if u != v:
                adj[index[v]] |= 1 << index[u]

    def eliminated_degree(mask_removed: int, v: int) -> int:
        # neighbors of v in the graph where mask_removed vertices were
        # eliminated: reachable through removed vertices
        seen = 1 << v
        frontier = adj[v]
        result = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            if seen & bit:
                continue
            seen |= bit
            i = bit.bit_length() - 1
            if mask_removed & bit:
                frontier |= adj[i] & ~seen
            else:
                result += 1
        return result

    best = {0: -1}
    for mask in range(1, 1 << n):
        width = None
        rest = mask
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            prev = best[mask ^ bit]
            cand = max(prev, eliminated_degree(mask ^ bit, v))
            if width is None or cand < width:
                width = cand
        best[mask] = width
    return max(best[(1 << n) - 1], 0)
