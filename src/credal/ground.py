"""Grounding and the graphs read off a program.

The grounder is semi-naive bottom-up evaluation with negation ignored, in
one pass.  Round 0 fires the rules with an empty positive body and opens
the probabilistic fact atoms: each is derivable, since some world selects
it, but no ground rule heads it, because ``validate_program`` refuses a rule
head that unifies with a fact atom.  A world's choice of facts is then
exactly a choice of which open atoms to assume.  Every later round joins,
for each rule and each positive body position whose predicate gained
atoms, that position against the previous round's new atoms and every
other position against all atoms derived so far.  Joins probe hash tables
keyed on the argument positions already bound.  Each match emits its
ground rule at once, and a head not derived before joins the next round's
new atoms.  Rules that are already ground are kept verbatim.  Instances
whose positive body can never be derived are omitted; they cannot fire
under any of the semantics computed downstream, so the result is
interchangeable with the full naive grounding.

Grounding builds no reference cycle (the recursive join is a method, not a
closure that refers to itself), so a grounding and its scratch state are
freed by reference counting as soon as the caller drops them, not at the
cyclic collector's next pass; ``tests/test_memory.py`` guards this for
every library entry point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Atom, Literal, Program, Rule, Term


class OlonError(Exception):
    """Raised when a program contains an odd loop over negation."""

    def __init__(self, witness: "OlonWitness"):
        super().__init__(f"odd loop over negation: {witness}")
        self.witness = witness


@dataclass(frozen=True)
class GroundProgram:
    rules: tuple[Rule, ...]
    herbrand_base: frozenset[Atom]

    @classmethod
    def from_rules(cls, rules) -> "GroundProgram":
        rules = tuple(sorted(set(rules), key=str))
        atoms = set()
        for r in rules:
            atoms.add(r.head)
            atoms.update(l.atom for l in r.body)
        return cls(rules, frozenset(atoms))


@dataclass(frozen=True)
class CallGraph:
    nodes: frozenset[tuple[str, int]]
    edges: frozenset[tuple[tuple[str, int], tuple[str, int], str]]  # (from, to, "+"|"-")


@dataclass(frozen=True)
class DependencyGraph:
    nodes: frozenset[Atom]
    edges: frozenset[tuple[Atom, Atom]]  # (head atom, body atom)


@dataclass(frozen=True)
class OlonWitness:
    nodes: tuple[tuple[str, int], ...]
    signs: tuple[str, ...]  # signs[i] labels the edge nodes[i] -> nodes[i+1 mod len]

    def __str__(self) -> str:
        parts = []
        for node, sign in zip(self.nodes, self.signs):
            parts.append(f"{node[0]}/{node[1]} -[{sign}]->")
        first = self.nodes[0]
        return " ".join(parts) + f" {first[0]}/{first[1]}"


class _AtomIndex:
    """Ground atoms by signature, with hash tables on argument positions.

    A table maps the arguments at some positions to the atoms carrying
    them; it is built the first time a join probes those positions and is
    kept current as atoms are added."""

    def __init__(self):
        self.by_signature: dict[tuple[str, int], list[Atom]] = {}
        self.tables: dict[tuple[str, int], dict[tuple[int, ...], dict]] = {}

    def add(self, signature: tuple[str, int], atoms: list[Atom]) -> None:
        self.by_signature.setdefault(signature, []).extend(atoms)
        for probe, table in self.tables.get(signature, {}).items():
            _fill(table, probe, atoms)

    def lookup(self, signature, probe: tuple[int, ...], key: tuple) -> list[Atom]:
        tables = self.tables.setdefault(signature, {})
        table = tables.get(probe)
        if table is None:
            table = tables[probe] = {}
            _fill(table, probe, self.by_signature.get(signature, ()))
        return table.get(key, ())


def _fill(table: dict, probe: tuple[int, ...], atoms) -> None:
    for atom in atoms:
        table.setdefault(tuple(atom.args[p] for p in probe), []).append(atom)


def _join_step(atom: tuple[str, tuple[int, ...]], bound: set[int]):
    """How to match one body atom once the slots in ``bound`` are set: the
    positions to probe on and their slots, then the (position, slot) pairs
    a match binds and those it must check, for a variable repeated in it."""
    predicate, args = atom
    probe = tuple(p for p, s in enumerate(args) if s in bound)
    binds, checks = [], []
    for p, s in enumerate(args):
        if p in probe:
            continue
        if s in bound:
            checks.append((p, s))
        else:
            bound.add(s)
            binds.append((p, s))
    return ((predicate, len(args)), probe, tuple(args[p] for p in probe),
            tuple(binds), tuple(checks))


def _compile_rule(rule: Rule):
    """Number the rule's terms as environment slots (constants pre-filled)
    and plan one join per positive body position: that position first, as
    it reads the round's new atoms, then greedily the atom with the most
    arguments bound."""
    slots: dict[Term, int] = {}

    def compile_atom(atom: Atom):
        return atom.predicate, tuple(slots.setdefault(t, len(slots)) for t in atom.args)

    head = compile_atom(rule.head)
    body = tuple((*compile_atom(l.atom), l.negated) for l in rule.body)
    env = [None if t.is_variable else t for t in slots]
    constants = {s for t, s in slots.items() if not t.is_variable}
    positive = [(pred, args) for pred, args, negated in body if not negated]
    plans = []
    for first in range(len(positive)):
        bound = set(constants)
        steps = [_join_step(positive[first], bound)]
        rest = positive[:first] + positive[first + 1:]
        while rest:
            best = max(rest, key=lambda a: sum(s in bound for s in a[1]))
            rest.remove(best)
            steps.append(_join_step(best, bound))
        plans.append(tuple(steps))
    return head, body, env, plans


class _Grounder:
    """The grounder's state: the ground rules emitted so far, the atoms
    derived so far, indexed, and the heads new in this round."""

    __slots__ = ("rules", "known", "fresh", "derived")

    def __init__(self, rules: set[Rule]):
        self.rules = rules
        self.known: set[Atom] = set()
        self.fresh: dict[tuple[str, int], list[Atom]] = {}
        self.derived = _AtomIndex()

    def emit(self, head, body, env) -> None:
        atom = Atom(head[0], tuple(env[s] for s in head[1]))
        self.rules.add(Rule(atom, tuple(
            Literal(Atom(pred, tuple(env[s] for s in args)), negated)
            for pred, args, negated in body)))
        self.derive(atom)

    def derive(self, atom: Atom) -> None:
        if atom not in self.known:
            self.known.add(atom)
            self.fresh.setdefault(atom.signature, []).append(atom)

    def join(self, head, body, env, steps, k, source) -> None:
        if k == len(steps):
            self.emit(head, body, env)
            return
        signature, probe, probe_slots, binds, checks = steps[k]
        for atom in source.lookup(signature, probe, tuple(env[s] for s in probe_slots)):
            args = atom.args
            for p, s in binds:
                env[s] = args[p]
            if all(args[p] == env[s] for p, s in checks):
                self.join(head, body, env, steps, k + 1, self.derived)


def ground_program(program: Program) -> GroundProgram:
    """Instantiate every rule over matches of its positive body against
    the atoms derivable by positive rule application (semi-naive).

    Each probabilistic fact is an open atom: it is in the Herbrand base and
    may match a positive body, but no ground rule heads it (validation
    keeps it out of every rule head), so a world states its facts as
    assumptions on the grounding.
    """
    grounder = _Grounder({r for r in program.rules
                          if r.head.is_ground() and all(l.atom.is_ground() for l in r.body)})
    compiled = [_compile_rule(r) for r in program.rules]
    for head, body, env, plans in compiled:
        if not plans:  # empty positive body: ground by safety, fires once
            grounder.emit(head, body, env)
    for pf in program.prob_facts:
        grounder.derive(pf.atom)
    while grounder.fresh:
        delta = _AtomIndex()
        for signature, atoms in grounder.fresh.items():
            delta.add(signature, atoms)
            grounder.derived.add(signature, atoms)
        grounder.fresh = {}
        for head, body, env, plans in compiled:
            for steps in plans:
                if steps[0][0] in delta.by_signature:
                    grounder.join(head, body, env, steps, 0, delta)
    g = GroundProgram.from_rules(grounder.rules)
    return GroundProgram(g.rules, g.herbrand_base.union(pf.atom for pf in program.prob_facts))


def build_call_graph(program: Program) -> CallGraph:
    nodes = set(program.predicates())
    edges = set()
    for rule in program.rules:
        for lit in rule.body:
            sign = "-" if lit.negated else "+"
            edges.add((rule.head.signature, lit.atom.signature, sign))
    return CallGraph(frozenset(nodes), frozenset(edges))


def detect_olon(graph: CallGraph) -> OlonWitness | None:
    """Find a call-graph cycle with an odd number of negative edges.

    Works on the parity double cover: each predicate is split into an even
    and an odd copy, positive edges preserve parity and negative edges flip
    it.  An odd closed walk through ``v`` exists iff the odd copy of ``v``
    is reachable from its even copy, and the witness comes from the first
    such ``v`` in sorted order.  The cover is symmetric ((a,p)->(b,q) is an
    edge iff (a,1-p)->(b,1-q) is), so the two copies then share a strongly
    connected component and no component pass is needed.  Nor is the fact
    encoding: its loop ``a :- not __not_a.`` / ``__not_a :- not a.`` adds
    only the negative edges p -> __not_p -> p, so a closed walk through
    ``__not_p`` crosses both and keeps its parity, and a program and its
    encoding have the same odd cycles.
    """
    nodes = sorted(graph.nodes)
    cover: dict[tuple, list[tuple]] = {}
    for node in nodes:
        cover[(node, 0)] = []
        cover[(node, 1)] = []
    edges = sorted(graph.edges, key=lambda e: (e[0], e[1], e[2]))
    for src, dst, sign in edges:
        flip = 1 if sign == "-" else 0
        for parity in (0, 1):
            cover[(src, parity)].append((dst, parity ^ flip))

    for node in nodes:
        walk = _shortest_cover_path(cover, (node, 0), (node, 1))
        if walk is not None:
            return _extract_odd_cycle(walk)
    return None


def _shortest_cover_path(cover, start, goal) -> list[tuple] | None:
    parent: dict[tuple, tuple] = {start: start}
    frontier = [start]
    while frontier:
        nxt = []
        for cur in frontier:
            for succ in cover[cur]:
                if succ not in parent:
                    parent[succ] = cur
                    if succ == goal:
                        path = [succ]
                        while path[-1] != start:
                            path.append(parent[path[-1]])
                        return list(reversed(path))
                    nxt.append(succ)
        frontier = nxt
    return None


def _extract_odd_cycle(walk: list[tuple]) -> OlonWitness:
    """Reduce a closed odd walk (as double-cover nodes) to a simple odd cycle.

    Even sub-loops are spliced out as they appear; since the total parity is
    odd, the surviving loop is odd and visits each node once.
    """
    stack = [(walk[0][0], walk[0][1])]
    position = {walk[0][0]: 0}
    for node, parity in walk[1:]:
        if node in position:
            j = position[node]
            if (parity ^ stack[j][1]) & 1:
                cycle = stack[j:] + [(node, parity)]
                names = tuple(entry[0] for entry in cycle[:-1])
                signs = tuple("-" if (cycle[i + 1][1] ^ cycle[i][1]) & 1 else "+"
                              for i in range(len(cycle) - 1))
                return OlonWitness(names, signs)
            for popped, _ in stack[j + 1:]:
                del position[popped]
            del stack[j + 1:]
        else:
            stack.append((node, parity))
            position[node] = len(stack) - 1
    raise AssertionError("walk was not odd")


def build_dependency_graph(g: GroundProgram) -> DependencyGraph:
    edges = set()
    for rule in g.rules:
        for lit in rule.body:
            edges.add((rule.head, lit.atom))
    return DependencyGraph(frozenset(g.herbrand_base), frozenset(edges))


def reachable_atoms(dep: DependencyGraph, start: Atom) -> frozenset[Atom]:
    """Atoms reachable from ``start`` (reflexively) along dependency edges."""
    adj: dict[Atom, list[Atom]] = {}
    for head, body in dep.edges:
        adj.setdefault(head, []).append(body)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for atom in frontier:
            for succ in adj.get(atom, ()):
                if succ not in seen:
                    seen.add(succ)
                    nxt.append(succ)
        frontier = nxt
    return frozenset(seen)


def dot_call_graph(graph: CallGraph) -> str:
    lines = ["digraph call_graph {"]
    for node in sorted(graph.nodes):
        lines.append(f'  "{node[0]}/{node[1]}";')
    for src, dst, sign in sorted(graph.edges):
        lines.append(f'  "{src[0]}/{src[1]}" -> "{dst[0]}/{dst[1]}" [label="{sign}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_dependency_graph(dep: DependencyGraph) -> str:
    lines = ["digraph dependency_graph {"]
    for node in sorted(dep.nodes, key=str):
        lines.append(f'  "{node}";')
    for head, body in sorted(dep.edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f'  "{head}" -> "{body}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
