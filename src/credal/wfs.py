"""Well-founded model as an alternating fixpoint on one least-model kernel.

``least_model`` derives, by counter-based forward chaining, every atom that
the rules prove when the rules with a negative literal on a given
``blocked`` set are switched off (Dowling & Gallier 1984).  Applied to a
set I of atoms it is the operator Gamma(I), the least model of the reduct
by I.  Gamma is antimonotone, so alternating it from the empty set
(Van Gelder 1993) grows an underestimate of the true atoms and shrinks an
overestimate of the possibly-true ones until both stop moving: the first
is the well-founded model's true set, and everything outside the second is
its false set.  Each true set is Gamma of the possibly-true set before it,
and each possibly-true set is Gamma of the true set before it.  So once a
possibly-true set repeats, or equals the true set, the next true set would
be the current one, and the alternation stops without the least-model call
that would only confirm it.  The stable-model search reuses the same
kernel.  As in smodels, rules are compiled once per rule set
(``compile_rules``, which ``IndexedProgram`` runs when built); each call
copies the counts with a slice and scans only the rules with an empty
positive body.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ground import GroundProgram
from .syntax import Atom, Rule


@dataclass(frozen=True)
class ThreeValuedInterpretation:
    true_set: frozenset[Atom]
    false_set: frozenset[Atom]

    def __post_init__(self):
        overlap = self.true_set & self.false_set
        if overlap:
            raise ValueError(f"inconsistent interpretation: {sorted(map(str, overlap))}")

    def undefined_in(self, base: frozenset[Atom]) -> frozenset[Atom]:
        return base - self.true_set - self.false_set


# ---------------------------------------------------------------------------
# compiled form shared with the stable-model module

def compile_rules(rules, atoms):
    """The ``(head, pos, neg)`` id rules over the ids ``atoms`` compiled for
    ``least_model``: the rules, their positive-body sizes, the ``(head, neg)``
    of those with an empty positive body, and the watch lists (atom -> the
    rules with it in the positive body, once per occurrence)."""
    watch: dict[int, list[int]] = {a: [] for a in atoms}
    for ri, (_, pos, _) in enumerate(rules):
        for b in pos:
            watch[b].append(ri)
    return (rules, [len(pos) for _, pos, _ in rules],
            [(head, neg) for head, pos, neg in rules if not pos], watch)


class IndexedProgram:
    """Ground program with atoms interned to ints, and its rules compiled
    once for the least-model kernel."""

    __slots__ = ("atoms", "ids", "rules", "compiled")

    def __init__(self, g: GroundProgram):
        self.atoms: list[Atom] = sorted(g.herbrand_base, key=str)
        self.ids: dict[Atom, int] = {a: i for i, a in enumerate(self.atoms)}
        ids = self.ids
        self.rules: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [
            (ids[r.head],
             tuple(ids[l.atom] for l in r.body if not l.negated),
             tuple(ids[l.atom] for l in r.body if l.negated))
            for r in g.rules
        ]
        self.compiled = compile_rules(self.rules, range(len(self.atoms)))

    def to_atoms(self, ids) -> frozenset[Atom]:
        return frozenset(self.atoms[i] for i in ids)


def least_model(compiled, blocked, seeds) -> set[int]:
    """The seeds plus every head derivable from them by the rules whose
    negative body misses ``blocked``, in the ``compile_rules`` form
    ``compiled``, whose atoms must include the seeds and every head.

    Each rule counts the positive body atoms not yet derived and fires when
    the count reaches zero, so every rule is looked at once per body atom:
    linear in the size of the rules."""
    rules, sizes, bodiless, watch = compiled
    missing = sizes[:]
    derived = set(seeds)
    queue = list(derived)
    for head, neg in bodiless:
        if head not in derived and blocked.isdisjoint(neg):
            derived.add(head)
            queue.append(head)
    while queue:
        for ri in watch[queue.pop()]:
            missing[ri] -= 1
            if not missing[ri]:
                head, _, neg = rules[ri]
                if head not in derived and blocked.isdisjoint(neg):
                    derived.add(head)
                    queue.append(head)
    return derived


def _wfm_ids(idx: IndexedProgram, facts) -> tuple[set[int], set[int]]:
    """(true, possibly true) atom ids of the well-founded model of the
    indexed program plus the atoms ``facts``."""
    true_ids: set[int] = set()
    size = -1
    while True:
        possible = least_model(idx.compiled, true_ids, facts)
        # Gamma(possible) is true_ids when possible repeats or equals it
        if len(possible) in (size, len(true_ids)):
            return true_ids, possible
        size = len(possible)
        true_ids = least_model(idx.compiled, possible, facts)


def wfm(g: GroundProgram) -> ThreeValuedInterpretation:
    """The well-founded model of a ground program."""
    idx = IndexedProgram(g)
    true_ids, possible = _wfm_ids(idx, ())
    false_ids = set(range(len(idx.atoms))) - possible
    return ThreeValuedInterpretation(idx.to_atoms(true_ids), idx.to_atoms(false_ids))


def wf_reduct(g: GroundProgram, model: ThreeValuedInterpretation) -> GroundProgram:
    """Drop rules with a body literal false in the model; delete body
    literals true in the model from the survivors."""
    kept: list[Rule] = []
    for rule in g.rules:
        body = []
        drop = False
        for lit in rule.body:
            if lit.negated:
                if lit.atom in model.true_set:
                    drop = True
                    break
                if lit.atom in model.false_set:
                    continue
            else:
                if lit.atom in model.false_set:
                    drop = True
                    break
                if lit.atom in model.true_set:
                    continue
            body.append(lit)
        if not drop:
            kept.append(Rule(rule.head, tuple(body)))
    return GroundProgram.from_rules(kept)
