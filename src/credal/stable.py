"""Stable models by splitting along the atom dependency graph.

Every stable model contains the well-founded model's true atoms and misses
its false ones, so the search covers only the undefined atoms, on their
rules with every decided literal evaluated away.  Those atoms split into
strongly connected components in dependency order.  By the splitting-set
theorem (Lifschitz & Turner 1994) the stable models are exactly the
compositions of one local answer set per component, each taken with the
earlier components' choices fixed, so no composed candidate needs a
second, global stability check.  A local answer set is a subset of the
component's atoms that equals the least model of the component's rules
reduced by it.  The search works on the atom ids of an ``IndexedProgram``
and yields each answer set as a frozenset of ids; only
``enumerate_answer_sets`` maps them back to atoms.
"""

from __future__ import annotations

from ._util import strongly_connected_components
from .ground import GroundProgram
from .syntax import Atom
from .wfs import IndexedProgram, _wfm_ids, least_model, watch_list

AnswerSet = frozenset  # an answer set is a frozenset of ground Atoms


class UndefinedAtomLimitError(Exception):
    """The well-founded model leaves more atoms undefined than the cap."""

    def __init__(self, count: int, limit: int):
        super().__init__(
            f"{count} atoms are undefined in the well-founded model "
            f"(cap {limit}); raise --max-undefined or query the residual "
            f"of a more specific atom")
        self.count = count
        self.limit = limit


class SolveTimeout(Exception):
    """Cooperative per-query time budget exceeded."""


def _evaluate_decided(rules, val):
    """The rules with every literal that ``val`` decides evaluated away: a
    rule with a false positive or a true negative literal goes, and true
    positive and false negative literals leave the body.  ``val`` holds
    True, False or None (undecided) per atom id."""
    out = []
    for head, pos, neg in rules:
        if any(val[b] is False for b in pos) or any(val[c] is True for c in neg):
            continue
        out.append((head, tuple(b for b in pos if val[b] is None),
                    tuple(c for c in neg if val[c] is None)))
    return out


def _local_answer_sets(catoms, rules, deadline, clock):
    """Subsets of one component's atoms that equal the least model of the
    component's rules reduced by them; earlier components are already
    evaluated out of ``rules``."""
    watch = watch_list(rules, catoms)
    out = []
    for mask in range(1 << len(catoms)):
        # one clock read per 1024 candidates keeps it out of small components
        if mask & 1023 == 1023 and deadline is not None and clock() > deadline:
            raise SolveTimeout(f"time budget exceeded in a dependency "
                               f"component of {len(catoms)} atoms")
        chosen = {a for j, a in enumerate(catoms) if mask >> j & 1}
        if least_model(rules, watch, chosen, ()) == chosen:
            out.append(chosen)
    return out


def iter_answer_sets(index: IndexedProgram, facts, max_undefined: int,
                     deadline: float | None, clock):
    """Yield every stable model of the indexed program plus the atom ids
    ``facts``, as a frozenset of atom ids, in a deterministic order.  The
    search checks ``clock()`` against ``deadline`` (None for no budget) and
    raises ``SolveTimeout``."""
    true_ids, possible = _wfm_ids(index, facts)
    undef = sorted(possible - true_ids)
    if len(undef) > max_undefined:
        raise UndefinedAtomLimitError(len(undef), max_undefined)

    val: list[bool | None] = [False] * len(index.atoms)
    for i in true_ids:
        val[i] = True
    for i in undef:
        val[i] = None
    reduced = _evaluate_decided([r for r in index.rules if val[r[0]] is None], val)
    adjacency = {a: [] for a in undef}
    for head, pos, neg in reduced:
        adjacency[head].extend(pos)
        adjacency[head].extend(neg)
    comps = [sorted(c) for c in strongly_connected_components(undef, adjacency)]
    comp_index = {a: ci for ci, comp in enumerate(comps) for a in comp}
    rules_by_comp = [[] for _ in comps]
    for rule in reduced:
        rules_by_comp[comp_index[rule[0]]].append(rule)
    true_ids = frozenset(true_ids)

    def rec(ci):
        if ci == len(comps):
            yield true_ids.union(a for a in undef if val[a])
            return
        catoms = comps[ci]
        crules = _evaluate_decided(rules_by_comp[ci], val)
        for choice in _local_answer_sets(catoms, crules, deadline, clock):
            for a in catoms:
                val[a] = a in choice
            yield from rec(ci + 1)
        for a in catoms:
            val[a] = None

    yield from rec(0)


def enumerate_answer_sets(g: GroundProgram, max_undefined: int = 24) -> frozenset:
    """All stable models of the ground program, as a set of atom sets."""
    index = IndexedProgram(g)
    return frozenset(index.to_atoms(ids) for ids in
                     iter_answer_sets(index, (), max_undefined, None, None))


def project_answer_sets(answer_sets, atoms: frozenset[Atom]) -> frozenset:
    """Deduplicated intersections of each answer set with ``atoms``."""
    atoms = frozenset(atoms)
    return frozenset(frozenset(a & atoms) for a in answer_sets)
