"""Stable models by branch-and-propagate search on the least-model kernel.

Every stable model contains the well-founded model's true atoms and misses
its false ones, so the search covers only the undefined atoms, on their
rules with every decided literal evaluated away.  As in smodels (Simons,
Niemela & Soininen 2002), propagation is the alternating-fixpoint step on
``wfs.least_model``.  Write Gamma(I) for the least model of the reduct by
I: it is antimonotone, and M is stable iff M = Gamma(M).  A node assumes
the atoms ``yes`` true and ``no`` false and inherits a lower bound ``true``.
Every stable model M that agrees with it lies between Gamma(poss - no),
the new lower bound, and poss = Gamma(true | yes); so the node is pruned if
``yes`` leaves ``poss`` or the new bound meets ``no``.  Else it branches on
an undecided atom of ``poss``, true first, so no answer set comes twice.
With every atom decided, ``true | yes`` is the only candidate, yielded iff
it equals its own Gamma; that check alone makes the search sound.  The
search grows with the answer sets and pruned branches, not with the 2^k
subsets of k undefined atoms: the even ring ``a_i :- not a_{i+1 mod 18}``
takes 27 nodes.  Answer sets are frozensets of the atom ids of an
``IndexedProgram``, whose ``to_atoms`` maps them back to atoms.

``reduce_world`` turns one world into the search's input: its rules on the
undefined atoms, those atoms, and the WFM's true atoms, the ``base`` that
every answer set of the world contains.  It makes one pass over the
indexed rules: a rule whose head the world decides goes, as does one with
a positive body atom outside the possibly-true set or a negative one in
the true set, and the rest keep only their undefined body atoms, so the
triple keeps the index's rule and body order.  The answer sets of two worlds
with the same rules and undefined atoms differ only in that base, so the
world fold runs a leaf once per distinct reduced world program and worlds
that reduce alike share its result.  Two leaves search one reduced world,
each compiling its rules once (``wfs.compile_rules``) for the whole search.
``iter_answer_sets`` lists every answer set; ``query_witnesses`` asks
whether some answer set contains the query and whether some omits it (brave
and cautious reasoning; Gebser et al., *Answer Set Solving in Practice*,
2012).  Every world has an answer set: a finite ground program with no odd
cycle through negation has one (Fages 1994; Dung 1992), and a world adds
facts, not edges, to the predicate call graph the engines check for odd
loops.  So a query the WFM decides needs no search, and if no answer set
contains the query some omits it: ``query_witnesses`` searches with the
query assumed true and, only if that succeeds, assumed false.
The pruning argument holds at any node, the root included, so assumptions
prune only models that disagree with them and the search below them is
complete; the stability check keeps every witness an answer set.
The search is a module-level recursive generator that is passed its
context, so it builds no reference cycle and each world's sets are freed
by reference counting (guarded by ``tests/test_memory.py``).
"""

from __future__ import annotations

from .wfs import IndexedProgram, _wfm_ids, compile_rules, least_model


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


def check_caps(**caps: int) -> None:
    """Refuse a negative cap, which no run can use, before any work."""
    for name, value in caps.items():
        if value < 0:
            raise ValueError(f"{name} must be at least 0, got {value}")


def reduce_world(index: IndexedProgram, facts, max_undefined: int):
    """The world of the indexed program plus the atom ids ``facts``, reduced
    by its well-founded model: ``(rules, undef, base)``, the rules on the
    undefined atoms ``undef`` (a sorted tuple) with every decided literal
    evaluated away, and the true atom ids ``base``.  Raises
    ``UndefinedAtomLimitError`` when more than ``max_undefined`` atoms are
    undefined."""
    true_ids, possible = _wfm_ids(index, facts)
    undefined = possible - true_ids
    if len(undefined) > max_undefined:
        raise UndefinedAtomLimitError(len(undefined), max_undefined)
    rules = []
    for head, pos, neg in index.rules:
        # a decided head, a false positive or a true negative literal drops it
        if head in undefined and possible.issuperset(pos) and true_ids.isdisjoint(neg):
            rules.append((head, tuple([b for b in pos if b in undefined]),
                          tuple([c for c in neg if c in undefined])))
    return tuple(rules), tuple(sorted(undefined)), frozenset(true_ids)


def iter_answer_sets(world, deadline: float | None, clock):
    """Yield every stable model of the ``reduce_world`` triple ``world``, as
    a frozenset of atom ids, in a deterministic order.  The search checks ``clock()``
    against ``deadline`` (None for no budget) and raises ``SolveTimeout``."""
    rules, undef, base = world
    yield from _search(compile_rules(rules, undef), undef, base, deadline, clock,
                       frozenset(), frozenset(), frozenset())


def query_witnesses(world, query_id, deadline: float | None, clock) -> tuple[bool, bool]:
    """(some answer set contains the atom ``query_id``, some omits it) for
    the reduced world, which has an answer set (module docstring);
    ``query_id`` None is an atom outside the grounding."""
    rules, undef, base = world
    if query_id not in undef:
        return query_id in base, query_id not in base
    compiled = compile_rules(rules, undef)

    def witness(yes, no):
        return next(_search(compiled, undef, base, deadline, clock,
                            yes, no, frozenset()), None) is not None

    query = frozenset((query_id,))
    contains = witness(query, frozenset())
    return contains, not contains or witness(frozenset(), query)


def _search(compiled, undef, base, deadline, clock, yes, no, true):
    """The search node assuming ``yes`` true and ``no`` false, below the
    lower bound ``true``; it yields ``base`` plus each answer set found."""
    if deadline is not None and clock() > deadline:
        raise SolveTimeout(f"time budget exceeded in the answer-set search "
                           f"over {len(undef)} undefined atoms")
    poss = least_model(compiled, true | yes, ())
    if not yes <= poss:
        return
    true = least_model(compiled, poss - no, ())
    if not true.isdisjoint(no):
        return
    for a in undef:
        if a in poss and a not in true and a not in yes and a not in no:
            yield from _search(compiled, undef, base, deadline, clock,
                               yes | {a}, no, true)
            yield from _search(compiled, undef, base, deadline, clock,
                               yes, no | {a}, true)
            return
    model = true | yes
    if least_model(compiled, model, ()) == model:
        yield base | model
