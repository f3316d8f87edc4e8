"""Credal probability bounds for a ground query.

Both engines of ``ENGINES`` run one fold, ``_fold``.  It walks every world
(one per subset of the probabilistic facts, in increasing bit-vector order
with the first fact as the most significant bit), reduces it by its
well-founded model (``stable.reduce_world``) and asks the engine's leaf
whether some answer set contains the query and whether some omits it.
Worlds that reduce alike share one leaf result: the same rules on the same
undefined atoms, with the query true in both well-founded models or in
neither, give the same two bits.  The world's probability goes to the upper
bound in the first case and to the lower bound unless the second holds.
Each probability counts as the decimal it prints as, so world masses are
integers that add exactly, and each bound is its exact sum rounded once,
whatever the order of the facts or the worlds.  Every world has an answer
set, so the semantics is always defined: a finite ground program with no
odd cycle through negation has one (Fages 1994; Dung 1992), and the
predicate call graph, checked for odd loops first, over-approximates every
world's ground graph, as a world adds facts.  The leaves differ in
algorithm: ``enum`` (the counting reference and the engine the benchmark
measures) lists every answer set of each distinct reduced world program
through ``iter_answer_sets``; ``twoamc`` reads the two bits as the inner
level of a two-level algebraic model count (Kiesel, Totis & Kimmig, KR
2022) off at most two witness searches, and none when the world's
well-founded model decides the query (``stable.query_witnesses``).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from decimal import Decimal

from . import stable
from .ground import OlonError, build_call_graph, detect_olon, ground_program
from .residual import extract_residual
from .stable import SolveTimeout, check_caps, iter_answer_sets
from .syntax import Program, Query

DEFAULT_MAX_PROB_FACTS = 25
DEFAULT_MAX_UNDEFINED = 24
MODES = ("direct", "residual")


class ProbFactLimitError(Exception):
    """Too many probabilistic facts to enumerate the worlds."""

    def __init__(self, count: int, limit: int):
        super().__init__(
            f"{count} probabilistic facts means 2^{count} worlds (cap {limit}); "
            f"extract the residual program first or raise --max-prob-facts")
        self.count = count
        self.limit = limit


@dataclass(frozen=True)
class ProbabilityInterval:
    lower: float
    upper: float

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper <= 1:
            raise ValueError(f"bad interval [{self.lower}, {self.upper}]")

    def __str__(self) -> str:
        return f"[{self.lower:.6f}, {self.upper:.6f}]"


def _fold(program: Program, query: Query, leaf, *, max_prob_facts: int,
          max_undefined: int, deadline: float | None, clock) -> ProbabilityInterval:
    """The bounds from ``leaf(world, query_id, deadline, clock)``: per world,
    (some answer set contains the query, some omits it), where ``world`` is
    the world's ``stable.reduce_world`` and ``query_id`` is None outside the
    grounding.  The program is grounded once, with the facts as open atoms,
    and indexed once.  Those two bits depend only on the reduced rules, the
    undefined atoms and whether the query is in the base, so worlds that
    agree on all three share one leaf call."""
    n = len(program.prob_facts)
    if n > max_prob_facts:
        raise ProbFactLimitError(n, max_prob_facts)
    witness = detect_olon(build_call_graph(program))
    if witness is not None:
        raise OlonError(witness)
    index = stable.IndexedProgram(ground_program(program))
    fact_ids = [index.ids[pf.atom] for pf in program.prob_facts]
    query_id = index.ids.get(query.atom)
    ratios = [Decimal(repr(pf.prob)).as_integer_ratio() for pf in program.prob_facts]
    lower = upper = 0
    leaves: dict[tuple, tuple[bool, bool]] = {}
    for i, selection in enumerate(itertools.product((False, True), repeat=n)):
        if deadline is not None and clock() > deadline:
            raise SolveTimeout(f"time budget exceeded at world {i} of {1 << n}")
        facts = [f for f, sel in zip(fact_ids, selection) if sel]
        reduced = stable.reduce_world(index, facts, max_undefined)
        rules, undef, base = reduced
        key = (rules, undef, query_id in base)
        bits = leaves.get(key)
        if bits is None:
            bits = leaves[key] = leaf(reduced, query_id, deadline, clock)
        contains, omits = bits
        mass = 1
        for (num, den), sel in zip(ratios, selection):
            mass *= num if sel else den - num
        if not omits:
            lower += mass
        if contains:
            upper += mass
    total = math.prod(den for _, den in ratios)
    return ProbabilityInterval(lower / total, upper / total)


def _count_leaf(world, query_id, deadline, clock):
    """The two bits read off every answer set of the reduced world."""
    contains = omits = False
    for answer_set in iter_answer_sets(world, deadline, clock):
        if query_id in answer_set:
            contains = True
        else:
            omits = True
    return contains, omits


# Each engine is ``(program, query, *, max_prob_facts, max_undefined,
# deadline, clock) -> ProbabilityInterval``, with its caps checked by the
# caller; the two differ only in the leaf.
ENGINES = {"enum": functools.partial(_fold, leaf=_count_leaf),
           "twoamc": functools.partial(_fold, leaf=stable.query_witnesses)}


def select_engine(name: str):
    """The engine named ``name``; an unknown name raises ``ValueError``."""
    if name not in ENGINES:
        raise ValueError(f"unknown engine {name!r}; known engines: {', '.join(ENGINES)}")
    return ENGINES[name]


def solve_query(program: Program, query: Query, *, mode: str = "residual",
                engine: str = "enum",
                max_prob_facts: int = DEFAULT_MAX_PROB_FACTS,
                max_undefined: int = DEFAULT_MAX_UNDEFINED,
                deadline: float | None = None,
                clock=time.perf_counter):
    """Answer a query either on the program as given or on its residual;
    the engine solves whichever program ``mode`` names.

    Returns ``(interval, residual_or_None)``.
    """
    check_caps(max_prob_facts=max_prob_facts, max_undefined=max_undefined)
    solve = select_engine(engine)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    residual = extract_residual(program, query) if mode == "residual" else None
    interval = solve(program if residual is None else residual.program, query,
                     max_prob_facts=max_prob_facts, max_undefined=max_undefined,
                     deadline=deadline, clock=clock)
    return interval, residual
