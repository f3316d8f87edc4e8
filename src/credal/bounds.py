"""Credal probability bounds for a ground query.

Both engines run one fold, ``_WorldSolver.fold``.  It walks every world
(one per subset of the probabilistic facts, in increasing bit-vector order
with the first fact as the most significant bit, so sums are reproducible),
reduces it by its well-founded model (``stable.reduce_world``) and asks the
engine's leaf whether some answer set contains the query and whether some
omits it.  Worlds that reduce alike share one leaf result: the same rules on
the same undefined atoms, with the query true in both well-founded models
or in neither, give the same two bits.  The world's probability goes to the
upper bound in the first case and to the lower bound unless the second
holds.  Every world has an answer set, so the semantics is always defined:
a finite ground program with no odd cycle through negation has one (Fages
1994; Dung 1992), and the predicate call graph, checked for odd loops
first, over-approximates every world's ground graph, as a world adds facts.
The leaves differ in algorithm: ``enum`` (``credal_bounds_enumeration``, the
counting reference and the engine the benchmark measures) lists every answer
set of each distinct reduced world program through ``iter_answer_sets``;
``twoamc`` (``credal_bounds_2amc``) reads the two bits
as the inner level of a two-level algebraic model count (Kiesel, Totis &
Kimmig, KR 2022) off at most two witness searches, and none when the
world's well-founded model decides the query (``stable.query_witnesses``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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
class World:
    """One truth assignment to the probabilistic facts, aligned with the
    program's fact order."""

    selection: tuple[bool, ...]

    @classmethod
    def from_index(cls, index: int, n_facts: int) -> "World":
        return cls(tuple(bool(index >> (n_facts - 1 - j) & 1) for j in range(n_facts)))


@dataclass(frozen=True)
class ProbabilityInterval:
    lower: float
    upper: float

    def __post_init__(self):
        if not (-1e-9 <= self.lower <= self.upper + 1e-9 <= 1.0 + 2e-9):
            raise ValueError(f"bad interval [{self.lower}, {self.upper}]")

    def __str__(self) -> str:
        return f"[{self.lower:.6f}, {self.upper:.6f}]"


def _interval(lower: float, upper: float) -> ProbabilityInterval:
    lower = min(max(lower, 0.0), 1.0)
    upper = min(max(upper, 0.0), 1.0)
    return ProbabilityInterval(lower, max(lower, upper))


def world_probability(program: Program, world: World) -> float:
    """Product of selected fact probabilities and deselected complements."""
    p = 1.0
    for pf, selected in zip(program.prob_facts, world.selection):
        p *= pf.prob if selected else 1.0 - pf.prob
    return p


class _WorldSolver:
    """The world fold both engines share: one grounding, with the facts as
    open atoms, indexed once; per world the selected fact atoms and the
    query's atom id go to the engine's leaf."""

    def __init__(self, program: Program, query: Query,
                 max_prob_facts: int, max_undefined: int,
                 deadline: float | None, clock):
        check_caps(max_prob_facts=max_prob_facts, max_undefined=max_undefined)
        if len(program.prob_facts) > max_prob_facts:
            raise ProbFactLimitError(len(program.prob_facts), max_prob_facts)
        witness = detect_olon(build_call_graph(program))
        if witness is not None:
            raise OlonError(witness)
        self.program, self.query = program, query
        self.max_undefined, self.deadline, self.clock = max_undefined, deadline, clock
        self.index = stable.IndexedProgram(ground_program(program))
        self.fact_ids = [self.index.ids[pf.atom] for pf in program.prob_facts]
        self.n = len(program.prob_facts)

    def fold(self, leaf) -> ProbabilityInterval:
        """The bounds from ``leaf(world, query_id, deadline, clock)``: per
        world, (some answer set contains the query, some omits it), where
        ``world`` is the world's ``stable.reduce_world`` and ``query_id`` is
        None outside the grounding.  Those two bits depend only on the
        reduced rules, the undefined atoms and whether the query is in the
        base, so worlds that agree on all three share one leaf call."""
        query_id = self.index.ids.get(self.query.atom)
        lower = upper = 0.0
        leaves: dict[tuple, tuple[bool, bool]] = {}
        for index in range(1 << self.n):
            if self.deadline is not None and self.clock() > self.deadline:
                raise SolveTimeout(f"time budget exceeded at world {index} of {1 << self.n}")
            world = World.from_index(index, self.n)
            facts = [i for i, sel in zip(self.fact_ids, world.selection) if sel]
            reduced = stable.reduce_world(self.index, facts, self.max_undefined)
            rules, undef, base = reduced
            key = (rules, undef, query_id in base)
            bits = leaves.get(key)
            if bits is None:
                bits = leaves[key] = leaf(reduced, query_id, self.deadline, self.clock)
            contains, omits = bits
            p = world_probability(self.program, world)
            if not omits:
                lower += p
            if contains:
                upper += p
        return _interval(lower, upper)


def _count_leaf(world, query_id, deadline, clock):
    """The two bits read off every answer set of the reduced world."""
    contains = omits = False
    for answer_set in iter_answer_sets(world, deadline, clock):
        if query_id in answer_set:
            contains = True
        else:
            omits = True
    return contains, omits


def credal_bounds_enumeration(program: Program, query: Query, *,
                              max_prob_facts: int = DEFAULT_MAX_PROB_FACTS,
                              max_undefined: int = DEFAULT_MAX_UNDEFINED,
                              deadline: float | None = None,
                              clock=time.perf_counter) -> ProbabilityInterval:
    """Lower/upper query probability, counting every world's answer sets."""
    return _WorldSolver(program, query, max_prob_facts, max_undefined,
                        deadline, clock).fold(_count_leaf)


def credal_bounds_2amc(program: Program, query: Query, *,
                       max_prob_facts: int = DEFAULT_MAX_PROB_FACTS,
                       max_undefined: int = DEFAULT_MAX_UNDEFINED,
                       deadline: float | None = None,
                       clock=time.perf_counter) -> ProbabilityInterval:
    """The same bounds, searching each world for one answer set with the
    query and one without it."""
    return _WorldSolver(program, query, max_prob_facts, max_undefined,
                        deadline, clock).fold(stable.query_witnesses)


ENGINES = {"enum": credal_bounds_enumeration, "twoamc": credal_bounds_2amc}


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
