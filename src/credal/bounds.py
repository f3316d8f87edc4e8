"""Credal probability bounds for a ground query.

Both engines fold the same per-world leaf: ``_WorldSolver.worlds`` walks
every world (one per subset of the probabilistic facts, scanned in
increasing bit-vector order with the first fact as the most significant
bit, so sums are reproducible) and counts the world's answer sets as the
pair (sets containing the query, all sets).  Their cross-check therefore
covers only the two folds:

* ``credal_bounds_enumeration`` adds the world's probability to the lower
  bound when the query holds in every answer set and to the upper bound
  when it holds in some.

* ``credal_bounds_2amc`` phrases the same computation as a two-level
  algebraic count: the inner pair is collapsed to 0/1 indicators by
  ``f_transform``, and an outer pass multiplies in the fact-selection
  weights and sums over worlds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import stable
from .ground import (GroundProgram, OlonError, build_call_graph, detect_olon,
                     ground_program, with_facts_as_rules)
from .residual import extract_residual, CERTAIN_TRUE, CERTAIN_FALSE
from .stable import SolveTimeout, check_caps, iter_answer_sets
from .syntax import Program, Query

DEFAULT_MAX_PROB_FACTS = 25
DEFAULT_MAX_UNDEFINED = 24


class ProbFactLimitError(Exception):
    """Too many probabilistic facts to enumerate the worlds."""

    def __init__(self, count: int, limit: int):
        super().__init__(
            f"{count} probabilistic facts means 2^{count} worlds (cap {limit}); "
            f"extract the residual program first or raise --max-prob-facts")
        self.count = count
        self.limit = limit


class CredalUndefinedError(Exception):
    """A world has no answer set, so the credal semantics is undefined."""

    def __init__(self, world: "World", atoms):
        names = ", ".join(str(a) for a in atoms) or "(empty)"
        super().__init__(f"credal semantics undefined: world {names} has no answer set")
        self.world = world


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


@dataclass(frozen=True)
class InnerValue:
    """Inner semiring value over pairs of naturals: (answer sets containing
    the query, answer sets in total)."""

    n1: int
    n2: int

    def __post_init__(self):
        if not 0 <= self.n1 <= self.n2:
            raise ValueError(f"bad inner count ({self.n1}, {self.n2})")


@dataclass(frozen=True)
class OuterValue:
    """Outer semiring value: a (lower, upper) probability pair."""

    lp: float
    up: float


def world_probability(program: Program, world: World) -> float:
    """Product of selected fact probabilities and deselected complements."""
    p = 1.0
    for pf, selected in zip(program.prob_facts, world.selection):
        p *= pf.prob if selected else 1.0 - pf.prob
    return p


def f_transform(value: InnerValue) -> OuterValue:
    """Collapse counts to indicator bounds: lower 1 iff the query holds in
    every answer set, upper 1 iff it holds in some."""
    return OuterValue(1.0 if value.n1 == value.n2 else 0.0,
                      1.0 if value.n1 > 0 else 0.0)


class _WorldSolver:
    """Shared world iteration: one base grounding, indexed once, then per
    world the selected fact atoms seed the answer-set search, whose answer
    sets are counted against the query's atom id."""

    def __init__(self, program: Program, query: Query,
                 max_prob_facts: int, max_undefined: int,
                 deadline: float | None, clock):
        check_caps(max_prob_facts=max_prob_facts, max_undefined=max_undefined)
        if len(program.prob_facts) > max_prob_facts:
            raise ProbFactLimitError(len(program.prob_facts), max_prob_facts)
        witness = detect_olon(build_call_graph(program))
        if witness is not None:
            raise OlonError(witness)
        self.program = program
        self.query = query
        self.max_undefined = max_undefined
        self.deadline = deadline
        self.clock = clock
        # validation leaves the fact rules `a.` the only ones headed by a fact
        base = ground_program(with_facts_as_rules(program))
        facts = {pf.atom for pf in program.prob_facts}
        core = GroundProgram(tuple(r for r in base.rules if r.head not in facts),
                             base.herbrand_base)
        self.index = stable.IndexedProgram(core)
        self.fact_ids = [self.index.ids[pf.atom] for pf in program.prob_facts]
        self.n = len(program.prob_facts)

    def worlds(self):
        """Yield ``(world, InnerValue(n1, n2))`` per world: of its ``n2``
        answer sets, ``n1`` contain the query atom."""
        query_id = self.index.ids.get(self.query.atom)
        for index in range(1 << self.n):
            if self.deadline is not None and self.clock() > self.deadline:
                raise SolveTimeout(f"time budget exceeded at world {index} of {1 << self.n}")
            world = World.from_index(index, self.n)
            facts = [i for i, sel in zip(self.fact_ids, world.selection) if sel]
            n1 = n2 = 0
            for answer_set in iter_answer_sets(self.index, facts, self.max_undefined,
                                               self.deadline, self.clock):
                n1 += query_id in answer_set
                n2 += 1
            if not n2:
                raise CredalUndefinedError(
                    world, [pf.atom for pf, sel
                            in zip(self.program.prob_facts, world.selection) if sel])
            yield world, InnerValue(n1, n2)


def credal_bounds_enumeration(program: Program, query: Query, *,
                              max_prob_facts: int = DEFAULT_MAX_PROB_FACTS,
                              max_undefined: int = DEFAULT_MAX_UNDEFINED,
                              deadline: float | None = None,
                              clock=time.perf_counter) -> ProbabilityInterval:
    """Lower/upper query probability by direct world enumeration."""
    solver = _WorldSolver(program, query, max_prob_facts, max_undefined,
                          deadline, clock)
    lower = upper = 0.0
    for world, value in solver.worlds():
        p = world_probability(program, world)
        if value.n1 == value.n2:
            lower += p
        if value.n1 > 0:
            upper += p
    return _interval(lower, upper)


def credal_bounds_2amc(program: Program, query: Query, *,
                       max_prob_facts: int = DEFAULT_MAX_PROB_FACTS,
                       max_undefined: int = DEFAULT_MAX_UNDEFINED,
                       deadline: float | None = None,
                       clock=time.perf_counter) -> ProbabilityInterval:
    """The same bounds as a two-level algebraic count over the fact
    variables (outer) and the remaining atoms (inner)."""
    solver = _WorldSolver(program, query, max_prob_facts, max_undefined,
                          deadline, clock)
    acc_lp = acc_up = 0.0
    for world, value in solver.worlds():
        weight = world_probability(program, world)
        fv = f_transform(value)
        acc_lp += weight * fv.lp
        acc_up += weight * fv.up
    return _interval(acc_lp, acc_up)


ENGINES = {
    "enum": credal_bounds_enumeration,
    "twoamc": credal_bounds_2amc,
}


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
    """Answer a query either on the program as given or on its residual.

    Returns ``(interval, residual_or_None)``.
    """
    check_caps(max_prob_facts=max_prob_facts, max_undefined=max_undefined)
    solve = select_engine(engine)
    if mode == "direct":
        interval = solve(program, query, max_prob_facts=max_prob_facts,
                         max_undefined=max_undefined, deadline=deadline, clock=clock)
        return interval, None
    if mode != "residual":
        raise ValueError(f"unknown mode {mode!r}")
    residual = extract_residual(program, query)
    if residual.query_status == CERTAIN_TRUE:
        return _interval(1.0, 1.0), residual
    if residual.query_status == CERTAIN_FALSE:
        return _interval(0.0, 0.0), residual
    interval = solve(residual.program, query, max_prob_facts=max_prob_facts,
                     max_undefined=max_undefined, deadline=deadline, clock=clock)
    return interval, residual
