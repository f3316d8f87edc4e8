"""The query path builds no reference cycles.

Everything a query allocates must be freed by reference counting when the
query ends; what only the cyclic collector can free piles up between
collections, and each collection pauses whichever query is running.  Each
case runs one library call with the collector off and then checks that a
collection finds nothing.  Expected errors are caught with a plain
``try``/``except`` inside the measured region: ``pytest.raises`` keeps a
traceback to the test's own frame, which is a cycle of its own.
"""

import gc

import pytest

from credal.bench import gen_reach_ba, gen_smokers_ba, run_benchmark
from credal.bounds import SolveTimeout, solve_query
from credal.ground import OlonError, ground_program
from credal.residual import extract_residual
from credal.stable import UndefinedAtomLimitError
from credal.syntax import parse_program, parse_query

import programs
from corpus import enumerate_answer_sets

REACH_8 = gen_reach_ba(8, 2)
SMOKERS_5 = gen_smokers_ba(5, 0)


def cyclic_garbage(call, expected=()):
    """``(outcome, n)``: what ``call()`` returned, or the type of the
    ``expected`` exception it raised, and the number of objects it left
    for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        try:
            outcome = call()
        except expected as exc:
            outcome = type(exc)
        return outcome, gc.collect()
    finally:
        gc.enable()


def stepping_clock():
    """A stub clock that advances one second per reading."""
    ticks = iter(range(1 << 30))
    return lambda: float(next(ticks))


@pytest.mark.parametrize("engine", ["enum", "twoamc"])
@pytest.mark.parametrize("mode", ["direct", "residual"])
@pytest.mark.parametrize("instance", [REACH_8, SMOKERS_5], ids=["reachBA8", "smokersBA5"])
def test_solve_query_leaves_no_cycles(instance, mode, engine):
    outcome, garbage = cyclic_garbage(
        lambda: solve_query(instance.program, instance.query, mode=mode, engine=engine),
        UndefinedAtomLimitError)
    # reachBA 8 leaves more undefined atoms than the default cap in direct
    # mode, so that case covers a limit error raised mid-query
    if instance is REACH_8 and mode == "direct":
        assert outcome is UndefinedAtomLimitError
    else:
        assert outcome[0].upper > 0
    assert garbage == 0


@pytest.mark.parametrize("text,query,mode", [
    (programs.PROB_EDGES_RECURSIVE, "path(a,d)", "residual"),
    # an even ring: the budget runs out inside the answer-set search
    ("\n".join(f"a{i} :- not a{(i + 1) % 18}." for i in range(18))
     + "\n0.5::f.\nq :- a0, f.", "q", "direct"),
], ids=["world-loop", "search"])
def test_timeout_leaves_no_cycles(text, query, mode):
    program, q = parse_program(text), parse_query(query)
    outcome, garbage = cyclic_garbage(
        lambda: solve_query(program, q, mode=mode, deadline=2.0, clock=stepping_clock()),
        SolveTimeout)
    assert outcome is SolveTimeout
    assert garbage == 0


def test_undefined_atom_limit_leaves_no_cycles():
    outcome, garbage = cyclic_garbage(
        lambda: solve_query(SMOKERS_5.program, SMOKERS_5.query, max_undefined=1),
        UndefinedAtomLimitError)
    assert outcome is UndefinedAtomLimitError
    assert garbage == 0


@pytest.mark.parametrize("mode", ["direct", "residual"])
def test_olon_error_leaves_no_cycles(mode):
    program = parse_program(programs.OLON_LOOP + "0.5::x.\n")
    outcome, garbage = cyclic_garbage(
        lambda: solve_query(program, parse_query("p"), mode=mode), OlonError)
    assert outcome is OlonError
    assert garbage == 0


def test_extract_residual_leaves_no_cycles():
    outcome, garbage = cyclic_garbage(lambda: extract_residual(REACH_8.program, REACH_8.query))
    assert outcome.program.prob_facts
    assert garbage == 0


def test_enumerate_answer_sets_leaves_no_cycles():
    g = ground_program(parse_program(programs.EVEN_LOOP))
    outcome, garbage = cyclic_garbage(lambda: enumerate_answer_sets(g))
    assert len(outcome) > 1
    assert garbage == 0


@pytest.mark.parametrize("clock,budget,statuses", [
    (None, 2.0, {"ok", "error"}),  # reachGrid 3 direct hits the undefined-atom cap
    (stepping_clock, 0.5, {"timeout"}),
], ids=["real-clock", "stub-clock"])
def test_run_benchmark_leaves_no_cycles(clock, budget, statuses):
    kwargs = {} if clock is None else {"clock": clock()}
    outcome, garbage = cyclic_garbage(lambda: list(run_benchmark(
        ["reachGrid", "reachBA", "smokersBA"], [3], runs=1, time_budget=budget, **kwargs)))
    assert len(outcome) == 6
    assert {row.rsplit(",", 1)[1] for row in outcome} == statuses
    assert garbage == 0
