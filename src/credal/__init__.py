"""Credal inference for probabilistic answer set programs.

Parse a program of probabilistic facts and normal rules, reduce it to the
part a ground query can reach through its well-founded reduct, and compute
the query's lower/upper probability over all answer-set distributions.
"""

from .bounds import (ProbabilityInterval, ProbFactLimitError, SolveTimeout, World,
                     credal_bounds_2amc, credal_bounds_enumeration, solve_query,
                     world_probability)
from .ground import (CallGraph, DependencyGraph, GroundProgram, OlonError,
                     OlonWitness, build_call_graph, build_dependency_graph,
                     detect_olon, ground_program)
from .residual import (CERTAIN_FALSE, CERTAIN_TRUE, UNDEFINED, ResidualProgram,
                       decode_probabilistic_facts, encode_probabilistic_facts,
                       extract_residual)
from .stable import UndefinedAtomLimitError, iter_answer_sets, reduce_world
from .syntax import (Atom, Literal, ParseError, ProbFact, Program,
                     ProgramError, Query, Rule, Term, const, parse_program,
                     parse_query, render_program, var)
from .wfs import ThreeValuedInterpretation, wf_reduct, wfm

__version__ = "0.1.0"
