"""The benchmark's layer hooks, checked against the library.

``perfbench/tracing.py`` times credal's layers by replacing names where
their callers look them up.  A name that is gone shows up as a missing
hook; a name the library no longer calls through that lookup is bypassed,
and its layer would read zero without any warning.  So every hook must run
on one query in each mode.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import credal.bounds
import credal.syntax

import programs


def _tracing():
    """``perfbench/tracing.py``, loaded by path as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_perfbench_hook_runs_in_both_modes():
    tracing = _tracing()
    engine = f"credal.bounds.ENGINES[{tracing.ENGINE!r}]"
    hooks = [f"{namespace.__name__}.{attr}" for namespace, attr, *_ in
             tracing.CALL_HOOKS + tracing.GENERATOR_HOOKS] + [engine]
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    original_engine = credal.bounds.ENGINES[tracing.ENGINE]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        # hooks share span names (four open "olon" spans), so each hooked
        # name gets its own counter around the benchmark's wrapper
        for target, key, _original in undo:
            if isinstance(target, dict):
                target[key] = counted(engine, target[key])
            else:
                setattr(target, key, counted(f"{target.__name__}.{key}",
                                             getattr(target, key)))
        for mode in ("residual", "direct"):
            # the attributes the benchmark client calls, looked up per call
            program = credal.syntax.parse_program(programs.PROB_EDGES_RECURSIVE)
            query = credal.syntax.parse_query("path(a,d)")
            interval, _ = credal.bounds.solve_query(program, query, mode=mode,
                                                    engine="enum")
            assert str(interval) == "[0.000000, 0.030000]"
    finally:
        tracing.uninstall(undo)
    assert tracer.missing == []
    assert [hook for hook in hooks if calls[hook] == 0] == []
    assert credal.bounds.ENGINES[tracing.ENGINE] is original_engine
