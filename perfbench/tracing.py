"""Spans around credal's layers, recorded from outside the library.

``install`` replaces each layer's public function with a wrapper in the
namespace where its caller looks it up, so ``credal`` itself is unchanged.
Every wrapped call opens one span (name, start, end, parent, query id and a
few sizes); spans stay in memory until ``per_layer_metrics`` folds them.
A hook whose name no longer exists is skipped and counted, and the time it
used to cover shows up in ``trace.unattributed_ms``.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

import credal.bounds
import credal.residual
import credal.stable
import credal.syntax
import credal.wfs


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    qid: int | None
    end: float = 0.0
    info: dict = field(default_factory=dict)
    children: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.qid: int | None = None
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), parent, self.qid))
        self.stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        if not self.stack or self.stack.pop() != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            self.spans[span.parent].children += span.duration
        return span


def _wrap(tracer, name, fn, annotate=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.spans[index].info["error"] = type(exc).__name__
            raise
        finally:
            span = tracer.close(index)
        if annotate is not None:
            annotate(span.info, args, result)
        return result
    return wrapper


def _wrap_generator(tracer, name, fn):
    """Time the iteration of a generator, not the call that creates it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        count = 0
        try:
            for item in fn(*args, **kwargs):
                count += 1
                yield item
        except Exception as exc:
            tracer.spans[index].info["error"] = type(exc).__name__
            raise
        finally:
            tracer.close(index).info["items"] = count
    return wrapper


def _ground_sizes(info, args, g):
    info["rules"] = len(g.rules)
    info["atoms"] = len(g.herbrand_base)


def _undefined(info, args, model):
    info["undefined"] = len(model.undefined_in(args[0].herbrand_base))


def _residual_sizes(info, args, residual):
    info["kept_facts"] = len(residual.kept_fact_atoms)
    info["decided"] = residual.query_status != credal.residual.UNDEFINED


def _engine_facts(info, args, interval):
    info["facts"] = len(args[0].prob_facts)


# (namespace, attribute, span name, annotate); the namespace is where the
# caller looks the name up.
CALL_HOOKS = (
    (credal.syntax, "parse_program", "parse", None),
    (credal.syntax, "parse_query", "parse", None),
    (credal.bounds, "solve_query", "solve_query", None),
    (credal.bounds, "extract_residual", "extract_residual", _residual_sizes),
    (credal.residual, "ground_program", "ground_program", _ground_sizes),
    (credal.residual, "build_call_graph", "olon", None),
    (credal.residual, "detect_olon", "olon", None),
    (credal.residual, "wfm", "wfm", _undefined),
    (credal.residual, "wf_reduct", "wf_reduct", None),
    (credal.residual, "build_dependency_graph", "relevance", None),
    (credal.residual, "reachable_atoms", "relevance", None),
    (credal.residual, "decode_probabilistic_facts", "decode", None),
    (credal.bounds, "ground_program", "ground_program", _ground_sizes),
    (credal.bounds, "build_call_graph", "olon", None),
    (credal.bounds, "detect_olon", "olon", None),
    (credal.wfs, "IndexedProgram", "index", None),
    (credal.stable, "IndexedProgram", "index", None),
)
GENERATOR_HOOKS = ((credal.bounds, "iter_answer_sets", "iter_answer_sets"),)
ENGINE = "enum"


def install(tracer: Tracer):
    """Patch every hook; returns the undo list for ``uninstall``."""
    undo, missing = [], []
    for namespace, attr, name, annotate in CALL_HOOKS:
        if not hasattr(namespace, attr):
            missing.append(f"{namespace.__name__}.{attr}")
            continue
        original = getattr(namespace, attr)
        undo.append((namespace, attr, original))
        setattr(namespace, attr, _wrap(tracer, name, original, annotate))
    for namespace, attr, name in GENERATOR_HOOKS:
        if not hasattr(namespace, attr):
            missing.append(f"{namespace.__name__}.{attr}")
            continue
        original = getattr(namespace, attr)
        undo.append((namespace, attr, original))
        setattr(namespace, attr, _wrap_generator(tracer, name, original))
    # solve_query reads the engine from this dict, not from a module name
    engines = getattr(credal.bounds, "ENGINES", {})
    if ENGINE in engines:
        original = engines[ENGINE]
        undo.append((engines, ENGINE, original))
        engines[ENGINE] = _wrap(tracer, "engine", original, _engine_facts)
    else:
        missing.append(f"credal.bounds.ENGINES[{ENGINE!r}]")
    if missing != tracer.missing:
        print(f"# trace hooks missing: {', '.join(missing)}", file=sys.stderr)
        tracer.missing = missing
    return undo


def uninstall(undo) -> None:
    for target, key, original in reversed(undo):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)


def per_layer_metrics(tracer: Tracer, latencies: dict[int, float]) -> dict:
    """Per-query means of every layer metric, from the spans of the queries
    in ``latencies`` (query id -> client-measured seconds)."""
    n = len(latencies)
    total_s = sum(latencies.values())
    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def spans(name):
        return by_name.get(name, [])

    def total_ms(*names):
        return sum(s.duration for name in names for s in spans(name)) * 1000.0

    first_ground: dict[int, Span] = {}
    for span in spans("ground_program"):
        first_ground.setdefault(span.qid, span)
    engine_ground_rules = sum(
        s.info.get("rules", 0) for s in spans("ground_program")
        if s.parent is not None and tracer.spans[s.parent].name == "engine")
    first_rules = sum(s.info.get("rules", 0) for s in first_ground.values())

    setup_ms = world_ms = 0.0
    worlds_possible = 0
    first_world: dict[int, float] = {}
    for s in spans("iter_answer_sets"):
        engine = s.parent
        if engine is not None and engine not in first_world:
            first_world[engine] = s.start
    for index, s in enumerate(tracer.spans):
        if s.name != "engine":
            continue
        split = first_world.get(index, s.end)
        setup_ms += (split - s.start) * 1000.0
        world_ms += (s.end - split) * 1000.0
        worlds_possible += 1 << s.info.get("facts", 0)
    worlds = len(spans("iter_answer_sets"))

    def errors(name, *kinds):
        return sum(1 for s in spans(name) if s.info.get("error") in kinds)

    # time under the query roots that no child span covers, plus client
    # time outside every span
    covered = sum(s.duration for s in tracer.spans if s.parent is None
                  and s.name != "solve_query")
    covered += sum(s.children for s in spans("solve_query"))

    per_query = {
        "syntax.parse_ms": total_ms("parse"),
        "ground.ms": total_ms("ground_program"),
        "ground.calls": len(spans("ground_program")),
        "ground.rules": sum(s.info.get("rules", 0) for s in first_ground.values()),
        "ground.atoms": sum(s.info.get("atoms", 0) for s in first_ground.values()),
        "ground.olon_ms": total_ms("olon"),
        "ground.relevance_ms": total_ms("relevance"),
        "wfs.wfm_ms": total_ms("wfm"),
        "wfs.reduct_ms": total_ms("wf_reduct"),
        "wfs.undefined_atoms": sum(s.info.get("undefined", 0) for s in spans("wfm")),
        "wfs.index_builds": len(spans("index")),
        "wfs.index_ms": total_ms("index"),
        "residual.self_ms": sum(s.self_time for name in ("extract_residual", "decode")
                                for s in spans(name)) * 1000.0,
        "residual.kept_facts": sum(s.info.get("kept_facts", 0)
                                   for s in spans("extract_residual")),
        "residual.decided": sum(1 for s in spans("extract_residual")
                                if s.info.get("decided")),
        "bounds.setup_ms": setup_ms,
        "bounds.worlds": worlds,
        "bounds.world_ms": world_ms,
        "bounds.timeouts": errors("engine", "SolveTimeout"),
        "bounds.limit_errors": errors("engine", "ProbFactLimitError",
                                      "UndefinedAtomLimitError"),
        "stable.ms": total_ms("iter_answer_sets"),
        "stable.answer_sets": sum(s.info.get("items", 0) for s in spans("iter_answer_sets")),
        "stable.limit_errors": errors("iter_answer_sets", "UndefinedAtomLimitError"),
        "trace.unattributed_ms": (total_s - covered) * 1000.0,
    }
    metrics = {name: value / n for name, value in per_query.items()}
    metrics.update({
        "ground.rules_kept_ratio": engine_ground_rules / first_rules if first_rules else 0.0,
        "bounds.worlds_done_ratio": worlds / worlds_possible if worlds_possible else 0.0,
        "ground.share": total_ms("ground_program") / (total_s * 1000.0),
        "stable.share": total_ms("iter_answer_sets") / (total_s * 1000.0),
        "trace.missing_hooks": len(tracer.missing),
    })
    return metrics


def query_counts(tracer: Tracer, qid: int) -> dict:
    """The sizes of one query that must repeat exactly between two runs."""
    spans = [s for s in tracer.spans if s.qid == qid]
    ground = [s for s in spans if s.name == "ground_program"]
    return {
        "ground.rules": ground[0].info.get("rules", 0) if ground else 0,
        "ground.atoms": ground[0].info.get("atoms", 0) if ground else 0,
        "residual.kept_facts": sum(s.info.get("kept_facts", 0) for s in spans
                                   if s.name == "extract_residual"),
        "bounds.worlds": sum(1 for s in spans if s.name == "iter_answer_sets"),
        "stable.answer_sets": sum(s.info.get("items", 0) for s in spans
                                  if s.name == "iter_answer_sets"),
    }
