"""Exact credal bounds for the benchmark's two program families, computed
without any of credal's grounding, well-founded or answer-set code.

Both families put an independent probabilistic edge ``e(u,v)`` on a DAG
and let every present edge be switched on or off by an even loop:

* reach: ``path(s,t)`` holds in some answer set of a world iff ``t`` is
  reachable from ``s`` over the present edges, and the answer set that
  switches every edge off has no path, so the bounds are
  ``[0, P(s reaches t)]``;
* smokers: ``smokes(t)`` holds in some answer set iff a stressed node
  reaches ``t`` over the present edges, and in every answer set iff
  ``stress(t)`` holds, so the bounds are
  ``[P(stress(t)), P(some stressed node reaches t)]``.

``P(... reaches t)`` is computed by a frontier dynamic program over the
nodes that can reach ``t``, taken in reverse topological order: the state
is the set of already decided nodes that reach ``t`` and still have an
undecided predecessor.
"""

from __future__ import annotations

from graphlib import TopologicalSorter

MAX_STATES = 1 << 16


def relevant_nodes(edges, target, source=None) -> set:
    """Nodes with a path to ``target`` (and, given ``source``, from it)."""
    preds: dict = {}
    succs: dict = {}
    for u, v, _ in edges:
        preds.setdefault(v, []).append(u)
        succs.setdefault(u, []).append(v)
    keep = _closure(target, preds)
    if source is not None:
        keep &= _closure(source, succs)
    return keep


def relevant_fact_count(kind: str, facts, query) -> int:
    """Probabilistic facts the query can depend on: stress facts of nodes
    that can reach the target, plus edges into such nodes."""
    edges, weights, target, source = _problem(kind, facts, query)
    nodes = relevant_nodes(edges, target, source)
    stress = 0 if source is not None else sum(1 for n in nodes if n in weights)
    return stress + sum(1 for u, v, _ in edges if u in nodes and v in nodes)


def exact_bounds(kind: str, facts, query) -> tuple[float, float]:
    """``(lower, upper)`` for a reach or smokers program.

    ``facts`` are ``(predicate, args, prob)`` triples of the program's
    probabilistic facts, ``query`` is ``(predicate, args)``.
    """
    edges, weights, target, source = _problem(kind, facts, query)
    if kind == "reach":
        lower = 0.0
    else:
        lower = 1.0 - weights.get(target, 1.0)
    nodes = relevant_nodes(edges, target, source)
    upper = 1.0 - _no_source_reaches(edges, weights, target, nodes)
    return lower, upper


def _problem(kind, facts, query):
    pred, args = query
    edges = [(a[0], a[1], p) for name, a, p in facts if name == "e"]
    if kind == "reach":
        if pred != "path":
            raise ValueError(f"reach query must be path/2, got {pred}")
        source, target = args
        # the source is the only node that makes the query true
        return edges, {source: 0.0}, target, source
    if kind == "smokers":
        if pred != "smokes":
            raise ValueError(f"smokers query must be smokes/1, got {pred}")
        weights = {a[0]: 1.0 - p for name, a, p in facts if name == "stress"}
        return edges, weights, args[0], None
    raise ValueError(f"unknown program kind {kind!r}")


def _closure(start, adjacency) -> set:
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adjacency.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _no_source_reaches(edges, weights, target, nodes) -> float:
    """``E[prod of weights of nodes that reach target]`` over edge subsets:
    the probability that no source reaches ``target``."""
    out: dict = {n: [] for n in nodes}
    unresolved_preds: dict = {n: 0 for n in nodes}
    for u, v, p in edges:
        if u in nodes and v in nodes:
            out[u].append((v, p))
            unresolved_preds[v] += 1
    order = list(TopologicalSorter({n: [v for v, _ in out[n]] for n in nodes})
                 .static_order())  # successors before predecessors
    if order[0] != target:
        raise ValueError("target is not the unique sink of the relevant DAG")

    states = {frozenset(): 1.0}
    for node in order:
        w = weights.get(node, 1.0)
        for succ, _ in out[node]:
            unresolved_preds[succ] -= 1
        done = {s for s, _ in out[node] if unresolved_preds[s] == 0}
        keep_node = unresolved_preds[node] > 0
        nxt: dict = {}
        for frontier, mass in states.items():
            if node == target:
                p_reach = 1.0
            else:
                p_miss = 1.0
                for succ, p in out[node]:
                    if succ in frontier:
                        p_miss *= 1.0 - p
                p_reach = 1.0 - p_miss
            base = frontier - done
            if p_reach > 0.0:
                key = base | {node} if keep_node else base
                nxt[key] = nxt.get(key, 0.0) + mass * p_reach * w
            if p_reach < 1.0:
                nxt[base] = nxt.get(base, 0.0) + mass * (1.0 - p_reach)
        states = nxt
        if len(states) > MAX_STATES:
            raise ValueError(f"oracle frontier exceeds {MAX_STATES} states")
    return sum(states.values())
