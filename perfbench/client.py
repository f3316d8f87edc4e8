"""One workload in one process: the client loop, the correctness gate,
the metrics and the traced run.  ``run.py`` is the entry point."""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import credal.bounds
import credal.syntax

import oracle
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
REFERENCES = HERE / "references.json"
SETUP_PROBES = 5
DETERMINISM_QUERIES = 4
TOLERANCE = 1e-9

END_TO_END = {
    "solved_ratio": "ratio",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# layer-share predictions made before the benchmark was first run
PREDICTIONS = {
    "reach-ba-local": ("ground.share", 0.70),
    "smokers-ba": ("stable.share", 0.90),
    "direct-small": ("stable.share", 0.90),
}


def per_layer_unit(name: str) -> str:
    if name.endswith(("_ms", ".ms")):
        return "ms/query"
    if name.endswith(("_ratio", ".share")):
        return "ratio"
    return "count" if name == "trace.missing_hooks" else "count/query"


class Client:
    """Sends one query at a time and records what came back."""

    def __init__(self, workload: str, seed: int):
        self.budget = workloads.BUDGET_S
        self.stream = workloads.queries(workload, seed)
        self.pending = [next(self.stream)]  # the first query is ready

    def next_spec(self):
        return self.pending.pop() if self.pending else next(self.stream)

    def ask(self, spec) -> dict:
        start = time.perf_counter()
        try:
            # looked up per call, so trace wrappers take effect
            program = credal.syntax.parse_program(spec.program_text)
            query = credal.syntax.parse_query(spec.query_text)
            interval, _ = credal.bounds.solve_query(
                program, query, mode=spec.mode, engine="enum",
                deadline=start + self.budget)
            answer, error = (interval.lower, interval.upper), None
        except Exception as exc:  # every failure is one outcome of the loop
            answer, error = None, type(exc).__name__
        return {"spec": spec, "elapsed": time.perf_counter() - start,
                "answer": answer, "error": error}

    def loop(self, seconds: float) -> list[dict]:
        """Queries until ``seconds`` have passed, each one just after a
        sample of the host's speed."""
        outcomes = []
        end = time.perf_counter() + seconds
        while not outcomes or time.perf_counter() < end:
            spec = self.next_spec()
            host = speed.sample()
            outcomes.append(dict(self.ask(spec), host=host))
        return outcomes


def _references(workload: str, seed: int) -> list:
    stored = json.loads(REFERENCES.read_text(encoding="utf-8"))
    return stored["workloads"].get(workload, {}).get(str(seed), [])


def check(outcomes, workload, seed, budget) -> int:
    """Mark each outcome solved or not; returns the number of wrong answers."""
    stored = _references(workload, seed)
    wrong = 0
    for out in outcomes:
        spec = out["spec"]
        ref = (stored[spec.qid] if spec.qid < len(stored)
               else oracle.exact_bounds(spec.kind, spec.facts, spec.query))
        answer = out["answer"]
        correct = answer is not None and all(
            abs(a - r) <= TOLERANCE for a, r in zip(answer, ref))
        if answer is not None and not correct:
            wrong += 1
            print(f"# WRONG {workload} seed {seed} query {spec.qid} "
                  f"({spec.dataset} {spec.size} {spec.query_text}): "
                  f"{list(answer)} != reference {list(ref)}", file=sys.stderr)
        out["solved"] = correct and out["elapsed"] <= budget
    return wrong


def latency_metrics(outcomes, budget, scale) -> dict:
    # a failed query is charged at least the whole budget
    charged = [(o["elapsed"] if o["solved"] else max(o["elapsed"], budget)) * f
               for o, f in zip(outcomes, scale)]
    p90 = (statistics.quantiles(charged, n=10, method="inclusive")[8]
           if len(charged) > 1 else charged[0])
    return {
        "latency_p50_ms": statistics.median(charged) * 1000.0,
        "latency_p90_ms": p90 * 1000.0,
        "queries_per_s": len(charged) / sum(charged),
    }


def end_to_end(outcomes, budget, setup) -> dict:
    """The end-to-end metrics, times at the reference speed of ``speed.py``."""
    return {
        "solved_ratio": sum(o["solved"] for o in outcomes) / len(outcomes),
        **latency_metrics(outcomes, budget, speed.factors([o["host"] for o in outcomes])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(s * speed.REFERENCE_S / h for s, h in setup),
    }


def _child(args, *extra) -> list[str]:
    return [sys.executable, str(RUN), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def measure_setup(args) -> list[tuple[float, float]]:
    """Time from process start until the first query is ready, in fresh
    processes, each paired with a speed sample it takes once ready."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(_child(args, "--setup-probe"),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            host = proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed: {line!r}")
        times.append((ready - start, float(host)))
    return times


def ask_traced(client, tracer, spec) -> dict:
    """One query with every layer hook installed."""
    undo = tracing.install(tracer)
    tracer.qid = spec.qid
    try:
        return client.ask(spec)
    finally:
        tracer.qid = None
        tracing.uninstall(undo)


def replay_counts(args, qids) -> dict:
    """Sizes of ``qids`` as a second process computes them."""
    proc = subprocess.run(_child(args, "--counts", ",".join(map(str, qids))),
                          capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"count replay failed: {proc.stderr.strip()}")
    return {int(k): v for k, v in json.loads(proc.stdout.splitlines()[-1]).items()}


def _specs_by_qid(client, qids):
    wanted, found = set(qids), {}
    while wanted - found.keys():
        spec = client.next_spec()
        if spec.qid in wanted:
            found[spec.qid] = spec
    return [found[q] for q in qids]


def run_counts(args, client) -> int:
    qids = [int(q) for q in args.counts.split(",")]
    tracer = tracing.Tracer()
    for spec in _specs_by_qid(client, qids):
        ask_traced(client, tracer, spec)
    print(json.dumps({q: tracing.query_counts(tracer, q) for q in qids}))
    return 0


def run_traced(args, client):
    """Every query runs twice, plain and traced, in alternating order."""
    tracer = tracing.Tracer()
    plain, traced = [], []
    end = time.perf_counter() + args.seconds
    while not plain or time.perf_counter() < end:
        spec = client.next_spec()
        if spec.qid % 2:
            traced.append(ask_traced(client, tracer, spec))
            plain.append(client.ask(spec))
        else:
            plain.append(client.ask(spec))
            traced.append(ask_traced(client, tracer, spec))
    wrong = (check(plain, args.workload, args.seed, client.budget)
             + check(traced, args.workload, args.seed, client.budget))
    metrics = tracing.per_layer_metrics(
        tracer, {o["spec"].qid: o["elapsed"] for o in traced})
    metrics["trace.overhead_ratio"] = (sum(o["elapsed"] for o in traced)
                                       / sum(o["elapsed"] for o in plain))
    solved = [o["spec"].qid for o in traced if o["solved"]][:DETERMINISM_QUERIES]
    mine = {q: tracing.query_counts(tracer, q) for q in solved}
    theirs = replay_counts(args, solved) if solved else {}
    drift = [q for q in solved if mine[q] != theirs.get(q)]
    for q in drift:
        print(f"# NONDETERMINISTIC query {q}: {mine[q]} then {theirs.get(q)}",
              file=sys.stderr)
    print(f"# determinism: sizes of {len(solved)} solved queries repeated in a "
          f"second process: {'yes' if not drift else 'NO'}")
    name, floor = PREDICTIONS[args.workload]
    verdict = "confirmed" if metrics[name] >= floor else "REFUTED"
    print(f"# prediction {name} >= {floor:.2f} on {args.workload}: {verdict} "
          f"({metrics[name]:.3f})")
    units = {name: per_layer_unit(name) for name in metrics}
    outcomes = plain + traced
    return outcomes, metrics, units, wrong == 0 and not drift


def run(args) -> int:
    client = Client(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        # the speed of the core this process ran on, after the fact
        print(statistics.median(speed.sample() for _ in range(3)), flush=True)
        return 0
    if args.counts:
        return run_counts(args, client)
    if args.trace:
        outcomes, metrics, units, correct = run_traced(args, client)
    else:
        setup = measure_setup(args)
        outcomes = client.loop(args.seconds)
        wrong = check(outcomes, args.workload, args.seed, client.budget)
        metrics = end_to_end(outcomes, client.budget, setup)
        units = END_TO_END
        correct = wrong == 0
        beyond_p90 = len(outcomes) - int(0.9 * len(outcomes))
        print(f"# {args.workload} seed {args.seed}: {len(outcomes)} queries, "
              f"{beyond_p90} beyond p90")
        raw = latency_metrics(outcomes, client.budget, [1.0] * len(outcomes))
        host_ms = statistics.median(o["host"] for o in outcomes) * 1000.0
        print(f"# as measured here (speed sample {host_ms:.3f} ms, reference "
              f"{speed.REFERENCE_S * 1000:.3f} ms): "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
              + f", setup_s {statistics.median(s for s, _ in setup):.6g}")
    failed = sum(not o["solved"] for o in outcomes)
    errors = Counter(o["error"] for o in outcomes if o["error"])
    if failed:
        print(f"# {failed} failed queries; errors raised: {dict(errors)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1
