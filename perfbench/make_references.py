"""Write references.json: the bounds every benchmark answer is compared with.

    python3 perfbench/make_references.py

For the first ``COUNT`` queries of every workload at the default seed and
at seed 1, the query is solved along every path that finishes: the
workload's own mode with ``engine="enum"``, residual mode with both
engines, and direct mode for the first ``DIRECT_COUNT``
queries of a residual workload (all of them on a direct workload).  Every
path must agree with the exact bounds of ``oracle.py`` to within the
benchmark's tolerance, or nothing is written.  The stored value is the one
the workload's own path returned.

It also checks that the second seed gives the same instance families, query
for query, with different programs.
"""

from __future__ import annotations

import json
import sys
import time

from run import DEFAULT_SEED, WORKLOADS, load_library

load_library()  # credal from the checkout, before the imports below

from credal.bounds import ProbFactLimitError, solve_query  # noqa: E402
from credal.syntax import parse_program, parse_query  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from client import REFERENCES, TOLERANCE  # noqa: E402

SEEDS = (DEFAULT_SEED, 1)
COUNT = 128  # covers a whole run of reach-ba-local and smokers-ba
DIRECT_COUNT = 20  # direct mode takes 2-4 s on smokersBA 5
CROSS_CHECK_BUDGET_S = 60.0


def _solve(spec, mode, engine):
    try:
        interval, _ = solve_query(parse_program(spec.program_text),
                                  parse_query(spec.query_text), mode=mode,
                                  engine=engine,
                                  deadline=time.perf_counter() + CROSS_CHECK_BUDGET_S)
    except ProbFactLimitError:
        return None  # too many facts for direct mode: not a path that finishes
    return interval.lower, interval.upper


def references(workload, seed):
    values, checks = [], {}
    for spec in workloads.first(workload, seed, COUNT):
        exact = oracle.exact_bounds(spec.kind, spec.facts, spec.query)
        paths = {f"{spec.mode}/enum": (spec.mode, "enum"),
                 "residual/enum": ("residual", "enum"),
                 "residual/twoamc": ("residual", "twoamc")}
        if spec.mode == "direct" or spec.qid < DIRECT_COUNT:
            paths["direct/enum"] = ("direct", "enum")
        own = None
        for label, (mode, engine) in paths.items():
            got = _solve(spec, mode, engine)
            if got is None:
                continue
            if any(abs(g - e) > TOLERANCE for g, e in zip(got, exact)):
                sys.exit(f"error: {workload} seed {seed} query {spec.qid} {label} "
                         f"gave {got}, oracle {exact}")
            checks[label] = checks.get(label, 0) + 1
            if label == f"{spec.mode}/enum":
                own = got
        values.append(list(own))
    return values, checks


def check_families(workload, count):
    a, b = (workloads.first(workload, seed, COUNT) for seed in SEEDS)
    if [s.family() for s in a] != [s.family() for s in b]:
        sys.exit(f"error: {workload}: seeds {SEEDS} give different instance families")
    same = sum(x.program_text == y.program_text and x.query_text == y.query_text
               for x, y in zip(a, b))
    print(f"# {workload}: seeds {SEEDS} agree on all {count} families; "
          f"{same} of {count} queries identical")


def main() -> int:
    out = {"tolerance": TOLERANCE, "count": COUNT, "seeds": list(SEEDS),
           "cross_checks": {}, "workloads": {}}
    for workload in WORKLOADS:
        check_families(workload, COUNT)
        for seed in SEEDS:
            values, checks = references(workload, seed)
            out["workloads"].setdefault(workload, {})[str(seed)] = values
            out["cross_checks"][f"{workload}/{seed}"] = checks
            print(f"# {workload} seed {seed}: {checks}", flush=True)
    # one line per (workload, seed): the file stays short enough to read
    text = json.dumps({k: v for k, v in out.items() if k != "workloads"}, indent=1)
    rows = ",\n".join(f" {json.dumps(w)}: {json.dumps(v)}"
                      for w, v in out["workloads"].items())
    text = text[:-2] + ',\n "workloads": {\n' + rows + "\n }\n}\n"
    REFERENCES.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
