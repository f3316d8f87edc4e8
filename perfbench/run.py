"""Closed-loop query benchmark for credal.

    python3 perfbench/run.py --workload reach-ba-local --seed 0 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all

One client in one process sends a query, waits for the answer, checks it
and sends the next, until ``--seconds`` have passed.  Each query reaches
the library as text, along the path ``credal solve`` takes:
``parse_program`` + ``parse_query`` + ``solve_query(engine="enum",
deadline=...)`` with a 2 s budget.  Every answer is compared with a stored
reference (``references.json``) or, for queries it does not hold, with the
exact bounds of ``oracle.py``; a wrong answer makes the run fail.  Times
are reported at the reference speed of ``speed.py``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
query twice, plain and with a span around every layer (``tracing.py``), in
alternating order; checks in a second process that the sizes of the first
solved queries repeat exactly; and prints the per-layer metrics.
The last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = ("reach-ba-local", "smokers-ba", "direct-small")
DEFAULT_SEED = 0


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child processes this script starts
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--counts", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_library() -> None:
    """Put the checkout's own ``src`` first on the path, or give up."""
    if not (SRC / "credal" / "__init__.py").is_file():
        sys.exit(f"error: no credal sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import credal
    if Path(credal.__file__).resolve().parent != (SRC / "credal").resolve():
        sys.exit(f"error: imported credal from {credal.__file__}, not {SRC}")


def run_all(args) -> int:
    """Every workload, each in its own process."""
    status = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        print(f"== {workload}", flush=True)
        status |= subprocess.run(argv, timeout=600).returncode
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    load_library()
    if args.workload == "all":
        return run_all(args)
    import client  # imports credal, so only once the path is set
    return client.run(args)


if __name__ == "__main__":
    sys.exit(main())
