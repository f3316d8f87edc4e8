"""How fast the host runs Python right now, for reporting times at a fixed
reference speed.

On a shared machine the speed of one core can drift by 20% and more within
a minute. ``sample`` times a fixed piece of pure-Python work shaped like
credal's own (frozen dataclasses, hashing, dict and set updates, a
fixpoint loop, a sort by ``str``). The client samples it just before every
query and scales each measured time by ``REFERENCE_S / local sample
time``. A change to credal cannot change this work, so its speed-ups and
slow-downs pass through in full.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

# sample time on the reference machine; times are reported as if measured there
REFERENCE_S = 0.003
WINDOW = 7  # samples around a query whose median scales it


@dataclass(frozen=True)
class _Node:
    group: int
    name: str

    def __str__(self) -> str:
        return f"{self.name}/{self.group}"


def _work() -> int:
    nodes = [_Node(i % 23, f"n{i % 41}") for i in range(400)]
    index: dict[str, set] = {}
    for n in nodes:
        index.setdefault(n.name, set()).add(n)
    edges = {n: [m for m in index[f"n{(n.group * 7) % 41}"] if m != n][:3]
             for n in nodes}
    reached = {nodes[0]}
    changed = True
    while changed:
        changed = False
        for n in list(reached):
            for m in edges[n]:
                if m not in reached:
                    reached.add(m)
                    changed = True
    return len(sorted(reached, key=str))


def sample() -> float:
    """Seconds the reference work takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


def factors(samples: list[float]) -> list[float]:
    """Per-position scale factors: reference time over the median of the
    samples in a window centred on that position."""
    half = WINDOW // 2
    return [REFERENCE_S / statistics.median(samples[max(0, i - half): i + half + 1])
            for i in range(len(samples))]
