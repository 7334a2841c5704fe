"""A fixed reference computation that gauges the host's current CPU speed.

On a shared host the speed of one vCPU swings by up to ~40% within a second
or two and drifts for minutes at a time. Every timed part of a run is
bracketed by `reference()` on the same CPU, and its wall time is scaled by
REFERENCE_S over the reference's measured time: the part's cost at the
speed the reference runs at on a quiet host. The reference is stdlib only
and never touches qlogic, so a change to qlogic cannot move it.
"""

import os
import time
from fractions import Fraction

# Fastest of 500 runs of reference() on a 2-vCPU Intel Xeon VM, pinned.
REFERENCE_S = 0.0043


def _rref_rank(rows: list[list[Fraction]]) -> int:
    """Rank by exact Gauss-Jordan elimination, as the state layer does it."""
    rows = [row[:] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


_MATRIX = [
    [Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + j) % 4) for j in range(8)] for i in range(7)
]


def reference() -> float:
    """Run the reference computation once; return its wall time in seconds."""
    start = time.perf_counter()
    seen: dict[tuple[int, ...], int] = {}
    for k in range(3):
        _rref_rank([row[k:] + row[:k] for row in _MATRIX])
        for i in range(300):
            key = tuple(sorted((i * 7919 + j * k) % 97 for j in range(8)))
            seen[key] = seen.get(key, 0) + 1
    return time.perf_counter() - start


def scale(wall: float, refs: list[float]) -> float:
    """`wall` at reference speed, given reference times taken around it."""
    return wall * REFERENCE_S * len(refs) / sum(refs)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on the CPU it runs on now, so that
    the reference runs on the CPU that the timed work runs on."""
    with open("/proc/self/stat", encoding="ascii") as stat:
        cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
    os.sched_setaffinity(0, {cpu})
