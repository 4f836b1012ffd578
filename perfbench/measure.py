"""Exact latency quantiles, host-speed-normalised CPU time and the
machine fingerprint."""

from __future__ import annotations

import gc
import heapq
import math
import os
import platform
import time
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10


def rank(p: float, n: int) -> int:
    """1-based nearest rank of the ``p`` quantile among ``n`` samples."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return max(1, math.ceil(p * n - 1e-9))


def reportable(p: float, n: int) -> bool:
    """True when at least :data:`MIN_BEYOND` samples lie beyond the
    ``p`` quantile's rank."""
    return n > 0 and n - rank(p, n) >= MIN_BEYOND


def quantile(latencies: Sequence[Optional[float]], p: float) -> float:
    """Exact nearest-rank ``p`` quantile of per-query latencies.

    ``None`` marks a failed query: it counts as missing any latency
    limit, i.e. as an infinite latency.  Raises ``ValueError`` when
    fewer than :data:`MIN_BEYOND` samples lie beyond the quantile."""
    n = len(latencies)
    if not reportable(p, n):
        raise ValueError(
            f"p{p * 100:g} needs {MIN_BEYOND} samples beyond it; have {n}"
        )
    ordered = sorted(math.inf if v is None else v for v in latencies)
    return ordered[rank(p, n) - 1]


def fingerprint() -> Dict[str, object]:
    """CPU model, CPU count, Python version and the kernel switches."""
    model = platform.machine()
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "REPRO_SCHEDULER": os.environ.get("REPRO_SCHEDULER", "wheel"),
        "REPRO_POOLING": os.environ.get("REPRO_POOLING", "1"),
    }


# -- host speed ------------------------------------------------------------
#
# Other tenants of a shared host slow a process down by 10-40 % for
# seconds at a time, and process CPU time includes that slowdown.  Each
# timed interval is therefore paired with the CPU time of a fixed slice
# of reference work run just before it; the ratio cancels the slowdown,
# and REFERENCE_S turns it back into seconds at the reference host's
# quiet speed.  The program under test never runs inside the reference
# slice, so a change to the program moves the ratio fully.
#
# Garbage collection is kept out of the slice too.  ``Simulator.run``
# turns the collector off while it runs, so the collection it puts off
# would otherwise fall on the next allocation, inside the next slice.
# The slice runs with the collector off, and that put-off collection is
# triggered at the end of the interval that put it off and charged to it.

#: CPU seconds of one reference_work() on the reference host (2-CPU
#: Xeon at 2.1 GHz, Python 3.11): the lower quartile of 1,000 slices
#: run with the collector off.  It only sets the unit: a parent and a
#: change are normalised by the same constant.
REFERENCE_S = 0.033


def reference_work(events: int = 20000) -> int:
    """A fixed slice of interpreter work shaped like the simulator's:
    heap-ordered events, dict updates, small objects and calls."""
    heap = []
    state: Dict[int, list] = {}
    x = 12345
    for i in range(events):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (x, i))
    while heap:
        x, i = heapq.heappop(heap)
        bucket = state.get(i % 4099)
        if bucket is None:
            bucket = state[i % 4099] = []
        bucket.append((x, i))
        if i < events // 4:
            heapq.heappush(heap, ((x * 31 + i) & 0x7FFFFFFF, i + events))
    return len(state)


class _Tracked:
    """Creating one allocates a GC-tracked object outside any free list,
    which runs whatever collection the allocation counts call for."""

    __slots__ = ()


def timed(fn, *args):
    """Run ``fn(*args)``; return (its result, its CPU seconds, the CPU
    seconds of the reference slice run just before it).

    The reference slice runs with garbage collection off.  Any
    collection ``fn`` put off runs before its CPU time is read."""
    enabled = gc.isenabled()
    gc.disable()
    r0 = time.process_time()
    reference_work()
    r1 = time.process_time()
    if enabled:
        gc.enable()
    result = fn(*args)
    _Tracked()
    return result, time.process_time() - r1, r1 - r0


def normalised_total(pairs: Iterable[Tuple[float, float]]) -> float:
    """Sum of the (cpu, reference) pieces of one interval, in seconds at
    the reference host's speed."""
    return sum(cpu / ref for cpu, ref in pairs) * REFERENCE_S
