"""Host-speed calibration for the benchmark's environment block.

``python3 benchmarks/perf/run.py`` is the repo's one perf harness; it
records :func:`calibrate` before and after each workload so a reader can
tell a slow host from slow code.
"""

from __future__ import annotations

import time
from collections import deque
from heapq import heappop, heappush

__all__ = ["calibrate"]


def _calibration_kernel(n: int) -> int:
    # the engine hot path in miniature: method calls, attribute traffic,
    # deque FIFO churn, heap pushes/pops and generator sends
    dq: deque[int] = deque()
    heap: list[tuple[int, int]] = []

    def gen():
        while True:
            yield

    send = gen().send
    send(None)
    acc = 0
    for i in range(n):
        dq.append(i)
        heappush(heap, (i & 1023, i))
        send(None)
        acc += dq.popleft()
        if i & 7 == 7:
            heappop(heap)
    return acc


def calibrate() -> float:
    """Host-speed score in calibration-ops/sec (best of three runs).

    The kernel's bytecode mix mirrors the engine hot path, so host-speed
    changes (CPU model, turbo state, noisy neighbors on a CI runner) move
    this score and the engine's events/sec together.
    """
    n = 120_000
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_kernel(n)
        best = min(best, time.perf_counter() - t0)
    return n / best
