"""Parallel parameter-sweep runner: fan sweep points across OS processes.

Every figure in the paper is a *sweep* — the same simulation re-run over
a grid of configurations (iodepth, nworkers, block size, scheduler...).
Single-run engine speed is capped by the interpreter, but sweep points
are embarrassingly parallel: each is an independent discrete-event
simulation with its own :class:`~repro.sim.Environment`, sharing nothing
with its neighbors.  This module fans the points across worker
processes and gets sweep wall-clock down by roughly the core count —
the multiplier the single-threaded hot path cannot provide.

Determinism contract (the part that makes parallel sweeps trustworthy):

- every point's RNG seed derives from ``(base_seed, point index)`` via
  SHA-256 — never from worker identity, completion order, ``os.getpid``
  or the wall clock — so point *i* sees the same seed whether the sweep
  runs serially, on 2 processes, or on 64;
- results are merged back in **configuration order**, not completion
  order;
- ``processes=1`` (or a single point) short-circuits to a plain loop in
  the calling process — byte-identical results, no pool, usable from
  tests and from workers that must not fork.

``fn`` must be a module-level callable ``fn(point, seed) -> result``
(picklable, like anything crossing a process pool).

**Warm starts** (``warm_start=``): sweeps whose points share an
expensive warmup prefix (preload a KVS, fill a filesystem, reach steady
state) can run the warmup *once*, capture a quiescent
:class:`~repro.snap.SystemSnapshot`, and hand it to every point — ``fn``
is then called ``fn(point, seed, warm_start)`` and restores the snapshot
into its freshly built system instead of re-running the warmup.  The
snapshot rides the pickle channel into each worker process like any
other argument; determinism is unchanged (seeds still derive from
``(base_seed, index)``), so a warm sweep must merge byte-identical to a
cold serial one — ``tests/test_sweep.py`` pins that.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable

__all__ = ["point_seed", "run_sweep"]


class _WarmCall:
    """Picklable binding of the shared warm-start snapshot as ``fn``'s
    third argument (a lambda would not cross the process pool)."""

    def __init__(self, fn: Callable, snapshot: Any) -> None:
        self.fn = fn
        self.snapshot = snapshot

    def __call__(self, point: Any, seed: int) -> Any:
        return self.fn(point, seed, self.snapshot)


def point_seed(base_seed: int, index: int) -> int:
    """Deterministic, well-mixed 63-bit seed for sweep point ``index``.

    Hashing decorrelates neighboring points: sequential seeds fed
    straight to an RNG can produce correlated low-order streams, and
    ``base_seed + index`` collides across sweeps (sweep 7's point 0 ==
    sweep 0's point 7).  SHA-256 of the pair has neither problem.
    """
    digest = hashlib.sha256(f"{base_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def run_sweep(
    fn: Callable[[Any, int], Any],
    points: Iterable[Any],
    *,
    base_seed: int = 0,
    processes: int | None = None,
    warm_start: Any | None = None,
) -> list[Any]:
    """Run ``fn(point, seed)`` for every point; results in point order.

    ``processes=None`` uses ``min(len(points), os.cpu_count())``.  A
    worker exception propagates to the caller (the remaining futures are
    cancelled by the pool's shutdown) rather than yielding a partial
    result list.

    With ``warm_start`` (a picklable snapshot, typically a
    :class:`~repro.snap.SystemSnapshot`), ``fn`` is called as
    ``fn(point, seed, warm_start)`` in every worker instead.
    """
    pts = list(points)
    seeds = [point_seed(base_seed, i) for i in range(len(pts))]
    call = fn if warm_start is None else _WarmCall(fn, warm_start)
    if processes is None:
        processes = min(len(pts), os.cpu_count() or 1)
    if processes <= 1 or len(pts) <= 1:
        return [call(p, s) for p, s in zip(pts, seeds)]
    with ProcessPoolExecutor(max_workers=processes) as pool:
        futures = [pool.submit(call, p, s) for p, s in zip(pts, seeds)]
        # iterating submission order IS configuration order; completion
        # order never surfaces
        return [f.result() for f in futures]
