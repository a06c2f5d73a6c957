"""I/O-path policy, written once for every host.

Each decision the I/O path makes — which hardware queue a request goes
to, which cached pages are evicted and which still need writing back,
which blocks or bios form one contiguous run — lives here exactly once,
over explicit state and charging no virtual time.  The kernel baseline
(block layer, page cache), the LabMods (schedulers, LRU cache, LabFS,
LabKVS) and the device's coalescing window call it and keep only their
own cost terms and plumbing, so a Lab-vs-kernel comparison differs in
path length only, never in policy.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

__all__ = ["noop_hctx", "blkswitch_hctx", "runs", "Extent", "LruPages"]

#: blk-switch: requests at or above this size ride the throughput lane
LARGE_IO = 32 * 1024


def noop_hctx(origin: int, nqueues: int) -> int:
    """Linux none/noop: the hardware queue of the originating core."""
    return origin % nqueues


def blkswitch_hctx(size: int, nqueues: int, load: Callable[[int], int]) -> int:
    """blk-switch [20]: small (latency) requests get ``nqueues // 4``
    dedicated queues that large (throughput) requests never occupy — no
    head-of-line blocking behind a throughput app's writes — and go to
    the least ``load(q)`` queue of their lane, the lowest on a tie."""
    if nqueues == 1:
        return 0
    k = max(1, nqueues // 4)  # queues dedicated to the latency lane
    return min(range(k, nqueues) if size >= LARGE_IO else range(k), key=load)


def runs(items, adjacent: Callable) -> list[list]:
    """Split ``items`` in order into maximal runs in which each element
    is ``adjacent(previous, element)``, so a run moves as one extent."""
    out: list[list] = []
    for item in items:
        if out and adjacent(out[-1][-1], item):
            out[-1].append(item)
        else:
            out.append([item])
    return out


class Extent:
    """A byte range ``[start, end)`` grown by front/back merges."""

    __slots__ = ("start", "end")

    def __init__(self, offset: int, size: int) -> None:
        self.start = offset
        self.end = offset + size

    def merge(self, offset: int, size: int) -> int:
        """Absorb ``[offset, offset + size)`` if it touches an end:
        1 = back merge, -1 = front merge, 0 = not adjacent (unchanged)."""
        if offset == self.end:
            self.end = offset + size
            return 1
        if offset + size == self.start:
            self.start = offset
            return -1
        return 0


class LruPages(OrderedDict):
    """Cached pages, least recently used first, plus the dirty keys.

    Lookups are the inherited ``get`` / ``in`` / ``[]``, so the hit path
    stays in C.  A key is marked dirty only while cached, and every way
    out of the map clears the mark.
    """

    def __init__(self) -> None:
        super().__init__()
        self.dirty: set = set()

    def touch(self, key) -> None:
        self.move_to_end(key)

    def put(self, key, data, dirty: bool = False) -> None:
        """Store ``data`` as the most recently used page ``key``."""
        self[key] = data
        self.move_to_end(key)
        if dirty:
            self.dirty.add(key)

    def drop(self, key) -> None:
        """Forget ``key``, discarding it even when dirty."""
        self.pop(key, None)
        self.dirty.discard(key)

    def pop_lru(self, n: int) -> list:
        """Evict the ``n`` least recently used pages; returns the dirty
        ones, oldest first, as ``(key, data)`` pairs no longer dirty."""
        out = []
        for _ in range(min(n, len(self))):
            key, data = self.popitem(last=False)
            if key in self.dirty:
                self.dirty.discard(key)
                out.append((key, data))
        return out

    def take_dirty(self, match: Callable | None = None) -> list:
        """Mark the dirty pages whose key ``match``\\ es clean and return
        them as ``(key, data)`` pairs in key order, for writeback."""
        keys = sorted(k for k in self.dirty if match is None or match(k))
        self.dirty.difference_update(keys)
        return [(k, self[k]) for k in keys]

    def drop_clean(self) -> None:
        """Drop every clean page (Linux ``drop_caches``); dirty ones stay."""
        for key in [k for k in self if k not in self.dirty]:
            del self[key]

    def clear(self) -> None:
        super().clear()
        self.dirty.clear()
