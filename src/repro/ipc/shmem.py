"""Shared-memory model with per-process grants (the paper's ShMemMod).

LabStor allocates shared regions in the kernel (vmalloc) and maps them
into a client only after the Runtime grants access (remap_pfn_range into
that PID only).  We model the *security semantics* — a process can only
touch segments it was granted — and the allocation/mapping costs; data in
the queues is passed by reference, matching the zero-copy design.
"""

from __future__ import annotations

import itertools

from ..errors import ShmAccessError
from ..sim import Environment

__all__ = ["ShMemManager"]

_seg_ids = itertools.count(1)

# Cost constants for the kernel shared-memory operations (ns).
VMALLOC_NS_PER_PAGE = 120
REMAP_NS_PER_PAGE = 90


class SharedMemorySegment:
    """A granted-access shared region."""

    def __init__(self, size: int, owner_pid: int) -> None:
        self.seg_id = next(_seg_ids)
        self.size = size
        self.owner_pid = owner_pid
        self._granted: set[int] = {owner_pid}
        self.mapped: set[int] = {owner_pid}

    def grant(self, pid: int) -> None:
        self._granted.add(pid)

    def revoke(self, pid: int) -> None:
        if pid == self.owner_pid:
            raise ShmAccessError("cannot revoke the owner's grant")
        self._granted.discard(pid)
        self.mapped.discard(pid)

    def is_granted(self, pid: int) -> bool:
        return pid in self._granted

    def check(self, pid: int) -> None:
        """Raise unless ``pid`` holds a grant (the remap_pfn_range gate)."""
        if pid not in self._granted:
            raise ShmAccessError(
                f"pid {pid} has no grant on segment {self.seg_id} (owner {self.owner_pid})"
            )


class ShMemManager:
    """Allocates segments and maps them into granted processes."""

    def __init__(self, env: Environment, runtime_pid: int = 1) -> None:
        self.env = env
        self.runtime_pid = runtime_pid
        self.segments: dict[int, SharedMemorySegment] = {}

    def alloc(self, size: int):
        """Process generator: vmalloc a region owned by the Runtime."""
        pages = max(1, -(-size // 4096))
        yield self.env.timeout(VMALLOC_NS_PER_PAGE * pages)
        seg = SharedMemorySegment(size, self.runtime_pid)
        self.segments[seg.seg_id] = seg
        return seg

    def map_into(self, seg: SharedMemorySegment, pid: int):
        """Process generator: map a segment into ``pid`` (must be granted)."""
        seg.check(pid)
        pages = max(1, -(-seg.size // 4096))
        yield self.env.timeout(REMAP_NS_PER_PAGE * pages)
        seg.mapped.add(pid)

    def free(self, seg: SharedMemorySegment) -> None:
        self.segments.pop(seg.seg_id, None)
