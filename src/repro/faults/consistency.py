"""Crash-consistency checking for LabFS power-cut scenarios.

LabFS's durability contract (Section III-E): metadata mutations append to
the per-worker metadata log *before* the operation acknowledges, data
blocks are written to the backing store before ``SET_SIZE`` is logged,
and the in-memory inode hashmap is rebuilt from the log by StateRepair.
After an injected power cut + remount, the recovered namespace must
therefore be **prefix-consistent** with the acknowledged operations:

- every acknowledged write is fully readable, byte-exact;
- an operation in flight at the cut may be absent, or partially present:
  its file size never advances past the pre-crash size, and any torn
  data block holds ``new[:k] + old[k:]`` for one sector-aligned ``k`` —
  never interleaved garbage.

The checker is driven by the workload: ``begin(path, new, old)`` before
issuing a write, ``ack(path)`` when the client sees the completion, then
``verify(gfs)`` (a process generator) after remount.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ConsistencyError, FsError

__all__ = ["CrashConsistencyChecker", "torn_prefix_len"]

SECTOR = 512


def torn_prefix_len(old: bytes, new: bytes, recovered: bytes) -> Optional[int]:
    """Return the sector-aligned ``k`` with ``recovered == new[:k] + old[k:]``,
    or None if no such prefix exists (i.e. the state is torn-inconsistent).

    ``old`` is zero-extended to the compared length (unwritten blocks read
    back as zeros)."""
    n = len(recovered)
    padded_old = old[:n] + b"\x00" * max(0, n - len(old))
    padded_new = new[:n] + b"\x00" * max(0, n - len(new))
    for k in range(0, n + SECTOR, SECTOR):
        k = min(k, n)
        if recovered == padded_new[:k] + padded_old[k:]:
            return k
        if k == n:
            break
    return None


class CrashConsistencyChecker:
    """Records acknowledged vs in-flight writes; verifies after remount."""

    def __init__(self) -> None:
        #: path -> durable (acknowledged) content
        self.acked: dict[str, bytes] = {}
        #: path -> (attempted content, pre-write content) still unacked
        self.pending: dict[str, tuple[bytes, bytes]] = {}
        self.report: dict = {}

    # -- workload-side recording ------------------------------------------
    def begin(self, path: str, new: bytes, old: bytes = b"") -> None:
        """A write of ``new`` over ``old`` is about to be issued."""
        self.pending[path] = (new, old)

    def ack(self, path: str) -> None:
        """The client saw the completion: the write is now durable."""
        new, _old = self.pending.pop(path)
        self.acked[path] = new

    # -- post-remount verification ----------------------------------------
    def verify(self, gfs):
        """Process generator: read the recovered namespace through ``gfs``
        and assert prefix consistency.  Returns a report dict; raises
        :class:`~repro.errors.ConsistencyError` on any violation."""
        report = {"acked_ok": 0, "pending_absent": 0, "pending_torn": 0}
        for path, want in sorted(self.acked.items()):
            st = yield from gfs.stat(path)
            if st["size"] != len(want):
                raise ConsistencyError(
                    f"{path}: acknowledged size {len(want)} recovered as {st['size']}"
                )
            got = yield from gfs.read_file(path)
            if got != want:
                raise ConsistencyError(
                    f"{path}: acknowledged content lost "
                    f"(first divergence at byte {_first_diff(got, want)})"
                )
            report["acked_ok"] += 1
        for path, (new, old) in sorted(self.pending.items()):
            try:
                st = yield from gfs.stat(path)
            except FsError:
                report["pending_absent"] += 1  # never reached the log: fine
                continue
            # size must not have advanced: SET_SIZE logs only after the
            # data forward completes, which the power cut interrupted
            if st["size"] > max(len(old), len(new)):
                raise ConsistencyError(
                    f"{path}: unacknowledged write advanced size to {st['size']}"
                )
            if st["is_dir"]:
                raise ConsistencyError(f"{path}: recovered as a directory")
            got = b"" if st["size"] == 0 else (yield from gfs.read_file(path))
            k = torn_prefix_len(old, new, got)
            if k is None:
                raise ConsistencyError(
                    f"{path}: torn write is not a sector-aligned prefix "
                    f"(len={len(got)})"
                )
            report["pending_torn"] += 1
            report.setdefault("torn_prefixes", {})[path] = k
        self.report = report
        return report


def _first_diff(a: bytes, b: bytes) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))
