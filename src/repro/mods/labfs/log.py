"""LabFS metadata log.

LabFS does not keep inodes or bitmaps on disk.  Every metadata mutation
(create, unlink, rename, size change, block mapping) appends a record to
a per-worker log; the in-memory inode hashmap is a pure function of the
merged logs, replayable after a crash (``StateRepair``) or at mount.
Records carry a global sequence number so per-worker logs merge into a
single total order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["MetadataLog", "replay"]

_seq = itertools.count(1)


def ensure_seq_above(max_seq: int) -> None:
    """Advance the global sequence counter past ``max_seq``.

    Called when a snapshot installs pre-assigned records into a fresh
    process: new appends must sort after every installed record for the
    merged total order to stay a replay prefix.  Consumes exactly one
    tick so the effect is identical whether the counter is fresh or
    already past ``max_seq`` (determinism across cold/warm paths).
    """
    global _seq
    current = next(_seq)
    _seq = itertools.count(max(current, max_seq + 1))

# record kinds
CREATE = "create"
MKDIR = "mkdir"
UNLINK = "unlink"
RENAME = "rename"
SET_SIZE = "set_size"
MAP_BLOCK = "map_block"


@dataclass(frozen=True)
class LogRecord:
    seq: int
    kind: str
    ino: int
    a: Any = None   # kind-specific: path / new path / size / page_no
    b: Any = None   # kind-specific: block offset


class MetadataLog:
    """Per-worker append-only logs with a merged total-order view."""

    def __init__(self) -> None:
        self._logs: dict[int, list[LogRecord]] = {}

    def append(self, worker_id: int | None, kind: str, ino: int, a: Any = None, b: Any = None) -> LogRecord:
        rec = LogRecord(next(_seq), kind, ino, a, b)
        self._logs.setdefault(worker_id or 0, []).append(rec)
        return rec

    def merged(self) -> Iterator[LogRecord]:
        all_recs = [r for log in self._logs.values() for r in log]
        all_recs.sort(key=lambda r: r.seq)
        return iter(all_recs)

    def record_count(self) -> int:
        return sum(len(log) for log in self._logs.values())

    def worker_ids(self) -> list[int]:
        return sorted(self._logs)

    def export_state(self) -> dict:
        """Plain-data snapshot of every per-worker log (picklable)."""
        return {
            "logs": {
                wid: [(r.seq, r.kind, r.ino, r.a, r.b) for r in log]
                for wid, log in sorted(self._logs.items())
            }
        }

    def install_state(self, state: dict) -> None:
        """Replace contents with an exported snapshot and bump the global
        sequence counter past every installed record."""
        self._logs = {
            int(wid): [LogRecord(*rec) for rec in recs]
            for wid, recs in state["logs"].items()
        }
        max_seq = max(
            (r.seq for log in self._logs.values() for r in log), default=0
        )
        ensure_seq_above(max_seq)

    def compact(self, live_inos: set[int]) -> int:
        """Drop records for inodes that no longer exist; returns #dropped."""
        dropped = 0
        for wid, log in self._logs.items():
            kept = [r for r in log if r.ino in live_inos or r.kind in (UNLINK,)]
            # an UNLINK of a dead inode is only needed if earlier records survive
            kept = [r for r in kept if not (r.kind == UNLINK and r.ino not in live_inos)]
            dropped += len(log) - len(kept)
            self._logs[wid] = kept
        return dropped


def replay(log: MetadataLog) -> dict[int, dict]:
    """Rebuild the inode table from the merged log.

    Returns ``{ino: {"path": str, "size": int, "blocks": {page: offset},
    "dir": bool}}``.
    """
    inodes: dict[int, dict] = {}
    for rec in log.merged():
        if rec.kind == CREATE:
            inodes[rec.ino] = {"path": rec.a, "size": 0, "blocks": {}, "dir": False}
        elif rec.kind == MKDIR:
            inodes[rec.ino] = {"path": rec.a, "size": 0, "blocks": {}, "dir": True}
        elif rec.kind == UNLINK:
            inodes.pop(rec.ino, None)
        elif rec.kind == RENAME:
            if rec.ino in inodes:
                inodes[rec.ino]["path"] = rec.a
        elif rec.kind == SET_SIZE:
            if rec.ino in inodes:
                inodes[rec.ino]["size"] = rec.a
        elif rec.kind == MAP_BLOCK:
            if rec.ino in inodes:
                inodes[rec.ino]["blocks"][rec.a] = rec.b
    return inodes
