"""LabKVS: the paper's key-value store LabMod.

Same bones as LabFS but a put/get/remove API: one request does what the
POSIX path needs open-seek-write-close for (the Fig 9(b) LABIOS result).
Values are stored in device blocks allocated from the same per-worker
allocator design; the key table is an in-memory hashmap backed by the
metadata log for crash recovery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..core.labmod import ExecContext, LabMod, ModContext
from ..core.requests import LabRequest
from ..errors import FsError
from ..policy import runs
from .labfs import log as mdlog
from .labfs.alloc import CentralizedBlockAllocator, PerWorkerBlockAllocator

__all__ = ["LabKvs", "LabKvsV2"]

BLOCK = 4096


def _next_block(a: int, b: int) -> bool:
    return b == a + BLOCK


@dataclass
class _Value:
    ino: int
    size: int
    blocks: list[int] = field(default_factory=list)  # device offsets, in order


class LabKvs(LabMod):
    mod_type = "kvs"
    accepts = ("kvs.",)
    emits = ("blk.",)

    def __init__(self, uuid: str, ctx: ModContext) -> None:
        super().__init__(uuid, ctx)
        total_bytes = int(ctx.attrs.get("capacity_bytes", 1 << 30))
        nworkers = int(ctx.attrs.get("nworkers", 8))
        base_block = int(ctx.attrs.get("base_block", 1))
        nblocks = total_bytes // BLOCK - base_block
        if ctx.attrs.get("allocator", "perworker") == "centralized":
            self.allocator = CentralizedBlockAllocator(ctx.env, nblocks, base_block=base_block)
        else:
            self.allocator = PerWorkerBlockAllocator(nblocks, nworkers, base_block=base_block)
        self.table: dict[str, _Value] = {}
        self.log = mdlog.MetadataLog()
        self._ino = itertools.count(1)

    # ------------------------------------------------------------------
    def handle(self, req: LabRequest, x: ExecContext):
        p = req.payload
        self.processed += 1
        yield from x.work(self.ctx.cost.labkvs_op_ns, span="kvs")
        if req.op == "kvs.put":
            return (yield from self._put(req, p["key"], p["value"], x))
        if req.op == "kvs.get":
            return (yield from self._get(req, p["key"], x))
        if req.op == "kvs.remove":
            return self._remove(p["key"], x)
        if req.op == "kvs.exists":
            return p["key"] in self.table
        raise FsError("EINVAL", f"LabKVS cannot handle {req.op!r}")

    def _blk(self, req: LabRequest, op: str, payload: dict) -> LabRequest:
        payload.setdefault("origin_core", req.client_pid or 0)
        return LabRequest(op=op, payload=payload, stack_id=req.stack_id,
                          client_pid=req.client_pid, priority=req.priority)

    def _put(self, req: LabRequest, key: str, value: bytes, x: ExecContext):
        old = self.table.get(key)
        if old is not None:
            self._free_value(old, x)
        nblocks = max(1, -(-len(value) // BLOCK))
        blocks = []
        for _ in range(nblocks):
            block = yield from self.allocator.alloc_block(x.worker_id, x)
            blocks.append(block * BLOCK)
        ino = next(self._ino)
        val = _Value(ino=ino, size=len(value), blocks=blocks)
        self.table[key] = val
        self.log.append(x.worker_id, mdlog.CREATE, ino, key)
        self.log.append(x.worker_id, mdlog.SET_SIZE, ino, len(value))
        for i, off in enumerate(blocks):
            self.log.append(x.worker_id, mdlog.MAP_BLOCK, ino, i, off)
        # coalesce contiguous blocks into single writes
        pos = 0
        for run in runs(blocks, _next_block):
            span = len(run) * BLOCK
            chunk = value[pos : pos + span]
            if len(chunk) < span:
                chunk = chunk + b"\x00" * (span - len(chunk))
            sub = self._blk(req, "blk.write", {"offset": run[0], "size": span, "data": chunk})
            yield from self.forward(sub, x)
            pos += span
        return len(value)

    def _get(self, req: LabRequest, key: str, x: ExecContext):
        val = self.table.get(key)
        if val is None:
            raise FsError("ENOENT", f"key {key!r}")
        out = bytearray()
        for run in runs(val.blocks, _next_block):
            sub = self._blk(req, "blk.read", {"offset": run[0], "size": len(run) * BLOCK})
            data = yield from self.forward(sub, x)
            out.extend(data)
        return bytes(out[: val.size])

    def _remove(self, key: str, x: ExecContext):
        val = self.table.pop(key, None)
        if val is None:
            raise FsError("ENOENT", f"key {key!r}")
        self.log.append(x.worker_id, mdlog.UNLINK, val.ino)
        self._free_value(val, x)
        return None

    def _free_value(self, val: _Value, x: ExecContext) -> None:
        for off in val.blocks:
            self.allocator.free(off // BLOCK, x.worker_id)

    # ------------------------------------------------------------------
    def est_processing_time(self, req: LabRequest) -> int:
        size = len(req.payload.get("value", b""))
        return self.ctx.cost.labkvs_op_ns + self.ctx.cost.copy_ns(size)

    def state_update(self, old: "LabMod") -> None:
        super().state_update(old)
        if isinstance(old, LabKvs):
            self.allocator = old.allocator
            self.table = old.table
            self.log = old.log
            self._ino = old._ino

    def on_snapshot(self) -> dict:
        """Durable state: log + allocator (the key table replays from the
        log, exactly as :meth:`state_repair` does after a crash)."""
        state = super().on_snapshot()
        state["log"] = self.log.export_state()
        state["allocator"] = self.allocator.export_state()
        return state

    def on_restore(self, state: dict) -> None:
        super().on_restore(state)
        self.log.install_state(state["log"])
        self.allocator.install_state(state["allocator"])
        self.state_repair()
        max_ino = 0
        for rec in self.log.merged():
            max_ino = max(max_ino, rec.ino)
        self._ino = itertools.count(max_ino + 1)

    def state_repair(self) -> None:
        """Rebuild the key table from the metadata log after a crash."""
        replayed = mdlog.replay(self.log)
        table: dict[str, _Value] = {}
        for ino, rec in replayed.items():
            blocks = [rec["blocks"][i] for i in sorted(rec["blocks"])]
            table[rec["path"]] = _Value(ino=ino, size=rec["size"], blocks=blocks)
        self.table = table


class LabKvsV2(LabKvs):
    """The "next release" of LabKVS for live-upgrade experiments (E2).

    Functionally identical — the point is the state transfer: hot-swap
    moves the allocator, key table, log and ino counter over while
    in-flight requests keep completing (``state_update`` in the base
    class does the move; ``generation`` proves the new code is running).
    """

    generation = 2
