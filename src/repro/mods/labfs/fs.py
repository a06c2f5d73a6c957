"""LabFS: the paper's log-structured, crash-consistent POSIX filesystem.

Design (Section III-E):

- a scalable **per-worker block allocator** (``alloc.py``) that divides
  device blocks among the worker pool, with stealing;
- a **per-worker metadata log** (``log.py``) instead of on-disk inodes
  and bitmaps; the inode table is an in-memory hashmap rebuilt by log
  replay (this is both the crash-consistency story and why metadata ops
  scale — hashmap insert/rename/delete have minimal contention);
- data I/O is emitted downstream as ``blk.*`` requests, so caching,
  scheduling, compression and the driver are whatever the LabStack says.

Accepted operations (payload fields):

========== ==========================================
fs.open     path, create?  -> ino
fs.create   path           -> ino
fs.write    ino, offset, data -> bytes written
fs.read     ino, offset, size -> bytes
fs.unlink   path
fs.rename   path, new_path
fs.mkdir    path           -> ino
fs.readdir  path           -> sorted child names
fs.rmdir    path           (ENOTEMPTY if occupied)
fs.stat     path           -> {ino, size, is_dir}
fs.fsync    ino
fs.close    ino            (server-side no-op)
========== ==========================================
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ...core.labmod import ExecContext, LabMod, ModContext
from ...core.requests import LabRequest
from ...errors import FsError
from ...policy import runs
from . import log as mdlog
from .alloc import CentralizedBlockAllocator, PerWorkerBlockAllocator

__all__ = ["LabFs"]

BLOCK = 4096


def _next_block(a: int, b: int) -> bool:
    return b == a + BLOCK


def _next_mapped(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """(page, device offset) pairs: next page on the next block."""
    return b[0] == a[0] + 1 and b[1] == a[1] + BLOCK


@dataclass
class LabFsInode:
    ino: int
    path: str
    size: int = 0
    blocks: dict[int, int] = field(default_factory=dict)  # page_no -> device offset
    is_dir: bool = False
    children: set[str] = field(default_factory=set)       # names, dirs only


def _parent_of(path: str) -> str:
    head, _, _ = path.rstrip("/").rpartition("/")
    return head or "/"


def _name_of(path: str) -> str:
    return path.rstrip("/").rpartition("/")[2]


class LabFs(LabMod):
    mod_type = "filesystem"
    accepts = ("fs.",)
    emits = ("blk.",)

    def __init__(self, uuid: str, ctx: ModContext) -> None:
        super().__init__(uuid, ctx)
        total_bytes = int(ctx.attrs.get("capacity_bytes", 1 << 30))
        nworkers = int(ctx.attrs.get("nworkers", 8))
        base_block = int(ctx.attrs.get("base_block", 1))  # block 0 = superblock
        nblocks = total_bytes // BLOCK - base_block
        # "centralized" is the single-lock ablation baseline; per-worker is
        # the paper's contention-free design
        if ctx.attrs.get("allocator", "perworker") == "centralized":
            self.allocator = CentralizedBlockAllocator(ctx.env, nblocks, base_block=base_block)
        else:
            self.allocator = PerWorkerBlockAllocator(nblocks, nworkers, base_block=base_block)
        self.log = mdlog.MetadataLog()
        self.inodes: dict[int, LabFsInode] = {}
        self.by_path: dict[str, int] = {}
        self._ino = itertools.count(1)
        self.repairs = 0
        #: strict POSIX parents: create fails with ENOENT if the parent
        #: directory is missing; the default auto-creates intermediates
        self.strict_paths = bool(ctx.attrs.get("strict_paths", False))
        self._mkdir_root()

    def _mkdir_root(self) -> None:
        root = LabFsInode(ino=0, path="/", is_dir=True)
        self.inodes[0] = root
        self.by_path["/"] = 0

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def handle(self, req: LabRequest, x: ExecContext):
        op = req.op
        p = req.payload
        self.processed += 1
        if op == "fs.open":
            return (yield from self._open(p, x))
        if op == "fs.create":
            return (yield from self._create(p["path"], x))
        if op == "fs.write":
            return (yield from self._write(req, x))
        if op == "fs.read":
            return (yield from self._read(req, x))
        if op == "fs.unlink":
            return (yield from self._unlink(p["path"], x))
        if op == "fs.mkdir":
            return (yield from self._mkdir(p["path"], x))
        if op == "fs.readdir":
            return (yield from self._readdir(p["path"], x))
        if op == "fs.rmdir":
            return (yield from self._rmdir(p["path"], x))
        if op == "fs.rename":
            return (yield from self._rename(p["path"], p["new_path"], x))
        if op == "fs.stat":
            return (yield from self._stat(p["path"], x))
        if op == "fs.fsync":
            return (yield from self._fsync(req, x))
        if op == "fs.close":
            yield from x.work(100, span="fs_meta")
            return None
        raise FsError("EINVAL", f"LabFS cannot handle {op!r}")

    # ------------------------------------------------------------------
    # metadata operations
    # ------------------------------------------------------------------
    def _lookup(self, path: str) -> LabFsInode:
        ino = self.by_path.get(path)
        if ino is None:
            raise FsError("ENOENT", path)
        return self.inodes[ino]

    def _open(self, p, x: ExecContext):
        yield from x.work(self.ctx.cost.fs_meta_ns, span="fs_meta")
        ino = self.by_path.get(p["path"])
        if ino is not None:
            return ino
        if not p.get("create"):
            raise FsError("ENOENT", p["path"])
        return (yield from self._create(p["path"], x))

    def _dir_inode(self, path: str) -> LabFsInode:
        ino = self.by_path.get(path)
        if ino is None:
            raise FsError("ENOENT", path)
        inode = self.inodes[ino]
        if not inode.is_dir:
            raise FsError("ENOTDIR", path)
        return inode

    def _ensure_parent(self, path: str, x: ExecContext) -> LabFsInode:
        """Return the parent directory, auto-creating intermediates unless
        the LabMod was mounted with strict_paths."""
        parent = _parent_of(path)
        ino = self.by_path.get(parent)
        if ino is not None:
            inode = self.inodes[ino]
            if not inode.is_dir:
                raise FsError("ENOTDIR", parent)
            return inode
        if self.strict_paths:
            raise FsError("ENOENT", f"parent of {path}")
        return self._mkdir_now(parent, x)

    def _mkdir_now(self, path: str, x: ExecContext) -> LabFsInode:
        if path == "/":
            # "/" is its own parent: recreate the root directly rather
            # than recursing into _ensure_parent forever
            self._mkdir_root()
            return self.inodes[self.by_path["/"]]
        parent = self._ensure_parent(path, x)
        ino = next(self._ino)
        inode = LabFsInode(ino=ino, path=path, is_dir=True)
        self.inodes[ino] = inode
        self.by_path[path] = ino
        parent.children.add(_name_of(path))
        self.log.append(x.worker_id, mdlog.MKDIR, ino, path)
        return inode

    def _mkdir(self, path: str, x: ExecContext):
        yield from x.work(self.ctx.cost.labfs_create_ns, span="fs_meta")
        if path in self.by_path:
            raise FsError("EEXIST", path)
        return self._mkdir_now(path, x).ino

    def _readdir(self, path: str, x: ExecContext):
        yield from x.work(self.ctx.cost.fs_meta_ns, span="fs_meta")
        return sorted(self._dir_inode(path).children)

    def _rmdir(self, path: str, x: ExecContext):
        yield from x.work(self.ctx.cost.labfs_create_ns // 2, span="fs_meta")
        if path == "/":
            raise FsError("EBUSY", "cannot remove the root")
        inode = self._dir_inode(path)
        if inode.children:
            raise FsError("ENOTEMPTY", path)
        del self.by_path[path]
        del self.inodes[inode.ino]
        self.inodes[self.by_path[_parent_of(path)]].children.discard(_name_of(path))
        self.log.append(x.worker_id, mdlog.UNLINK, inode.ino)
        return None

    def _create(self, path: str, x: ExecContext):
        yield from x.work(self.ctx.cost.labfs_create_ns, span="fs_meta")
        if path in self.by_path:
            raise FsError("EEXIST", path)
        parent = self._ensure_parent(path, x)
        ino = next(self._ino)
        inode = LabFsInode(ino=ino, path=path)
        self.inodes[ino] = inode
        self.by_path[path] = ino
        parent.children.add(_name_of(path))
        self.log.append(x.worker_id, mdlog.CREATE, ino, path)
        return ino

    def _drop_from_parent(self, path: str) -> None:
        parent_ino = self.by_path.get(_parent_of(path))
        if parent_ino is not None:
            self.inodes[parent_ino].children.discard(_name_of(path))

    def _unlink(self, path: str, x: ExecContext):
        yield from x.work(self.ctx.cost.labfs_create_ns // 2, span="fs_meta")
        inode = self._lookup(path)
        if inode.is_dir:
            raise FsError("EISDIR", path)
        del self.by_path[path]
        del self.inodes[inode.ino]
        self._drop_from_parent(path)
        self.log.append(x.worker_id, mdlog.UNLINK, inode.ino)
        for dev_off in inode.blocks.values():
            self.allocator.free(dev_off // BLOCK, x.worker_id)
        return None

    def _rename(self, path: str, new_path: str, x: ExecContext):
        yield from x.work(self.ctx.cost.labfs_create_ns // 2, span="fs_meta")
        inode = self._lookup(path)
        new_parent = self._ensure_parent(new_path, x)
        del self.by_path[path]
        self._drop_from_parent(path)
        inode.path = new_path
        self.by_path[new_path] = inode.ino
        new_parent.children.add(_name_of(new_path))
        self.log.append(x.worker_id, mdlog.RENAME, inode.ino, new_path)
        return None

    def _stat(self, path: str, x: ExecContext):
        yield from x.work(self.ctx.cost.fs_meta_ns, span="fs_meta")
        inode = self._lookup(path)
        return {"ino": inode.ino, "size": inode.size, "is_dir": inode.is_dir}

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def _inode_by_ino(self, ino: int) -> LabFsInode:
        inode = self.inodes.get(ino)
        if inode is None:
            raise FsError("EBADF", f"ino {ino}")
        return inode

    def _blk(self, req: LabRequest, op: str, payload: dict) -> LabRequest:
        return LabRequest(
            op=op,
            payload=payload,
            stack_id=req.stack_id,
            client_pid=req.client_pid,
            priority=req.priority,
        )

    def _extents(self, inode: LabFsInode, first_page: int, npages: int, x: ExecContext):
        """Generator returning (device_offset, page_count) extents,
        allocating unmapped pages; contiguous blocks coalesce into single
        extents.  Allocation may wait (the centralized-allocator baseline
        serializes on its lock; the per-worker design never waits)."""
        offs = []
        for page in range(first_page, first_page + npages):
            off = inode.blocks.get(page)
            if off is None:
                block = yield from self.allocator.alloc_block(x.worker_id, x)
                off = block * BLOCK
                inode.blocks[page] = off
                self.log.append(x.worker_id, mdlog.MAP_BLOCK, inode.ino, page, off)
            offs.append(off)
        return [(run[0], len(run)) for run in runs(offs, _next_block)]

    def _write(self, req: LabRequest, x: ExecContext):
        p = req.payload
        inode = self._inode_by_ino(p["ino"])
        offset, data = p["offset"], p["data"]
        yield from x.work(self.ctx.cost.fs_meta_ns, span="fs_meta")
        head = offset % BLOCK
        tail = (offset + len(data)) % BLOCK
        first_page = offset // BLOCK
        last_page = (offset + len(data) - 1) // BLOCK
        npages = last_page - first_page + 1

        buf = bytearray(npages * BLOCK)
        # read-modify-write for partially covered edge pages that already exist
        first_partial = head != 0 or (npages == 1 and tail != 0)
        if first_partial and inode.blocks.get(first_page) is not None:
            existing = yield from self._read_extent(req, x, inode.blocks[first_page], BLOCK)
            buf[:BLOCK] = existing
        if tail and npages > 1 and inode.blocks.get(last_page) is not None:
            existing = yield from self._read_extent(req, x, inode.blocks[last_page], BLOCK)
            buf[(npages - 1) * BLOCK :] = existing
        buf[head : head + len(data)] = data

        extents = yield from self._extents(inode, first_page, npages, x)
        pos = 0
        for dev_off, n in extents:
            chunk = bytes(buf[pos : pos + n * BLOCK])
            sub = self._blk(req, "blk.write", {
                "offset": dev_off, "size": len(chunk), "data": chunk,
                "origin_core": req.client_pid or 0,
            })
            yield from self.forward(sub, x)
            pos += n * BLOCK
        if offset + len(data) > inode.size:
            inode.size = offset + len(data)
            self.log.append(x.worker_id, mdlog.SET_SIZE, inode.ino, inode.size)
        return len(data)

    def _read_extent(self, req: LabRequest, x: ExecContext, dev_off: int, size: int):
        sub = self._blk(req, "blk.read", {
            "offset": dev_off, "size": size, "origin_core": req.client_pid or 0,
        })
        return (yield from self.forward(sub, x))

    def _read(self, req: LabRequest, x: ExecContext):
        p = req.payload
        inode = self._inode_by_ino(p["ino"])
        offset = p["offset"]
        size = max(0, min(p["size"], inode.size - offset))
        yield from x.work(self.ctx.cost.fs_meta_ns, span="fs_meta")
        if size == 0:
            return b""
        first_page = offset // BLOCK
        last_page = (offset + size - 1) // BLOCK
        npages = last_page - first_page + 1
        buf = bytearray(npages * BLOCK)
        # coalesce pages whose device blocks are contiguous into one read;
        # holes stay zero
        mapped = [(page, off) for page in range(first_page, first_page + npages)
                  if (off := inode.blocks.get(page)) is not None]
        for run in runs(mapped, _next_mapped):
            page, dev_off = run[0]
            buf_pos = (page - first_page) * BLOCK
            data = yield from self._read_extent(req, x, dev_off, len(run) * BLOCK)
            buf[buf_pos : buf_pos + len(run) * BLOCK] = data
        head = offset % BLOCK
        return bytes(buf[head : head + size])

    def _fsync(self, req: LabRequest, x: ExecContext):
        yield from x.work(self.ctx.cost.fs_meta_ns, span="fs_meta")
        sub = self._blk(req, "blk.flush", {"offset": 0, "size": 0,
                                           "origin_core": req.client_pid or 0})
        yield from self.forward(sub, x)
        return None

    # ------------------------------------------------------------------
    # estimates / upgrade / repair
    # ------------------------------------------------------------------
    def est_processing_time(self, req: LabRequest) -> int:
        if req.op in ("fs.create", "fs.open"):
            return self.ctx.cost.labfs_create_ns
        size = req.payload.get("size", len(req.payload.get("data", b"")))
        return self.ctx.cost.fs_meta_ns + self.ctx.cost.copy_ns(size)

    def state_update(self, old: "LabMod") -> None:
        super().state_update(old)
        if isinstance(old, LabFs):
            self.allocator = old.allocator
            self.log = old.log
            self.inodes = old.inodes
            self.by_path = old.by_path
            self._ino = old._ino

    def on_crash(self) -> None:
        """Runtime died: the in-memory inode hashmap and path map are
        volatile and vanish with it.  The metadata log and the allocator's
        committed extents are durable; :meth:`state_repair` rebuilds the
        volatile side from them at restart.  The root is implicit in mkfs
        and survives (requests still draining through dying workers must
        not find a rootless namespace)."""
        self.inodes = {}
        self.by_path = {}
        self._mkdir_root()

    def on_snapshot(self) -> dict:
        """Durable state only: the metadata log and the allocator (the
        inode hashmap is a pure function of the log, rebuilt on restore)."""
        state = super().on_snapshot()
        state["log"] = self.log.export_state()
        state["allocator"] = self.allocator.export_state()
        state["repairs"] = self.repairs
        return state

    def on_restore(self, state: dict) -> None:
        super().on_restore(state)
        self.log.install_state(state["log"])
        self.allocator.install_state(state["allocator"])
        self.repairs = state.get("repairs", 0)
        self.state_repair()
        self.repairs -= 1  # restore is a rebuild, not a crash repair
        max_ino = max(self.inodes, default=0)
        for rec in self.log.merged():
            max_ino = max(max_ino, rec.ino)
        self._ino = itertools.count(max_ino + 1)

    def state_repair(self) -> None:
        """Crash recovery: rebuild the inode hashmap (and the directory
        tree) from the log."""
        table = mdlog.replay(self.log)
        self.inodes = {
            ino: LabFsInode(ino=ino, path=rec["path"], size=rec["size"],
                            blocks=dict(rec["blocks"]), is_dir=rec.get("dir", False))
            for ino, rec in table.items()
        }
        self.by_path = {inode.path: ino for ino, inode in self.inodes.items()}
        if "/" not in self.by_path:
            self._mkdir_root()
        # rebuild directory membership from the flat path map
        for inode in list(self.inodes.values()):
            if inode.path == "/":
                continue
            parent_ino = self.by_path.get(_parent_of(inode.path))
            if parent_ino is not None:
                self.inodes[parent_ino].children.add(_name_of(inode.path))
        self.repairs += 1
