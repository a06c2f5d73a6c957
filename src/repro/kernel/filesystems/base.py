"""Functional kernel-filesystem model with per-FS locking behaviour.

These are the paper's baselines (ext4 / XFS / F2FS).  They are *functional*
— create/write/read/unlink really move bytes through the page cache and
block layer onto the device — and they carry each filesystem's metadata
locking discipline, which is what makes kernel filesystems collapse under
concurrent metadata load in the paper's Fig 7 (FxMark) experiment.

Costs: every operation pays syscall entry/exit, VFS path lookup,
permission check, and an FS-specific metadata charge; metadata mutations
additionally serialize on the journal/log lock(s) for a per-FS hold time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from ...devices.base import BlockDevice, IoOp
from ...errors import FsError
from ...obs.spans import SpanContext
from ...sim import Environment, Resource
from ..block_layer import BlockLayer
from ..cpu import DEFAULT_COST, CostModel
from ..page_cache import PAGE_SIZE, PageCache

__all__ = ["KernelFilesystem"]

BLOCK_SIZE = PAGE_SIZE


@dataclass
class Inode:
    ino: int
    path: str
    size: int = 0
    nlink: int = 1
    # page_no -> device byte offset of the backing block
    blocks: dict[int, int] = field(default_factory=dict)


@dataclass
class OpenFile:
    fd: int
    inode: Inode
    pos: int = 0


class KernelFilesystem:
    """Base kernel FS: subclasses set the locking/cost profile."""

    name = "kernelfs"
    # --- per-FS tuning knobs (overridden by subclasses) -------------------
    meta_lock_shards = 1       # journal/log lock sharding
    create_hold_ns = 60_000    # lock hold time for a create/unlink transaction
    write_meta_ns = 1_500      # extent/alloc bookkeeping per data write
    journal_flush = True       # fsync issues a device flush

    def __init__(
        self,
        env: Environment,
        device: BlockDevice,
        cost: CostModel = DEFAULT_COST,
        cache_pages: int = 32_768,
    ) -> None:
        self.env = env
        self.device = device
        self.cost = cost
        self.block_layer = BlockLayer(env, device, cost)
        self.cache = PageCache(
            env, cache_pages, writeback=self._writeback_page, fill=self._fill_page,
            writeback_run=self._writeback_extent, cost=cost,
        )
        self._inodes_by_path: dict[str, Inode] = {}
        self._inodes_by_ino: dict[int, Inode] = {}
        self._ino_counter = itertools.count(1)
        self._fd_counter = itertools.count(3)
        self._fds: dict[int, OpenFile] = {}
        self._meta_locks = [Resource(env, capacity=1) for _ in range(self.meta_lock_shards)]
        # simple block allocator: bump pointer + free list
        self._next_block = BLOCK_SIZE  # block 0 reserved as superblock
        self._free_blocks: list[int] = []
        self.ops = 0

    # ------------------------------------------------------------------
    # block management
    # ------------------------------------------------------------------
    def _alloc_block(self) -> int:
        if self._free_blocks:
            return self._free_blocks.pop()
        offset = self._next_block
        if offset + BLOCK_SIZE > self.device.profile.capacity_bytes:
            raise FsError("ENOSPC", f"{self.name}: device full")
        self._next_block += BLOCK_SIZE
        return offset

    def _block_for(self, inode: Inode, page_no: int) -> int:
        offset = inode.blocks.get(page_no)
        if offset is None:
            offset = self._alloc_block()
            inode.blocks[page_no] = offset
        return offset

    # -- page cache backing callbacks -----------------------------------
    def _writeback_page(self, file_id: int, page_no: int, data: bytes):
        inode = self._inodes_by_ino.get(file_id)
        if inode is None:  # unlinked while dirty: drop the write
            return
            yield  # pragma: no cover - makes this a generator
        offset = self._block_for(inode, page_no)
        yield from self.block_layer.submit_bio(IoOp.WRITE, offset, len(data), data)
        yield self.env.timeout(self.cost.irq_completion_ns)

    def _writeback_extent(self, file_id: int, first_page: int, data: bytes):
        """Batched writeback: the dirty pages go down as one plug list;
        the block layer's elevator merges device-contiguous pages into
        single large bios (the bump allocator makes sequential files
        mostly contiguous on disk, so an extent is usually one run)."""
        inode = self._inodes_by_ino.get(file_id)
        if inode is None:
            return
            yield  # pragma: no cover - generator
        npages = len(data) // PAGE_SIZE
        bios = [
            (IoOp.WRITE, self._block_for(inode, first_page + i), PAGE_SIZE,
             data[i * PAGE_SIZE:(i + 1) * PAGE_SIZE])
            for i in range(npages)
        ]
        reqs = yield from self.block_layer.submit_batch_bio(bios)
        yield self.env.timeout(self.cost.irq_completion_ns * len(reqs))

    def _fill_page(self, file_id: int, page_no: int):
        inode = self._inodes_by_ino.get(file_id)
        if inode is None or page_no not in inode.blocks:
            return b"\x00" * PAGE_SIZE
            yield  # pragma: no cover
        req = yield from self.block_layer.submit_bio(
            IoOp.READ, inode.blocks[page_no], PAGE_SIZE
        )
        yield self.env.timeout(self.cost.irq_completion_ns)
        return req.result

    # ------------------------------------------------------------------
    # cost helpers
    # ------------------------------------------------------------------
    def _vfs_cost(self, path: str) -> int:
        ncomp = max(1, path.strip("/").count("/") + 1)
        return self.cost.vfs_lookup_ns * ncomp + self.cost.perm_check_ns

    def _enter(self, path: str):
        """Syscall entry + VFS walk + permission check."""
        self.ops += 1
        yield self.env.timeout(self.cost.syscall_ns + self._vfs_cost(path))

    def _meta_txn(self, key: int, hold_ns: int):
        """Serialize a metadata mutation on the journal/log lock."""
        lock = self._meta_locks[key % self.meta_lock_shards]
        with lock.request() as grant:
            yield grant
            yield self.env.timeout(hold_ns)

    # ------------------------------------------------------------------
    # telemetry (repro.obs)
    # ------------------------------------------------------------------
    def _obs_open(self, op: str):
        """Open a kernel-syscall span and install it as the tracer's
        *ambient* span, which the block layer reads to attribute bios.

        The kernel path has no per-request plumbing (bios don't carry the
        syscall that caused them), so attribution is via this ambient
        slot — correct for the serial measurement loops the anatomy
        experiment runs; concurrent syscalls would cross-bill and should
        be measured with telemetry off.  Returns an opaque token for
        :meth:`_obs_close` (None when telemetry is disabled).
        """
        t = self.env.tracer
        if not t.obs:
            return None
        sc = SpanContext(op=op, now=self.env.now, kind="kernel", sync=True)
        prev, t.obs_span = t.obs_span, sc
        return (sc, prev)

    def _obs_close(self, token) -> None:
        if token is None:
            return
        sc, prev = token
        t = self.env.tracer
        t.obs_span = prev
        sc.mark_complete(self.env.now)
        sc.close(self.env.now)
        t.emit(self.env.now, "obs.span", span=sc)

    # ------------------------------------------------------------------
    # POSIX-ish operations (process generators)
    # ------------------------------------------------------------------
    def exists(self, path: str) -> bool:
        return path in self._inodes_by_path

    def create(self, path: str):
        """open(path, O_CREAT|O_EXCL): returns an fd."""
        yield from self._enter(path)
        if path in self._inodes_by_path:
            raise FsError("EEXIST", path)
        ino = next(self._ino_counter)
        yield from self._meta_txn(ino, self.create_hold_ns)
        inode = Inode(ino=ino, path=path)
        self._inodes_by_path[path] = inode
        self._inodes_by_ino[ino] = inode
        return self._open_fd(inode)

    def open(self, path: str, create: bool = False):
        yield from self._enter(path)
        inode = self._inodes_by_path.get(path)
        if inode is None:
            if not create:
                raise FsError("ENOENT", path)
            ino = next(self._ino_counter)
            yield from self._meta_txn(ino, self.create_hold_ns)
            inode = Inode(ino=ino, path=path)
            self._inodes_by_path[path] = inode
            self._inodes_by_ino[ino] = inode
        return self._open_fd(inode)

    def _open_fd(self, inode: Inode) -> int:
        fd = next(self._fd_counter)
        self._fds[fd] = OpenFile(fd=fd, inode=inode)
        return fd

    def _file(self, fd: int) -> OpenFile:
        try:
            return self._fds[fd]
        except KeyError:
            raise FsError("EBADF", f"fd {fd}") from None

    def close(self, fd: int):
        self.ops += 1
        yield self.env.timeout(self.cost.syscall_ns)
        self._fds.pop(fd, None)

    def write(self, fd: int, data: bytes, offset: int | None = None):
        """Buffered pwrite/write; returns bytes written."""
        f = self._file(fd)
        self.ops += 1
        token = self._obs_open("fs.write")
        try:
            yield self.env.timeout(
                self.cost.syscall_ns + self.cost.fs_meta_ns + self.write_meta_ns
            )
            if token is not None:
                token[0].mark_dispatched(self.env.now)
            pos = f.pos if offset is None else offset
            yield self.env.process(self.cache.write(f.inode.ino, pos, data))
            end = pos + len(data)
            if offset is None:
                f.pos = end
            if end > f.inode.size:
                f.inode.size = end
            return len(data)
        finally:
            self._obs_close(token)

    def read(self, fd: int, size: int, offset: int | None = None):
        """Buffered pread/read; returns bytes (short read at EOF)."""
        f = self._file(fd)
        self.ops += 1
        token = self._obs_open("fs.read")
        try:
            yield self.env.timeout(self.cost.syscall_ns + self.cost.fs_meta_ns)
            if token is not None:
                token[0].mark_dispatched(self.env.now)
            pos = f.pos if offset is None else offset
            size = max(0, min(size, f.inode.size - pos))
            if size == 0:
                return b""
            data = yield self.env.process(self.cache.read(f.inode.ino, pos, size))
            if offset is None:
                f.pos = pos + size
            return data
        finally:
            self._obs_close(token)

    def seek(self, fd: int, pos: int):
        f = self._file(fd)
        self.ops += 1
        yield self.env.timeout(self.cost.syscall_ns)
        f.pos = pos

    def truncate(self, fd: int, size: int):
        f = self._file(fd)
        self.ops += 1
        yield self.env.timeout(self.cost.syscall_ns + self.cost.fs_meta_ns)
        f.inode.size = size

    def fsync(self, fd: int):
        f = self._file(fd)
        self.ops += 1
        token = self._obs_open("fs.fsync")
        try:
            yield self.env.timeout(self.cost.syscall_ns)
            if token is not None:
                token[0].mark_dispatched(self.env.now)
            yield self.env.process(self.cache.fsync(f.inode.ino))
            if self.journal_flush:
                yield from self.block_layer.submit_bio(IoOp.FLUSH, 0, 0)
        finally:
            self._obs_close(token)

    def unlink(self, path: str):
        yield from self._enter(path)
        inode = self._inodes_by_path.get(path)
        if inode is None:
            raise FsError("ENOENT", path)
        yield from self._meta_txn(inode.ino, self.create_hold_ns)
        del self._inodes_by_path[path]
        del self._inodes_by_ino[inode.ino]
        self.cache.invalidate(inode.ino)
        for offset in inode.blocks.values():
            self._free_blocks.append(offset)

    def rename(self, old: str, new: str):
        yield from self._enter(old)
        inode = self._inodes_by_path.get(old)
        if inode is None:
            raise FsError("ENOENT", old)
        yield from self._meta_txn(inode.ino, self.create_hold_ns)
        del self._inodes_by_path[old]
        inode.path = new
        self._inodes_by_path[new] = inode

    def stat(self, path: str):
        yield from self._enter(path)
        inode = self._inodes_by_path.get(path)
        if inode is None:
            raise FsError("ENOENT", path)
        return {"ino": inode.ino, "size": inode.size, "nlink": inode.nlink}

    # convenience for tests / workloads --------------------------------------
    def write_file(self, path: str, data: bytes):
        """open(create)+write+close in one step."""
        fd = yield self.env.process(self.open(path, create=True))
        yield self.env.process(self.write(fd, data, offset=0))
        yield self.env.process(self.close(fd))

    def read_file(self, path: str):
        fd = yield self.env.process(self.open(path))
        inode = self._fds[fd].inode
        data = yield self.env.process(self.read(fd, inode.size, offset=0))
        yield self.env.process(self.close(fd))
        return data
