"""GenericFS: the client-side POSIX connector (a Generic LabMod).

Loaded into clients via LD_PRELOAD in the paper, GenericFS intercepts
POSIX calls, allocates file descriptors, resolves paths through the
LabStack Namespace (exact match, then parent prefixes, as in Fig 3), and
routes requests to the filesystem implementation of the owning stack —
the VFS-like state that is *common among I/O systems of a type*.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.client import LabStorClient
from ..core.requests import LabRequest
from ..errors import LabStorError

__all__ = ["GenericFS"]


@dataclass
class _FdEntry:
    stack_id: int
    ino: int
    pos: int
    path: str


class GenericFS:
    """POSIX facade over mounted filesystem LabStacks.

    ``retry`` (a :class:`repro.faults.RetryPolicy`) makes every routed
    request resilient: transient failures — injected media errors, queue
    backpressure, worker crashes, op timeouts — are retried with
    deterministic backoff before surfacing to the application.
    """

    def __init__(self, client: LabStorClient, retry=None) -> None:
        self.client = client
        self.env = client.env
        self.cost = client.runtime.cost
        self.retry = retry
        self._fds: dict[int, _FdEntry] = {}
        self.intercepted = 0

    # -- plumbing ---------------------------------------------------------
    def _intercept(self):
        self.intercepted += 1
        yield self.env.timeout(self.cost.generic_fs_ns)

    def _call(self, stack, op: str, payload: dict):
        """Route one request through the client, applying the retry
        policy.  Each attempt builds a fresh LabRequest: an abandoned
        (timed-out) request id must never be reused."""
        retry = self.retry
        if retry is None:
            return (yield from self.client.call(stack, LabRequest(op=op, payload=payload)))

        def attempt(_n):
            return self.client.call(
                stack,
                LabRequest(op=op, payload=dict(payload)),
                timeout_ns=retry.timeout_ns,
            )

        return (yield from retry.run(self.env, attempt))

    def _entry(self, fd: int) -> _FdEntry:
        try:
            return self._fds[fd]
        except KeyError:
            raise LabStorError(f"GenericFS: unknown fd {fd}") from None

    def _stack_for(self, fd: int):
        return self.client.runtime.namespace.get_by_id(self._entry(fd).stack_id)

    # -- the POSIX surface (process generators) ------------------------------
    def open(self, path: str, create: bool = False):
        """Resolve, route fs.open, allocate a client-side fd."""
        yield from self._intercept()
        stack, remainder = self.client.runtime.namespace.resolve(path)
        ino = yield from self._call(stack, "fs.open", {"path": remainder, "create": create})
        fd = self.client.alloc_fd(stack.stack_id)
        self._fds[fd] = _FdEntry(stack_id=stack.stack_id, ino=ino, pos=0, path=remainder)
        return fd

    def close(self, fd: int):
        yield from self._intercept()
        entry = self._fds.pop(fd, None)
        if entry is None:
            raise LabStorError(f"GenericFS: unknown fd {fd}")
        self.client.release_fd(fd)
        stack = self.client.runtime.namespace.get_by_id(entry.stack_id)
        yield from self._call(stack, "fs.close", {"ino": entry.ino})

    def write(self, fd: int, data: bytes, offset: int | None = None):
        yield from self._intercept()
        entry = self._entry(fd)
        pos = entry.pos if offset is None else offset
        stack = self._stack_for(fd)
        n = yield from self._call(
            stack, "fs.write", {"ino": entry.ino, "offset": pos, "data": data}
        )
        if offset is None:
            entry.pos = pos + n
        return n

    def read(self, fd: int, size: int, offset: int | None = None):
        yield from self._intercept()
        entry = self._entry(fd)
        pos = entry.pos if offset is None else offset
        stack = self._stack_for(fd)
        data = yield from self._call(
            stack, "fs.read", {"ino": entry.ino, "offset": pos, "size": size}
        )
        if offset is None:
            entry.pos = pos + len(data)
        return data

    def writev(self, fd: int, bufs: list, offset: int | None = None):
        """Vectored write: the buffers land at consecutive offsets and ride
        one batched submission (a single doorbell; see Client.submit_batch).

        Returns per-buffer byte counts in order.  Any failed constituent
        raises its error after the whole batch settles — batch-mates'
        writes are not rolled back (matching ``pwritev`` semantics where
        a short/failed vector leaves earlier ones durable).  Vectored ops
        bypass the retry policy: a partial batch retry would double-apply
        the already-persisted constituents.
        """
        yield from self._intercept()
        entry = self._entry(fd)
        pos = entry.pos if offset is None else offset
        stack = self._stack_for(fd)
        reqs = []
        at = pos
        for data in bufs:
            reqs.append(LabRequest(
                op="fs.write", payload={"ino": entry.ino, "offset": at, "data": data}
            ))
            at += len(data)
        comps = yield from self.client.submit_batch(stack, reqs)
        counts = []
        first_error = None
        for comp in comps:
            if comp.error is not None:
                if first_error is None:
                    first_error = comp.error
                counts.append(0)
            else:
                counts.append(comp.value)
        if first_error is not None:
            raise first_error
        if offset is None:
            entry.pos = pos + sum(counts)
        return counts

    def readv(self, fd: int, sizes: list, offset: int | None = None):
        """Vectored read of consecutive extents via one batched submission.
        Returns the per-extent byte strings in order; like :meth:`writev`,
        raises the first constituent error after the batch settles."""
        yield from self._intercept()
        entry = self._entry(fd)
        pos = entry.pos if offset is None else offset
        stack = self._stack_for(fd)
        reqs = []
        at = pos
        for size in sizes:
            reqs.append(LabRequest(
                op="fs.read", payload={"ino": entry.ino, "offset": at, "size": size}
            ))
            at += size
        comps = yield from self.client.submit_batch(stack, reqs)
        chunks = []
        first_error = None
        for comp in comps:
            if comp.error is not None:
                if first_error is None:
                    first_error = comp.error
                chunks.append(b"")
            else:
                chunks.append(comp.value)
        if first_error is not None:
            raise first_error
        if offset is None:
            entry.pos = pos + sum(len(c) for c in chunks)
        return chunks

    def seek(self, fd: int, pos: int):
        yield from self._intercept()
        self._entry(fd).pos = pos

    def fsync(self, fd: int):
        yield from self._intercept()
        entry = self._entry(fd)
        yield from self._call(self._stack_for(fd), "fs.fsync", {"ino": entry.ino})

    def unlink(self, path: str):
        yield from self._intercept()
        stack, remainder = self.client.runtime.namespace.resolve(path)
        yield from self._call(stack, "fs.unlink", {"path": remainder})

    def rename(self, path: str, new_path: str):
        yield from self._intercept()
        stack, remainder = self.client.runtime.namespace.resolve(path)
        _stack2, new_remainder = self.client.runtime.namespace.resolve(new_path)
        yield from self._call(
            stack, "fs.rename", {"path": remainder, "new_path": new_remainder}
        )

    def stat(self, path: str):
        yield from self._intercept()
        stack, remainder = self.client.runtime.namespace.resolve(path)
        return (yield from self._call(stack, "fs.stat", {"path": remainder}))

    def mkdir(self, path: str):
        yield from self._intercept()
        stack, remainder = self.client.runtime.namespace.resolve(path)
        return (yield from self._call(stack, "fs.mkdir", {"path": remainder}))

    def readdir(self, path: str):
        yield from self._intercept()
        stack, remainder = self.client.runtime.namespace.resolve(path)
        return (yield from self._call(stack, "fs.readdir", {"path": remainder}))

    def rmdir(self, path: str):
        yield from self._intercept()
        stack, remainder = self.client.runtime.namespace.resolve(path)
        yield from self._call(stack, "fs.rmdir", {"path": remainder})

    # convenience ----------------------------------------------------------
    def write_file(self, path: str, data: bytes):
        fd = yield from self.open(path, create=True)
        yield from self.write(fd, data, offset=0)
        yield from self.close(fd)

    def read_file(self, path: str):
        fd = yield from self.open(path)
        st = yield from self.stat(path)
        data = yield from self.read(fd, st["size"], offset=0)
        yield from self.close(fd)
        return data
