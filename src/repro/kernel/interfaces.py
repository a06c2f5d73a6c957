"""Userspace I/O interfaces over the kernel path (the Fig 6 baselines).

Each interface drives raw O_DIRECT I/O against a device file through the
simulated kernel block layer, charging the software costs specific to that
API.  The LabStor counterparts (Kernel Driver / SPDK / DAX LabMods) live
in :mod:`repro.mods.drivers` and skip most of these costs — the difference
is exactly what the paper's storage-API stress test measures.

Cost structure per 4KB op (defaults; see CostModel):

====================  ==========================================================
interface             charges
====================  ==========================================================
posix                 syscall + blk(alloc/sched/dispatch/complete) + IRQ +
                      context switch (blocking wait)
posix_aio             posix + two AIO worker-thread hops
libaio                io_submit syscall + blk + IRQ + amortized io_getevents
io_uring              amortized SQE submit + blk + IRQ + CQE reap
====================  ==========================================================
"""

from __future__ import annotations

import abc

from ..devices.base import BlockDevice, IoOp
from ..errors import KernelError
from ..sim import Environment
from .block_layer import BlockLayer
from .cpu import DEFAULT_COST, CostModel

__all__ = [
    "IoInterface",
    "IoUring",
    "INTERFACES",
    "make_interface",
]


class IoInterface(abc.ABC):
    """A userspace API for submitting block I/O to a raw device file."""

    name = "abstract"

    def __init__(
        self,
        env: Environment,
        device: BlockDevice,
        cost: CostModel = DEFAULT_COST,
        retry=None,
    ) -> None:
        self.env = env
        self.device = device
        self.cost = cost
        #: optional repro.faults.RetryPolicy — the kernel baseline gets the
        #: same bounded-retry resilience as the LabStor connectors
        self.retry = retry
        self.block_layer = BlockLayer(env, device, cost)
        self.completed_ops = 0

    def submit(self, op: IoOp, offset: int, size: int, data: bytes | None = None, core: int = 0):
        """Process generator: one O_DIRECT I/O, start to completion."""
        if self.retry is None:
            return (yield from self._submit_once(op, offset, size, data, core))
        return (
            yield from self.retry.run(
                self.env, lambda _n: self._submit_once(op, offset, size, data, core)
            )
        )

    def _submit_once(self, op: IoOp, offset: int, size: int, data: bytes | None, core: int):
        yield from self._pre(size)
        req = yield from self.block_layer.submit_bio(op, offset, size, data, origin_core=core)
        yield from self._post(size)
        self.completed_ops += 1
        return req

    @abc.abstractmethod
    def _pre(self, size: int):
        """Submission-side software cost."""

    @abc.abstractmethod
    def _post(self, size: int):
        """Completion-side software cost."""


class PosixSync(IoInterface):
    """pread/pwrite with O_DIRECT: blocking syscall per I/O."""

    name = "posix"

    def _pre(self, size: int):
        yield self.env.timeout(self.cost.syscall_ns)

    def _post(self, size: int):
        # IRQ fires, scheduler wakes the blocked thread: full context switch.
        yield self.env.timeout(self.cost.irq_completion_ns + self.cost.context_switch_ns)


class PosixAio(IoInterface):
    """POSIX AIO (glibc): the I/O detours through a worker thread pool.

    The paper: "POSIX AIO suffers additional overhead due to the cost of
    context switching to the AIO thread, amounting up to 60-70% overhead
    on NVMe and PMEM."
    """

    name = "posix_aio"

    def _pre(self, size: int):
        # enqueue to the AIO thread + that thread's blocking syscall
        yield self.env.timeout(self.cost.aio_thread_hop_ns + self.cost.syscall_ns)

    def _post(self, size: int):
        yield self.env.timeout(
            self.cost.irq_completion_ns
            + self.cost.context_switch_ns  # AIO thread wakes
            + self.cost.aio_thread_hop_ns  # completion notification hop back
        )


class Libaio(IoInterface):
    """Linux native AIO: io_submit / io_getevents."""

    name = "libaio"

    def _pre(self, size: int):
        yield self.env.timeout(self.cost.libaio_submit_ns)

    def _post(self, size: int):
        yield self.env.timeout(self.cost.irq_completion_ns + self.cost.libaio_getevents_ns)


class IoUring(IoInterface):
    """io_uring: shared rings amortize syscalls away."""

    name = "io_uring"

    def _pre(self, size: int):
        yield self.env.timeout(self.cost.uring_submit_ns)

    def _post(self, size: int):
        yield self.env.timeout(
            self.cost.irq_completion_ns + self.cost.uring_complete_ns + self.cost.uring_wait_ns
        )


INTERFACES = {
    "posix": PosixSync,
    "posix_aio": PosixAio,
    "libaio": Libaio,
    "io_uring": IoUring,
}


def make_interface(name: str, env: Environment, device: BlockDevice, **kw) -> IoInterface:
    """Build a kernel I/O interface by name."""
    try:
        cls = INTERFACES[name]
    except KeyError:
        raise KernelError(f"unknown interface {name!r}; choose from {sorted(INTERFACES)}") from None
    return cls(env, device, **kw)
