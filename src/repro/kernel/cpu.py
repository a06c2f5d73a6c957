"""CPU cores and the software cost model.

:class:`CostModel` centralizes every calibration constant in one frozen
dataclass — the nanosecond prices of syscalls, context switches, copies,
queue hops, and per-layer bookkeeping.  DESIGN.md explains how the default
values were chosen to land the paper's Fig 4(a) anatomy fractions and the
Fig 6 interface ordering.

:class:`Cpu` models a pool of cores as unit-capacity resources with
busy-time accounting; latency-sensitive workers pin to dedicated cores
(the Work Orchestrator's dedication policy), everything else shares.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import KernelError
from ..sim import Environment, Resource

__all__ = ["CostModel", "Cpu", "DEFAULT_COST"]


@dataclass(frozen=True)
class CostModel:
    """Software-path cost constants, all in nanoseconds."""

    # syscall / scheduling
    syscall_ns: int = 1200          # user->kernel->user round trip
    context_switch_ns: int = 3500   # block + wakeup (full switch)
    irq_completion_ns: int = 1500   # hardware interrupt + bottom half
    thread_spawn_ns: int = 12_000

    # data movement
    copy_per_page_ns: int = 1000    # memcpy of one 4KiB page
    cache_mgmt_ns: int = 3000       # page-cache bookkeeping per request
    shm_hop_ns: int = 950           # cross-core shared-memory queue transfer
    dax_map_ns: int = 50            # address translation on the DAX path

    # kernel block layer
    blk_alloc_ns: int = 1000        # struct request alloc + init
    blk_sched_ns: int = 600         # elevator/scheduler decision
    blk_dispatch_ns: int = 600      # hctx dispatch
    blk_complete_ns: int = 600      # completion bookkeeping

    # userspace I/O interfaces
    aio_thread_hop_ns: int = 3500   # POSIX AIO worker-thread handoff (each way)
    uring_submit_ns: int = 800      # amortized SQE handling
    uring_complete_ns: int = 500    # CQE reap
    uring_wait_ns: int = 1750       # hybrid completion wait at low qd
                                    # (amortized block/wake in io_uring_enter)
    libaio_submit_ns: int = 1200    # io_submit syscall path
    libaio_getevents_ns: int = 600  # amortized io_getevents

    # VFS / filesystem layers
    vfs_lookup_ns: int = 300        # per path component
    perm_check_ns: int = 720        # permission/ACL evaluation
    fs_meta_ns: int = 720           # inode/alloc bookkeeping per op (kernel
                                    # FS and LabFS: block allocation + inode
                                    # block logging price the same)

    # LabStor module costs
    noop_sched_ns: int = 800        # NoOp LabMod: key request to an hctx.
                                    # The kernel prices the same decision at
                                    # blk_sched_ns; one value for both would
                                    # move the Fig 4 anatomy calibration and
                                    # every kernel-vs-Lab virtual column, so
                                    # they stay apart until a joint refit
    blkswitch_extra_ns: int = 300   # blk-switch lane classification + load
                                    # inspection, on top of either host's
                                    # base decision (noop_sched_ns as a
                                    # LabMod, blk_sched_ns in the kernel)
    driver_submit_ns: int = 800     # Kernel Driver LabMod submit_io_to_hctx
                                    # (kernel request-structure allocation)
    driver_poll_ns: int = 900       # poll_completions (kernel-assisted reap)
    spdk_submit_ns: int = 250       # SPDK NVMe command build
    spdk_poll_ns: int = 200
    labmod_hop_ns: int = 150        # intra-runtime LabMod-to-LabMod handoff
    runtime_request_ns: int = 2500  # worker-side request handling: parse,
                                    # namespace/registry lookups, completion
    client_dispatch_ns: int = 2200  # same walks client-side when a stack
                                    # executes synchronously (no IPC/worker)
    # batched submission: one fixed doorbell per batch + a marginal per-op
    # term replaces the per-request fixed costs, making the amortization
    # the paper measures explicit (batch of N: fixed + N * marginal)
    batch_doorbell_ns: int = 1400   # fixed per batch: doorbell ring + the
                                    # worker's batch-descriptor walk
    batch_op_ns: int = 350          # marginal per batched op: SQE build
                                    # client-side, entry decode worker-side

    # LabStor I/O-system LabMods
    labfs_create_ns: int = 9000     # log append + inode insert + fd plumbing
    labkvs_op_ns: int = 2500        # single put/get/remove op handling
    generic_fs_ns: int = 200        # client-side interception + fd table
    compress_ns_per_byte: float = 0.6  # ~zlib throughput the paper observed

    def __post_init__(self) -> None:
        # memo for copy_ns: workloads copy the same handful of sizes over
        # and over, so the float divide + round collapse to one dict hit.
        # object.__setattr__ keeps it out of the frozen dataclass's fields
        # (and out of eq/hash/repr).
        object.__setattr__(self, "_copy_cache", {})

    def copy_ns(self, size: int) -> int:
        """memcpy cost for ``size`` bytes (linear in pages)."""
        ns = self._copy_cache.get(size)
        if ns is None:
            ns = max(100, round(self.copy_per_page_ns * size / 4096))
            if len(self._copy_cache) < 4096:
                self._copy_cache[size] = ns
        return ns

    def with_overrides(self, **kw) -> "CostModel":
        return replace(self, **kw)


DEFAULT_COST = CostModel()


class Cpu:
    """A pool of cores with pinning and utilization accounting."""

    def __init__(self, env: Environment, ncores: int = 24, cost: CostModel = DEFAULT_COST) -> None:
        if ncores < 1:
            raise KernelError("need at least one core")
        self.env = env
        self.ncores = ncores
        self.cost = cost
        self.cores = [Resource(env, capacity=1) for _ in range(ncores)]
        self._pinned: set[int] = set()
        self._rr_next = 0
        self._epoch_ns = env.now

    # -- core assignment --------------------------------------------------
    def pin(self, core_id: int | None = None) -> int:
        """Reserve a core exclusively (Work Orchestrator core dedication).

        Returns the core id.  Pinning is advisory bookkeeping: the pinned
        owner still acquires the core resource around each burst, but
        other components are steered away by :meth:`pick_core`.
        """
        if core_id is None:
            for cid in range(self.ncores):
                if cid not in self._pinned:
                    self._pinned.add(cid)
                    return cid
            raise KernelError("no free core to pin")
        if core_id in self._pinned:
            raise KernelError(f"core {core_id} already pinned")
        if not 0 <= core_id < self.ncores:
            raise KernelError(f"bad core id {core_id}")
        self._pinned.add(core_id)
        return core_id

    def unpin(self, core_id: int) -> None:
        self._pinned.discard(core_id)

    def pick_core(self) -> int:
        """Round-robin over unpinned cores (falls back to any core)."""
        candidates = [c for c in range(self.ncores) if c not in self._pinned] or list(
            range(self.ncores)
        )
        core = candidates[self._rr_next % len(candidates)]
        self._rr_next += 1
        return core

    # -- execution ----------------------------------------------------------
    def consume(self, core_id: int, ns: int):
        """Process generator: occupy ``core_id`` for ``ns`` of CPU work."""
        core = self.cores[core_id % self.ncores]
        with core.request() as grant:
            yield grant
            yield self.env.timeout(ns)

    # -- accounting -----------------------------------------------------------
    def reset_accounting(self) -> None:
        """Start a fresh utilization window (per-run measurement)."""
        for core in self.cores:
            core._busy_ns = 0
            core._last_change = self.env.now
        self._epoch_ns = self.env.now

    def utilization(self, core_id: int | None = None) -> float:
        """Busy fraction since the last reset (averaged over cores if None)."""
        elapsed = self.env.now - self._epoch_ns
        if elapsed <= 0:
            return 0.0
        if core_id is not None:
            return self.cores[core_id].busy_time() / elapsed
        return sum(c.busy_time() for c in self.cores) / (elapsed * self.ncores)

    def busy_cores(self) -> float:
        """Average number of cores in use since the last reset."""
        return self.utilization() * self.ncores
