"""Linux block layer model (blk-mq) with pluggable in-kernel I/O schedulers.

The block layer charges the request-allocation / scheduling / dispatch /
completion bookkeeping costs that LabStor's Kernel Driver LabMod bypasses
(the paper's Fig 6 storage-API comparison), and exposes the same
hctx-selection seam the Fig 8 scheduler experiment customizes.

``submit_batch_bio`` models blk-mq plugging: a plug list of bios is
elevator-merged (front/back contiguity) into runs, each run pays the
alloc/sched/dispatch bookkeeping once and goes to the device as a single
large request.  Kernel semantics apply — an error fails the whole merged
request (bio granularity); per-constituent fault isolation is the
LabStor-path property (see mods.sched_batch).
"""

from __future__ import annotations

import abc

from ..devices.base import BlockDevice, BlockRequest, IoOp
from ..sim import Environment
from .cpu import DEFAULT_COST, CostModel

__all__ = ["KernelNoop", "KernelBlkSwitch", "BlockLayer"]


class KernelIoScheduler(abc.ABC):
    """Chooses the hardware dispatch queue for each request."""

    name = "abstract"

    @abc.abstractmethod
    def select_hctx(self, layer: "BlockLayer", size: int, origin_core: int) -> int:
        ...

    def cost_ns(self, cost: CostModel) -> int:
        return cost.blk_sched_ns


class KernelNoop(KernelIoScheduler):
    """Maps requests to the hctx of the originating core (Linux none/noop)."""

    name = "linux-noop"

    def select_hctx(self, layer: "BlockLayer", size: int, origin_core: int) -> int:
        return origin_core % layer.device.nqueues


class KernelBlkSwitch(KernelIoScheduler):
    """blk-switch [20]: lane separation + least-loaded steering.

    blk-switch's core idea is per-class egress lanes: latency-critical
    (small) requests get dedicated hardware queues that throughput
    (large) requests never occupy, plus load-aware steering within a
    lane.  This prevents a latency-sensitive request from queueing
    behind a throughput app's large writes (the head-of-line blocking
    Fig 8 demonstrates for noop when colocated).
    """

    name = "linux-blk-switch"
    #: requests at or above this size ride the throughput lane
    large_threshold = 32 * 1024

    @staticmethod
    def _lanes(nqueues: int) -> int:
        """Number of queues reserved for the latency lane."""
        return max(1, nqueues // 4)

    def select_hctx(self, layer: "BlockLayer", size: int, origin_core: int) -> int:
        nq = layer.device.nqueues
        k = self._lanes(nq)
        if nq == 1:
            return 0
        if size >= self.large_threshold:
            lane = range(k, nq)           # throughput lane
        else:
            lane = range(0, k)            # dedicated latency lane
        return min(lane, key=lambda q: (layer.inflight_bytes[q], q))

    def cost_ns(self, cost: CostModel) -> int:
        # lane classification + load inspection costs more than noop's modulo
        return cost.blk_sched_ns + 400


class BlockLayer:
    """blk-mq front end over one device."""

    def __init__(
        self,
        env: Environment,
        device: BlockDevice,
        cost: CostModel = DEFAULT_COST,
        scheduler: KernelIoScheduler | None = None,
    ) -> None:
        self.env = env
        self.device = device
        self.cost = cost
        self.scheduler = scheduler or KernelNoop()
        self.inflight_bytes = [0] * device.nqueues
        self.submitted = 0
        self.merged_bios = 0  # bios absorbed into another run's request

    def set_scheduler(self, scheduler: KernelIoScheduler) -> None:
        """Swap the elevator (echo > /sys/block/.../scheduler equivalent)."""
        self.scheduler = scheduler

    def submit_bio(
        self,
        op: IoOp,
        offset: int,
        size: int,
        data: bytes | None = None,
        origin_core: int = 0,
        hctx: int | None = None,
    ):
        """Process generator: full kernel block path for one bio.

        Returns the completed :class:`BlockRequest`.  ``hctx`` overrides
        scheduler selection (used by LabStor's submit_io_to_hctx, which
        still rides the tail of this path but skips alloc+sched costs —
        see mods.drivers).
        """
        t = self.env.tracer
        sc = t.obs_span if t.obs else None
        sw_ns = self.cost.blk_alloc_ns
        yield self.env.timeout(self.cost.blk_alloc_ns)
        if hctx is None:
            sw_ns += self.scheduler.cost_ns(self.cost)
            yield self.env.timeout(self.scheduler.cost_ns(self.cost))
            hctx = self.scheduler.select_hctx(self, size, origin_core)
        yield self.env.timeout(self.cost.blk_dispatch_ns)
        req = BlockRequest(op=op, offset=offset, size=size, data=data, hctx=hctx)
        if sc is not None:
            # software block-layer time counts toward the span's queue
            # phase; the device bills its own busy window via req.obs
            sc.add_kqueue(sw_ns + self.cost.blk_dispatch_ns + self.cost.blk_complete_ns)
            req.obs = sc
        self.inflight_bytes[hctx] += size
        self.submitted += 1
        try:
            yield self.device.submit(req)
        finally:
            self.inflight_bytes[hctx] -= size
        yield self.env.timeout(self.cost.blk_complete_ns)
        return req

    # -- plugging (batched submission) ---------------------------------
    def merge_bios(self, bios, plug_max: int | None = None) -> list[dict]:
        """Elevator front/back merge of a plug list.

        ``bios`` is a sequence of ``(op, offset, size, data|None)``.
        Returns runs as ``{"op", "start", "end", "idx"}`` dicts where
        ``idx`` lists the constituent bio indices in offset order.
        ``plug_max`` caps bios per run (None = unbounded).
        """
        runs: list[dict] = []
        for i, (op, off, size, _data) in enumerate(bios):
            merged = False
            for r in runs:
                if r["op"] is not op or (plug_max is not None and len(r["idx"]) >= plug_max):
                    continue
                if off == r["end"]:
                    r["idx"].append(i)
                    r["end"] += size
                    merged = True
                    break
                if off + size == r["start"]:
                    r["idx"].insert(0, i)
                    r["start"] = off
                    merged = True
                    break
            if not merged:
                runs.append({"op": op, "start": off, "end": off + size, "idx": [i]})
        return runs

    def submit_batch_bio(self, bios, origin_core: int = 0, plug_max: int | None = None):
        """Process generator: plug-style batched submission.

        Merges ``bios`` (``(op, offset, size, data|None)`` tuples) into
        contiguous runs; each run pays the alloc + scheduler + dispatch
        bookkeeping once and is submitted as one merged request.  Software
        costs serialize (one CPU builds the requests); the device waits
        overlap.  Returns the completed per-run :class:`BlockRequest`\\ s
        in dispatch order.
        """
        t = self.env.tracer
        sc = t.obs_span if t.obs else None
        runs = self.merge_bios(bios, plug_max)
        pending: list[tuple[BlockRequest, object]] = []
        try:
            for r in runs:
                sw_ns = self.cost.blk_alloc_ns + self.scheduler.cost_ns(self.cost)
                yield self.env.timeout(sw_ns)
                size = r["end"] - r["start"]
                hctx = self.scheduler.select_hctx(self, size, origin_core)
                yield self.env.timeout(self.cost.blk_dispatch_ns)
                data = None
                if r["op"] is IoOp.WRITE:
                    data = b"".join(bios[i][3] for i in r["idx"])
                req = BlockRequest(op=r["op"], offset=r["start"], size=size,
                                   data=data, hctx=hctx)
                if sc is not None:
                    sc.add_kqueue(sw_ns + self.cost.blk_dispatch_ns
                                  + self.cost.blk_complete_ns)
                    req.obs = sc
                self.inflight_bytes[hctx] += size
                self.submitted += 1
                self.merged_bios += len(r["idx"]) - 1
                pending.append((req, self.device.submit(req)))
            for _req, done in pending:
                yield done
        finally:
            for req, _done in pending:
                self.inflight_bytes[req.hctx] -= req.size
        yield self.env.timeout(self.cost.blk_complete_ns * len(runs))
        return [req for req, _done in pending]
