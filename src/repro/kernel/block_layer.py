"""Linux block layer model (blk-mq) with a choice of in-kernel elevator.

The block layer charges the request-allocation / scheduling / dispatch /
completion bookkeeping costs that LabStor's Kernel Driver LabMod bypasses
(the paper's Fig 6 storage-API comparison), and exposes the same
hctx-selection seam the Fig 8 scheduler experiment customizes — with the
scheduler LabMods' own policy functions, so only the path length differs.

``submit_batch_bio`` models blk-mq plugging: a plug list of bios is
elevator-merged (front/back contiguity) into runs, each run pays the
alloc/sched/dispatch bookkeeping once and goes to the device as a single
large request.  Kernel semantics apply — an error fails the whole merged
request (bio granularity); per-constituent fault isolation is the
LabStor-path property (see mods.sched_batch).
"""

from __future__ import annotations

from ..devices.base import BlockDevice, BlockRequest, IoOp
from ..errors import KernelError
from ..policy import Extent, blkswitch_hctx, noop_hctx
from ..sim import Environment
from .cpu import DEFAULT_COST, CostModel

__all__ = ["BlockLayer"]


class BlockLayer:
    """blk-mq front end over one device.

    ``scheduler`` names the elevator that picks each bio's hctx:
    ``"noop"`` (Linux none/noop) or ``"blk-switch"`` [20] — the
    :mod:`repro.policy` functions the scheduler LabMods run too.  Swap it
    by assignment (the ``echo > /sys/block/.../scheduler`` equivalent).
    """

    def __init__(
        self,
        env: Environment,
        device: BlockDevice,
        cost: CostModel = DEFAULT_COST,
        scheduler: str = "noop",
    ) -> None:
        self.env = env
        self.device = device
        self.cost = cost
        self.scheduler = scheduler
        self.inflight_bytes = [0] * device.nqueues
        self.submitted = 0
        self.merged_bios = 0  # bios absorbed into another run's request

    def _load(self, q: int) -> int:
        return self.inflight_bytes[q] + self.device.queue_depth(q)

    def steer(self, size: int, origin_core: int) -> int:
        """The elevator's hctx for a ``size``-byte bio from ``origin_core``."""
        if self.scheduler == "noop":
            return noop_hctx(origin_core, self.device.nqueues)
        if self.scheduler == "blk-switch":
            return blkswitch_hctx(size, self.device.nqueues, self._load)
        raise KernelError(f"unknown block-layer scheduler {self.scheduler!r}")

    def _sched_ns(self) -> int:
        # blk-switch's lane classification + load inspection costs more
        # than noop's modulo: the same premium the LabMod port pays
        if self.scheduler == "blk-switch":
            return self.cost.blk_sched_ns + self.cost.blkswitch_extra_ns
        return self.cost.blk_sched_ns

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
            sched_ns = self._sched_ns()
            sw_ns += sched_ns
            yield self.env.timeout(sched_ns)
            hctx = self.steer(size, origin_core)
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
    @staticmethod
    def merge_bios(bios) -> list[tuple[IoOp, Extent, list[int]]]:
        """Elevator front/back merge of a plug list.

        ``bios`` is a sequence of ``(op, offset, size, data|None)``.
        Returns runs as ``(op, extent, idx)`` where ``idx`` lists the
        constituent bio indices in offset order.
        """
        runs: list[tuple[IoOp, Extent, list[int]]] = []
        for i, (op, off, size, _data) in enumerate(bios):
            for r_op, ext, idx in runs:
                if r_op is op and (side := ext.merge(off, size)):
                    if side > 0:
                        idx.append(i)
                    else:
                        idx.insert(0, i)
                    break
            else:
                runs.append((op, Extent(off, size), [i]))
        return runs

    def submit_batch_bio(self, bios, origin_core: int = 0):
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
        runs = self.merge_bios(bios)
        pending: list[tuple[BlockRequest, object]] = []
        try:
            for op, ext, idx in runs:
                sw_ns = self.cost.blk_alloc_ns + self._sched_ns()
                yield self.env.timeout(sw_ns)
                size = ext.end - ext.start
                hctx = self.steer(size, origin_core)
                yield self.env.timeout(self.cost.blk_dispatch_ns)
                data = None
                if op is IoOp.WRITE:
                    data = b"".join(bios[i][3] for i in idx)
                req = BlockRequest(op=op, offset=ext.start, size=size,
                                   data=data, hctx=hctx)
                if sc is not None:
                    sc.add_kqueue(sw_ns + self.cost.blk_dispatch_ns
                                  + self.cost.blk_complete_ns)
                    req.obs = sc
                self.inflight_bytes[hctx] += size
                self.submitted += 1
                self.merged_bios += len(idx) - 1
                pending.append((req, self.device.submit(req)))
            for _req, done in pending:
                yield done
        finally:
            for req, _done in pending:
                self.inflight_bytes[req.hctx] -= req.size
        yield self.env.timeout(self.cost.blk_complete_ns * len(runs))
        return [req for req, _done in pending]
