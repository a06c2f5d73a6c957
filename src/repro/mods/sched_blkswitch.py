"""blk-switch I/O scheduler LabMod.

The userspace port of blk-switch [20] the paper integrates in Fig 8:
requests are classified into latency (small) and throughput (large)
classes; the latency class gets dedicated hardware queues the
throughput class never touches, with least-loaded steering inside each
lane (:func:`repro.policy.blkswitch_hctx`, the policy the kernel block
layer's ``"blk-switch"`` elevator runs too).  This prevents
latency-sensitive requests from queueing behind a throughput app's large
writes (head-of-line blocking).
"""

from __future__ import annotations

from ..core.labmod import ExecContext, LabMod, ModContext
from ..policy import blkswitch_hctx

__all__ = ["BlkSwitchSchedMod"]


class BlkSwitchSchedMod(LabMod):
    mod_type = "sched"
    accepts = ("blk.",)
    emits = ("blk.",)

    def __init__(self, uuid: str, ctx: ModContext) -> None:
        super().__init__(uuid, ctx)
        self.device = ctx.device(uuid)
        # bytes outstanding per hctx, maintained by this scheduler instance
        self.inflight_bytes = [0] * self.device.nqueues

    def _load(self, q: int) -> int:
        return self.inflight_bytes[q] + self.device.queue_depth(q)

    def handle(self, req, x: ExecContext):
        yield from x.work(self.est_processing_time(req), span="sched")
        size = req.payload.get("size", len(req.payload.get("data", b"")))
        hctx = blkswitch_hctx(size, self.device.nqueues, self._load)
        req.payload["hctx"] = hctx
        self.inflight_bytes[hctx] += size
        self.processed += 1
        try:
            return (yield from self.forward(req, x))
        finally:
            self.inflight_bytes[hctx] -= size

    def est_processing_time(self, req) -> int:
        # noop's keying plus the lane classification and load inspection
        return self.ctx.cost.noop_sched_ns + self.ctx.cost.blkswitch_extra_ns

    def state_update(self, old: "LabMod") -> None:
        super().state_update(old)
        if isinstance(old, BlkSwitchSchedMod) and len(old.inflight_bytes) == len(self.inflight_bytes):
            self.inflight_bytes = list(old.inflight_bytes)
