"""No-Op I/O scheduler LabMod.

Keys a request to a hardware queue of its device based on the core
(here: client pid) it originated from, then forwards — exactly the "only
keys a request to a hardware queue" behaviour the paper prices at ~5% of
a 4KB write, and the same :func:`repro.policy.noop_hctx` the kernel
block layer's ``"noop"`` elevator runs.
"""

from __future__ import annotations

from ..core.labmod import ExecContext, LabMod, ModContext
from ..policy import noop_hctx

__all__ = ["NoOpSchedMod"]


class NoOpSchedMod(LabMod):
    mod_type = "sched"
    accepts = ("blk.",)
    emits = ("blk.",)

    def __init__(self, uuid: str, ctx: ModContext) -> None:
        super().__init__(uuid, ctx)
        self.device = ctx.device(uuid)

    def handle(self, req, x: ExecContext):
        yield from x.work(self.ctx.cost.noop_sched_ns, span="sched")
        origin = req.payload.get("origin_core")
        if origin is None:
            origin = req.client_pid or 0
        req.payload["hctx"] = noop_hctx(origin, self.device.nqueues)
        self.processed += 1
        return (yield from self.forward(req, x))

    def est_processing_time(self, req) -> int:
        return self.ctx.cost.noop_sched_ns
