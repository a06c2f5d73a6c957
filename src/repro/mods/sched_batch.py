"""Batching I/O scheduler LabMod: elevator-style front/back merging.

Models blk-mq plugging inside a LabStor stack: a read/write that opens a
new extent lingers for a short window (``window_ns``, re-armed while the
group keeps growing) so contiguous same-direction requests arriving
behind it can merge.  The merged run goes downstream as **one** request
whose payload carries the constituent extents in ``parts``; the kernel
driver submits the parts back-to-back (where the device's coalescing
window fuses them into a single command) and returns per-part outcomes,
which this LabMod distributes back to the parked constituents.

Crucially, merging never weakens per-op semantics:

- every constituent gets its own result/error — a fault injected into one
  part of a merged run fails only that op;
- every constituent's telemetry span receives the device window of the
  merged command (overlap-merged, so nothing double-counts);
- the sanitizer's ``san.batch`` record audits that a group of N delivers
  exactly N outcomes, each exactly once.

Open merge groups are volatile state: a Runtime crash drops them (the
in-flight requests complete with WorkerCrashed like any other).
"""

from __future__ import annotations

from ..core.labmod import ExecContext, LabMod, ModContext
from ..core.requests import LabRequest
from ..policy import Extent, noop_hctx

__all__ = ["BatchSchedMod"]


class _MergeGroup(Extent):
    """An open run of contiguous same-direction requests being merged."""

    __slots__ = ("op", "hctx", "members", "done",
                 "outcomes", "taken", "open", "delivered", "double")

    def __init__(self, env, op: str, hctx: int, req, offset: int, size: int) -> None:
        super().__init__(offset, size)
        self.op = op
        self.hctx = hctx
        self.members: list[tuple] = [(req, offset, size)]
        self.done = env.event()
        self.outcomes: list | None = None  # per-member (value, error, window)
        self.taken: list[bool] | None = None
        self.open = True
        self.delivered = 0
        self.double = 0

    def settle(self, outcomes: list) -> None:
        """Record per-member outcomes and wake the parked members."""
        self.outcomes = outcomes
        self.taken = [False] * len(outcomes)
        if not self.done.triggered:
            self.done.succeed()

    def take(self, idx: int) -> tuple:
        if self.taken[idx]:
            self.double += 1  # double-delivery: the sanitizer flags this
        else:
            self.taken[idx] = True
            self.delivered += 1
        return self.outcomes[idx]


class BatchSchedMod(LabMod):
    """Front/back-merging scheduler (attrs: device, window_ns, batch_max)."""

    mod_type = "sched"
    accepts = ("blk.",)
    emits = ("blk.",)

    def __init__(self, uuid: str, ctx: ModContext) -> None:
        super().__init__(uuid, ctx)
        self.device = ctx.device(uuid)
        #: linger per growth round; re-armed while the group keeps growing
        self.window_ns = int(ctx.attrs.get("window_ns", 10_000))
        self.batch_max = int(ctx.attrs.get("batch_max", 16))
        self._groups: list[_MergeGroup] = []
        self.merged_groups = 0  # runs of >= 2 forwarded as one request
        self.merged_ops = 0     # constituents inside those runs

    def handle(self, req, x: ExecContext):
        yield from x.work(self.ctx.cost.noop_sched_ns, span="sched")
        origin = req.payload.get("origin_core")
        if origin is None:
            origin = req.client_pid or 0
        hctx = noop_hctx(origin, self.device.nqueues)
        req.payload["hctx"] = hctx
        self.processed += 1
        data = req.payload.get("data")
        mergeable = (
            self.batch_max > 1 and self.window_ns > 0
            and (req.op == "blk.read" or (req.op == "blk.write" and data is not None))
        )
        if not mergeable:
            return (yield from self.forward(req, x))
        offset = req.payload["offset"]
        size = req.payload.get("size", len(data or b""))
        for g in self._groups:
            if (g.open and g.op == req.op and g.hctx == hctx
                    and len(g.members) < self.batch_max and g.merge(offset, size)):
                g.members.append((req, offset, size))
                return (yield from self._await_member(g, len(g.members) - 1, x))
        g = _MergeGroup(self.ctx.env, req.op, hctx, req, offset, size)
        self._groups.append(g)
        return (yield from self._lead(g, req, x))

    # ------------------------------------------------------------------
    def _await_member(self, g: _MergeGroup, idx: int, x: ExecContext):
        """A joiner parks until the group's merged command settles."""
        yield from x.wait(g.done, span="batch")
        return self._deliver(g, idx, x)

    def _lead(self, g: _MergeGroup, req, x: ExecContext):
        env = self.ctx.env
        try:
            # plug window: linger while the group keeps growing so trailing
            # batch-mates (staggered by their upstream CPU) can still merge
            seen = len(g.members)
            while True:
                yield from x.wait(env.timeout(self.window_ns), span="batch")
                if len(g.members) == seen or len(g.members) >= self.batch_max:
                    break
                seen = len(g.members)
        finally:
            g.open = False
            if g in self._groups:
                self._groups.remove(g)
        if len(g.members) == 1:
            try:
                result = yield from self.forward(req, x)
            except BaseException as exc:
                g.settle([(None, exc, None)])
                raise
            g.settle([(result, None, None)])
            return self._deliver(g, 0, x)
        self.merged_groups += 1
        self.merged_ops += len(g.members)
        # offset order: the merged extent tiles exactly (front/back joins
        # only ever extend the run by the joiner's full size)
        order = sorted(range(len(g.members)), key=lambda i: g.members[i][1])
        parts = [(g.members[i][1], g.members[i][2]) for i in order]
        payload = {"offset": g.start, "size": g.end - g.start,
                   "hctx": g.hctx, "parts": parts}
        if req.op == "blk.write":
            payload["data"] = b"".join(g.members[i][0].payload["data"] for i in order)
        mreq = LabRequest(op=req.op, payload=payload, stack_id=req.stack_id,
                          client_pid=req.client_pid)
        try:
            returned = yield from self.forward(mreq, x)
        except BaseException as exc:
            # whole-command failure below the merge: every constituent
            # observes it (nothing reached the per-part stage)
            g.settle([(None, exc, None)] * len(g.members))
            raise
        by_part = self._per_part_outcomes(returned, parts, mreq.op)
        by_member: list = [None] * len(g.members)
        for part_idx, member_idx in enumerate(order):
            by_member[member_idx] = by_part[part_idx]
        g.settle(by_member)
        return self._deliver(g, 0, x)

    @staticmethod
    def _per_part_outcomes(returned, parts: list, op: str) -> list:
        """Normalize the downstream return into per-part (value, error, window).

        The kernel driver's parts path returns per-part tuples; a driver
        that serviced the merged command as one unit (SPDK, blk path)
        returns a single result, which is sliced back per part.
        """
        if (isinstance(returned, list) and len(returned) == len(parts)
                and all(isinstance(o, tuple) and len(o) == 4 for o in returned)):
            return [
                (value, error, (t0, t1) if error is None else None)
                for value, error, t0, t1 in returned
            ]
        if op == "blk.read" and isinstance(returned, (bytes, bytearray)):
            base = parts[0][0]
            return [(bytes(returned[off - base:off - base + size]), None, None)
                    for off, size in parts]
        return [(returned, None, None)] * len(parts)

    def _deliver(self, g: _MergeGroup, idx: int, x: ExecContext):
        value, error, window = g.take(idx)
        if window is not None and x.sc is not None:
            # bill the merged command's device window into this
            # constituent's span (overlap-merged: no double count)
            x.sc.add_device_window(*window)
        t = self.ctx.env.tracer
        if t.audit and g.delivered == len(g.members):
            t.emit(self.ctx.env.now, "san.batch", source=type(self).__name__,
                   ops=len(g.members), delivered=g.delivered, double=g.double)
        if error is not None:
            raise error
        return value

    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Open merge groups are volatile: drop them on a Runtime crash."""
        self._groups.clear()

    def state_update(self, old: "LabMod") -> None:
        super().state_update(old)
        self.merged_groups = getattr(old, "merged_groups", 0)
        self.merged_ops = getattr(old, "merged_ops", 0)

    def est_processing_time(self, req) -> int:
        return self.ctx.cost.noop_sched_ns + self.ctx.cost.batch_op_ns
