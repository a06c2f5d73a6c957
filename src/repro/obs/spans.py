"""Per-request span contexts: the unit of record of ``repro.obs``.

A :class:`SpanContext` rides a request end to end and collects virtual-time
stamps at every hop of its life cycle:

- ``submit_ns``     client ``call()``/``submit_batch()`` issued the request
- ``doorbell_ns``   the batch doorbell rang (equals ``submit_ns`` unbatched)
- ``accept_ns``     the submission queue accepted the entry
- ``pop_ns``        a Runtime worker popped the entry and began service
- ``complete_ns``   the worker finished the stack DAG (completion posted)
- ``reap_ns``       the client reaped the completion from the CQ

From the stamps the span derives the paper's Fig 4 *anatomy* phases::

    batch      = doorbell_ns - submit_ns        (SQE build before the doorbell)
    submit     = accept_ns - doorbell_ns        (SQ acceptance)
    queue      = pop_ns - accept_ns + kqueue_ns (SQ wait + kernel blk layer)
    device     = union of device-wait windows   (clipped to the service window)
    module     = service - kqueue - device      (CPU inside the LabMod DAG)
    completion = reap_ns - complete_ns          (CQ wait + completion hop)

The residual definition of ``module`` guarantees the six phases sum to
``reap_ns - submit_ns`` *exactly* (integer nanoseconds, no drift) — the
invariant the telemetry tests pin down.  ``batch`` is zero for requests
submitted one at a time: ``Client.call()`` never stamps a doorbell, and
``close()`` backfills ``doorbell_ns = submit_ns``.

Device time is recorded as ``(start, end)`` windows rather than a running
sum so concurrent sub-I/Os inside one request (parallel write-back
extents, fan-out reads) are overlap-merged instead of double-counted.

Beyond the phases a span carries:

- ``cats``  — per-category CPU totals fed by ``ExecContext.work/wait``
  (the legacy Fig 4(a) span names: ``device_io``, ``cache``, ``ipc``, ...);
- ``mods``  — per-LabMod-instance service frames (inclusive / exclusive /
  device time per node), maintained by ``LabMod.forward``.

Synchronous executions (Lab-D, kernel baselines) have no queues: they
stamp ``mark_dispatched`` which collapses accept/pop onto the entry point,
so submit covers syscall/VFS entry and queue/completion become 0.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

__all__ = ["SpanContext", "PHASES"]

#: the Fig 4 anatomy phases, in request-lifecycle order
PHASES = ("batch", "submit", "queue", "module", "device", "completion")

_span_ids = itertools.count(1)

# mod-frame list indices (a frame is a plain list for per-hop cheapness)
_F_UUID, _F_MOD, _F_START, _F_CHILD, _F_DEVICE = range(5)


class SpanContext:
    """Mutable per-request telemetry record (one allocation per request)."""

    __slots__ = (
        "req_id", "op", "kind", "stack_id", "sync",
        "submit_ns", "doorbell_ns", "accept_ns", "pop_ns", "complete_ns", "reap_ns",
        "kqueue_ns", "device_ns", "cats", "mods", "closed",
        "_windows", "_frames",
    )

    def __init__(
        self,
        *,
        op: str,
        now: int,
        req_id: Optional[int] = None,
        kind: str = "lab",
        stack_id: Optional[int] = None,
        sync: bool = False,
    ) -> None:
        self.req_id = req_id if req_id is not None else next(_span_ids)
        self.op = op
        self.kind = kind                    # "lab" | "kernel"
        self.stack_id = stack_id
        self.sync = sync
        self.submit_ns = now
        self.doorbell_ns = -1
        self.accept_ns = -1
        self.pop_ns = -1
        self.complete_ns = -1
        self.reap_ns = -1
        self.kqueue_ns = 0                  # kernel block-layer software time
        self.device_ns = 0                  # merged device windows (set at close)
        self.cats: dict[str, int] = {}      # legacy span-name -> total ns
        self.mods: dict[str, dict[str, Any]] = {}
        self.closed = False
        self._windows: list[tuple[int, int]] = []
        self._frames: list[list] = []

    # -- life-cycle stamps ------------------------------------------------
    def mark_doorbell(self, now: int) -> None:
        """Batched submission rang the doorbell for this entry's batch."""
        self.doorbell_ns = now

    def mark_accept(self, now: int) -> None:
        self.accept_ns = now

    def mark_pop(self, now: int) -> None:
        self.pop_ns = now

    def mark_dispatched(self, now: int) -> None:
        """Queueless execution (sync stacks, kernel syscalls): the request
        enters service the moment its entry bookkeeping is done."""
        self.accept_ns = now
        self.pop_ns = now

    def mark_complete(self, now: int) -> None:
        self.complete_ns = now

    # -- accumulation (called from the hot path; all guarded by `closed`
    #    so stale background work cannot smear a finished record) ---------
    def add_cat(self, name: str, dur_ns: int) -> None:
        if not self.closed:
            self.cats[name] = self.cats.get(name, 0) + dur_ns

    def add_device_window(self, start_ns: int, end_ns: int) -> None:
        if self.closed or end_ns <= start_ns:
            return
        self._windows.append((start_ns, end_ns))
        if self._frames:
            self._frames[-1][_F_DEVICE] += end_ns - start_ns

    def add_kqueue(self, dur_ns: int) -> None:
        if not self.closed:
            self.kqueue_ns += dur_ns

    # -- per-LabMod service frames ---------------------------------------
    def enter_mod(self, uuid: str, mod_name: str, now: int) -> list:
        frame = [uuid, mod_name, now, 0, 0]
        self._frames.append(frame)
        return frame

    def exit_mod(self, frame: list, now: int) -> None:
        frames = self._frames
        if frames and frames[-1] is frame:
            # the overwhelmingly common case: exits nest LIFO
            frames.pop()
        else:
            try:
                frames.remove(frame)
            except ValueError:
                return  # frame already retired (defensive: unmatched exit)
        total = now - frame[_F_START]
        if self._frames:
            self._frames[-1][_F_CHILD] += total
        rec = self.mods.get(frame[_F_UUID])
        if rec is None:
            rec = self.mods[frame[_F_UUID]] = {
                "mod": frame[_F_MOD], "count": 0,
                "inclusive_ns": 0, "exclusive_ns": 0, "device_ns": 0,
            }
        rec["count"] += 1
        rec["inclusive_ns"] += total
        rec["device_ns"] += frame[_F_DEVICE]
        rec["exclusive_ns"] += max(0, total - frame[_F_CHILD] - frame[_F_DEVICE])

    # -- finalization -----------------------------------------------------
    def close(self, now: int) -> None:
        """Stamp ``reap_ns``, backfill missing stamps, merge device windows."""
        if self.closed:
            return
        self.reap_ns = now
        # Defensive backfill for abnormal terminations (errors, crash paths):
        # a span must always produce a consistent, summable record.
        if self.accept_ns < 0:
            self.accept_ns = self.submit_ns
        # unbatched requests never ring a doorbell: collapse the batch phase
        # to zero; clamp so batch/submit stay non-negative either way
        if self.doorbell_ns < 0:
            self.doorbell_ns = self.submit_ns
        self.doorbell_ns = min(max(self.doorbell_ns, self.submit_ns), self.accept_ns)
        if self.pop_ns < 0:
            self.pop_ns = self.accept_ns
        if self.complete_ns < 0:
            self.complete_ns = now
        self.device_ns = self._merged_device_ns(self.pop_ns, self.complete_ns)
        # device + kernel-queue time both live inside the service window;
        # clamp so the module residual can never go negative
        service = self.complete_ns - self.pop_ns
        self.kqueue_ns = min(self.kqueue_ns, service)
        self.device_ns = min(self.device_ns, service - self.kqueue_ns)
        self.closed = True

    def _merged_device_ns(self, lo: int, hi: int) -> int:
        """Overlap-merged total of device windows clipped to [lo, hi]."""
        total = 0
        cur_start = cur_end = None
        for start, end in sorted(self._windows):
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            elif end > cur_end:
                cur_end = end
        if cur_end is not None:
            total += cur_end - cur_start
        return total

    # -- derived views ----------------------------------------------------
    @property
    def e2e_ns(self) -> int:
        if not self.closed:
            raise ValueError(f"span {self.req_id} ({self.op}) is still open")
        return self.reap_ns - self.submit_ns

    def phases(self) -> dict[str, int]:
        """The Fig 4 anatomy; components sum to ``e2e_ns`` exactly."""
        if not self.closed:
            raise ValueError(f"span {self.req_id} ({self.op}) is still open")
        service = self.complete_ns - self.pop_ns
        return {
            "batch": self.doorbell_ns - self.submit_ns,
            "submit": self.accept_ns - self.doorbell_ns,
            "queue": (self.pop_ns - self.accept_ns) + self.kqueue_ns,
            "module": service - self.kqueue_ns - self.device_ns,
            "device": self.device_ns,
            "completion": self.reap_ns - self.complete_ns,
        }

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<SpanContext #{self.req_id} {self.op} kind={self.kind} {state}>"
