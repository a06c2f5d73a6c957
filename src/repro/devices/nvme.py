"""NVMe SSD model: multiple hardware queues, deep internal parallelism."""

from __future__ import annotations

import numpy as np

from ..errors import DeviceError
from ..sim import Environment, Event
from .base import BlockDevice, BlockRequest, DeviceProfile

__all__ = []


class Nvme(BlockDevice):
    """An NVMe SSD exposing per-core submission/completion queue pairs.

    The multi-hctx layout is what both the Linux blk-mq path and LabStor's
    Kernel Driver / SPDK LabMods exploit: requests on different hctxs never
    block each other, while requests within one hctx are FIFO (the source
    of head-of-line blocking when a scheduler maps a latency-sensitive app
    onto the same hctx as a throughput app — Fig 8).
    """

    def __init__(
        self,
        env: Environment,
        profile: DeviceProfile,
        rng: np.random.Generator | None = None,
    ) -> None:
        if profile.nqueues < 1:
            raise DeviceError("NVMe model requires >= 1 hardware queue", device=profile.name)
        super().__init__(env, profile, rng)
        # Per-hctx completion rings for poll-mode consumers (SPDK-style).
        self._cq_rings: list[list[BlockRequest]] = [[] for _ in range(profile.nqueues)]
        self._cq_waiters: list[list[Event]] = [[] for _ in range(profile.nqueues)]

    def _on_complete(self, req: BlockRequest, qidx: int) -> None:
        self._cq_rings[qidx].append(req)
        waiters, self._cq_waiters[qidx] = self._cq_waiters[qidx], []
        for ev in waiters:
            ev.succeed()

    # -- poll-mode completion interface (used by SPDK / Kernel Driver mods) --
    def poll_completions(self, hctx: int, max_events: int | None = None) -> list[BlockRequest]:
        """Drain completed requests from an hctx's completion ring."""
        ring = self._cq_rings[hctx]
        if max_events is None or max_events >= len(ring):
            drained, self._cq_rings[hctx] = ring, []
            return drained
        drained, self._cq_rings[hctx] = ring[:max_events], ring[max_events:]
        return drained

    def cq_event(self, hctx: int) -> Event:
        """Event that fires when the hctx completion ring becomes non-empty."""
        ev = self.env.event()
        if self._cq_rings[hctx]:
            ev.succeed()
        else:
            self._cq_waiters[hctx].append(ev)
        return ev
