"""The LabMod: LabStor's unit of I/O functionality.

A LabMod is a single-purpose, self-contained code object with four
elements (Section III-A):

- **type** — the API set it implements (``mod_type`` + ``accepts``).
- **operation** — :meth:`handle`, a process generator taking a request
  and an :class:`ExecContext`, producing output requests for the next
  LabMods in the stack.
- **state** — instance attributes, transferable across live upgrades via
  :meth:`state_update` and repairable after a Runtime crash via
  :meth:`state_repair`.
- **connector** — client-side glue that builds :class:`LabRequest`s;
  provided by Generic LabMods (see :mod:`repro.mods.generic_fs`).

Stackability: at mount time the LabStack wires ``self.next`` to the
downstream LabMod instances of the DAG.  ``forward`` passes a request on,
charging the inter-LabMod hop cost.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Optional

from ..errors import LabStorError
from ..kernel.cpu import CostModel
from ..sim import Environment, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from .requests import LabRequest

__all__ = ["LabMod", "ExecContext", "ModContext"]


class ModContext:
    """Everything a LabMod instance may touch: env, costs, devices, tracing."""

    def __init__(
        self,
        env: Environment,
        cost: CostModel,
        tracer: Tracer | None = None,
        devices: dict[str, Any] | None = None,
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.env = env
        self.cost = cost
        self.tracer = tracer or Tracer()
        self.devices = devices or {}
        self.attrs = attrs or {}

    def device(self, uuid: str):
        """The device named by the ``device`` attr, or the only device."""
        name = self.attrs.get("device")
        if name is None:
            if len(self.devices) != 1:
                raise LabStorError(f"{uuid}: 'device' attr required with multiple devices")
            name = next(iter(self.devices))
        try:
            return self.devices[name]
        except KeyError:
            raise LabStorError(f"{uuid}: unknown device {name!r}") from None


class ExecContext:
    """Per-request execution context.

    ``work(ns, span)`` charges CPU — occupying the executing worker's core
    when the stack runs inside the Runtime, or just elapsing time when the
    stack executes synchronously in the client.  ``wait(event, span)``
    parks the request on an event (e.g. device completion) *without*
    holding the core, which is how a LabStor worker keeps processing other
    requests while I/O is in flight.
    """

    __slots__ = ("env", "tracer", "core", "worker_id", "sc")

    def __init__(self, env: Environment, tracer: Tracer, core_resource=None,
                 worker_id: int | None = None) -> None:
        self.env = env
        self.tracer = tracer
        self.core = core_resource  # sim Resource of the worker core, or None
        self.worker_id = worker_id  # shard key for per-worker structures
        #: telemetry span of the request being executed (set by the worker
        #: or the sync-execution path only when telemetry is armed).  Rides
        #: the ExecContext rather than the request because LabMods spawn
        #: sub-requests (LabFS block I/O, cache write-back) that must bill
        #: into the originating request's span.
        self.sc = None

    def work(self, ns: int, span: str | None = None):
        """Process generator: consume ``ns`` of CPU."""
        env = self.env
        start = env._now
        core = self.core
        if core is not None:
            # Open-coded version of `with core.request() as grant`: the
            # try/finally covers both yields, so an Interrupt thrown while
            # waiting for the grant still releases (= cancels) the claim.
            grant = core.request()
            try:
                yield grant
                yield env.timeout(ns)
            finally:
                core.release(grant)
        else:
            yield env.timeout(ns)
        if span:
            now = env._now
            if env._trace:
                self.tracer.emit(now, "span", name=span, dur_ns=now - start)
            sc = self.sc
            if sc is not None:
                sc.add_cat(span, now - start)

    def wait(self, event, span: str | None = None):
        """Process generator: wait off-core for ``event``."""
        env = self.env
        start = env._now
        value = yield event
        if span:
            now = env._now
            if env._trace:
                self.tracer.emit(now, "span", name=span, dur_ns=now - start)
            sc = self.sc
            if sc is not None:
                sc.add_cat(span, now - start)
                if span == "device_io":
                    sc.add_device_window(start, now)
        return value


class LabMod(abc.ABC):
    """Base class for all LabMods."""

    #: the API type this LabMod implements ("filesystem", "kvs", "cache",
    #: "sched", "driver", "permissions", "compression", "generic", ...)
    mod_type: str = "generic"
    #: request-kind prefixes this LabMod accepts ("fs.", "kvs.", "blk.", "*")
    accepts: tuple[str, ...] = ("*",)
    #: request-kind prefixes it emits downstream (() for terminal mods)
    emits: tuple[str, ...] = ()

    def __init__(self, uuid: str, ctx: ModContext) -> None:
        self.uuid = uuid
        self.ctx = ctx
        self.version = 1
        self.next: list["LabMod"] = []   # wired by the LabStack at mount
        self.processed = 0

    # ------------------------------------------------------------------
    # the operation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def handle(self, req: "LabRequest", x: ExecContext):
        """Process generator implementing the LabMod operation."""

    def forward(self, req: "LabRequest", x: ExecContext, fanout: int | None = None):
        """Pass ``req`` to downstream LabMods (charging the hop cost)."""
        targets = self.next if fanout is None else self.next[:fanout]
        result = None
        sc = x.sc
        for nxt in targets:
            yield from x.work(self.ctx.cost.labmod_hop_ns)
            if sc is not None:
                frame = sc.enter_mod(nxt.uuid, type(nxt).__name__, x.env.now)
                try:
                    result = yield from nxt.handle(req, x)
                finally:
                    sc.exit_mod(frame, x.env.now)
            else:
                result = yield from nxt.handle(req, x)
        return result

    # ------------------------------------------------------------------
    # upgrade / recovery / monitoring APIs (Section III-A)
    # ------------------------------------------------------------------
    def state_update(self, old: "LabMod") -> None:
        """Copy state from the previous version (live upgrade).

        The default transfers nothing beyond counters; stateful LabMods
        override this (e.g. LabFS moves its allocator, log and inode map).
        """
        self.processed = old.processed
        self.version = old.version + 1

    def on_crash(self) -> None:
        """The Runtime just died: drop volatile (in-memory) state.

        Durable structures — metadata logs, allocators, device contents —
        must survive; :meth:`state_repair` rebuilds the volatile side from
        them at restart.  Default: stateless, nothing to lose.
        """

    def state_repair(self) -> None:
        """Repair state after a Runtime crash (default: nothing to do)."""

    def on_snapshot(self) -> dict:
        """Export durable state as plain picklable data (no env refs).

        Mirrors :meth:`on_crash`: what survives a power cut is exactly
        what belongs in a snapshot.  Stateful LabMods override this to
        export metadata logs / allocators; the default captures only the
        generic counters.
        """
        return {"processed": self.processed, "version": self.version}

    def on_restore(self, state: dict) -> None:
        """Install state captured by :meth:`on_snapshot` into this
        (freshly built) LabMod, rebuilding volatile structures the same
        way :meth:`state_repair` does after a crash."""
        self.processed = state.get("processed", 0)
        self.version = state.get("version", self.version)

    def est_processing_time(self, req: "LabRequest") -> int:
        """EstProcessingTime: expected CPU ns to process ``req``."""
        return 1000

    def est_total_time(self, req: "LabRequest") -> int:
        """EstTotalTime: expected end-to-end ns including device time."""
        return self.est_processing_time(req)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"<{type(self).__name__} uuid={self.uuid!r} v{self.version}>"


def check_edge_compat(upstream: LabMod, downstream: LabMod) -> bool:
    """An edge is valid if something the upstream emits is accepted below."""
    if not upstream.emits:
        return False
    return any(
        p == "*" or any(e.startswith(p) or p.startswith(e) for e in upstream.emits)
        for p in downstream.accepts
    )
