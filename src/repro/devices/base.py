"""Block-device abstraction: request types and the generic service engine.

A :class:`BlockDevice` owns one or more hardware dispatch queues (hctx).
Submitters place a :class:`BlockRequest` on an hctx; per-hctx dispatch is
FIFO (this is what produces head-of-line blocking in the Fig 8 scheduler
experiment), while the device's internal parallelism lets several hctxs
be serviced concurrently.

Completion is signalled by succeeding ``req.done`` — interrupt vs polling
cost is charged by whichever *interface* consumed the completion (kernel
IRQ path vs userspace poller), not by the device itself.

Profiles with ``coalesce_max > 1`` enable a device-level coalescing
window: an hctx that pops a read/write drains queued requests that
front/back-extend the same extent (optionally lingering
``coalesce_window_ns`` for stragglers) and services the run as one
command — the fixed per-command latency is paid once while every
constituent still completes, faults, and traces individually.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from ..errors import DeviceError
from ..policy import Extent
from ..sim import Environment, Event, Resource, Store

__all__ = ["IoOp", "BlockRequest", "DeviceProfile", "BlockDevice"]

_req_ids = itertools.count(1)


class IoOp(enum.Enum):
    READ = "read"
    WRITE = "write"
    FLUSH = "flush"
    TRIM = "trim"


@dataclass
class BlockRequest:
    """One I/O against a device, carrying real data for writes."""

    op: IoOp
    offset: int
    size: int
    data: Optional[bytes] = None
    hctx: int = 0
    priority: int = 0
    tag: Any = None
    req_id: int = field(default_factory=lambda: next(_req_ids))
    submit_ns: int = -1
    complete_ns: int = -1
    done: Optional[Event] = None  # succeeded with the request itself
    #: telemetry span (repro.obs.SpanContext) of the syscall this bio
    #: serves; set by the kernel block layer only when telemetry is armed
    obs: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.op is IoOp.WRITE:
            if self.data is None:
                raise DeviceError("WRITE requires data")
            if len(self.data) != self.size:
                raise DeviceError(f"WRITE size {self.size} != len(data) {len(self.data)}")

    @property
    def latency_ns(self) -> int:
        if self.complete_ns < 0:
            raise DeviceError("request not completed")
        return self.complete_ns - self.submit_ns

    result: Optional[bytes] = None  # filled for READ


@dataclass(frozen=True)
class DeviceProfile:
    """Latency/bandwidth parameterization of a device model.

    ``*_lat_ns``: fixed per-command service latency (media + controller).
    ``*_bw``: streaming bandwidth in bytes/second.
    ``jitter``: lognormal sigma applied to service time (0 = deterministic).
    """

    name: str
    capacity_bytes: int
    nqueues: int = 1
    parallelism: int = 1
    read_lat_ns: int = 0
    write_lat_ns: int = 0
    read_bw: float = 1e9
    write_bw: float = 1e9
    flush_lat_ns: int = 0
    seek_ns: int = 0  # average seek+rotation penalty; >0 enables the HDD seek model
    jitter: float = 0.0
    # device-level request coalescing (off by default): an hctx fuses up to
    # coalesce_max contiguous same-direction requests into one command,
    # lingering coalesce_window_ns for stragglers before dispatching
    coalesce_max: int = 1
    coalesce_window_ns: int = 0

    def __post_init__(self) -> None:
        # memo for the deterministic (no-jitter) service-time computation;
        # workloads hammer a handful of (op, size) pairs, so the float math
        # and round() collapse to one dict hit.  Not a dataclass field:
        # it must stay out of eq/hash/repr for the frozen profile.
        object.__setattr__(self, "_svc_cache", {})

    def service_ns(
        self,
        op: IoOp,
        size: int,
        *,
        seek_frac: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> int:
        """Service time for one command. ``seek_frac`` scales the seek term
        (sequential access on an HDD pays almost none of it)."""
        jittered = self.jitter > 0.0 and rng is not None
        if not jittered:
            ns = self._svc_cache.get((op, size, seek_frac))
            if ns is not None:
                return ns
        if op is IoOp.READ:
            base = self.read_lat_ns + size / self.read_bw * 1e9
        elif op is IoOp.WRITE:
            base = self.write_lat_ns + size / self.write_bw * 1e9
        elif op is IoOp.FLUSH:
            base = self.flush_lat_ns
        else:  # TRIM
            base = max(self.read_lat_ns, self.write_lat_ns) // 4
        base += self.seek_ns * seek_frac
        if jittered:
            base *= float(rng.lognormal(mean=0.0, sigma=self.jitter))
        ns = max(1, round(base))
        if not jittered and len(self._svc_cache) < 4096:
            self._svc_cache[(op, size, seek_frac)] = ns
        return ns


class BlockDevice:
    """Generic device engine: per-hctx FIFO dispatch + bounded parallelism."""

    def __init__(
        self,
        env: Environment,
        profile: DeviceProfile,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.env = env
        self.profile = profile
        self.name = profile.name
        self.rng = rng
        self.store = self._make_store()
        self._channels = Resource(env, capacity=profile.parallelism)
        self._queues = [Store(env) for _ in range(profile.nqueues)]
        self._last_offset = 0  # for the seek model
        self.completed = 0
        self.errors = 0  # commands failed by injected faults
        self.bytes_read = 0
        self.bytes_written = 0
        self.coalesced_groups = 0  # merged commands issued by the window
        self.coalesced_ops = 0     # constituent requests inside them
        #: fault-injection decision point (repro.faults); None keeps the
        #: service loop on its zero-overhead fast path
        self.faults = None
        for qidx in range(profile.nqueues):
            env.process(self._dispatch_loop(qidx), name=f"{self.name}.hctx{qidx}",
                        daemon=True)

    def _make_store(self):
        from .backing import BackingStore

        return BackingStore(self.profile.capacity_bytes)

    # -- submission API ---------------------------------------------------
    @property
    def nqueues(self) -> int:
        return self.profile.nqueues

    def queue_depth(self, hctx: int) -> int:
        """Requests currently waiting (not yet in service) on an hctx."""
        return len(self._queues[hctx])

    def submit(self, req: BlockRequest) -> Event:
        """Queue a request on its hctx; returns the completion event."""
        if not 0 <= req.hctx < self.profile.nqueues:
            raise DeviceError(f"bad hctx {req.hctx}", device=self.name)
        req.submit_ns = self.env._now
        req.done = self.env.event()
        self._queues[req.hctx].put(req)
        return req.done

    # -- engine -------------------------------------------------------------
    def _seek_frac(self, req: BlockRequest) -> float:
        """1.0 for a random jump, ~0 for sequential continuation."""
        if self.profile.seek_ns == 0:
            return 0.0
        distance = abs(req.offset - self._last_offset)
        if distance == 0:
            return 0.02  # settled head, same track
        # Scale: full-stroke ~ capacity; short strokes pay proportionally less,
        # floor of 25% for any non-sequential access (rotational latency).
        return min(1.0, 0.25 + 0.75 * distance / self.profile.capacity_bytes)

    def _dispatch_loop(self, qidx: int):
        """Pull requests off the hctx in FIFO order; each waits for one of
        the device's internal channels, then services concurrently."""
        queue = self._queues[qidx]
        cmax = self.profile.coalesce_max
        cwin = self.profile.coalesce_window_ns
        while True:
            req: BlockRequest = yield queue.get()
            if cmax > 1 and req.op in (IoOp.READ, IoOp.WRITE):
                group = [req]
                extent = Extent(req.offset, req.size)
                self._drain_contiguous(queue, group, extent)
                if len(group) < cmax and cwin > 0:
                    # linger briefly: back-to-back submitters (batched
                    # drivers) land their remaining parts inside the window
                    yield self.env.timeout(cwin)
                    self._drain_contiguous(queue, group, extent)
                if len(group) > 1:
                    self.coalesced_groups += 1
                    self.coalesced_ops += len(group)
                    slot = self._channels.request()
                    yield slot
                    self.env.process(self._service_group(group, slot, qidx))
                    continue
            slot = self._channels.request()
            yield slot
            self.env.process(self._service(req, slot, qidx))

    def _drain_contiguous(self, queue: Store, group: list, extent: Extent) -> None:
        """Steal queued requests that front/back-extend the group's ``extent``.

        Direct removal from ``queue.items`` is safe: hctx stores are
        unbounded (no blocked putters to serve) and this loop is the
        store's only consumer.
        """
        op = group[0].op
        progressed = True
        while progressed and len(group) < self.profile.coalesce_max:
            progressed = False
            for r in list(queue.items):
                if r.op is not op or not extent.merge(r.offset, r.size):
                    continue
                queue.items.remove(r)
                group.append(r)
                progressed = True
                if len(group) >= self.profile.coalesce_max:
                    return

    def _service(self, req: BlockRequest, slot, qidx: int):
        env = self.env
        faults = self.faults
        if faults is not None and faults.stall_until > env._now:
            # injected controller stall: service starts freeze until it lifts
            yield env.timeout(faults.stall_until - env._now)
        service = self.profile.service_ns(
            req.op, req.size, seek_frac=self._seek_frac(req), rng=self.rng
        )
        queue_ns = env._now - req.submit_ns
        self._last_offset = req.offset + req.size
        action = faults.before_service(req) if faults is not None else None
        if action is not None and action.extra_ns:
            service += action.extra_ns  # injected latency spike
        yield env.timeout(service)
        if action is not None and action.error is not None:
            # injected failure: a torn write persists its sector-aligned
            # prefix, then the command completes with an error — the waiter
            # gets the exception thrown in via req.done.fail()
            if req.op is IoOp.WRITE and action.torn_bytes:
                self.store.write(req.offset, req.data[: action.torn_bytes])
            self._channels.release(slot)
            req.complete_ns = env._now
            self.errors += 1
            req.done.fail(action.error)
            if not req.done.callbacks:
                # nobody is waiting (e.g. the submitting worker was crashed
                # mid-request): defuse so teardown audits stay clean
                req.done.defuse()
            return
        self._apply(req)
        self._channels.release(slot)
        req.complete_ns = env._now
        self.completed += 1
        if env._obs:
            env.tracer.emit(
                env._now, "obs.device",
                device=self.name, hctx=qidx, op=req.op.value, size=req.size,
                queue_ns=queue_ns, service_ns=service,
            )
            sc = req.obs
            if sc is not None:
                # kernel-baseline path: the driver above has no ExecContext,
                # so the device bills its busy window into the span directly
                sc.add_device_window(req.submit_ns, req.complete_ns)
        self._on_complete(req, qidx)
        req.done.succeed(req)

    def _service_group(self, group: list, slot, qidx: int):
        """Service a coalesced run as one command.

        The fixed per-command latency and the seek are paid once; the
        transfer term covers the combined extent.  Each constituent still
        gets its own fault decision, completion stamp, telemetry record,
        and done event — a fault injected into one constituent fails only
        that request, its run-mates complete normally.
        """
        group = sorted(group, key=lambda r: r.offset)
        faults = self.faults
        if faults is not None and faults.stall_until > self.env.now:
            yield self.env.timeout(faults.stall_until - self.env.now)
        lead = group[0]
        total = sum(r.size for r in group)
        service = self.profile.service_ns(
            lead.op, total, seek_frac=self._seek_frac(lead), rng=self.rng
        )
        t0 = self.env.now
        self._last_offset = group[-1].offset + group[-1].size
        actions = [faults.before_service(r) if faults is not None else None
                   for r in group]
        for action in actions:
            if action is not None and action.extra_ns:
                service += action.extra_ns
        yield self.env.timeout(service)
        self._channels.release(slot)
        t = self.env.tracer
        now = self.env.now
        for r, action in zip(group, actions):
            r.complete_ns = now
            if action is not None and action.error is not None:
                if r.op is IoOp.WRITE and action.torn_bytes:
                    self.store.write(r.offset, r.data[: action.torn_bytes])
                self.errors += 1
                r.done.fail(action.error)
                if not r.done.callbacks:
                    r.done.defuse()
                continue
            self._apply(r)
            self.completed += 1
            if t.obs:
                t.emit(
                    now, "obs.device",
                    device=self.name, hctx=qidx, op=r.op.value, size=r.size,
                    queue_ns=t0 - r.submit_ns, service_ns=service,
                )
                sc = r.obs
                if sc is not None:
                    sc.add_device_window(r.submit_ns, r.complete_ns)
            self._on_complete(r, qidx)
            r.done.succeed(r)
        if t.audit:
            t.emit(now, "san.batch", source=f"{self.name}.coalesce",
                   ops=len(group), delivered=len(group), double=0)

    def _on_complete(self, req: BlockRequest, qidx: int) -> None:
        """Hook for subclasses (NVMe fills its poll-mode completion ring)."""

    def _apply(self, req: BlockRequest) -> None:
        if req.op is IoOp.WRITE:
            assert req.data is not None
            self.store.write(req.offset, req.data)
            self.bytes_written += req.size
        elif req.op is IoOp.READ:
            req.result = self.store.read(req.offset, req.size)
            self.bytes_read += req.size
        elif req.op is IoOp.TRIM:
            self.store.discard(req.offset, req.size)
        # FLUSH: no data effect (writes apply immediately in this model; the
        # page-cache layer above is what delays durability).
