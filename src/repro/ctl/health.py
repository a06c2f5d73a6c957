"""Pluggable health checks evaluated every control tick.

A :class:`HealthCheck` maps one failure mode onto a three-level
:class:`Health` verdict (``ok`` / ``warn`` / ``crit``) from the tick's
:class:`~repro.ctl.view.MetricsWindow` plus read-only system state.
Checks never actuate — controllers read the verdicts and decide
(:mod:`repro.ctl.controllers`).

Shipped checks:

- :class:`WorkerLiveness` — Runtime offline, or the worker pool below its
  configured size (crashed workers awaiting a healer when the
  orchestrator's ``auto_respawn`` reflex is off);
- :class:`DeviceStall` — a device frozen by an injected controller stall,
  or with queued commands and zero completions in the window;
- :class:`QueueSaturation` — aggregate SQ backlog past warn/crit depths;
- :class:`SloBurn` — fraction of this window's tenant ops that blew
  their SLO (violations and errors over completions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from .daemon import ControlContext

__all__ = ["Health", "DeviceStall", "QueueSaturation", "SloBurn"]

#: severity order: index compares (ok < warn < crit)
LEVELS = ("ok", "warn", "crit")


@dataclass(frozen=True)
class Health:
    """One check's verdict for one tick."""

    level: str
    reason: str = ""
    data: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(f"unknown health level {self.level!r}; "
                             f"expected one of {LEVELS}")

    @property
    def ok(self) -> bool:
        return self.level == "ok"

    @property
    def crit(self) -> bool:
        return self.level == "crit"

    @property
    def severity(self) -> int:
        return LEVELS.index(self.level)


def ok(reason: str = "", **data: Any) -> Health:
    return Health("ok", reason, data)


def warn(reason: str, **data: Any) -> Health:
    return Health("warn", reason, data)


def crit(reason: str, **data: Any) -> Health:
    return Health("crit", reason, data)


class HealthCheck:
    """Base class: subclasses set :attr:`name` and implement
    :meth:`evaluate`."""

    name = "abstract"

    def evaluate(self, ctx: "ControlContext") -> Health:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class WorkerLiveness(HealthCheck):
    """Is the Runtime up, with no crashed-and-unreplaced workers?

    Goes crit on an offline Runtime, an empty pool, or any worker the
    orchestrator counts as dead (``auto_respawn`` off).  A *deliberate*
    scale-in by the worker-scale controller is healthy — only pass
    ``target_workers`` to additionally treat any pool below that floor
    as a failure.
    """

    name = "worker_liveness"

    def __init__(self, target_workers: int | None = None) -> None:
        self.target_workers = target_workers

    def evaluate(self, ctx: "ControlContext") -> Health:
        runtime = ctx.runtime
        if not runtime.online:
            return crit("runtime offline", crashes=runtime.crashes)
        orch = runtime.orchestrator
        have = orch.worker_count()
        if have == 0:
            return crit("no live workers")
        if orch.dead_workers:
            return crit(f"{orch.dead_workers} worker(s) missing",
                        have=have, missing=orch.dead_workers)
        if self.target_workers is not None and have < self.target_workers:
            return crit(f"pool below target ({have}/{self.target_workers})",
                        have=have, target=self.target_workers)
        return ok(have=have)


class DeviceStall(HealthCheck):
    """A device that stopped making progress.

    Two independent signals: the fault engine's injected stalls
    (:meth:`~repro.faults.engine.FaultEngine.stalled_devices`, read-only)
    and, from the metrics alone, a device with queued commands but zero
    completions this window.
    """

    name = "device_stall"

    def evaluate(self, ctx: "ControlContext") -> Health:
        stalled = []
        faults = getattr(ctx.system, "faults", None)
        if faults is not None:
            stalled.extend(faults.stalled_devices(ctx.now))
        for name, dev in ctx.devices.items():
            if name in stalled:
                continue
            backlog = sum(dev.queue_depth(h) for h in range(dev.nqueues))
            if backlog and ctx.window.delta_sum("device_ops_total",
                                                device=name) == 0:
                stalled.append(name)
        if stalled:
            return crit(f"stalled device(s): {', '.join(sorted(stalled))}",
                        devices=sorted(stalled))
        return ok()


class QueueSaturation(HealthCheck):
    """Aggregate submission-queue backlog across the Runtime's queues."""

    name = "queue_saturation"

    def __init__(self, warn_depth: int = 32, crit_depth: int = 128) -> None:
        if not 0 < warn_depth <= crit_depth:
            raise ValueError(f"need 0 < warn_depth <= crit_depth, got "
                             f"{warn_depth}/{crit_depth}")
        self.warn_depth = warn_depth
        self.crit_depth = crit_depth

    def evaluate(self, ctx: "ControlContext") -> Health:
        backlog = sum(qp.sq_depth for qp in ctx.runtime.orchestrator.queues)
        if backlog >= self.crit_depth:
            return crit(f"backlog {backlog} >= {self.crit_depth}", backlog=backlog)
        if backlog >= self.warn_depth:
            return warn(f"backlog {backlog} >= {self.warn_depth}", backlog=backlog)
        return ok(backlog=backlog)


class SloBurn(HealthCheck):
    """Window SLO-burn rate over the tenant accounting counters.

    burn = (slo violations + op errors) / completions, all deltas over
    this window only — the :meth:`Histogram.fork_window` seam keeps the
    latency quantiles windowed the same way (exposed in ``data`` as
    ``p99_ns`` when any tenant latency landed this interval).
    """

    name = "slo_burn"

    def __init__(self, warn_burn: float = 0.05, crit_burn: float = 0.25,
                 tenant: str | None = None) -> None:
        if not 0.0 <= warn_burn <= crit_burn <= 1.0:
            raise ValueError(f"need 0 <= warn <= crit <= 1, got "
                             f"{warn_burn}/{crit_burn}")
        self.warn_burn = warn_burn
        self.crit_burn = crit_burn
        self.tenant = tenant

    def evaluate(self, ctx: "ControlContext") -> Health:
        w = ctx.window
        labels = {} if self.tenant is None else {"tenant": self.tenant}
        done = w.delta_sum("tenant_ops_total", **labels)
        bad = (w.delta_sum("tenant_slo_violations_total", **labels)
               + w.delta_sum("tenant_op_errors_total", **labels))
        rejected = w.delta_sum("tenant_rejected_total", **labels)
        data: dict[str, Any] = {"completed": done, "bad": bad,
                                "rejected": rejected}
        if self.tenant is None:
            p99 = w.quantile("tenant_latency_ns", 0.99)
        else:
            p99 = w.quantile("tenant_latency_ns", 0.99, tenant=self.tenant)
        if p99 is not None:
            data["p99_ns"] = p99
        # latency headroom: window p99 against the tightest SLO deadline
        # among tenants that actually moved this window (stale tenants
        # from an earlier phase keep their deadline gauge but see no
        # traffic, so they must not pin the margin)
        active = {lbl.get("tenant")
                  for metric in ("tenant_ops_total", "tenant_rejected_total")
                  for lbl, v in w.delta_values(metric, **labels) if v}
        deadlines = [v for lbl, v in w.gauge_values("tenant_slo_deadline_ns")
                     if lbl.get("tenant") in active and v > 0]
        if deadlines:
            data["deadline_ns"] = min(deadlines)
            if p99 is not None:
                data["margin"] = p99 / data["deadline_ns"]
        if done == 0:
            # no completions: only alarming if ops are actually in flight
            inflight = w.gauge("traffic_inflight", default=0.0)
            if inflight:
                return crit("in-flight ops but zero completions",
                            burn=1.0, **data)
            return ok(burn=0.0, **data)
        burn = bad / done
        data["burn"] = burn
        if burn >= self.crit_burn:
            return crit(f"burn {burn:.0%} >= {self.crit_burn:.0%}", **data)
        if burn >= self.warn_burn:
            return warn(f"burn {burn:.0%} >= {self.warn_burn:.0%}", **data)
        return ok(**data)
