"""The open-loop traffic engine: tenants → arrivals → SLO accounting.

For each tenant the engine runs one *arrival process* in virtual time:
wait the schedule's next interarrival, consult the admission policy, and
launch the op as an independent simulation process **without waiting for
it** — the open loop.  Under overload the in-flight population grows and
latencies climb; nothing throttles the arrivals, which is exactly the
regime closed-loop workloads cannot reach.

Accounting rides request completion:

- per-tenant :class:`~repro.sim.stats.LatencyRecorder` (reservoir-sampled,
  p50/p99/p999 in one pass);
- *goodput* = ops that completed successfully within the tenant's
  ``TenantSLO.deadline_ns``, per second of virtual time;
- violation / rejection / error counters mirrored into a
  :class:`~repro.obs.metrics.MetricsRegistry` under ``tenant=<name>``
  labels (``tenant_ops_total``, ``tenant_slo_violations_total``,
  ``tenant_rejected_total``, ``tenant_op_errors_total``,
  ``tenant_latency_ns``), so the existing ``repro.obs`` reporting stack
  sees tenants like any other labeled series.

Admission control is pluggable: :class:`AdmissionPolicy` (admit all) or
:class:`QueueDepthAdmission` (reject arrivals past an in-flight
threshold — the knob that converts a goodput collapse into a plateau).

Determinism: every draw (interarrivals, op types, keys, reservoir
replacement) comes from named, seeded streams of the system's
:class:`~repro.sim.rng.RngRegistry`; the engine holds no wall-clock or
identity-derived state, so a seeded run replays byte-identically (the
``"openloop"`` scenario in :mod:`repro.sim.check` pins this down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..obs.metrics import MetricsRegistry
from ..sim.stats import LatencyRecorder
from .arrivals import ArrivalProcess
from .tenants import TenantSpec

__all__ = ["QueueDepthAdmission", "OpenLoopEngine"]


class AdmissionPolicy:
    """Admit everything (the baseline that melts down under overload)."""

    name = "none"

    def admit(self, engine: "OpenLoopEngine", tenant: "_Tenant") -> bool:
        return True

    def __repr__(self) -> str:
        return f"<AdmissionPolicy {self.name}>"


class QueueDepthAdmission(AdmissionPolicy):
    """Reject arrivals while the engine-wide in-flight count is at the
    threshold — a one-knob stand-in for SQ-depth-based load shedding."""

    name = "queue-depth"

    def __init__(self, max_inflight: int = 64) -> None:
        if max_inflight <= 0:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        self.max_inflight = int(max_inflight)

    def admit(self, engine: "OpenLoopEngine", tenant: "_Tenant") -> bool:
        return engine.inflight < self.max_inflight

    def __repr__(self) -> str:
        return f"<QueueDepthAdmission max_inflight={self.max_inflight}>"


class TenantStats:
    """Mutable per-tenant accounting updated as ops complete."""

    __slots__ = ("latency", "launched", "completed", "good", "rejected",
                 "errors", "violations")

    def __init__(self, name: str, rng: np.random.Generator, reservoir: int) -> None:
        self.latency = LatencyRecorder(reservoir=reservoir, rng=rng, name=name)
        self.launched = 0
        self.completed = 0
        self.good = 0
        self.rejected = 0
        self.errors = 0
        self.violations = 0


@dataclass
class _Tenant:
    spec: TenantSpec
    arrivals: ArrivalProcess
    make_op: Callable[[np.random.Generator], Any]
    stats: TenantStats
    rng: np.random.Generator           # op construction (keys, mix)
    arrivals_rng: np.random.Generator  # interarrival draws only
    offered_ops_s: float
    inflight: int = 0  # this tenant's launched-but-unfinished ops


class OpenLoopEngine:
    """Drive a tenant population open-loop against a built LabStorSystem."""

    def __init__(self, system, *, duration_ns: int,
                 policy: AdmissionPolicy | None = None,
                 registry: MetricsRegistry | None = None,
                 reservoir: int = 20_000,
                 max_ops_per_tenant: int | None = None) -> None:
        if duration_ns <= 0:
            raise ValueError(f"duration_ns must be positive, got {duration_ns}")
        self.system = system
        self.env = system.env
        self.duration_ns = int(duration_ns)
        self.policy = policy if policy is not None else AdmissionPolicy()
        if registry is not None:
            self.registry = registry
        elif system.telemetry is not None:
            self.registry = system.telemetry.registry
        else:
            self.registry = MetricsRegistry()
        self.reservoir = reservoir
        self.max_ops_per_tenant = max_ops_per_tenant
        self.inflight = 0
        self.peak_inflight = 0
        self.elapsed_ns = 0
        self._tenants: list[_Tenant] = []
        self._ops: list = []

    # ------------------------------------------------------------------
    def add_tenant(self, spec: TenantSpec,
                   make_op: Callable[[np.random.Generator], Any],
                   *, load_factor: float = 1.0) -> TenantStats:
        """Register a tenant: ``make_op(rng)`` must return an unstarted
        process generator for one request (e.g. ``YcsbWorkload.make_op``)."""
        if any(t.spec.name == spec.name for t in self._tenants):
            raise ValueError(f"duplicate tenant {spec.name!r}")
        rngs = self.system.rngs
        stats = TenantStats(spec.name, rngs.stream(f"traffic.{spec.name}.stats"),
                            self.reservoir)
        # Arrival times draw from their own stream: admission decisions
        # (which gate op-construction draws) must never perturb *when*
        # later ops arrive, or an A/B comparison across admission
        # policies would not face the same offered load.
        self._tenants.append(_Tenant(
            spec=spec,
            arrivals=spec.build_arrivals(load_factor),
            make_op=make_op,
            stats=stats,
            rng=rngs.stream(f"traffic.{spec.name}"),
            arrivals_rng=rngs.stream(f"traffic.{spec.name}.arrivals"),
            offered_ops_s=spec.offered_ops_per_sec * load_factor,
        ))
        # export the SLO target itself: an admission controller needs the
        # deadline to judge how much latency headroom a window's p99 left
        self.registry.set_gauge("tenant_slo_deadline_ns",
                                float(spec.slo.deadline_ns), tenant=spec.name)
        return stats

    @property
    def tenants(self) -> list[TenantSpec]:
        return [t.spec for t in self._tenants]

    def stats(self, name: str) -> TenantStats:
        for t in self._tenants:
            if t.spec.name == name:
                return t.stats
        raise KeyError(f"unknown tenant {name!r}")

    # ------------------------------------------------------------------
    # simulation processes
    # ------------------------------------------------------------------
    def _arrivals(self, t: _Tenant):
        env, rng, spec, stats = self.env, t.rng, t.spec, t.stats
        arrivals_rng = t.arrivals_rng
        reg = self.registry
        end = env._now + self.duration_ns
        cap = self.max_ops_per_tenant
        while True:
            gap = t.arrivals.next_interarrival_ns(arrivals_rng, env._now)
            if env._now + gap >= end:
                return  # the window closed before the next arrival
            yield env.timeout(gap)
            if cap is not None and stats.launched + stats.rejected >= cap:
                return
            if not self.policy.admit(self, t):
                stats.rejected += 1
                reg.inc("tenant_rejected_total", tenant=spec.name)
                continue
            stats.launched += 1
            self.inflight += 1
            t.inflight += 1
            if self.inflight > self.peak_inflight:
                self.peak_inflight = self.inflight
            reg.set_gauge("traffic_inflight", self.inflight)
            reg.set_gauge("tenant_inflight", t.inflight, tenant=spec.name)
            self._ops.append(env.process(self._op(t, t.make_op(rng), env._now)))

    def _op(self, t: _Tenant, gen, start_ns: int):
        ok = True
        try:
            yield from gen
        except Exception:  # noqa: BLE001 - a failed op is an SLO violation, not a crash
            ok = False
        self.inflight -= 1
        t.inflight -= 1
        env, stats, reg = self.env, t.stats, self.registry
        name = t.spec.name
        latency_ns = env._now - start_ns
        stats.completed += 1
        stats.latency.add(latency_ns)
        reg.inc("tenant_ops_total", tenant=name)
        reg.set_gauge("tenant_inflight", t.inflight, tenant=name)
        reg.observe("tenant_latency_ns", latency_ns, tenant=name)
        reg.set_gauge("traffic_inflight", self.inflight)
        if not ok:
            stats.errors += 1
            reg.inc("tenant_op_errors_total", tenant=name)
        if ok and not t.spec.slo.violated(latency_ns):
            stats.good += 1
        else:
            stats.violations += 1
            reg.inc("tenant_slo_violations_total", tenant=name)

    # ------------------------------------------------------------------
    def drive(self):
        """Process generator form of :meth:`run`: spawn every tenant's
        arrival window, wait it out, drain in-flight ops, and return
        :meth:`summary`.  Being a single process event, this composes —
        snapshot programs pause the clock mid-drive and other work can
        run alongside on the same environment."""
        if not self._tenants:
            raise ValueError("no tenants registered; call add_tenant() first")
        env = self.env
        start = env.now
        procs = [env.process(self._arrivals(t)) for t in self._tenants]
        yield env.all_of(procs)
        if self._ops:
            yield env.all_of(self._ops)
        self._ops.clear()
        self.elapsed_ns = env.now - start
        return self.summary()

    def run(self) -> dict[str, Any]:
        """Run every tenant's arrival window, drain in-flight ops, and
        return :meth:`summary`.  ``elapsed_ns`` includes the drain — under
        overload the backlog takes real (virtual) time to clear, and
        goodput is charged for it."""
        env = self.env
        return env.run(env.process(self.drive(), name="traffic.drive"))

    # ------------------------------------------------------------------
    def summary(self) -> dict[str, Any]:
        """JSON-able per-tenant and aggregate SLO accounting."""
        elapsed_s = self.elapsed_ns / 1e9 if self.elapsed_ns else 0.0
        tenants: dict[str, Any] = {}
        for t in self._tenants:
            st = t.stats
            row: dict[str, Any] = {
                "offered_ops_s": t.offered_ops_s,
                "schedule": t.spec.schedule,
                "users": t.spec.users,
                "launched": st.launched,
                "completed": st.completed,
                "good": st.good,
                "rejected": st.rejected,
                "errors": st.errors,
                "slo_violations": st.violations,
                "goodput_ops_s": st.good / elapsed_s if elapsed_s else 0.0,
                "achieved_ops_s": st.completed / elapsed_s if elapsed_s else 0.0,
                "slo": {"deadline_ns": t.spec.slo.deadline_ns,
                        "p99_ns": t.spec.slo.p99_ns},
            }
            if st.completed:
                p50, p99, p999 = st.latency.pcts((50, 99, 99.9))
                row.update(p50_ns=p50, p99_ns=p99, p999_ns=p999,
                           mean_ns=st.latency.mean)
                if t.spec.slo.p99_ns is not None:
                    row["slo"]["p99_met"] = p99 <= t.spec.slo.p99_ns
            tenants[t.spec.name] = row
        tot = {
            "launched": sum(t.stats.launched for t in self._tenants),
            "completed": sum(t.stats.completed for t in self._tenants),
            "good": sum(t.stats.good for t in self._tenants),
            "rejected": sum(t.stats.rejected for t in self._tenants),
            "errors": sum(t.stats.errors for t in self._tenants),
            "violations": sum(t.stats.violations for t in self._tenants),
        }
        return {
            "policy": self.policy.name,
            "duration_ns": self.duration_ns,
            "elapsed_ns": self.elapsed_ns,
            "peak_inflight": self.peak_inflight,
            "offered_ops_s": sum(t.offered_ops_s for t in self._tenants),
            "goodput_ops_s": tot["good"] / elapsed_s if elapsed_s else 0.0,
            "achieved_ops_s": tot["completed"] / elapsed_s if elapsed_s else 0.0,
            "tenants": tenants,
            "totals": tot,
        }
