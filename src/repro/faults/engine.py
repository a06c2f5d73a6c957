"""The fault engine: compiles a :class:`FaultPlan` onto the live seams.

Injection sites (all pre-existing seams; none knows about this module):

- :class:`~repro.devices.base.BlockDevice` — ``device.faults`` is checked
  with one ``is not None`` branch in ``_service``; the engine installs a
  :class:`DeviceFaultInjector` only on devices a spec actually scopes, so
  a system without a plan keeps the seed's fast path bit-for-bit.
- :class:`~repro.ipc.queue_pair.QueuePair` — ``qp.reject_hook`` raises
  :class:`~repro.errors.QueueFull` before any conservation counter moves.
- :class:`~repro.core.orchestrator.WorkOrchestrator.crash_worker` — kills
  a worker mid-request and respawns a replacement.
- :class:`~repro.core.runtime.LabStorRuntime.crash` / ``restart`` — the
  power-cut injector, optionally scheduling the administrator's restart.

Determinism: every probabilistic decision draws from the single seeded
stream the engine was built with, in simulation order; timed injections
ride ordinary DES timeouts.  The same (plan, seed, workload) triple
therefore replays to an identical trace digest under
``python -m repro.sim.check``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..errors import LabStorError, MediaError, QueueFull
from .plan import DEVICE_KINDS, QP_KINDS, TIMED_KINDS, FaultPlan, FaultSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..system import LabStorSystem

__all__ = ["FaultEngine"]

#: torn writes truncate at this boundary (the device's atomic write unit)
SECTOR = 512


class _SpecState:
    """Trigger bookkeeping for one spec: budget + next periodic deadline."""

    __slots__ = ("spec", "remaining", "next_at")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.remaining = spec.max_fires
        self.next_at = spec.at if spec.at is not None else (spec.every or 0)

    def should_fire(self, now: int, rng) -> bool:
        """Evaluate the trigger (consuming budget/period/RNG as needed)."""
        s = self.spec
        if self.remaining == 0:
            return False
        if s.probability > 0.0:
            if s.at is not None and now < s.at:
                return False  # not armed yet
            if float(rng.random()) >= s.probability:
                return False
        elif s.every is not None:
            if now < self.next_at:
                return False
            # consume the period containing `now`; re-arm for the next one
            self.next_at += ((now - self.next_at) // s.every + 1) * s.every
        else:  # pure at= trigger: first matching occasion at/after `at`
            if now < s.at:
                return False
        if self.remaining is not None:
            self.remaining -= 1
        return True


@dataclass
class FaultAction:
    """What the device service loop must do to the current command."""

    extra_ns: int = 0
    error: Optional[BaseException] = None
    torn_bytes: Optional[int] = None


class DeviceFaultInjector:
    """Per-device decision point, consulted once per serviced command."""

    def __init__(self, engine: "FaultEngine", device_name: str) -> None:
        self._engine = engine
        self.device_name = device_name
        self._states: list[_SpecState] = []
        #: service starts are frozen until this virtual instant (stall)
        self.stall_until = 0

    def add(self, spec: FaultSpec) -> None:
        self._states.append(_SpecState(spec))

    def before_service(self, req) -> Optional[FaultAction]:
        """Decide the fate of one command; None = untouched."""
        engine = self._engine
        now = engine.env.now
        op_name = req.op.value
        action: Optional[FaultAction] = None
        for st in self._states:
            s = st.spec
            if s.kind == "torn_write" and op_name != "write":
                continue
            if not s.matches_io(op_name, req.offset, req.size):
                continue
            if not st.should_fire(now, engine.rng):
                continue
            if action is None:
                action = FaultAction()
            if s.kind == "latency":
                action.extra_ns += s.extra_ns
                engine.record("latency", device=self.device_name,
                              op=op_name, extra_ns=s.extra_ns)
            elif s.kind == "media_error":
                if action.error is None:
                    action.error = MediaError(
                        f"injected EIO on {op_name} @ {req.offset}",
                        device=self.device_name,
                    )
                engine.record("media_error", device=self.device_name,
                              op=op_name, offset=req.offset)
            elif s.kind == "torn_write":
                sectors = req.size // SECTOR
                keep = int(engine.rng.integers(0, sectors)) * SECTOR if sectors else 0
                action.torn_bytes = keep
                action.error = MediaError(
                    f"injected torn write @ {req.offset}: "
                    f"{keep}/{req.size} bytes persisted",
                    device=self.device_name,
                )
                engine.record("torn_write", device=self.device_name,
                              offset=req.offset, kept=keep, size=req.size)
        return action


class QpSubmitInjector:
    """Submission-side rejection hook shared by all scoped queue pairs."""

    def __init__(self, engine: "FaultEngine") -> None:
        self._engine = engine
        self._states: list[_SpecState] = []

    def add(self, spec: FaultSpec) -> None:
        self._states.append(_SpecState(spec))

    def __call__(self, qp, request) -> None:
        engine = self._engine
        now = engine.env.now
        for st in self._states:
            s = st.spec
            if s.queue is not None and s.queue != qp.qid:
                continue
            if not st.should_fire(now, engine.rng):
                continue
            engine.record("qp_reject", qp=qp.qid)
            raise QueueFull(
                f"QP {qp.qid}: injected submission rejection (SQ backpressure)"
            )


class FaultEngine:
    """Owns the plan's runtime state; one per :class:`LabStorSystem`."""

    def __init__(self, env, plan: FaultPlan, rng) -> None:
        self.env = env
        self.plan = plan
        self.rng = rng
        self.system: Optional["LabStorSystem"] = None
        self.injected: dict[str, int] = {}
        self._device_injectors: dict[int, DeviceFaultInjector] = {}  # id(dev)
        self._qp_injector: Optional[QpSubmitInjector] = None

    # ------------------------------------------------------------------
    def install(self, system: "LabStorSystem") -> "FaultEngine":
        if system.env is not self.env:
            raise LabStorError("fault engine bound to a different environment")
        self.system = system
        for spec in self.plan:
            self._add_spec(spec)
        return self

    def extend(self, plan: FaultPlan) -> "FaultEngine":
        """Wire additional specs into an already-installed engine."""
        self.plan = self.plan.extend(*plan.specs)
        for spec in plan:
            self._add_spec(spec)
        return self

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def stalled_devices(self, now: int | None = None) -> list[str]:
        """Names of devices whose injected stall is still holding service
        starts frozen at ``now`` (default: the current virtual instant).
        Read-only introspection for health checks — the control daemon's
        DeviceStall check pairs this with the per-window device-op rate."""
        if now is None:
            now = self.env.now
        return sorted(
            inj.device_name
            for inj in self._device_injectors.values()
            if inj.stall_until > now
        )

    def record(self, kind: str, **fields) -> None:
        """Count an injection and publish it on the trace seam."""
        self.injected[kind] = self.injected.get(kind, 0) + 1
        t = self.env.tracer
        if t.enabled:
            t.emit(self.env.now, "fault.inject", kind=kind, **fields)

    # ------------------------------------------------------------------
    # spec wiring
    # ------------------------------------------------------------------
    def _add_spec(self, spec: FaultSpec) -> None:
        if spec.kind in DEVICE_KINDS:
            for dev in self._scoped_devices(spec):
                self._injector_for(dev).add(spec)
        elif spec.kind in QP_KINDS:
            self._wire_qp_spec(spec)
        elif spec.kind in TIMED_KINDS:
            self.env.process(
                self._timed_driver(spec),
                name=f"faults.{spec.kind}@{spec.at if spec.at is not None else spec.every}",
                daemon=True,
            )
        else:  # pragma: no cover - FaultSpec validates kinds
            raise LabStorError(f"unroutable fault kind {spec.kind!r}")

    def _scoped_devices(self, spec: FaultSpec) -> list:
        system = self.system
        if spec.module is not None:
            mod = system.runtime.registry.get(spec.module)
            dev = getattr(mod, "device", None)
            if dev is None:
                raise LabStorError(
                    f"fault spec {spec.kind}: module {spec.module!r} drives no device"
                )
            return [dev]
        if spec.device is not None:
            try:
                return [system.devices[spec.device]]
            except KeyError:
                raise LabStorError(
                    f"fault spec {spec.kind}: unknown device {spec.device!r}; "
                    f"system has {sorted(system.devices)}"
                ) from None
        return list(system.devices.values())

    def _injector_for(self, dev) -> DeviceFaultInjector:
        inj = self._device_injectors.get(id(dev))
        if inj is None:
            inj = DeviceFaultInjector(self, dev.name)
            self._device_injectors[id(dev)] = inj
            dev.faults = inj
        return inj

    def _wire_qp_spec(self, spec: FaultSpec) -> None:
        if self._qp_injector is None:
            inj = QpSubmitInjector(self)
            self._qp_injector = inj
            ipc = self.system.runtime.ipc
            for conn in ipc.conns.values():
                conn.qp.reject_hook = inj
            ipc.on_connect(lambda conn: setattr(conn.qp, "reject_hook", inj))
        self._qp_injector.add(spec)

    # ------------------------------------------------------------------
    # timed injectors
    # ------------------------------------------------------------------
    def _timed_driver(self, spec: FaultSpec):
        remaining = spec.max_fires
        first = spec.at if spec.at is not None else spec.every
        if first > self.env.now:
            yield self.env.timeout(first - self.env.now)
        while remaining is None or remaining > 0:
            self._fire_timed(spec)
            if remaining is not None:
                remaining -= 1
            if spec.every is None:
                return
            yield self.env.timeout(spec.every)

    def _fire_timed(self, spec: FaultSpec) -> None:
        if spec.kind == "stall":
            for dev in self._scoped_devices(spec):
                inj = self._injector_for(dev)
                inj.stall_until = max(inj.stall_until, self.env.now + spec.extra_ns)
                self.record("stall", device=dev.name, extra_ns=spec.extra_ns)
        elif spec.kind == "worker_crash":
            self._crash_worker(spec)
        elif spec.kind == "power_cut":
            self._power_cut(spec)

    def _crash_worker(self, spec: FaultSpec) -> None:
        runtime = self.system.runtime
        orch = runtime.orchestrator
        if not runtime.online or not orch.workers:
            return  # nothing left to kill; the schedule just passes
        if spec.worker is not None:
            victims = [w for w in orch.workers if w.worker_id == spec.worker]
            if not victims:
                return  # scoped worker already gone
            victim = victims[0]
        else:
            victim = orch.workers[int(self.rng.integers(0, len(orch.workers)))]
        self.record("worker_crash", worker=victim.worker_id,
                    inflight=victim.inflight)
        orch.crash_worker(victim, cause=f"injected crash of worker {victim.worker_id}")

    def _power_cut(self, spec: FaultSpec) -> None:
        runtime = self.system.runtime
        if not runtime.online:
            return  # already down; a second cut is a no-op
        self.record("power_cut", restart_after=spec.restart_after)
        runtime.crash()
        if spec.restart_after is not None:
            self.env.process(
                self._restart_later(spec.restart_after),
                name="faults.administrator",
                daemon=True,
            )

    def _restart_later(self, delay: int):
        yield self.env.timeout(delay)
        if not self.system.runtime.online:
            yield self.env.process(self.system.runtime.restart())
