"""Typed actuator seams: every way the control daemon may touch the system.

Controllers never reach into the deployment directly — they go through
one :class:`Actuators` instance, which (a) knows the declared seams and
nothing else, (b) logs every change as an :class:`ActuatorAction`, and
(c) enforces **hysteresis**: a knob may change at most once per
``cooldown_ticks`` control ticks, and a tick may carry at most
``max_actions_per_tick`` non-urgent changes.  Oscillating controllers
therefore cannot flap the system faster than the cooldown (the
anti-flapping property test in ``tests/test_ctl.py`` pins this).
Self-healing actions (runtime restart, worker respawn) pass
``urgent=True`` and bypass both bounds — a healer must never queue
behind a tuning budget.

Seams (all no-ops when the new value equals the current one):

======================  ====================================================
``set_worker_target``   spawn/retire workers via the WorkOrchestrator
``heal_workers``        respawn crashed workers (``auto_respawn`` off)
``restart_runtime``     bring a power-cut Runtime back (urgent, idempotent)
``rebalance``           force a queue→worker rebalance
``set_admission_limit`` engine-wide ``QueueDepthAdmission.max_inflight``
``set_retry``           bound retry policy's attempts/backoff/timeout
======================  ====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..errors import LabStorError

__all__ = ["Actuators"]


@dataclass(frozen=True)
class ActuatorAction:
    """One applied actuator change (the daemon's audit log entry)."""

    tick: int
    t_ns: int
    knob: str
    old: Any
    new: Any
    reason: str
    urgent: bool = False


class Actuators:
    """The daemon's write surface over one deployment."""

    def __init__(self, system, *, cooldown_ticks: int = 2,
                 max_actions_per_tick: int = 2) -> None:
        if cooldown_ticks < 1:
            raise ValueError(f"cooldown_ticks must be >= 1, got {cooldown_ticks}")
        if max_actions_per_tick < 1:
            raise ValueError(
                f"max_actions_per_tick must be >= 1, got {max_actions_per_tick}")
        self.system = system
        self.cooldown_ticks = cooldown_ticks
        self.max_actions_per_tick = max_actions_per_tick
        self.actions: list[ActuatorAction] = []
        self.suppressed = 0  # changes refused by hysteresis
        self._tick = 0
        self._tick_actions = 0
        self._last_change: dict[str, int] = {}  # knob -> tick of last change
        self._admission = None
        self._retry = None
        self._restarting = None  # live restart process, if any

    # ------------------------------------------------------------------
    @property
    def env(self):
        return self.system.env

    @property
    def runtime(self):
        return self.system.runtime

    def bind_admission(self, policy) -> "Actuators":
        """Attach the admission policy the daemon may retune."""
        self._admission = policy
        return self

    def bind_retry(self, policy) -> "Actuators":
        """Attach the retry policy the daemon may retune."""
        self._retry = policy
        return self

    # ------------------------------------------------------------------
    def begin_tick(self, tick: int) -> None:
        self._tick = tick
        self._tick_actions = 0

    @property
    def actions_taken(self) -> int:
        return len(self.actions)

    def _apply(self, knob: str, old: Any, new: Any, reason: str,
               urgent: bool, fn: Callable[[], None]) -> bool:
        """Hysteresis gate + audit log around one knob change."""
        if new == old:
            return False  # steady state must cost nothing
        if not urgent:
            last = self._last_change.get(knob)
            if last is not None and self._tick - last < self.cooldown_ticks:
                self.suppressed += 1
                return False
            if self._tick_actions >= self.max_actions_per_tick:
                self.suppressed += 1
                return False
            self._tick_actions += 1
        fn()
        self._last_change[knob] = self._tick
        self.actions.append(ActuatorAction(
            tick=self._tick, t_ns=self.env.now, knob=knob,
            old=old, new=new, reason=reason, urgent=urgent,
        ))
        t = self.env.tracer
        if t.enabled:
            t.emit(self.env.now, "ctl.action", knob=knob,
                   old=repr(old), new=repr(new), urgent=urgent)
        return True

    # ------------------------------------------------------------------
    # worker pool / runtime
    # ------------------------------------------------------------------
    def set_worker_target(self, n: int, *, reason: str,
                          urgent: bool = False) -> bool:
        """Scale the worker pool to ``n`` (bounded by the orchestrator's
        min/max); skipped while the Runtime is down."""
        orch = self.runtime.orchestrator
        if orch.paused:
            return False
        n = max(orch.min_workers, min(orch.max_workers, int(n)))
        current = orch.worker_count()

        def scale() -> None:
            while orch.worker_count() < n:
                orch.spawn_worker()
            while orch.worker_count() > n:
                victim = min(orch.workers,
                             key=lambda w: sum(q.est_queued_ns for q in w.queues))
                orch.decommission_worker(victim)
            orch.rebalance()

        return self._apply("workers", current, n, reason, urgent, scale)

    def heal_workers(self, *, reason: str) -> bool:
        """Respawn every crashed-and-unreplaced worker (urgent)."""
        orch = self.runtime.orchestrator
        if orch.paused or not orch.dead_workers:
            return False
        dead = orch.dead_workers
        current = orch.worker_count()

        def heal() -> None:
            for _ in range(dead):
                orch.heal_worker()

        return self._apply("workers", current, current + dead, reason,
                           True, heal)

    def restart_runtime(self, *, reason: str) -> bool:
        """Bring a crashed Runtime back (urgent, idempotent: a restart
        already in flight is never doubled)."""
        runtime = self.runtime
        if runtime.online:
            return False
        if self._restarting is not None and self._restarting.is_alive:
            return False

        def go() -> None:
            self._restarting = self.env.process(
                runtime.restart(), name="ctl.restart")

        return self._apply("runtime", "offline", "restarting", reason,
                           True, go)

    def rebalance(self, *, reason: str, urgent: bool = False) -> bool:
        orch = self.runtime.orchestrator
        if orch.paused:
            return False
        before = orch.rebalances
        return self._apply("rebalance", before, before + 1, reason, urgent,
                           orch.rebalance)

    # ------------------------------------------------------------------
    # admission / retry policies
    # ------------------------------------------------------------------
    def set_admission_limit(self, n: int, *, reason: str,
                            urgent: bool = False) -> bool:
        policy = self._admission
        if policy is None:
            raise LabStorError(
                "no admission policy bound; call bind_admission() first")
        n = max(1, int(n))

        def set_it() -> None:
            policy.max_inflight = n

        return self._apply("admission", policy.max_inflight, n, reason,
                           urgent, set_it)

    def set_retry(self, *, max_attempts: int | None = None,
                  max_backoff_ns: int | None = None,
                  timeout_ns: Optional[int] = None,
                  reason: str, urgent: bool = False) -> bool:
        policy = self._retry
        if policy is None:
            raise LabStorError("no retry policy bound; call bind_retry() first")
        old = (policy.max_attempts, policy.max_backoff_ns, policy.timeout_ns)
        new = (max_attempts if max_attempts is not None else old[0],
               max_backoff_ns if max_backoff_ns is not None else old[1],
               timeout_ns if timeout_ns is not None else old[2])

        def set_it() -> None:
            policy.max_attempts, policy.max_backoff_ns, policy.timeout_ns = new

        return self._apply("retry", old, new, reason, urgent, set_it)

    def __repr__(self) -> str:
        return (f"<Actuators actions={len(self.actions)} "
                f"suppressed={self.suppressed}>")
