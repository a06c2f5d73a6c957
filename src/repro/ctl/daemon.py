"""The closed-loop control daemon: sample → check → actuate, every tick.

:class:`ControlDaemon` is a DES process (LabStor's monitor daemon,
transplanted to the simulator): every ``interval_ns`` of virtual time it

1. advances its :class:`~repro.ctl.view.MetricsView` — a read-only
   window over the deployment's :class:`MetricsRegistry`;
2. evaluates every registered :class:`~repro.ctl.health.HealthCheck`
   into a per-tick verdict map;
3. lets each :class:`~repro.ctl.controllers.Controller` actuate through
   the shared hysteresis-gated :class:`~repro.ctl.actuators.Actuators`.

Determinism: every random draw a controller makes comes from the
daemon's seeded ``"ctl"`` RNG stream, and the daemon itself only touches
the system through the declared actuator seams — so a controlled run
replays byte-identically (the ``"control"`` scenario of
``python -m repro.sim.check`` pins this), and an idle daemon (all
checks green → zero actions) leaves the data path's observable
behaviour untouched (the no-op safety test in ``tests/test_ctl.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from ..errors import LabStorError
from .actuators import Actuators
from .health import DeviceStall, Health, QueueSaturation, SloBurn, WorkerLiveness
from .view import MetricsView, MetricsWindow

if TYPE_CHECKING:  # pragma: no cover
    from .controllers import Controller
    from .health import HealthCheck

__all__ = ["ControlDaemon"]


@dataclass
class ControlContext:
    """Everything one tick's checks and controllers get to see."""

    daemon: "ControlDaemon"
    window: MetricsWindow
    health: dict[str, Health] = field(default_factory=dict)

    @property
    def system(self):
        return self.daemon.system

    @property
    def runtime(self):
        return self.daemon.system.runtime

    @property
    def devices(self) -> dict:
        return self.daemon.system.devices

    @property
    def env(self):
        return self.daemon.env

    @property
    def now(self) -> int:
        return self.daemon.env.now

    @property
    def rng(self):
        return self.daemon.rng

    def worst(self) -> str:
        """Highest severity across this tick's verdicts."""
        if not self.health:
            return "ok"
        return max(self.health.values(), key=lambda h: h.severity).level


@dataclass(frozen=True)
class TickRecord:
    """One row of the daemon's history: verdicts + actions of a tick."""

    tick: int
    t_ns: int
    levels: dict[str, str]
    actions: int
    suppressed: int


def default_checks() -> list:
    return [WorkerLiveness(), DeviceStall(), QueueSaturation(), SloBurn()]


def default_controllers() -> list:
    from .controllers import SelfHealController

    return [SelfHealController()]


class ControlDaemon:
    """Periodic closed-loop controller over one :class:`LabStorSystem`.

    Parameters
    ----------
    system:
        The deployment to steer (anything with ``env``/``runtime``/
        ``devices`` — a :class:`~repro.system.LabStorSystem` or a cluster
        :class:`~repro.cluster.node.Node`).
    interval_ns:
        Control period in virtual nanoseconds.
    checks / controllers:
        Health checks and controllers, in evaluation order.  Default:
        the four stock checks and the self-healing controller.
    registry:
        Metrics registry to window.  Defaults to the system's installed
        telemetry registry; required explicitly when telemetry is off.
    rng:
        Seeded stream for control randomness.  Defaults to the system's
        ``"ctl"`` stream (cluster Nodes don't own an RngRegistry — pass
        the fabric's stream explicitly there).
    actuators:
        Pre-configured :class:`Actuators` (hysteresis bounds, bound
        admission/retry policies).  A default one is built otherwise.
    """

    def __init__(self, system, *, interval_ns: int,
                 checks: Optional[list] = None,
                 controllers: Optional[list] = None,
                 registry=None, rng=None,
                 actuators: Optional[Actuators] = None,
                 history_limit: int = 4096) -> None:
        if interval_ns <= 0:
            raise LabStorError(
                f"control interval must be positive, got {interval_ns}")
        self.system = system
        self.env = system.env
        self.interval_ns = int(interval_ns)
        if registry is None:
            telemetry = getattr(system, "telemetry", None)
            if telemetry is None:
                raise LabStorError(
                    "ControlDaemon needs a MetricsRegistry: enable telemetry "
                    "on the system or pass registry= explicitly")
            registry = telemetry.registry
        self.view = MetricsView(registry)
        if rng is None:
            rngs = getattr(system, "rngs", None)
            if rngs is None:
                raise LabStorError(
                    "ControlDaemon needs an RNG: the system has no RngRegistry "
                    "(cluster Node?) — pass rng= explicitly")
            rng = rngs.stream("ctl")
        self.rng = rng
        self.checks: list["HealthCheck"] = (
            list(checks) if checks is not None else default_checks())
        self.controllers: list["Controller"] = (
            list(controllers) if controllers is not None else default_controllers())
        self.actuators = actuators if actuators is not None else Actuators(system)
        self.history: list[TickRecord] = []
        self.history_limit = history_limit
        self.ticks = 0
        self._stopped = False
        self._last_health: dict[str, Health] = {}
        self._proc = self.env.process(self._loop(), name="ctl.daemon",
                                      daemon=True)

    # ------------------------------------------------------------------
    @property
    def actions_taken(self) -> int:
        return self.actuators.actions_taken

    @property
    def last_health(self) -> dict[str, Health]:
        return self._last_health

    def stop(self) -> None:
        """Stop ticking (takes effect before the next tick fires)."""
        self._stopped = True

    # ------------------------------------------------------------------
    def tick(self) -> TickRecord:
        """Run one control cycle now (the loop calls this; tests may too)."""
        self.ticks += 1
        window = self.view.advance(self.env.now)
        ctx = ControlContext(daemon=self, window=window)
        for check in self.checks:
            ctx.health[check.name] = check.evaluate(ctx)
        self._last_health = ctx.health
        before_actions = self.actuators.actions_taken
        before_supp = self.actuators.suppressed
        self.actuators.begin_tick(self.ticks)
        for controller in self.controllers:
            controller.actuate(ctx, self.actuators)
        record = TickRecord(
            tick=self.ticks, t_ns=self.env.now,
            levels={name: h.level for name, h in ctx.health.items()},
            actions=self.actuators.actions_taken - before_actions,
            suppressed=self.actuators.suppressed - before_supp,
        )
        self.history.append(record)
        if len(self.history) > self.history_limit:
            del self.history[:len(self.history) - self.history_limit]
        return record

    def _loop(self):
        while not self._stopped:
            yield self.env.timeout(self.interval_ns)
            if self._stopped:
                return
            self.tick()

    def __repr__(self) -> str:
        return (f"<ControlDaemon interval={self.interval_ns}ns "
                f"ticks={self.ticks} actions={self.actions_taken}>")
