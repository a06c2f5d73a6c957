"""Closed-loop control plane: health checks, controllers, actuator seams.

ROADMAP item 5: generalize the orchestrator's dynamic CPU allocation
(E3) into a daemon that watches live :mod:`repro.obs` metrics and
retunes the running system — and heals it under :mod:`repro.faults`
chaos.  The loop, every ``interval_ns`` of virtual time:

1. **sample** — :class:`MetricsView` closes a read-only window over the
   deployment's :class:`~repro.obs.metrics.MetricsRegistry` (counter
   deltas, per-window histogram quantiles, gauges);
2. **check** — pluggable :class:`HealthCheck`\\ s (worker liveness,
   device stall, queue saturation, SLO burn) produce ok/warn/crit
   verdicts;
3. **actuate** — typed :class:`Controller`\\ s drive the declared
   :class:`Actuators` seams (worker counts, admission limit, retry
   budgets, runtime restart), hysteresis-gated against flapping.

Determinism rules for adaptive policies: controllers draw randomness
only from the daemon's seeded ``"ctl"`` RNG stream and touch the system
only through the actuator seams; the ``"control"`` scenario of
``python -m repro.sim.check`` holds the whole loop to byte-identical
replay.  CLI: ``python -m repro report ctl``.  Experiment: E15
(``repro.experiments.control_plane``, controller vs static-best vs
oracle on a shifting mix).
"""

from .actuators import Actuators
from .controllers import AdmissionController, SelfHealController
from .daemon import ControlDaemon
from .health import DeviceStall, Health, QueueSaturation, SloBurn
from .presets import build_chaos_control
from .view import MetricsView, MetricsWindow

__all__ = [
    "MetricsView",
    "MetricsWindow",
    "Health",
    "DeviceStall",
    "QueueSaturation",
    "SloBurn",
    "Actuators",
    "SelfHealController",
    "AdmissionController",
    "ControlDaemon",
    "build_chaos_control",
]
