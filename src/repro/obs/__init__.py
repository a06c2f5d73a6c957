"""repro.obs — end-to-end request telemetry for the LabStor reproduction.

A span-based observability layer riding the :class:`repro.sim.trace.Tracer`
pub/sub seam (the same pattern as :mod:`repro.sim.sanitizer`): when
``tracer.obs`` is armed, every request carries a
:class:`~repro.obs.spans.SpanContext` that records virtual-time stamps at
each hop — client submit, SQ accept, worker pop, per-LabMod service,
device queue + service, CQ reap — and a :class:`Telemetry` sink aggregates
closed spans into a :class:`~repro.obs.metrics.MetricsRegistry`.

Disabled (the default), every instrumentation site costs one flag check
and allocates nothing.

Enable per system::

    from repro.obs import Telemetry
    telemetry = Telemetry()
    system = LabStorSystem(telemetry=telemetry)   # or telemetry=True

or process-wide with ``REPRO_TELEMETRY=1``.  See
``python -m repro report obs --help`` for the span-derived Fig 4 anatomy
CLI, and DESIGN.md "Observability" for the span taxonomy.
"""

from .metrics import MetricsRegistry
from .report import phase_breakdown
from .spans import PHASES, SpanContext
from .telemetry import TELEMETRY_ENV_VAR, Telemetry, maybe_attach, telemetry_requested

__all__ = [
    "PHASES",
    "SpanContext",
    "MetricsRegistry",
    "Telemetry",
    "TELEMETRY_ENV_VAR",
    "telemetry_requested",
    "maybe_attach",
    "phase_breakdown",
]
