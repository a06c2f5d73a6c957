"""Tenant populations and SLO specifications.

A *tenant* is a population of logical users sharing one workload and one
SLO.  Millions of independent users each issuing a few ops per second
superpose into one aggregate arrival process (Poisson, or a modulated
variant when their activity correlates — bursts, day/night cycles), which
is how ``users=2_000_000`` becomes a single
:class:`~repro.traffic.arrivals.ArrivalProcess` instead of two million
simulated clients.

The SLO is accounted per request: an op is *good* when it completes
successfully within ``deadline_ns``; everything else is an SLO violation.
``p99_ns`` (optional) is an additional aggregate target the report CLI
grades after the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .arrivals import ArrivalProcess, BurstyArrivals, DiurnalArrivals, PoissonArrivals

__all__ = ["TenantSLO", "TenantSpec"]

SCHEDULES = {
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
    "diurnal": DiurnalArrivals,
}


@dataclass(frozen=True)
class TenantSLO:
    """Per-request latency budget plus an optional aggregate p99 target."""

    deadline_ns: int
    p99_ns: int | None = None

    def __post_init__(self) -> None:
        if self.deadline_ns <= 0:
            raise ValueError(f"deadline_ns must be positive, got {self.deadline_ns}")
        if self.p99_ns is not None and self.p99_ns <= 0:
            raise ValueError(f"p99_ns must be positive, got {self.p99_ns}")

    def violated(self, latency_ns: int) -> bool:
        return latency_ns > self.deadline_ns


@dataclass
class TenantSpec:
    """One tenant: population size, per-user demand, schedule shape, SLO."""

    name: str
    users: int
    ops_per_user_per_sec: float
    slo: TenantSLO
    schedule: str = "poisson"
    schedule_kw: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.users <= 0:
            raise ValueError(f"tenant {self.name!r}: users must be positive")
        if self.ops_per_user_per_sec <= 0:
            raise ValueError(f"tenant {self.name!r}: per-user rate must be positive")
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"tenant {self.name!r}: unknown schedule {self.schedule!r}; "
                f"known: {sorted(SCHEDULES)}"
            )

    @property
    def offered_ops_per_sec(self) -> float:
        """Aggregate demand of the whole population at nominal load."""
        return self.users * self.ops_per_user_per_sec

    def build_arrivals(self, load_factor: float = 1.0) -> ArrivalProcess:
        """Instantiate this tenant's arrival process at ``load_factor``×
        nominal demand (the knob overload sweeps turn)."""
        if load_factor <= 0:
            raise ValueError(f"load_factor must be positive, got {load_factor}")
        rate = self.offered_ops_per_sec * load_factor
        return SCHEDULES[self.schedule](rate, **self.schedule_kw)
