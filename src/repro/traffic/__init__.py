"""Open-loop tenant traffic: arrival schedules, YCSB mixes, SLO accounting.

The package that takes the repo past closed-loop benchmarking (ROADMAP
item 2): tenant populations (millions of logical users superposed into
arrival processes), Poisson/bursty/diurnal schedules on seeded streams,
Zipf key popularity, a YCSB-style workload family for GenericKVS, and an
open-loop engine with per-tenant p50/p99/p999 + goodput + SLO-violation
accounting and pluggable admission control.

CLI::

    python -m repro report traffic --load 2.0 --policy queue-depth

Experiment: ``repro.experiments.openloop`` (goodput vs offered load);
determinism: the ``"openloop"`` scenario of ``python -m repro.sim.check``.
"""

from .arrivals import BurstyArrivals, DiurnalArrivals, PoissonArrivals
from .engine import OpenLoopEngine, QueueDepthAdmission
from .keys import ZipfKeys
from .presets import build_overload_engine, overload_tenants
from .tenants import TenantSLO, TenantSpec
from .ycsb import YcsbMix, YcsbWorkload

__all__ = [
    "PoissonArrivals",
    "BurstyArrivals",
    "DiurnalArrivals",
    "ZipfKeys",
    "YcsbMix",
    "YcsbWorkload",
    "TenantSLO",
    "TenantSpec",
    "QueueDepthAdmission",
    "OpenLoopEngine",
    "build_overload_engine",
    "overload_tenants",
]
