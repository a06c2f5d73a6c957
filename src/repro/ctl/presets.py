"""Canonical control-plane scenarios shared across the harnesses.

One builder so the ``"control"`` determinism scenario
(:mod:`repro.sim.check`), the chaos-convergence property tests
(``tests/test_ctl.py``), the report CLI (``python -m repro report ctl``)
and the benchmark gate all drive the *same* deployment shape:

a 2-worker KVS under open-loop tenant traffic, with the orchestrator's
inline respawn reflex **off** (``worker_auto_respawn=False``) and a
seeded chaos plan — two worker crashes, a power cut with **no**
scheduled administrator restart, a probabilistic device latency tax and
a device stall.  Every repair must therefore come from the
:class:`~repro.ctl.daemon.ControlDaemon`: without it the run never
recovers (the contrast the convergence tests measure).
"""

from __future__ import annotations

from ..core.runtime import RuntimeConfig
from ..faults.plan import FaultPlan, FaultSpec
from ..faults.policies import RetryPolicy
from ..mods.generic_kvs import GenericKVS
from ..sim import Environment
from ..system import LabStorSystem
from ..traffic.engine import OpenLoopEngine, QueueDepthAdmission
from ..traffic.tenants import TenantSLO, TenantSpec
from ..traffic.ycsb import YcsbWorkload
from ..units import msec, usec
from .actuators import Actuators
from .controllers import (
    RetryTuneController,
    SelfHealController,
    WorkerScaleController,
)
from .daemon import ControlDaemon

__all__ = ["build_chaos_control"]

MOUNT = CHAOS_MOUNT = "kvs::/ctl"


def chaos_plan(device: str = "nvme") -> FaultPlan:
    """The canned control-plane storm (all times virtual, seeded draws).

    - 2ms, 3ms: a random worker crashes — and stays dead (no inline
      respawn) until the daemon's healer notices;
    - 6ms: power cut with **no** ``restart_after`` — only the daemon's
      ``restart_runtime`` actuator brings the Runtime back (~5ms);
    - throughout: a 2% per-op latency tax on the device;
    - 14ms: the device controller stalls for 1ms (service starts frozen),
      which the retry-tune controller rides out with a wider budget.
    """
    return FaultPlan.of(
        FaultSpec(kind="worker_crash", at=msec(2)),
        FaultSpec(kind="worker_crash", at=msec(3)),
        FaultSpec(kind="power_cut", at=msec(6)),
        FaultSpec(kind="latency", device=device, probability=0.02,
                  extra_ns=usec(30)),
        FaultSpec(kind="stall", at=msec(14), device=device, extra_ns=msec(1)),
    )


def chaos_tenant() -> TenantSpec:
    """One Poisson tenant at ~20K ops/s with a 1ms deadline — enough load
    that dead workers and the power cut visibly dent goodput, loose
    enough SLO that a healed system serves in-deadline again."""
    return TenantSpec(
        name="kv",
        users=400_000,
        ops_per_user_per_sec=0.05,  # 20K ops/s aggregate
        slo=TenantSLO(deadline_ns=msec(1)),
        schedule="poisson",
    )


def build_chaos_control(
    *,
    seed: int = 0,
    duration_ns: int = msec(20),
    interval_ns: int = usec(500),
    with_daemon: bool = True,
    with_faults: bool = True,
    env: Environment | None = None,
    load: float = 1.0,
    nworkers: int = 2,
    max_inflight: int = 32,
) -> tuple[LabStorSystem, OpenLoopEngine, ControlDaemon | None]:
    """Build the canonical chaos-control deployment.

    Returns ``(system, engine, daemon)``; ``daemon`` is None with
    ``with_daemon=False`` (the uncontrolled baseline).  ``env`` lets a
    determinism audit attach its tracer first (the
    :mod:`repro.sim.check` protocol).
    """
    system = LabStorSystem(
        env=env, seed=seed, devices=("nvme",), telemetry=True,
        config=RuntimeConfig(nworkers=nworkers, worker_auto_respawn=False,
                             max_workers=8),
        fault_plan=chaos_plan() if with_faults else None,
    )
    system.mount_kvs_stack(MOUNT, variant="all")
    retry = RetryPolicy(max_attempts=4, timeout_ns=msec(2))
    wl = YcsbWorkload(GenericKVS(system.client(), MOUNT, retry=retry),
                      mix="A", nkeys=64, theta=0.9, value_size=256)
    system.run(system.process(wl.preload()))
    policy = QueueDepthAdmission(max_inflight)
    engine = OpenLoopEngine(system, duration_ns=duration_ns, policy=policy)
    engine.add_tenant(chaos_tenant(), wl.make_op, load_factor=load)
    daemon = None
    if with_daemon:
        actuators = Actuators(system).bind_admission(policy).bind_retry(retry)
        daemon = ControlDaemon(
            system,
            interval_ns=interval_ns,
            controllers=[SelfHealController(), RetryTuneController(),
                         WorkerScaleController()],
            actuators=actuators,
        )
    return system, engine, daemon
