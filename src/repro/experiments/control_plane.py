"""E15 — closed-loop control: controller vs static-best vs oracle.

The case for a control plane in one table: a two-phase *shifting* mix
where no single static admission limit is right for both phases.

- **Phase A** — a latency-critical frontend (YCSB-C, 150us deadline)
  offered *above* capacity.  Any op that queues blows its deadline, so
  the right admission limit is *small*: serve a short pipeline fast,
  shed the rest at the door.
- **Phase B** — a bursty analytics tenant (YCSB-A, 1ms deadline) whose
  *mean* load fits capacity.  Rejections are now pure goodput loss —
  the right limit is *large*: buffer the burst and let the loose
  deadline absorb the queueing.

A static limit must pick one side.  The
:class:`~repro.ctl.controllers.AdmissionController` (AIMD on the
window SLO-burn/rejection rates, randomness from the seeded ``"ctl"``
stream) re-walks the limit as the mix shifts and beats every static
point.  The **oracle** is synthesized from the static sweep — the best
per-phase goodput any fixed limit achieved, summed — an upper bound no
causal controller can exceed.

Every mode faces the *identical* seeded workload (same arrivals, same
keys), so the comparison isolates the control policy: the experiment's
``seeds`` is ``"base"``, not :func:`point_seed`'s per-index derivation.
"""

from __future__ import annotations

from ..units import msec, usec
from .registry import Experiment, Table, register

__all__ = ["PHASES"]

#: static admission limits swept for the baseline and the oracle
STATIC_LIMITS = (2, 4, 8, 16, 32, 64, 128)
#: the controller's starting limit (also a static point, so "just start
#: where the controller starts" is represented in the baseline)
START_LIMIT = 16

MOUNT = "kvs::/e15"

#: the shifting mix: each phase is one tenant driven for its window
PHASES = (
    {
        "name": "frontend", "mix": "C", "theta": 0.99,
        "deadline_ns": usec(150), "offered_ops_s": 90_000.0,
        "schedule": "poisson", "schedule_kw": {},
        "duration_ns": msec(5),
    },
    {
        "name": "analytics", "mix": "A", "theta": 0.6,
        "deadline_ns": msec(1), "offered_ops_s": 30_000.0,
        "schedule": "bursty",
        "schedule_kw": {"burst_factor": 6.0, "duty": 0.25,
                        "mean_burst_ns": msec(0.5)},
        "duration_ns": msec(5),
    },
)


def run_control_point(env, point: dict, seed: int = 0) -> dict:
    """One mode ("static" at a limit, or "controller") over both phases."""
    from ..core.runtime import RuntimeConfig
    from ..ctl.actuators import Actuators
    from ..ctl.controllers import AdmissionController
    from ..ctl.daemon import ControlDaemon
    from ..mods.generic_kvs import GenericKVS
    from ..system import LabStorSystem
    from ..traffic.engine import OpenLoopEngine, QueueDepthAdmission
    from ..traffic.tenants import TenantSLO, TenantSpec
    from ..traffic.ycsb import YcsbWorkload

    mode = point["mode"]
    limit = point.get("limit", START_LIMIT)
    system = LabStorSystem(
        env=env, seed=seed, devices=("nvme",), telemetry=True,
        config=RuntimeConfig(nworkers=2),
    )
    system.mount_kvs_stack(MOUNT, variant="all")
    kvs = GenericKVS(system.client(), MOUNT)
    policy = QueueDepthAdmission(limit)
    daemon = None
    if mode == "controller":
        actuators = Actuators(system, cooldown_ticks=2, max_actions_per_tick=2)
        actuators.bind_admission(policy)
        daemon = ControlDaemon(
            system, interval_ns=usec(250),
            controllers=[AdmissionController(min_limit=2, max_limit=128)],
            actuators=actuators,
        )
    row: dict = {"mode": mode, "limit": limit if mode == "static" else None,
                 "seed": seed, "phases": {}}
    preloaded = False
    for phase in PHASES:
        wl = YcsbWorkload(kvs, mix=phase["mix"], nkeys=128,
                          theta=phase["theta"], value_size=256)
        if not preloaded:  # phases share the keyspace: one load phase
            system.run(system.process(wl.preload()))
            preloaded = True
        spec = TenantSpec(
            name=phase["name"], users=1,
            ops_per_user_per_sec=phase["offered_ops_s"],
            slo=TenantSLO(deadline_ns=phase["deadline_ns"]),
            schedule=phase["schedule"], schedule_kw=dict(phase["schedule_kw"]),
        )
        engine = OpenLoopEngine(system, duration_ns=phase["duration_ns"],
                                policy=policy)
        engine.add_tenant(spec, wl.make_op)
        s = engine.run()
        t = s["tenants"][phase["name"]]
        row["phases"][phase["name"]] = {
            "good": t["good"], "completed": t["completed"],
            "violations": t["slo_violations"], "rejected": t["rejected"],
            "limit_at_end": policy.max_inflight,
        }
    row["total_good"] = sum(p["good"] for p in row["phases"].values())
    if daemon is not None:
        daemon.stop()
        row["ctl_actions"] = daemon.actions_taken
        row["ctl_suppressed"] = daemon.actuators.suppressed
    system.shutdown()
    return row


def _verdict(rows: list[dict]) -> dict:
    """Static-best, controller and the synthesized oracle, side by side."""
    static_rows = [r for r in rows if r["mode"] == "static"]
    controller = next(r for r in rows if r["mode"] == "controller")
    static_best = max(static_rows, key=lambda r: r["total_good"])
    # oracle: for each phase, the best goodput any static limit achieved
    oracle_total = sum(
        max(r["phases"][phase["name"]]["good"] for r in static_rows)
        for phase in PHASES)
    return {
        "controller_total": controller["total_good"],
        "static_best_total": static_best["total_good"],
        "static_best_limit": static_best["limit"],
        "oracle_total": oracle_total,
        "beats_static": controller["total_good"] > static_best["total_good"],
        "vs_oracle": (controller["total_good"] / oracle_total
                      if oracle_total else 0.0),
        "seed": controller["seed"],
    }


def _gates(result: dict) -> None:
    # the control plane must earn its keep: strictly better than the best
    # static admission limit, and within 10% of the per-phase oracle
    assert result["beats_static"], (
        f"controller {result['controller_total']} <= "
        f"static-best {result['static_best_total']} "
        f"(limit {result['static_best_limit']})"
    )
    assert result["vs_oracle"] >= 0.9, (
        f"controller at {result['vs_oracle']:.0%} of oracle "
        f"{result['oracle_total']}"
    )
    # the controller must actually have steered (not won by luck of the
    # starting limit): actions were taken and the final limits differ
    # across phases' needs
    controller_row = next(r for r in result["rows"] if r["mode"] == "controller")
    assert controller_row["ctl_actions"] > 0, "controller never actuated"


def _per_phase(rows: list[dict]) -> list[dict]:
    """Flatten each phase's good/rejected counts into the row."""
    return [{**r,
             "label": f"static {r['limit']}" if r["mode"] == "static" else "controller",
             **{f"{name}_{k}": v for name, ph in r["phases"].items()
                for k, v in ph.items()}} for r in rows]


register(Experiment(
    name="control", figure="E15 — shifting mix: controller vs static",
    artifact="control", point=run_control_point,
    grid=(*({"mode": "static", "limit": lim} for lim in STATIC_LIMITS),
          {"mode": "controller"}),
    seeds="base",
    table=Table(
        title="E15 — shifting mix: controller vs static admission limits",
        columns=(("mode", "{label}"),
                 ("frontend good", "{frontend_good}"), ("rej", "{frontend_rejected}"),
                 ("analytics good", "{analytics_good}"), ("rej", "{analytics_rejected}"),
                 ("total good", "{total_good}")),
        derive=_per_phase,
        footer=("  static-best  {static_best_total} in-SLO ops (limit {static_best_limit})",
                "  controller   {controller_total} in-SLO ops (beats static-best: {beats_static})",
                "  oracle       {oracle_total} in-SLO ops (controller at {vs_oracle:.0%})"),
    ),
    gates=_gates, summarize=_verdict,
))
