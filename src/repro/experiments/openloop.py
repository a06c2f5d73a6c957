"""E13 — open-loop overload: goodput vs offered load, with admission control.

The first production-traffic experiment: the canonical two-tenant
population (``repro.traffic.presets``) is driven open-loop at a sweep of
offered-load multipliers, once with no admission control and once with a
queue-depth threshold.  Each point is an independent seeded simulation,
fanned across processes by :mod:`repro.experiments.sweep`.

Expected shape — the textbook open-loop curve:

- below saturation goodput tracks offered load (the 45-degree line);
- past the knee the **none** policy collapses: arrivals keep landing on a
  saturated system, queues grow without bound, every admitted op blows
  its deadline, goodput falls toward zero;
- **queue-depth** admission sheds the excess at the door instead, so the
  admitted ops still meet their SLO and goodput plateaus near capacity.
"""

from __future__ import annotations

from ..units import msec
from .registry import Experiment, Table, register

__all__ = ["POLICIES"]

OFFERED_LOADS = (0.25, 0.5, 1.0, 1.5, 2.5, 4.0)
POLICIES = ("none", "queue-depth")


def run_openloop_point(env, point: dict, seed: int) -> dict:
    """One offered-load point under one admission policy."""
    from ..traffic.engine import QueueDepthAdmission
    from ..traffic.presets import build_overload_engine

    policy = None
    if point["policy"] == "queue-depth":
        policy = QueueDepthAdmission(point["max_inflight"])
    system, engine = build_overload_engine(
        env=env, seed=seed,
        duration_ns=msec(point["duration_ms"]),
        load=point["load"],
        policy=policy,
    )
    s = engine.run()
    fe = s["tenants"]["frontend"]
    row = {
        "policy": point["policy"],
        "load": point["load"],
        "offered_ops_s": s["offered_ops_s"],
        "goodput_ops_s": s["goodput_ops_s"],
        "achieved_ops_s": s["achieved_ops_s"],
        "launched": s["totals"]["launched"],
        "good": s["totals"]["good"],
        "violations": s["totals"]["violations"],
        "rejected": s["totals"]["rejected"],
        "peak_inflight": s["peak_inflight"],
        "frontend_p50_ns": fe.get("p50_ns", 0.0),
        "frontend_p99_ns": fe.get("p99_ns", 0.0),
        "frontend_p999_ns": fe.get("p999_ns", 0.0),
        "seed": seed,
    }
    system.shutdown()
    return row


def _gates(result: dict) -> None:
    rows = result["rows"]
    by = {(r["policy"], r["load"]): r for r in rows}
    loads = sorted({r["load"] for r in rows})
    lo, hi = loads[0], loads[-1]
    # below saturation goodput tracks offered load (no admission needed)
    light = by[("none", lo)]
    assert light["good"] >= 0.9 * light["launched"], (
        f"light load already violating SLOs: {light}"
    )
    # past saturation the no-admission goodput collapses below the knee...
    knee = max(by[("none", load)]["goodput_ops_s"] for load in loads)
    collapsed = by[("none", hi)]["goodput_ops_s"]
    assert collapsed < 0.6 * knee, (
        f"open loop failed to expose overload: {collapsed:.0f} vs knee {knee:.0f}"
    )
    # ...while queue-depth admission sheds load and holds a plateau
    guarded = by[("queue-depth", hi)]
    assert guarded["rejected"] > 0, "admission control never engaged"
    assert guarded["goodput_ops_s"] > 2.0 * collapsed, (
        f"admission control did not protect goodput: "
        f"{guarded['goodput_ops_s']:.0f} vs {collapsed:.0f}"
    )


def _scaled(rows: list[dict]) -> list[dict]:
    """Kops/s and microseconds for display."""
    return [{**r,
             "offered_K": r["offered_ops_s"] / 1000,
             "goodput_K": r["goodput_ops_s"] / 1000,
             "achieved_K": r["achieved_ops_s"] / 1000,
             "fe_p99_us": r["frontend_p99_ns"] / 1000,
             "fe_p999_us": r["frontend_p999_ns"] / 1000} for r in rows]


register(Experiment(
    name="openloop", figure="E13 — open-loop overload (goodput vs offered load)",
    artifact="openloop", point=run_openloop_point,
    grid=tuple({"policy": policy, "load": load, "duration_ms": 2.0, "max_inflight": 4}
               for policy in POLICIES for load in OFFERED_LOADS),
    seeds="per-point",
    table=Table(
        title="E13 — open-loop overload (2 tenants, YCSB on LabKVS, NVMe)",
        columns=(("policy", "{policy}"), ("load", "{load:.2f}"),
                 ("offered K/s", "{offered_K:.0f}"), ("goodput K/s", "{goodput_K:.1f}"),
                 ("done K/s", "{achieved_K:.1f}"), ("viol", "{violations}"),
                 ("rej", "{rejected}"), ("peak qd", "{peak_inflight}"),
                 ("fe p99 us", "{fe_p99_us:.0f}"), ("fe p999 us", "{fe_p999_us:.0f}")),
        derive=_scaled,
    ),
    gates=_gates,
))
