"""E3 — Work Orchestrator: dynamic CPU allocation (paper Fig 5(a)).

Clients (1..16) each randomly write ``ops_per_client`` 4KB requests
through a NoOp + Kernel Driver LabStack on NVMe; the Runtime runs with
1 worker, 8 workers, or the dynamic policy.  We measure aggregate IOPS
and the average number of cores the worker pool burned (awake time).

Paper shape: 1 worker saturates around 2 clients and loses ~50% IOPS by
4+; 8 workers hit max performance but use ~25% more CPU than dynamic,
which converges to ~4 cores mid-range; at 16 clients dynamic ≈ 8 workers
in both metrics.
"""

from __future__ import annotations

from ..core.labstack import StackSpec
from ..core.runtime import RuntimeConfig
from ..system import LabStorSystem
from ..units import msec, sec
from ..workloads.fio import FioJob, LabStackEngine, run_fio
from .registry import Experiment, Table, register

__all__ = []


def _worker_setting(kind: str) -> dict:
    if kind == "1worker":
        return {"nworkers": 1, "policy": "rr", "min_workers": 1, "max_workers": 1}
    if kind == "8workers":
        return {"nworkers": 8, "policy": "rr", "min_workers": 8, "max_workers": 8}
    if kind == "dynamic":
        return {"nworkers": 1, "policy": "dynamic", "min_workers": 1, "max_workers": 8}
    raise ValueError(f"unknown worker setting {kind!r}")


def run_orchestration_cpu(env, p: dict, seed: int = 0) -> dict:
    nclients, workers, ops_per_client = p["nclients"], p["workers"], p["ops_per_client"]
    cfg = RuntimeConfig(orchestrator_interval_ns=msec(1.0), **_worker_setting(workers))
    sys_ = LabStorSystem(env=env, seed=seed, devices=("nvme",), config=cfg)
    spec = StackSpec.linear("blk::/w", [("NoOpSchedMod", "ocpu.noop"),
                                        ("KernelDriverMod", "ocpu.drv")])
    spec.nodes[0].attrs = {"device": "nvme"}
    spec.nodes[1].attrs = {"device": "nvme"}
    stack = sys_.runtime.mount_stack(spec)

    engines = []
    for c in range(nclients):
        client = sys_.client()
        engines.append(LabStackEngine(client, stack, sys_.devices["nvme"]))

    # measure from a clean accounting window
    for w in sys_.runtime.orchestrator.workers:
        w.reset_accounting()
    start = sys_.env.now
    results = []

    import numpy as np

    procs = []
    total_ops = 0
    from ..workloads.fio import _job_proc, FioResult

    result = FioResult()
    for c, engine in enumerate(engines):
        job = FioJob(rw="randwrite", bs=4096, nops=ops_per_client, core=c)
        payload = bytes([c % 251]) * 4096
        rng = np.random.default_rng(seed * 131 + c)
        procs.append(sys_.process(_job_proc(sys_.env, engine, job, rng, result, payload)))
        total_ops += ops_per_client
    sys_.run(sys_.env.all_of(procs))
    elapsed = sys_.env.now - start
    # cores burned by the worker pool (busy-polling counts, sleeping doesn't)
    awake = sum(w.awake_time() for w in sys_.runtime.orchestrator.workers)
    return {
        "nclients": nclients,
        "workers": workers,
        "iops": total_ops / (elapsed / sec(1)),
        "busy_cores": awake / elapsed,
        "final_workers": sys_.runtime.orchestrator.worker_count(),
        "lat_p99_us": result.latency.p99 / 1000,
    }


def _gates(result: dict) -> None:
    by = {(r["workers"], r["nclients"]): r for r in result["rows"]}
    # 1 worker saturates: by 8 clients it is far below the 8-worker config
    assert by[("1worker", 8)]["iops"] < 0.6 * by[("8workers", 8)]["iops"]
    # at low client counts a single worker matches the big pool
    assert by[("1worker", 1)]["iops"] > 0.95 * by[("8workers", 1)]["iops"]
    # 8 workers burn more CPU than dynamic at mid-range load
    assert by[("8workers", 8)]["busy_cores"] > 1.5 * by[("dynamic", 8)]["busy_cores"]
    # dynamic approaches the 8-worker performance at 16 clients
    assert by[("dynamic", 16)]["iops"] > 0.75 * by[("8workers", 16)]["iops"]


register(Experiment(
    name="fig5a", figure="Fig 5(a)", artifact="orchestrator_cpu",
    point=run_orchestration_cpu,
    grid=tuple({"workers": workers, "nclients": n, "ops_per_client": 600}
               for workers in ("1worker", "8workers", "dynamic")
               for n in (1, 2, 4, 8, 16)),
    seeds="base",
    table=Table(
        title="Fig 5(a) — dynamic CPU allocation (IOPS + cores burned)",
        columns=(("config", "{workers}"), ("clients", "{nclients}"),
                 ("KIOPS", "{kiops:.2f}"), ("busy cores", "{busy_cores:.2f}"),
                 ("workers@end", "{final_workers}")),
        derive=lambda rows: [{**r, "kiops": r["iops"] / 1000} for r in rows],
    ),
    gates=_gates,
    smoke={"workers": "dynamic", "nclients": 4, "ops_per_client": 60},
))
