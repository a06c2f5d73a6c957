"""E7 — Developing & customizing I/O policies (paper Fig 8 / Table II).

A throughput app (T-App: 64KB random writes, qd32, 8 threads) and a
latency app (L-App: 4KB random writes, qd1, 8 threads) run isolated or
colocated on shared cores.  Four schedulers:

- ``linux-noop`` / ``linux-blk``: in-kernel, through the full block layer
  (blk-switch requires its custom kernel in the paper; here it is the
  KernelBlkSwitch elevator).
- ``lab-noop`` / ``lab-blk``: the LabStor LabMod ports in a scheduler +
  Kernel Driver stack.

Both apps share cores 0..3, so the NoOp core→hctx mapping funnels the
L-App into the T-App's hardware queues (head-of-line blocking), while
blk-switch steers by load.  We report L-App average and P99 latency.

Paper shape: isolated, NoOp <= blk-switch (and Lab-NoOp ~5% better than
Linux-NoOp); colocated, Linux-NoOp latency explodes, blk-switch restores
QoS, and Lab-Blk is ~20% below Linux-Blk.
"""

from __future__ import annotations

from ..core.labstack import StackSpec
from ..core.runtime import RuntimeConfig
from ..devices.profiles import make_device
from ..kernel.interfaces import IoUring
from ..system import LabStorSystem
from ..units import KiB
from ..workloads.fio import FioJob, LabStackEngine, RawDeviceEngine, run_fio
from .registry import Experiment, Table, register

__all__ = []

SCHEDULERS = ("linux-noop", "linux-blk", "lab-noop", "lab-blk")

_SHARED_CORES = 4  # both apps pinned to cores 0..3 when colocated


def _jobs(colocated: bool, l_nops: int, t_nops: int):
    l_jobs = [FioJob(rw="randwrite", bs=4 * KiB, nops=l_nops, iodepth=1, core=c % _SHARED_CORES,
                     region_offset=0, region_size=1 << 30)
              for c in range(8)]
    t_jobs = []
    if colocated:
        t_jobs = [FioJob(rw="randwrite", bs=64 * KiB, nops=t_nops, iodepth=32,
                         core=c % _SHARED_CORES, region_offset=1 << 30, region_size=1 << 30)
                  for c in range(8)]
    return l_jobs, t_jobs


def run_schedulers(env, p: dict, seed: int = 0) -> dict:
    scheduler, colocated = p["scheduler"], p["colocated"]
    if scheduler.startswith("linux-"):
        dev = make_device(env, "nvme")
        iface = IoUring(env, dev)  # the paper drives kernel schedulers via fio
        iface.block_layer.scheduler = "noop" if scheduler == "linux-noop" else "blk-switch"
        engine = RawDeviceEngine(iface)
        make_engine = lambda: engine  # noqa: E731 - kernel path is stateless per thread
    else:
        sched_mod = "NoOpSchedMod" if scheduler == "lab-noop" else "BlkSwitchSchedMod"
        sys_ = LabStorSystem(env=env, seed=seed, devices=("nvme",),
                             config=RuntimeConfig(nworkers=8, ncores=48))
        spec = StackSpec.linear(
            "blk::/sched", [(sched_mod, f"schedx.{scheduler}.s"),
                            ("KernelDriverMod", f"schedx.{scheduler}.d")])
        spec.nodes[0].attrs = {"device": "nvme"}
        spec.nodes[1].attrs = {"device": "nvme"}
        stack = sys_.runtime.mount_stack(spec)
        # one client (one unordered queue pair) per fio thread, as in the
        # paper — unordered so qd32 stays 32-outstanding inside the Runtime
        make_engine = lambda: LabStackEngine(  # noqa: E731
            sys_.client(ordered=False), stack, sys_.devices["nvme"]
        )

    l_jobs, t_jobs = _jobs(colocated, p["l_nops"], p["t_nops"])
    # run T-jobs and L-jobs together but record only L latency
    from ..workloads.fio import FioResult, _job_proc
    import numpy as np

    l_result = FioResult()
    t_result = FioResult()
    procs = []
    rng = np.random.default_rng(seed)
    for job, result in [(j, t_result) for j in t_jobs] + [(j, l_result) for j in l_jobs]:
        payload = bytes([job.core]) * job.bs
        procs.append(env.process(
            _job_proc(env, make_engine(), job, np.random.default_rng(rng.integers(2**63)),
                      result, payload)))
    start = env.now
    env.run(env.all_of(procs))
    l_result.elapsed_ns = env.now - start
    return {
        "scheduler": scheduler,
        "colocated": colocated,
        "l_lat_mean_us": l_result.latency.mean / 1000,
        "l_lat_p99_us": l_result.latency.p99 / 1000,
        "l_iops": l_result.iops,
    }


def _gates(result: dict) -> None:
    by = {(r["scheduler"], r["colocated"]): r for r in result["rows"]}
    # isolated: noop performs at least as well as blk-switch (paper Table II)
    assert by[("linux-noop", False)]["l_lat_mean_us"] <= 1.05 * by[("linux-blk", False)]["l_lat_mean_us"]
    # colocated: noop suffers head-of-line blocking
    assert by[("linux-noop", True)]["l_lat_p99_us"] > 5 * by[("linux-noop", False)]["l_lat_p99_us"]
    assert by[("lab-noop", True)]["l_lat_p99_us"] > 5 * by[("lab-noop", False)]["l_lat_p99_us"]
    # blk-switch restores QoS in both worlds
    assert by[("linux-blk", True)]["l_lat_p99_us"] < by[("linux-noop", True)]["l_lat_p99_us"] / 3
    assert by[("lab-blk", True)]["l_lat_p99_us"] < by[("lab-noop", True)]["l_lat_p99_us"] / 3


register(Experiment(
    name="fig8", figure="Fig 8 / Table II", artifact="schedulers",
    point=run_schedulers,
    grid=tuple({"scheduler": sched, "colocated": colocated,
                "l_nops": 120, "t_nops": 120}
               for colocated in (False, True) for sched in SCHEDULERS),
    seeds="base",
    table=Table(
        title="Fig 8 / Table II — I/O scheduler comparison (L-App latency)",
        columns=(("scheduler", "{scheduler}"), ("placement", "{placement}"),
                 ("L-App mean (us)", "{l_lat_mean_us:.2f}"),
                 ("L-App p99 (us)", "{l_lat_p99_us:.2f}")),
        derive=lambda rows: [
            {**r, "placement": "colocated" if r["colocated"] else "isolated"}
            for r in rows],
    ),
    gates=_gates,
    # the paper's subject: blk-switch as a LabMod, under co-location
    smoke={"scheduler": "lab-blk", "colocated": True, "l_nops": 8, "t_nops": 8},
))
