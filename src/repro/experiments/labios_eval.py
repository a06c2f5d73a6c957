"""E9 — Customizing I/O interfaces: LABIOS workers (paper Fig 9(b)).

LABIOS workers persist 8KB *labels*.  On a filesystem backend each label
costs open/seek/write/close; on LabKVS it is one put.  We compare
ext4/xfs/f2fs against LabKVS-All / LabKVS-Min / LabKVS-D on NVMe and
PMEM (the paper omits HDD: seek-bound, nothing to win).

Paper shape: filesystems degrade >=12% vs LabKVS; relaxing LabKVS's
access-control guarantees buys up to an additional 16%.
"""

from __future__ import annotations

from .common import KERNEL_FSES, LabKvsFixture, kernel_fs_api
from ..workloads.labios import run_labios_fs, run_labios_kvs
from .registry import Experiment, Table, register

__all__ = []

BACKENDS = ("ext4", "xfs", "f2fs", "labkvs-all", "labkvs-min", "labkvs-d")


def run_labios_backend(env, p: dict, seed: int = 0) -> dict:
    backend, device = p["backend"], p["device"]
    kw = {"nlabels": p["nlabels"], "label_size": 8192, "seed": seed}
    if backend in KERNEL_FSES:
        result = run_labios_fs(env, kernel_fs_api(env, device, backend, seed=seed), **kw)
    else:
        fixture = LabKvsFixture.build(env, variant=backend.split("-", 1)[1],
                                      device=device, seed=seed)
        result = run_labios_kvs(env, fixture.kvs(), **kw)
    return {
        "backend": backend,
        "device": device,
        "MBps": result.throughput_MBps,
        "labels_per_sec": result.labels_per_sec,
    }


def _gates(result: dict) -> None:
    for device in ("nvme", "pmem"):
        mbps = {r["backend"]: r["MBps"] for r in result["rows"] if r["device"] == device}
        best_fs = max(mbps["ext4"], mbps["xfs"], mbps["f2fs"])
        # paper: filesystems degrade by at least 12% vs LabKVS
        assert mbps["labkvs-all"] > 1.12 * best_fs
        # relaxing access control buys more (paper: up to +16%)
        assert mbps["labkvs-d"] > mbps["labkvs-min"] > mbps["labkvs-all"]


register(Experiment(
    name="fig9b", figure="Fig 9(b)", artifact="labios",
    point=run_labios_backend,
    grid=tuple({"backend": backend, "device": device, "nlabels": 150}
               for device in ("nvme", "pmem") for backend in BACKENDS),
    seeds="base",
    table=Table(
        title="Fig 9(b) — LABIOS worker throughput (8KB labels)",
        columns=(("device", "{device}"), ("backend", "{backend}"),
                 ("MB/s", "{MBps:.2f}"), ("labels/s", "{labels_per_sec:.0f}")),
    ),
    gates=_gates,
    smoke={"backend": "xfs", "device": "pmem", "nlabels": 16},
))
