"""E6 — Metadata throughput (paper Fig 7).

FxMark-style file-creation stress, threads 1..24, comparing the kernel
filesystems (ext4 / XFS / F2FS) against three LabFS configurations:

- ``labfs-all``  (Centralized+Permissions): Permissions + LabFS, async
- ``labfs-min``  (Centralized): permissions removed, async
- ``labfs-d``    (Minimal): synchronous execution — no IPC, no workers

The LabStor Runtime is configured with 16 workers (as in the paper).

Paper shape: LabFS up to ~3x ext4 single-threaded; removing permissions
buys ~7% more; going synchronous another ~20%; LabFS variants scale with
threads while the kernel FSes flatline on their journal/log locks.
"""

from __future__ import annotations

from ..core.runtime import RuntimeConfig
from ..workloads.fxmark import run_create
from .common import KERNEL_FSES, LabFsFixture, kernel_fs_api
from .registry import Experiment, Table, register

__all__ = []

CONFIGS = ("ext4", "xfs", "f2fs", "labfs-all", "labfs-min", "labfs-d")


def run_metadata(env, p: dict, seed: int = 0) -> dict:
    config, nthreads = p["config"], p["nthreads"]
    if config in KERNEL_FSES:
        api = kernel_fs_api(env, "nvme", config, seed=seed)
        result = run_create(env, lambda tid: api, nthreads, p["files_per_thread"])
    else:
        fixture = LabFsFixture.build(
            env, RuntimeConfig(nworkers=16, min_workers=16, max_workers=16, ncores=48),
            variant=config.split("-", 1)[1], seed=seed,
        )
        result = run_create(env, fixture.api_factory(), nthreads, p["files_per_thread"])
    return {
        "config": config,
        "nthreads": nthreads,
        "kops_per_sec": result.ops_per_sec / 1000,
    }


def _gates(result: dict) -> None:
    by = {(r["config"], r["nthreads"]): r["kops_per_sec"] for r in result["rows"]}
    # LabFS up to ~3x over the kernel filesystems single-threaded
    assert by[("labfs-all", 1)] > 1.8 * by[("ext4", 1)]
    # removing permissions: ~+7%; removing the centralized authority: ~+20%
    assert 1.02 < by[("labfs-min", 1)] / by[("labfs-all", 1)] < 1.20
    assert 1.08 < by[("labfs-d", 1)] / by[("labfs-min", 1)] < 1.45
    # LabFS scales with client threads; kernel FSes flatline on their locks
    assert by[("labfs-all", 24)] > 6 * by[("labfs-all", 1)]
    for fs in ("ext4", "xfs", "f2fs"):
        assert by[(fs, 24)] < 3 * by[(fs, 1)]


register(Experiment(
    name="fig7", figure="Fig 7", artifact="metadata",
    point=run_metadata,
    grid=tuple({"config": config, "nthreads": n, "files_per_thread": 60}
               for config in CONFIGS for n in (1, 4, 8, 16, 24)),
    seeds="base",
    table=Table(title="Fig 7 — metadata throughput (K creates/sec)",
                pivot=("config", "nthreads", "{kops_per_sec:.1f}")),
    gates=_gates,
    smoke={"config": "ext4", "nthreads": 4, "files_per_thread": 8},
))
