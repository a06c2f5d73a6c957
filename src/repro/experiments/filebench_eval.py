"""E10 — Cloud workloads: Filebench (paper Fig 9(c,d)).

The four default Filebench personalities over NVMe (the paper notes PMEM
gives identical trends, which this harness can also run), comparing
ext4/xfs/f2fs against Lab-All / Lab-Min / Lab-D LabFS stacks with the
Runtime at 8 workers.

Paper shape: LabFS stacks up to ~2.5x on varmail/webserver/webproxy
(metadata- and small-I/O-bound); fileserver is bandwidth-bound and shows
little difference.
"""

from __future__ import annotations

from ..core.runtime import RuntimeConfig
from ..workloads.filebench import PERSONALITIES, run_personality
from .common import KERNEL_FSES, LabFsFixture, kernel_fs_api
from .registry import Experiment, Table, register

__all__ = []

FB_CONFIGS = ("ext4", "xfs", "f2fs", "lab-all", "lab-min", "lab-d")


def run_filebench(env, p: dict, seed: int = 0) -> dict:
    config, personality, device = p["config"], p["personality"], p["device"]
    if config in KERNEL_FSES:
        # page cache sized so sustained fileserver writes trigger writeback
        # during the (scaled) run, as on a real machine under steady state
        api = kernel_fs_api(env, device, config, seed=seed, cache_pages=4096)
        api_factory = lambda tid: api  # noqa: E731
    else:
        api_factory = LabFsFixture.build(
            env, RuntimeConfig(nworkers=8, min_workers=8, max_workers=16, ncores=32),
            variant=config.split("-", 1)[1], device=device, seed=seed,
        ).api_factory()
    result = run_personality(env, api_factory, personality,
                             nthreads=p["nthreads"], loops=p["loops"], seed=seed)
    return {
        "config": config,
        "personality": personality,
        "kops_per_sec": result.ops_per_sec / 1000,
        "MBps": result.throughput_MBps,
    }


def _gates(result: dict) -> None:
    by = {(r["config"], r["personality"]): r["kops_per_sec"] for r in result["rows"]}
    # LabFS stacks win the metadata/small-I/O personalities
    for wl in ("varmail", "webproxy"):
        best_kernel = max(by[(fs, wl)] for fs in ("ext4", "xfs", "f2fs"))
        assert by[("lab-min", wl)] > best_kernel
        assert by[("lab-d", wl)] > by[("lab-all", wl)]
    # fileserver is the exception: bandwidth-bound, LabFS does not win
    assert by[("lab-min", "fileserver")] < 1.2 * by[("ext4", "fileserver")]


register(Experiment(
    name="fig9c", figure="Fig 9(c)", artifact="filebench",
    point=run_filebench,
    grid=tuple({"config": config, "personality": personality, "device": "nvme",
                "nthreads": 4, "loops": 5}
               for personality in PERSONALITIES for config in FB_CONFIGS),
    seeds="base",
    table=Table(title="Fig 9(c) — Filebench throughput (K ops/sec) on NVMe",
                pivot=("config", "personality", "{kops_per_sec:.1f}")),
    gates=_gates,
    smoke={"config": "f2fs", "personality": "varmail", "device": "nvme",
           "nthreads": 2, "loops": 1},
))
