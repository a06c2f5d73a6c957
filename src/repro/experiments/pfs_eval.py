"""E8 — PFS over customized LabStacks (paper Fig 9(a)).

VPIC writes and BD-CATS reads run over the OrangeFS-model PFS.  The
metadata server sits on NVMe with one of three local stacks: ext4 (the
kernel baseline), LabFS-All, or LabFS-Min; the data servers run ext4 on
HDD / SSD / NVMe.  The paper's effect is entirely in the metadata-server
stack: faster metadata buys 6-12% end-to-end, with the gain growing as
the data devices get faster (on HDD the I/O cost buries it).

Scaling: 8 ranks x 4 steps x 64KB-striped buffers instead of 640 ranks x
16 steps x 165GB; the metadata:data op ratio per stripe is preserved.
"""

from __future__ import annotations

from ..core.runtime import RuntimeConfig
from ..devices.profiles import make_device
from ..kernel import make_filesystem
from ..pfs import OrangeFs
from ..sim import RngRegistry
from ..units import to_sec
from ..workloads.fsapi import KernelFsAdapter
from ..workloads.vpic import VpicConfig, run_bdcats, run_vpic
from .common import LabFsFixture
from .registry import Experiment, Table, register

__all__ = []

MDS_BACKENDS = ("ext4", "labfs-all", "labfs-min")


def _build_pfs(env, mds_backend: str, data_device: str, ndata: int, seed: int):
    rngs = RngRegistry(seed)  # the kernel-side devices; LabFS seeds its own
    if mds_backend == "ext4":
        mds_dev = make_device(env, "nvme", rng=rngs.stream("device.mds"))
        mds_api = KernelFsAdapter(make_filesystem("ext4", env, mds_dev))
    else:
        fixture = LabFsFixture.build(
            env, RuntimeConfig(nworkers=4, min_workers=4, max_workers=8),
            variant=mds_backend.split("-", 1)[1], mount="fs::/mds", seed=seed,
        )
        mds_api = fixture.api_factory()(0)
    data_apis = [
        KernelFsAdapter(make_filesystem("ext4", env, make_device(
            env, data_device, rng=rngs.stream(f"device.data{i}"))))
        for i in range(ndata)
    ]
    return OrangeFs(env, mds_api, data_apis, layout_batch=1)


def run_pfs(env, p: dict, seed: int = 0) -> dict:
    mds_backend, data_device = p["mds_backend"], p["data_device"]
    cfg = VpicConfig(nprocs=p["nprocs"], timesteps=p["timesteps"],
                     particles_per_proc=p["particles_per_proc"])
    pfs = _build_pfs(env, mds_backend, data_device, p["ndata"], seed)
    vpic = run_vpic(env, pfs, cfg)
    pfs.drop_data_caches()  # BD-CATS starts cold, as on the real testbed
    bdcats = run_bdcats(env, pfs, cfg)
    return {
        "mds_backend": mds_backend,
        "data_device": data_device,
        "vpic_s": to_sec(vpic.elapsed_ns),
        "bdcats_s": to_sec(bdcats.elapsed_ns),
        "vpic_MBps": vpic.bandwidth_MBps,
        "bdcats_MBps": bdcats.bandwidth_MBps,
        "metadata_ops": vpic.metadata_ops + bdcats.metadata_ops,
    }


def _gates(result: dict) -> None:
    def vpic(device):
        return {r["mds_backend"]: r["vpic_s"] for r in result["rows"]
                if r["data_device"] == device}

    # fast data devices expose the metadata-server speedup (paper: 6-12%)
    nvme = vpic("nvme")
    gain_nvme = nvme["ext4"] / nvme["labfs-min"] - 1
    assert gain_nvme > 0.04
    # on HDD the I/O cost buries it
    hdd = vpic("hdd")
    gain_hdd = hdd["ext4"] / hdd["labfs-min"] - 1
    assert gain_nvme > gain_hdd + 0.03


register(Experiment(
    name="fig9a", figure="Fig 9(a)", artifact="pfs",
    point=run_pfs,
    grid=tuple({"mds_backend": backend, "data_device": data_device, "ndata": 4,
                "nprocs": 4, "timesteps": 4, "particles_per_proc": 4096}
               for data_device in ("hdd", "ssd", "nvme")
               for backend in MDS_BACKENDS),
    seeds="base",
    table=Table(
        title="Fig 9(a) — VPIC/BD-CATS over OrangeFS with customized MDS stacks",
        columns=(("data device", "{data_device}"), ("MDS backend", "{mds_backend}"),
                 ("VPIC (s)", "{vpic_s:.4f}"), ("BD-CATS (s)", "{bdcats_s:.4f}"),
                 ("VPIC MB/s", "{vpic_MBps:.1f}"), ("BD-CATS MB/s", "{bdcats_MBps:.1f}")),
    ),
    gates=_gates,
    smoke={"mds_backend": "ext4", "data_device": "ssd", "ndata": 2,
           "nprocs": 2, "timesteps": 1, "particles_per_proc": 512},
))
