"""E14 — sharded GenericKVS scaling across cluster nodes.

Fixed offered load (a constant pool of closed-loop client processes,
constant total op count) against a :class:`~repro.cluster.ShardedKVS`
spread over 1..N single-worker nodes.  With one Runtime worker per node
the single-node deployment is service-time bound, so adding nodes adds
genuine capacity: throughput should scale near-linearly until the
fabric round trip (NIC fetch + serialization + propagation, both ways)
starts to dominate; the replicated points price the write fan-out.

The second half re-hosts the paper's PFS evaluation (E8 / Fig 9(a)) on
genuine cluster nodes: the MDS runs a LabFS stack on its own node, each
data server's ext4 rides its own node's device, and every PFS message
pays the shared fabric through :class:`~repro.cluster.FabricTransport`
instead of the standalone latency+bandwidth formula.

Everything here is deterministic: results depend only on (point, seed),
and :func:`sweep_cluster_scaling` fans points through
:func:`~repro.experiments.sweep.run_sweep`, so process counts cannot
change the digest.
"""

from __future__ import annotations

from ..core.runtime import RuntimeConfig
from ..kernel import make_filesystem
from ..mods.generic_fs import GenericFS
from ..pfs import OrangeFs
from ..sim.check import reset_global_counters
from ..units import to_sec
from ..workloads.fsapi import GenericFsAdapter, KernelFsAdapter
from ..workloads.vpic import VpicConfig, run_bdcats, run_vpic
from .report import format_table
from .sweep import run_sweep

__all__ = [
    "run_cluster_scaling",
    "sweep_cluster_scaling",
    "format_cluster_scaling",
    "run_cluster_scaling_par",
    "sweep_cluster_scaling_par",
    "format_cluster_scaling_par",
    "run_pfs_cluster",
    "sweep_pfs_cluster",
    "format_pfs_cluster",
]


def run_cluster_scaling(
    *,
    nnodes: int = 2,
    replicas: int = 1,
    nclients: int = 32,
    ops_per_client: int = 16,
    value_size: int = 256,
    vnodes: int = 64,
    seed: int = 0,
) -> dict:
    """One E14 point: ``nclients`` closed loops over an ``nnodes``-node
    sharded KVS with ``replicas``-way replication.

    Offered load is fixed by construction — the loop pool and total op
    count do not change with the node count — so ops/s differences are
    pure capacity."""
    from ..cluster import cluster as cluster_builder
    from ..cluster.par import kvs_closed_loop

    b = cluster_builder(seed=seed)
    cfg = RuntimeConfig(nworkers=1, min_workers=1, max_workers=1)
    for i in range(nnodes):
        b.node(f"n{i}", config=cfg)
    cl = b.build()
    kvs = cl.shard_kvs("kvs::/bench", replicas=replicas, vnodes=vnodes)
    # one gateway per node: clients enter the cluster where they live,
    # like real tenants, instead of funneling through a single node
    gateways = [kvs] + [
        kvs.bind(cl.client(f"n{i}")) for i in range(1, nnodes)
    ]
    procs = [
        cl.process(
            kvs_closed_loop(gateways[i % nnodes], i, ops_per_client,
                            value_size),
            name=f"bench.loop{i}",
        )
        for i in range(nclients)
    ]
    t0 = cl.env.now
    for p in procs:
        cl.run(p)
    elapsed_ns = cl.env.now - t0
    total_ops = nclients * ops_per_client * 2
    fabric_bytes = sum(s["bytes"] for s in cl.fabric.stats().values())
    remote_calls = sum(r.remote_calls for r in cl._routes.values())
    cl.shutdown()
    return {
        "nnodes": nnodes,
        "replicas": replicas,
        "ops": total_ops,
        "elapsed_ms": elapsed_ns / 1e6,
        "kops_s": total_ops / to_sec(elapsed_ns) / 1e3 if elapsed_ns else 0.0,
        "remote_calls": remote_calls,
        "fabric_MB": fabric_bytes / 1e6,
        "fanout_failovers": kvs.failovers,
    }


def _scaling_point(point: dict, seed: int) -> dict:
    """Module-level sweep fn (crosses the process pool).  Resetting the
    identity counters first makes the run independent of whatever the
    worker process simulated before — the digest-stability contract."""
    reset_global_counters()
    row = run_cluster_scaling(
        nnodes=point["nnodes"],
        replicas=point["replicas"],
        nclients=point.get("nclients", 32),
        ops_per_client=point.get("ops_per_client", 16),
        seed=seed,
    )
    row["seed"] = seed
    return row


def sweep_cluster_scaling(
    *,
    node_counts=(1, 2, 4),
    replica_counts=(1, 2),
    nclients: int = 32,
    ops_per_client: int = 16,
    base_seed: int = 0,
    processes: int | None = None,
) -> list[dict]:
    """The E14 grid: node count x replication factor (points needing
    more nodes than they have are skipped)."""
    points = [
        {"nnodes": n, "replicas": r,
         "nclients": nclients, "ops_per_client": ops_per_client}
        for n in node_counts
        for r in replica_counts
        if r <= n
    ]
    return run_sweep(_scaling_point, points, base_seed=base_seed,
                     processes=processes)


def format_cluster_scaling(rows: list[dict]) -> str:
    base = {
        r["replicas"]: r["kops_s"] for r in rows if r["nnodes"] == min(
            row["nnodes"] for row in rows
        )
    }
    return format_table(
        ["nodes", "replicas", "kops/s", "speedup", "elapsed (ms)",
         "remote calls", "fabric MB"],
        [[r["nnodes"], r["replicas"], f"{r['kops_s']:.1f}",
          f"{r['kops_s'] / base[r['replicas']]:.2f}x"
          if base.get(r["replicas"]) else "-",
          f"{r['elapsed_ms']:.2f}", r["remote_calls"],
          f"{r['fabric_MB']:.2f}"] for r in rows],
        title="E14 — sharded GenericKVS throughput vs. cluster size",
    )


# ----------------------------------------------------------------------
# E14 under the sharded runner
# ----------------------------------------------------------------------
def run_cluster_scaling_par(
    *,
    nnodes: int = 4,
    shards: int = 1,
    replicas: int = 1,
    nclients: int = 96,
    ops_per_client: int = 16,
    value_size: int = 256,
    link_lat_ns: int = 100_000,
    seed: int = 0,
) -> dict:
    """One E14 point executed by :mod:`repro.sim.par`: the same fixed
    offered load over a cross-rack topology (wide ``link_lat_ns`` buys
    the runner wide lookahead windows), sharded across ``shards`` OS
    processes.  ``shards=1`` is the serial baseline of the same windowed
    architecture — virtual results are byte-identical at every shard
    count, only wall clock moves."""
    from ..scenarios.e14 import E14ParProgram
    from ..sim.par import run_program

    program = E14ParProgram(
        seed, nnodes=nnodes, replicas=replicas, nclients=nclients,
        ops_per_client=ops_per_client, value_size=value_size,
        link_lat_ns=link_lat_ns,
    )
    res = run_program(program, shards=shards, trace=False)
    row = dict(res.reduced)
    row.update(
        shards=res.shards,
        rounds=res.rounds,
        messages=res.messages,
        events=res.events,
        wall_s=res.wall_s,
        max_shard_cpu_s=max(s["cpu_s"] for s in res.shard_stats),
        total_cpu_s=sum(s["cpu_s"] for s in res.shard_stats),
        seed=seed,
    )
    return row


def sweep_cluster_scaling_par(
    *,
    node_counts=(4, 8),
    shard_counts=(1, 2, 4),
    nclients: int = 96,
    ops_per_client: int = 16,
    seed: int = 0,
) -> list[dict]:
    """E14 at 4-8 nodes under the parallel runner: every (nnodes,
    shards) cell, run sequentially so each cell's forked shards get the
    whole machine.  Within a node count the virtual rows must agree —
    asserted here, the cheap always-on cousin of the digest gate."""
    rows: list[dict] = []
    for nnodes in node_counts:
        base: dict | None = None
        for shards in shard_counts:
            if shards > nnodes:
                continue
            reset_global_counters()
            row = run_cluster_scaling_par(
                nnodes=nnodes, shards=shards, nclients=nclients,
                ops_per_client=ops_per_client, seed=seed,
            )
            if base is None:
                base = row
            else:
                for key in ("ops", "kops_s", "remote_calls", "fabric_MB"):
                    assert row[key] == base[key], (
                        f"nnodes={nnodes} shards={shards}: {key} diverged "
                        f"from the shards={shard_counts[0]} baseline")
            row["speedup"] = base["wall_s"] / row["wall_s"] if row["wall_s"] else 0.0
            rows.append(row)
    return rows


def format_cluster_scaling_par(rows: list[dict]) -> str:
    return format_table(
        ["nodes", "shards", "kops/s", "wall (s)", "speedup", "rounds",
         "msgs", "max cpu (s)"],
        [[r["nnodes"], r["shards"], f"{r['kops_s']:.1f}",
          f"{r['wall_s']:.3f}", f"{r.get('speedup', 1.0):.2f}x",
          r["rounds"], r["messages"], f"{r['max_shard_cpu_s']:.3f}"]
         for r in rows],
        title="E14/par — sharded-runner wall clock vs. shard count",
    )


# ----------------------------------------------------------------------
# PFS re-hosted on genuine nodes
# ----------------------------------------------------------------------
def run_pfs_cluster(
    *,
    ndata: int = 4,
    data_device: str = "nvme",
    mds_variant: str = "min",
    cfg: VpicConfig | None = None,
    seed: int = 0,
) -> dict:
    """The Fig 9(a) evaluation with every server on a real cluster node.

    Node ``cn`` hosts the compute client, ``mds`` runs LabFS-<variant>
    on its own Runtime, and each ``d<i>`` data server's ext4 rides that
    node's device.  PFS messages pay the shared fabric."""
    from ..cluster import FabricTransport, cluster as cluster_builder

    cfg = cfg or VpicConfig(nprocs=2, timesteps=2, particles_per_proc=2048)
    b = cluster_builder(seed=seed)
    b.node("cn")
    b.node("mds", config=RuntimeConfig(nworkers=4, min_workers=4, max_workers=8))
    for i in range(ndata):
        b.node(f"d{i}", devices=(data_device,))
    cl = b.build()

    mds_node = cl.nodes["mds"]
    mds_node.stack("fs::/mds").fs(variant=mds_variant, nworkers=4).mount()
    cl.register_service("fs::/mds", "mds")
    mds_api = GenericFsAdapter(GenericFS(mds_node.client()), "fs::/mds")
    data_apis = [
        KernelFsAdapter(make_filesystem(
            "ext4", cl.env, cl.nodes[f"d{i}"].devices[data_device]))
        for i in range(ndata)
    ]
    transport = FabricTransport(
        cl.fabric, "cn",
        {"mds": "mds", **{i: f"d{i}" for i in range(ndata)}},
    )
    pfs = OrangeFs(cl.env, mds_api, data_apis, transport=transport)
    vpic = run_vpic(cl.env, pfs, cfg)
    pfs.drop_data_caches()
    bdcats = run_bdcats(cl.env, pfs, cfg)
    fabric_bytes = sum(s["bytes"] for s in cl.fabric.stats().values())
    cl.shutdown()
    return {
        "ndata": ndata,
        "nprocs": cfg.nprocs,
        "data_device": data_device,
        "mds_variant": mds_variant,
        "vpic_s": to_sec(vpic.elapsed_ns),
        "bdcats_s": to_sec(bdcats.elapsed_ns),
        "vpic_MBps": vpic.bandwidth_MBps,
        "bdcats_MBps": bdcats.bandwidth_MBps,
        "metadata_ops": vpic.metadata_ops + bdcats.metadata_ops,
        "fabric_messages": transport.messages,
        "fabric_MB": fabric_bytes / 1e6,
    }


def _pfs_cluster_point(point: dict, seed: int) -> dict:
    """Module-level sweep fn (crosses the process pool)."""
    reset_global_counters()
    row = run_pfs_cluster(
        ndata=point["ndata"],
        cfg=VpicConfig(
            nprocs=point["nprocs"],
            timesteps=point.get("timesteps", 2),
            particles_per_proc=point.get("particles_per_proc", 1024),
        ),
        seed=seed,
    )
    row["seed"] = seed
    return row


def sweep_pfs_cluster(
    *,
    proc_counts=(8, 32, 128),
    ndata: int = 4,
    timesteps: int = 2,
    particles_per_proc: int = 1024,
    base_seed: int = 0,
    processes: int | None = None,
) -> list[dict]:
    """The PFS grid pushed toward the paper's 640-process shape: VPIC
    rank count scaled on a fixed node-hosted deployment.  Points fan out
    over the sweep's process pool — the grid, not a single point, is the
    parallel unit here, because OrangeFs generator frames thread through
    every node's adapters and cannot split across Environments.  Pass
    ``proc_counts=(40, 160, 640)`` for the full paper shape."""
    points = [
        {"ndata": ndata, "nprocs": n, "timesteps": timesteps,
         "particles_per_proc": particles_per_proc}
        for n in proc_counts
    ]
    return run_sweep(_pfs_cluster_point, points, base_seed=base_seed,
                     processes=processes)


def format_pfs_cluster(rows: list[dict]) -> str:
    return format_table(
        ["procs", "data nodes", "vpic MB/s", "bdcats MB/s", "meta ops",
         "fabric MB"],
        [[r["nprocs"], r["ndata"], f"{r['vpic_MBps']:.1f}",
          f"{r['bdcats_MBps']:.1f}", r["metadata_ops"],
          f"{r['fabric_MB']:.2f}"] for r in rows],
        title="E8/cluster — node-hosted PFS vs. VPIC process count",
    )
