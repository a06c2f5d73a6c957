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

Everything here is deterministic: results depend only on (point, seed)
— the runner rewinds the identity counters before every point — so
sweep process counts cannot change the digest.

``cluster-par`` is a wall-clock measurement: run it with
``--processes 1`` so each cell's forked shards get the whole machine.
"""

from __future__ import annotations

from ..core.runtime import RuntimeConfig
from ..kernel import make_filesystem
from ..mods.generic_fs import GenericFS
from ..pfs import OrangeFs
from ..units import to_sec
from ..workloads.fsapi import GenericFsAdapter, KernelFsAdapter
from ..workloads.vpic import VpicConfig, run_bdcats, run_vpic
from .registry import Experiment, Table, register

__all__ = []

VALUE_SIZE = 256


def run_cluster_scaling(env, p: dict, seed: int = 0) -> dict:
    """One E14 point: ``nclients`` closed loops over an ``nnodes``-node
    sharded KVS with ``replicas``-way replication.

    Offered load is fixed by construction — the loop pool and total op
    count do not change with the node count — so ops/s differences are
    pure capacity."""
    from ..cluster import cluster as cluster_builder
    from ..cluster.par import kvs_closed_loop

    nnodes, replicas = p["nnodes"], p["replicas"]
    nclients, ops_per_client = p["nclients"], p["ops_per_client"]
    b = cluster_builder(seed=seed, env=env)
    cfg = RuntimeConfig(nworkers=1, min_workers=1, max_workers=1)
    for i in range(nnodes):
        b.node(f"n{i}", config=cfg)
    cl = b.build()
    kvs = cl.shard_kvs("kvs::/bench", replicas=replicas, vnodes=64)
    # one gateway per node: clients enter the cluster where they live,
    # like real tenants, instead of funneling through a single node
    gateways = [kvs] + [
        kvs.bind(cl.client(f"n{i}")) for i in range(1, nnodes)
    ]
    procs = [
        cl.process(
            kvs_closed_loop(gateways[i % nnodes], i, ops_per_client,
                            VALUE_SIZE),
            name=f"bench.loop{i}",
        )
        for i in range(nclients)
    ]
    t0 = cl.env.now
    for proc in procs:
        cl.run(proc)
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
        "seed": seed,
    }


def _scaling_gates(result: dict) -> None:
    by = {(r["nnodes"], r["replicas"]): r for r in result["rows"]}
    one, four = by[(1, 1)], by[(4, 1)]
    # the acceptance bar: fixed offered load, >=2x ops/s at 4 nodes
    assert four["kops_s"] >= 2.0 * one["kops_s"], (
        f"cluster failed to scale: {four['kops_s']:.1f} kops/s at 4 nodes "
        f"vs {one['kops_s']:.1f} at 1"
    )
    # replication is not free: the 2-replica points pay write fan-out
    assert by[(4, 2)]["kops_s"] < four["kops_s"], (
        "replicated writes should cost throughput vs replicas=1"
    )
    # remote traffic only exists once there is a second node
    assert one["remote_calls"] == 0 and four["remote_calls"] > 0


def _vs_smallest(rows: list[dict]) -> list[dict]:
    """Speedup over the smallest cluster at the same replication factor."""
    fewest = min(r["nnodes"] for r in rows)
    base = {r["replicas"]: r["kops_s"] for r in rows if r["nnodes"] == fewest}
    return [{**r, "speedup": r["kops_s"] / base.get(r["replicas"], float("nan"))}
            for r in rows]


# node count x replication factor (points needing more nodes than they
# have are skipped)
register(Experiment(
    name="cluster", figure="E14 — sharded GenericKVS scaling across cluster nodes",
    artifact="cluster", point=run_cluster_scaling,
    grid=tuple({"nnodes": n, "replicas": r, "nclients": 32, "ops_per_client": 16}
               for n in (1, 2, 4) for r in (1, 2) if r <= n),
    seeds="per-point",
    table=Table(
        title="E14 — sharded GenericKVS throughput vs. cluster size",
        columns=(("nodes", "{nnodes}"), ("replicas", "{replicas}"),
                 ("kops/s", "{kops_s:.1f}"), ("speedup", "{speedup:.2f}x"),
                 ("elapsed (ms)", "{elapsed_ms:.2f}"),
                 ("remote calls", "{remote_calls}"), ("fabric MB", "{fabric_MB:.2f}")),
        derive=_vs_smallest,
    ),
    gates=_scaling_gates,
))


# ----------------------------------------------------------------------
# E14 under the sharded runner
# ----------------------------------------------------------------------
def run_cluster_scaling_par(_env, p: dict, seed: int = 0) -> dict:
    """One E14 point executed by :mod:`repro.sim.par`: the same fixed
    offered load over a cross-rack topology (wide ``link_lat_ns`` buys
    the runner wide lookahead windows), sharded across ``shards`` OS
    processes.  ``shards=1`` is the serial baseline of the same windowed
    architecture — virtual results are byte-identical at every shard
    count, only wall clock moves.  The runner's worlds own their
    Environments, so the one handed in goes unused."""
    from ..scenarios.e14 import E14ParProgram
    from ..sim.par import run_program

    program = E14ParProgram(
        seed, nnodes=p["nnodes"], replicas=1, nclients=p["nclients"],
        ops_per_client=p["ops_per_client"], value_size=VALUE_SIZE,
        link_lat_ns=100_000,
    )
    res = run_program(program, shards=p["shards"], trace=False)
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


def _vs_fewest_shards(rows: list[dict]) -> list[dict]:
    base: dict[int, float] = {}
    return [{**r, "speedup": base.setdefault(r["nnodes"], r["wall_s"]) / r["wall_s"]}
            for r in rows]


# E14 at 4-8 nodes under the parallel runner: every (nnodes, shards) cell
register(Experiment(
    name="cluster-par", figure="E14/par — sharded-runner wall clock", artifact=None,
    point=run_cluster_scaling_par,
    grid=tuple({"nnodes": n, "shards": shards, "nclients": 96, "ops_per_client": 16}
               for n in (4, 8) for shards in (1, 2, 4)),
    seeds="base",
    table=Table(
        title="E14/par — sharded-runner wall clock vs. shard count",
        columns=(("nodes", "{nnodes}"), ("shards", "{shards}"),
                 ("kops/s", "{kops_s:.1f}"), ("wall (s)", "{wall_s:.3f}"),
                 ("speedup", "{speedup:.2f}x"), ("rounds", "{rounds}"),
                 ("msgs", "{messages}"), ("max cpu (s)", "{max_shard_cpu_s:.3f}")),
        derive=_vs_fewest_shards,
    ),
    gates=None,  # shard-count invariance is benchmarks/test_bench_par.py's gate
))


# ----------------------------------------------------------------------
# PFS re-hosted on genuine nodes
# ----------------------------------------------------------------------
def run_pfs_cluster(env, p: dict, seed: int = 0) -> dict:
    """The Fig 9(a) evaluation with every server on a real cluster node.

    Node ``cn`` hosts the compute client, ``mds`` runs LabFS-Min on its
    own Runtime, and each ``d<i>`` data server's ext4 rides that node's
    device.  PFS messages pay the shared fabric."""
    from ..cluster import FabricTransport, cluster as cluster_builder

    ndata, data_device, mds_variant = p["ndata"], "nvme", "min"
    cfg = VpicConfig(nprocs=p["nprocs"], timesteps=p["timesteps"],
                     particles_per_proc=p["particles_per_proc"])
    b = cluster_builder(seed=seed, env=env)
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
        "seed": seed,
    }


# The PFS grid pushed toward the paper's 640-process shape: VPIC rank
# count scaled on a fixed node-hosted deployment.  The grid, not a single
# point, is the parallel unit here, because OrangeFs generator frames
# thread through every node's adapters and cannot split across
# Environments.  ``nprocs`` of 40/160/640 is the full paper shape.
register(Experiment(
    name="pfs-cluster", figure="E8/cluster — node-hosted PFS", artifact=None,
    point=run_pfs_cluster,
    grid=tuple({"ndata": 4, "nprocs": n, "timesteps": 2, "particles_per_proc": 1024}
               for n in (8, 32, 128)),
    seeds="per-point",
    table=Table(
        title="E8/cluster — node-hosted PFS vs. VPIC process count",
        columns=(("procs", "{nprocs}"), ("data nodes", "{ndata}"),
                 ("vpic MB/s", "{vpic_MBps:.1f}"), ("bdcats MB/s", "{bdcats_MBps:.1f}"),
                 ("meta ops", "{metadata_ops}"), ("fabric MB", "{fabric_MB:.2f}")),
    ),
    gates=None,
))
