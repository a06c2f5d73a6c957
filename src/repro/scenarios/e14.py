"""The "e14" scenario: sharded-KVS scaling under the parallel runner."""

from __future__ import annotations

from ..cluster.builder import Cluster, ClusterSpec, NodeDecl
from ..cluster.fabric import FabricCost
from ..cluster.par import SpecParProgram, assert_nic_conservation, kvs_closed_loop
from ..core.runtime import RuntimeConfig
from ..units import usec
from .catalogue import register


class E14ParProgram(SpecParProgram):
    """E14 (sharded KVS scaling) as a parallel program: the same fixed
    offered load — ``nclients`` closed loops, client *i* entering at its
    home node ``n{i % nnodes}``'s gateway — over a cross-rack topology
    whose larger propagation delay buys the runner wide windows (many
    whole KVS ops per barrier)."""

    def __init__(self, seed: int = 0, *, nnodes: int = 4, replicas: int = 1,
                 nclients: int = 96, ops_per_client: int = 16,
                 value_size: int = 256, vnodes: int = 64,
                 link_lat_ns: int = int(usec(100))) -> None:
        self.nnodes = nnodes
        self.replicas = replicas
        self.nclients = nclients
        self.ops_per_client = ops_per_client
        self.value_size = value_size
        self.vnodes = vnodes
        self.link_lat_ns = int(link_lat_ns)
        super().__init__(seed)

    def make_spec(self) -> ClusterSpec:
        cfg = RuntimeConfig(nworkers=1, min_workers=1, max_workers=1)
        fc = FabricCost(link_lat_ns=self.link_lat_ns)
        return ClusterSpec(
            seed=self.seed,
            fabric_cost=fc,
            nodes=tuple(NodeDecl(f"n{i}", config=cfg)
                        for i in range(self.nnodes)),
        )

    def setup(self, view: Cluster) -> None:
        view.kvs = view.shard_kvs("kvs::/bench", replicas=self.replicas,
                                  vnodes=self.vnodes)

    def drivers(self, world):
        idx = int(world.node_name[1:])
        kvs = world.ctx.kvs
        return [
            (f"bench.loop{i}",
             kvs_closed_loop(kvs, i, self.ops_per_client, self.value_size))
            for i in range(self.nclients)
            if i % self.nnodes == idx
        ]

    def finish(self, world) -> dict:
        view = world.ctx
        out = {
            "node": view.node_name,
            "virtual_ns": view.env.now,
            "remote_calls": sum(r.remote_calls
                                for r in view._routes.values()),
            "nacks": sum(r.nacks for r in view._routes.values()),
            "fabric_bytes": sum(
                s["bytes"] for s in view.fabric.stats().values()),
            "failovers": view.kvs.failovers,
        }
        view.shutdown()
        assert_nic_conservation(view)
        return out

    def reduce(self, results: dict) -> dict:
        from ..units import to_sec

        total_ops = self.nclients * self.ops_per_client * 2
        end = max(r["virtual_ns"] for r in results.values())
        elapsed_ns = max(0, end - self.epoch_ns)
        return {
            "nnodes": self.nnodes,
            "replicas": self.replicas,
            "ops": total_ops,
            "elapsed_ms": elapsed_ns / 1e6,
            "kops_s": (total_ops / to_sec(elapsed_ns) / 1e3
                       if elapsed_ns else 0.0),
            "remote_calls": sum(r["remote_calls"] for r in results.values()),
            "fabric_MB": sum(r["fabric_bytes"]
                             for r in results.values()) / 1e6,
            "fanout_failovers": sum(r["failovers"]
                                    for r in results.values()),
        }


register("e14", par=E14ParProgram)
