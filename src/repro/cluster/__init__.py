"""Cluster-scale LabStor: nodes, network fabric, and sharded services.

This package lifts the single-machine simulation to a multi-node
cluster while keeping every determinism guarantee intact:

- :mod:`~repro.cluster.node` — :class:`Node`, one LabStor deployment
  (devices + Runtime + workers) on its cluster's clock, and
  :class:`ClusterClient`, a client that routes calls node-locally or
  over the fabric;
- :mod:`~repro.cluster.fabric` — the network cost model
  (:class:`FabricCost`) and directed-link topology
  (:class:`NetworkFabric` / :class:`FabricLink`);
- :mod:`~repro.cluster.routing` — :class:`RemoteRoute` and
  :class:`RouteExecutor`, the two halves of the NIC-queue-pair
  initiator→target path a remote call rides;
- :mod:`~repro.cluster.kvs` — :class:`HashRing` consistent-hash
  placement and :class:`ShardedKVS`, the replicated cluster-wide
  GenericKVS surface;
- :mod:`~repro.cluster.builder` — the frozen :class:`ClusterSpec`, the
  one :class:`Cluster` class that hosts any subset of its nodes in an
  Environment, and the fluent :func:`cluster` / :class:`ClusterBuilder`
  front door, the public path to multi-node composition;
- :mod:`~repro.cluster.par` — the same spec under the sharded runner
  (one node per world): ``build(shards=N)``'s handle and the program
  base the par scenarios in :mod:`repro.scenarios` subclass.

Quickstart::

    from repro.cluster import cluster

    cl = (cluster(seed=1)
          .node("n0").node("n1").node("n2")
          .build())
    kvs = cl.shard_kvs("kvs::/t", replicas=3)
    cl.run(cl.process(kvs.put("alpha", b"1")))
    value = cl.run(cl.process(kvs.get("alpha")))
    cl.shutdown()
"""

from .builder import Cluster, ClusterSpec, cluster
from .fabric import FabricCost, FabricLink, FabricTransport, NetworkFabric
from .kvs import HashRing, ShardedKVS
from .node import Node
from .routing import RemoteRoute, RouteExecutor

__all__ = [
    "Cluster",
    "ClusterSpec",
    "cluster",
    "Node",
    "NetworkFabric",
    "FabricLink",
    "FabricCost",
    "FabricTransport",
    "RemoteRoute",
    "RouteExecutor",
    "HashRing",
    "ShardedKVS",
]
