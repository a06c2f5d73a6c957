"""The "cluster" scenario: a 3-node sharded+replicated KVS doing
cross-fabric puts, a power cut killing replica node ``b`` at 3 ms, then
failover reads off the survivors.  NIC queue pairs, fabric links, replica
fan-out, crash ride-out and quorum accounting all land in one digest.

One spec, setup, driver body and set of checks; two placements — every
node on the audited run's one clock (:class:`ClusterProgram`) or one
node per :mod:`repro.sim.par` world (:class:`ClusterParProgram`).
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any

from ..cluster.builder import Cluster, ClusterSpec, NodeDecl
from ..cluster.par import SpecParProgram, assert_nic_conservation
from ..core.runtime import RuntimeConfig
from ..units import msec, usec
from .catalogue import Program, register


class ClusterParProgram(SpecParProgram):
    """Under the sharded runner the cut lands mid-window, so NACK
    discipline is exercised across a barrier (the in-flight replica op
    on ``b`` rides out the crash and comes back as a timestamped NACK
    message in a later round)."""

    nkeys = 18

    def make_spec(self) -> ClusterSpec:
        cfg = RuntimeConfig(nworkers=1, restart_wait_ns=int(usec(50)))
        return ClusterSpec(
            seed=11 + self.seed,
            nodes=tuple(
                NodeDecl(name, config=cfg, failure_domain=f"rack-{i + 1}")
                for i, name in enumerate("abc")
            ),
        )

    def setup(self, view: Cluster) -> None:
        view.kvs = view.shard_kvs("kvs::/det", replicas=2,
                                  timeout_ns=int(msec(1)))
        view.install_faults(f"power_cut:at={int(msec(3))}", node="b")
        view.hits = None

    def drivers(self, world):
        if world.node_name != "a":
            return []
        return [("cluster.driver", self._record(world.ctx))]

    def _record(self, view: Cluster):
        view.hits = yield from self.drive(view)

    def drive(self, view: Cluster):
        """Process generator: the scenario's one client, on node ``a``;
        returns how many failover reads hit."""
        kvs, env, seed, nkeys = view.kvs, view.env, self.seed, self.nkeys
        for i in range(nkeys):
            yield from kvs.put(f"det{i}", bytes([(i + seed) % 251]) * 96)
        # ride past the power cut, then read through the outage
        if env.now < msec(3):
            yield env.timeout(int(msec(3)) - env.now + int(usec(100)))
        hits = 0
        for i in range(nkeys):
            if (yield from kvs.get(f"det{i}")) == bytes([(i + seed) % 251]) * 96:
                hits += 1
        # let straggler replica branches (timeouts, crash ride-outs)
        # resolve so the failover count is settled, not racing teardown
        yield env.timeout(int(msec(2)))
        return hits

    def node_result(self, view: Cluster, name: str) -> dict:
        """What node ``name`` of ``view`` reports to :meth:`reduce`."""
        routes = [r for (src, _dst), r in view._routes.items() if src == name]
        out = {
            "node": name,
            "online": view.nodes[name].online,
            "remote_calls": sum(r.remote_calls for r in routes),
            "nacks": sum(r.nacks for r in routes),
            "handled": sum(x.handled for x in view._executors
                           if x.node.name == name),
        }
        if name == "a":  # the driver's node
            out["hits"] = view.hits
            out["failovers"] = view.kvs.failovers
        return out

    def finish(self, world) -> dict:
        view = world.ctx
        out = self.node_result(view, view.node_name)
        view.shutdown()
        assert_nic_conservation(view)
        return out

    def reduce(self, results: dict) -> dict:
        a = results["a"]
        assert a["hits"] == self.nkeys, (
            f"failover reads lost keys ({a['hits']}/{self.nkeys})")
        assert not results["b"]["online"], "power cut never fired"
        assert a["failovers"] > 0, "no replica branch ever failed over"
        remote = sum(r["remote_calls"] for r in results.values())
        assert remote > 0, "no call ever crossed the fabric"
        return {
            "hits": a["hits"],
            "failovers": a["failovers"],
            "remote_calls": remote,
            "nacks": sum(r["nacks"] for r in results.values()),
            "handled": sum(r["handled"] for r in results.values()),
        }


class ClusterProgram(Program):
    """The all-nodes-on-one-clock placement: one Cluster in the audited
    Environment hosts every node of :class:`ClusterParProgram`'s spec."""

    default_pause_ns = int(msec(2.0))

    def build(self, env) -> SimpleNamespace:
        scenario = ClusterParProgram(self.seed)
        cl = Cluster(scenario.spec, env=env)
        scenario.setup(cl)
        return SimpleNamespace(cluster=cl, scenario=scenario)

    def target(self, ctx):
        return ctx.cluster

    def drive(self, ctx):
        return ctx.cluster.process(ctx.scenario.drive(ctx.cluster))

    def finish(self, ctx, value) -> dict[str, Any]:
        cl, scenario = ctx.cluster, ctx.scenario
        cl.hits = value
        results = {name: scenario.node_result(cl, name) for name in sorted(cl.nodes)}
        cl.shutdown()
        assert_nic_conservation(cl)
        return scenario.reduce(results)


register("cluster", serial=ClusterProgram, par=ClusterParProgram)
