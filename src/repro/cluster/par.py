"""The cluster under the parallel runner: par-capable scenario programs
and the ``build(shards=N)`` handle.

The sharded runner (:mod:`repro.sim.par`) gives every node its own
private Environment; a program here answers ``build(world)`` with a
:class:`~repro.cluster.Cluster` that hosts just ``world.node_name`` out
of the program's :class:`~repro.cluster.builder.ClusterSpec`.  It is the
same class, routes and :meth:`~repro.cluster.Cluster.shard_kvs` as the
all-nodes-on-one-clock placement; only the egress ports differ (the
world's, exchanged at window barriers).

Because a Cluster's construction consults nothing but the spec and the
name of the node it hosts, the event stream each node observes is
identical whether its world shares a process with every other node
(``shards=1``) or runs alone in a fork — the invariant the
byte-identical-digest guarantee rests on.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

from ..core.runtime import RuntimeConfig
from ..units import msec, usec
from .builder import Cluster, ClusterSpec, NodeDecl
from .fabric import FabricCost, FabricLink
from .routing import join_pair

__all__ = [
    "SpecParProgram", "ClusterParProgram", "ControlParProgram",
    "E14ParProgram", "CallbackParProgram", "ParHandle", "PAR_SCENARIOS",
    "kvs_closed_loop",
]


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------
class SpecParProgram:
    """Base for spec-driven parallel programs: owns the ClusterSpec and
    the world -> one-node Cluster construction; subclasses add drivers
    and checks."""

    epoch_ns = int(msec(1))

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.spec = self.make_spec()

    def make_spec(self) -> ClusterSpec:
        raise NotImplementedError

    def nodes(self) -> list[str]:
        return self.spec.node_names()

    def lookahead_ns(self) -> Optional[int]:
        return self.spec.lookahead_ns()

    def build(self, world) -> Cluster:
        view = Cluster(self.spec, world=world)
        self.setup(view)
        return view

    def setup(self, view: Cluster) -> None:
        pass

    def drivers(self, world):
        return []

    def finish(self, world) -> dict:
        view = world.ctx
        out = view.stats()
        view.shutdown()
        return out


def assert_nic_conservation(view: Cluster) -> None:
    for (s, d), r in sorted(view._routes.items()):
        qp = r.qp
        assert qp.submitted_total == qp.completed_total, (
            f"{s}->{d}: NIC conservation broken after shutdown "
            f"({qp.submitted_total} submitted, {qp.completed_total} completed)"
        )


class ClusterParProgram(SpecParProgram):
    """The "cluster" scenario: a 3-node sharded+replicated KVS doing
    cross-fabric puts, a power cut killing replica node ``b`` at 3 ms,
    then failover reads off the survivors.  Under the sharded runner the
    cut lands mid-window, so NACK discipline is exercised across a
    barrier (the in-flight replica op on ``b`` rides out the crash and
    comes back as a timestamped NACK message in a later round).

    ``make_spec``/``setup``/``drive`` are the whole scenario;
    :class:`repro.snap.programs.ClusterProgram` runs the same three on
    the all-nodes-on-one-clock placement."""

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

    def finish(self, world) -> dict:
        view = world.ctx
        out = {
            "node": view.node_name,
            "online": view.node.online,
            "remote_calls": sum(r.remote_calls
                                for r in view._routes.values()),
            "nacks": sum(r.nacks for r in view._routes.values()),
            "handled": sum(x.handled for x in view._executors),
        }
        if view.hits is not None:
            out["hits"] = view.hits
            out["failovers"] = view.kvs.failovers
        view.shutdown()
        assert_nic_conservation(view)
        return out

    def reduce(self, results: dict) -> dict:
        a = results["a"]
        assert a.get("hits") == self.nkeys, (
            f"failover reads lost keys ({a.get('hits')}/{self.nkeys})")
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


class ControlParProgram:
    """The "control" scenario sharded: two independent chaos-control
    deployments (open-loop tenants, fault plan, self-healing daemon) on
    their own nodes, plus a cross-node KVS exchange so every barrier
    round carries real fabric traffic — including NACKs while the peer
    rides out its 6 ms power cut."""

    names = ("ctl0", "ctl1")

    def __init__(self, seed: int = 0, *,
                 duration_ns: int = int(msec(8))) -> None:
        self.seed = seed
        self.duration_ns = int(duration_ns)
        self._cost = FabricCost()
        # the YCSB preload advances the clock during build; 2 ms clears
        # it with margin while keeping the 2/3/6 ms chaos plan intact
        self.epoch_ns = int(msec(2))

    def nodes(self) -> list[str]:
        return list(self.names)

    def lookahead_ns(self) -> int:
        return self._cost.link_lat_ns

    def build(self, world) -> SimpleNamespace:
        from ..ctl.presets import build_chaos_control

        me = world.node_name
        idx = self.names.index(me)
        system, engine, daemon = build_chaos_control(
            env=world.env, seed=self.seed + 17 * idx,
            duration_ns=self.duration_ns,
        )
        peer = self.names[1 - idx]
        # the deployments are LabStorSystems, not spec-built Nodes, so
        # this program joins its one pair itself
        host = SimpleNamespace(name=me, runtime=system.runtime,
                               client=system.client)
        route, executor = join_pair(
            world.env, host, peer, FabricLink(world.env, me, peer, self._cost),
            world.out_port(peer), world.on_message)
        world.register_route(route)
        world.register_executor(executor)
        return SimpleNamespace(system=system, engine=engine, daemon=daemon,
                               route=route, executor=executor, me=me,
                               summary=None, cross=None)

    def drivers(self, world):
        ctx = world.ctx
        return [
            (f"traffic.drive.{ctx.me}", self._engine(ctx)),
            (f"cross.drive.{ctx.me}", self._cross(ctx, world.env)),
        ]

    def _engine(self, ctx):
        ctx.summary = yield from ctx.engine.drive()

    def _cross(self, ctx, env):
        from ..core.requests import LabRequest
        from ..ctl.presets import MOUNT

        nops = 24
        val = bytes([33]) * 64
        oks = errors = hit = 0
        for i in range(nops):
            req = LabRequest(op="kvs.put",
                             payload={"key": f"x.{ctx.me}.{i}", "value": val})
            try:
                yield from ctx.route.call(MOUNT, req, timeout_ns=int(msec(2)))
                oks += 1
            except Exception:  # noqa: BLE001 - NACKed puts are the point
                errors += 1
            yield env.timeout(int(usec(250)))
        for i in range(nops):
            req = LabRequest(op="kvs.get", payload={"key": f"x.{ctx.me}.{i}"})
            try:
                if (yield from ctx.route.call(
                        MOUNT, req, timeout_ns=int(msec(2)))) == val:
                    hit += 1
            except Exception:  # noqa: BLE001
                errors += 1
        ctx.cross = {"puts_ok": oks, "gets_hit": hit, "remote_errors": errors}

    def finish(self, world) -> dict:
        ctx = world.ctx
        if ctx.daemon is not None:
            ctx.daemon.stop()
        env = world.env
        env.run(ctx.route.qp.drained())
        out = {
            "node": ctx.me,
            "summary": ctx.summary,
            "cross": ctx.cross,
            "remote_calls": ctx.route.remote_calls,
            "nacks": ctx.route.nacks,
            "handled": ctx.executor.handled,
            "ticks": ctx.daemon.ticks if ctx.daemon is not None else 0,
        }
        ctx.route.close()
        ctx.executor.close()
        ctx.system.shutdown()
        qp = ctx.route.qp
        assert qp.submitted_total == qp.completed_total, (
            f"{ctx.me}: NIC conservation broken after shutdown")
        return out

    def reduce(self, results: dict) -> dict:
        for name in self.names:
            r = results[name]
            assert r["summary"] is not None, f"{name}: engine never finished"
            assert r["cross"] is not None, f"{name}: cross driver never finished"
            assert r["handled"] > 0, f"{name}: executed no remote requests"
            assert r["cross"]["puts_ok"] > 0, f"{name}: every remote put failed"
        return {
            "remote_calls": sum(r["remote_calls"] for r in results.values()),
            "nacks": sum(r["nacks"] for r in results.values()),
            "ticks": {n: results[n]["ticks"] for n in self.names},
            "cross": {n: results[n]["cross"] for n in self.names},
        }


def kvs_closed_loop(kvs, i: int, nops: int, value_size: int):
    """Process generator: E14's closed-loop client *i* — ``nops`` puts,
    then ``nops`` gets of the same keys."""
    payload = bytes(value_size)
    for j in range(nops):
        yield from kvs.put(f"c{i}.k{j}", payload)
    for j in range(nops):
        yield from kvs.get(f"c{i}.k{j}")


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


# ----------------------------------------------------------------------
# the ClusterBuilder front door: build(shards=N)
# ----------------------------------------------------------------------
class CallbackParProgram(SpecParProgram):
    """A SpecParProgram assembled from user callbacks instead of a
    subclass — what :meth:`ParHandle.run` constructs under the hood.

    Each callback receives the world's :class:`~repro.cluster.Cluster`,
    which hosts that one node (``view.node_name`` / ``view.node``):

    - ``setup(view)`` runs after the local node is built (mount shards,
      install faults — gate on ``view.node_name``).
    - ``drivers(view)`` returns ``[(name, generator), ...]`` for that
      node; return ``[]`` (or gate on ``view.node_name``) for nodes that
      only serve remote traffic.
    - ``finish(view)`` returns the node's result dict; the default
      collects ``view.stats()`` and shuts the world down — a custom
      finish must call ``view.shutdown()`` itself.
    - ``reduce(results)`` folds the per-node dicts into one value.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        drivers=None,
        setup=None,
        finish=None,
        reduce=None,
        epoch_ns: int = int(msec(1)),
    ) -> None:
        self.seed = spec.seed
        self.spec = spec
        self._drivers = drivers
        self._setup = setup
        self._finish = finish
        self.epoch_ns = int(epoch_ns)
        if reduce is not None:
            self.reduce = reduce

    def setup(self, view: Cluster) -> None:
        if self._setup is not None:
            self._setup(view)

    def drivers(self, world):
        if self._drivers is None:
            return []
        return list(self._drivers(world.ctx))

    def finish(self, world) -> dict:
        if self._finish is not None:
            return self._finish(world.ctx)
        return super().finish(world)


class ParHandle:
    """What ``ClusterBuilder.build(shards=N)`` returns: the frozen
    :class:`ClusterSpec` plus a shard count, runnable under the
    conservative windowed parallel runner::

        handle = (cluster(seed=7)
                  .node("n0").stack("kvs::/meta").kvs(variant="min").device("nvme")
                  .node("n1")
                  .build(shards=2))
        result = handle.run(drivers=my_drivers, trace=True)

    ``result`` is a :class:`repro.sim.par.ParResult`; with ``trace=True``
    its ``digest`` is byte-identical at every shard count.
    """

    def __init__(self, spec: ClusterSpec, shards: int) -> None:
        self.spec = spec
        self.shards = int(shards)

    def lookahead_ns(self) -> Optional[int]:
        return self.spec.lookahead_ns()

    def run(
        self,
        *,
        drivers=None,
        setup=None,
        finish=None,
        reduce=None,
        epoch_ns: int = int(msec(1)),
        trace: bool = False,
    ):
        from ..sim.par import run_program

        program = CallbackParProgram(
            self.spec, drivers=drivers, setup=setup, finish=finish,
            reduce=reduce, epoch_ns=epoch_ns,
        )
        return run_program(program, shards=self.shards, trace=trace)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<ParHandle nodes={self.spec.node_names()} "
                f"shards={self.shards}>")


PAR_SCENARIOS = {
    "cluster": ClusterParProgram,
    "control": ControlParProgram,
    "e14": E14ParProgram,
}
