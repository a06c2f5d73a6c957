"""Cluster composition: the frozen :class:`ClusterSpec`, the
:class:`Cluster` that hosts it, and the fluent :class:`ClusterBuilder`
front door.

The builder extends the StackBuilder idiom one level up — nodes instead
of LabMods, links instead of layer edges::

    from repro.cluster import cluster

    cl = (
        cluster(seed=7)
        .node("n0").stack("kvs::/meta").kvs(variant="min").device("nvme")
        .node("n1")
        .node("n2", failure_domain="rack-b")
        .build()
    )
    skvs = cl.shard_kvs("kvs::/t", replicas=3)

Inside a ``.stack(...)`` scope every chainable StackBuilder knob is
available (``kvs``, ``fs``, ``device``, ``sched``, ...); calling a
builder-level verb (``node``, ``link``, ``connect_all``, ``build``,
``stack``) closes the pending stack and pops back out.  Note this means
``build()`` after a ``stack(...)`` finishes the **cluster** — compose a
raw StackSpec through ``node_obj.stack(...)`` if that's what you need.

The chain only records declarations; ``build()`` freezes them into a
:class:`ClusterSpec` — topology as pure data — and a :class:`Cluster`
brings a *subset* of that spec's nodes to life in one Environment:

- ``build()`` hosts every node on one shared clock.  Cross-node messages
  ride a same-Environment port that delivers each at its arrival time.
- ``build(shards=N)`` hands the same spec to :mod:`repro.sim.par`, whose
  every world hosts exactly one node; messages ride the world's egress
  port and cross at window barriers.

Either way a Cluster owns exactly one Environment, sanitizer, telemetry
pipeline, and RngRegistry, shared by the nodes it hosts.  Construction
consults nothing but the spec and the hosted names, and every RNG
stream is qualified by its node's name, so a node observes the same
event stream whichever other nodes share its Environment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from ..builder import StackBuilder
from ..core.runtime import RuntimeConfig
from ..errors import FabricError, LabStorError
from ..kernel.cpu import DEFAULT_COST, CostModel
from ..obs.telemetry import Telemetry
from ..obs.telemetry import maybe_attach as _maybe_attach_telemetry
from ..sim import Environment, RngRegistry
from ..sim.par import ParMessage
from ..sim.sanitizer import maybe_attach
from .fabric import DEFAULT_FABRIC_COST, FabricCost, NetworkFabric
from .kvs import HashRing, ShardedKVS
from .node import ClusterClient, Node
from .routing import RemoteRoute, join_pair

__all__ = ["NodeDecl", "ClusterSpec", "Cluster", "cluster"]


# ----------------------------------------------------------------------
# the spec: topology as pure data
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StackDecl:
    """One mounted stack: the mount path plus the chain of StackBuilder
    calls that shape it, replayed verbatim when the node is built."""

    mount: str
    #: ((method, args, kwargs), ...) applied to ``node.stack(mount)``
    calls: tuple = ()


@dataclass(frozen=True)
class NodeDecl:
    name: str
    devices: tuple = ("nvme",)
    config: Optional[RuntimeConfig] = None
    failure_domain: Optional[str] = None
    stacks: tuple = ()

    @property
    def domain(self) -> str:
        """Placement constraint: replicas prefer distinct failure domains
        (rack/row/PDU); undeclared, every node is its own domain."""
        return self.failure_domain if self.failure_domain is not None else self.name


@dataclass(frozen=True)
class LinkDecl:
    a: str
    b: str
    cost: Optional[FabricCost] = None
    bidirectional: bool = True


@dataclass(frozen=True)
class ClusterSpec:
    """A cluster topology as data: everything a :class:`Cluster` needs to
    build the nodes it hosts, and everything the parallel runner needs
    for routing + lookahead."""

    seed: int = 0
    cost: CostModel = field(default=DEFAULT_COST)
    fabric_cost: Optional[FabricCost] = None
    nodes: tuple = ()
    links: tuple = ()

    def node(self, name: str) -> NodeDecl:
        for d in self.nodes:
            if d.name == name:
                return d
        raise LabStorError(
            f"spec has no node {name!r}; declared: {self.node_names()}")

    def node_names(self) -> list[str]:
        return sorted(d.name for d in self.nodes)

    def directed_links(self) -> dict[tuple[str, str], FabricCost]:
        """Every directed (src, dst) pair and its cost.  No declared
        links means full mesh over all nodes."""
        default = self.fabric_cost or DEFAULT_FABRIC_COST
        links = self.links
        if not links:
            names = self.node_names()
            links = [LinkDecl(a, b) for i, a in enumerate(names)
                     for b in names[i + 1:]]
        out: dict[tuple[str, str], FabricCost] = {}
        for ld in links:
            out.setdefault((ld.a, ld.b), ld.cost or default)
            if ld.bidirectional:
                out.setdefault((ld.b, ld.a), ld.cost or default)
        return out

    def lookahead_ns(self) -> Optional[int]:
        links = self.directed_links()
        if not links:
            return None
        return min(c.link_lat_ns for c in links.values())


class _SameEnvPort:
    """Egress port between two nodes that share an Environment: each
    timestamped message reaches the peer's ingress handler at its
    arrival time — what :meth:`repro.sim.par.ParWorld.inject` does for a
    message that crossed a window barrier."""

    def __init__(self, env: Environment, name: str, ingress: dict) -> None:
        self.env = env
        self.name = name
        self.ingress = ingress  # (port, kind) -> handler, cluster-wide

    def send(self, kind: str, arrival_ns: int, req_id: int, nbytes: int,
             payload: bytes) -> None:
        msg = ParMessage(self.name, 0, kind, req_id, arrival_ns, nbytes,
                         payload)
        handler = self.ingress[(self.name, kind)]
        self.env.timeout(arrival_ns - self.env.now).callbacks.append(
            lambda _ev: handler(msg))


class Cluster:
    """The nodes of a :class:`ClusterSpec` hosted in one Environment,
    wired to each other (and to nodes hosted elsewhere) by the fabric.

    Build through :func:`cluster` / :class:`ClusterBuilder` — that is the
    public path to multi-node composition.  ``world`` is set by the
    parallel runner's programs, never by a user: it makes this Cluster
    host only ``world.node_name``, on the world's Environment and ports.
    """

    def __init__(
        self,
        spec: ClusterSpec,
        *,
        telemetry: Union[Telemetry, bool, None] = None,
        env: Environment | None = None,
        world=None,
    ) -> None:
        self.spec = spec
        if world is not None:
            env = world.env
        self.env = env if env is not None else Environment()
        # one sanitizer / telemetry pipeline for every hosted node: they
        # share the env, and attaching per node would double-count events
        self.sanitizer = maybe_attach(self.env)
        self.telemetry: Optional[Telemetry] = None
        if isinstance(telemetry, Telemetry):
            self.telemetry = telemetry.install(self.env)
        elif telemetry is True:
            self.telemetry = Telemetry().install(self.env)
        elif telemetry is None:
            self.telemetry = _maybe_attach_telemetry(self.env)
        self.rngs = RngRegistry(spec.seed)
        self.cost = spec.cost
        self.fabric = NetworkFabric(self.env, spec.fabric_cost)
        #: the nodes hosted HERE; the ring, the service registry and the
        #: topology always cover the whole spec
        self.nodes: dict[str, Node] = {}
        #: service registry: mount path -> owning node name
        self.services: dict[str, str] = {}
        self._routes: dict[tuple[str, str], RemoteRoute] = {}
        self._executors: list = []
        self._clients: list[ClusterClient] = []

        hosted = spec.node_names() if world is None else [world.node_name]
        for name in hosted:
            decl = spec.node(name)
            node = self.nodes[name] = Node(
                self, name, devices=decl.devices, config=decl.config,
                failure_domain=decl.domain,
            )
            for sd in decl.stacks:
                sb = node.stack(sd.mount)
                for meth, a, kw in sd.calls:
                    sb = getattr(sb, meth)(*a, **kw)
                sb.mount()
        for decl in spec.nodes:
            for sd in decl.stacks:
                self.register_service(sd.mount, decl.name)
        #: a par world's one node, for its program's callbacks
        self.node_name: Optional[str] = None if world is None else hosted[0]
        self.node: Optional[Node] = self.nodes.get(self.node_name)

        # each env owns its nodes' outbound links; a route needs the
        # return link too, because the response rides it.  Sorted order
        # so pids and queue ids assign independently of declaration order
        directed = spec.directed_links()
        for (src, dst), cost in sorted(directed.items()):
            if src in self.nodes:
                self.fabric.add_link(src, dst, cost, bidirectional=False)
        ingress: dict = {}

        def subscribe(port: str, kind: str, handler) -> None:
            ingress[(port, kind)] = handler

        for me, peer in sorted(directed):
            if me not in self.nodes or (peer, me) not in directed:
                continue
            if world is None:
                port = _SameEnvPort(self.env, f"{me}->{peer}", ingress)
                on_message = subscribe
            else:
                port, on_message = world.out_port(peer), world.on_message
            route, executor = join_pair(
                self.env, self.nodes[me], peer, self.fabric.link(me, peer),
                port, on_message)
            self._routes[(me, peer)] = route
            self._executors.append(executor)
            if world is not None:
                world.register_route(route)
                world.register_executor(executor)

    def route(self, src: str, dst: str) -> RemoteRoute:
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise FabricError(
                f"no route {src}->{dst}; nodes {sorted(self.nodes)} have "
                f"routes {sorted(self._routes)}") from None

    # -- services ------------------------------------------------------
    def register_service(self, path: str, node_name: str) -> None:
        self.spec.node(node_name)  # raises on an unknown node
        owner = self.services.get(path)
        if owner is not None and owner != node_name:
            raise LabStorError(
                f"service {path!r} already registered on {owner!r}"
            )
        self.services[path] = node_name

    def owner_of(self, path: str) -> str:
        """Longest registered prefix wins (mirrors Namespace.resolve)."""
        best = None
        for mount, owner in self.services.items():
            if path == mount or path.startswith(mount):
                if best is None or len(mount) > len(best[0]):
                    best = (mount, owner)
        if best is None:
            raise LabStorError(
                f"no cluster service owns {path!r}; "
                f"registered: {sorted(self.services)}"
            )
        return best[1]

    # -- clients and sharding ------------------------------------------
    def client(self, node: str | None = None, ordered: bool = True) -> ClusterClient:
        """A cluster-wide client homed on ``node`` (default: first
        hosted node in sorted order).  Setup-time only — connecting runs
        the sim."""
        name = node if node is not None else min(self.nodes)
        if name not in self.nodes:
            self.spec.node(name)  # raises on an unknown node
            raise FabricError(
                f"node {name!r} is hosted in another world; this one has "
                f"{sorted(self.nodes)}")
        c = ClusterClient(self, self.nodes[name], ordered=ordered)
        self._clients.append(c)
        return c

    def shard_kvs(
        self,
        mount: str = "kvs::/shard",
        *,
        replicas: int = 1,
        quorum: int | None = None,
        vnodes: int = 64,
        variant: str = "min",
        device: str = "nvme",
        nworkers: int = 8,
        gateway: str | None = None,
        timeout_ns: int | None = None,
        anti_entropy: bool = False,
    ) -> ShardedKVS:
        """Shard (and replicate) a GenericKVS namespace across every node.

        Mounts a LabKVS stack at ``mount`` on each hosted node that does
        not already carry one, builds the consistent-hash ring over the
        whole spec's ``(name, failure_domain)``, and returns the sharded
        surface.
        """
        if anti_entropy and len(self.nodes) < len(self.spec.nodes):
            raise LabStorError(
                "anti-entropy registers restart hooks on every replica "
                "node, and some are hosted in other worlds")
        for name in sorted(self.nodes):
            node = self.nodes[name]
            try:
                node.runtime.namespace.resolve(mount)
            except LabStorError:
                (node.stack(mount)
                     .kvs(variant=variant, nworkers=nworkers)
                     .device(device)
                     .mount())
        ring = HashRing(
            [(d.name, d.domain)
             for d in sorted(self.spec.nodes, key=lambda d: d.name)],
            vnodes=vnodes,
        )
        return ShardedKVS(
            self.client(gateway), mount=mount, ring=ring,
            replicas=replicas, quorum=quorum, timeout_ns=timeout_ns,
            anti_entropy=anti_entropy,
        )

    # -- faults --------------------------------------------------------
    def install_faults(self, plan, *, node: str) -> object:
        """Arm a fault plan scoped to one named node.  Programs declare
        faults symmetrically in every world; only the world hosting
        ``node`` arms them, the rest get None."""
        if node not in self.nodes:
            self.spec.node(node)  # raises on an unknown node
            return None
        return self.nodes[node].install_faults(plan)

    # -- lifecycle -----------------------------------------------------
    def stats(self) -> dict:
        return {
            "nodes": {
                n.name: {"online": n.online, "domain": n.failure_domain}
                for n in (self.nodes[k] for k in sorted(self.nodes))
            },
            "fabric": self.fabric.stats(),
            "routes": {
                f"{s}->{d}": {"remote_calls": r.remote_calls, "nacks": r.nacks}
                for (s, d), r in sorted(self._routes.items())
            },
        }

    def shutdown(self, drain: bool = True) -> None:
        """Tear every hosted node down: drain NIC queue pairs, close
        routes, executors and clients, stop the Runtime daemons."""
        if drain:
            # a route to a dead node still drains: its in-flight ops ride
            # out the crash window and complete as NACKs
            for key in sorted(self._routes):
                self.env.run(self._routes[key].qp.drained())
        for c in self._clients:
            c.close()
        self._clients.clear()
        for key in sorted(self._routes):
            self._routes[key].close()
        for ex in self._executors:
            ex.close()
        for name in sorted(self.nodes):
            self.nodes[name].shutdown(drain=drain)
        # unwind the just-scheduled interrupts (same dance as
        # LabStorSystem.shutdown) so no dead process lingers
        env = self.env
        while (env._urgent or env._due or env._heap) and env.peek() <= env.now:
            env.step()

    def run(self, *args, **kw):
        return self.env.run(*args, **kw)

    def process(self, gen, **kw):
        return self.env.process(gen, **kw)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<Cluster hosts={sorted(self.nodes)} of "
                f"{self.spec.node_names()} routes={len(self._routes)}>")


# ----------------------------------------------------------------------
# the fluent front door
# ----------------------------------------------------------------------
_BUILDER_VERBS = frozenset({"node", "link", "connect_all", "build", "stack"})


class _StackScope:
    """A ``.stack(...)`` scope inside a ClusterBuilder chain.

    Chainable StackBuilder knobs are recorded and return the scope;
    builder-level verbs close it and continue the outer chain.  The
    recorded chain becomes a :class:`StackDecl` at ``build()``.
    """

    def __init__(self, outer: "ClusterBuilder", mount: str) -> None:
        self._outer = outer
        self._mount = mount
        self._calls: list[tuple] = []

    def mount(self) -> "ClusterBuilder":
        """Close the scope and return the outer builder (optional — any
        builder verb closes it implicitly)."""
        return self._outer

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        if name in _BUILDER_VERBS:
            return getattr(self._outer, name)
        if not callable(getattr(StackBuilder, name, None)):
            raise AttributeError(f"StackBuilder has no knob {name!r}")

        def record(*args, **kw):
            self._calls.append((name, args, kw))
            return self

        return record


class ClusterBuilder:
    """Fluent cluster composition (create via :func:`cluster`).

    Holds declarations only — no Node, Runtime or Environment exists
    until :meth:`build`."""

    def __init__(
        self,
        *,
        seed: int = 0,
        cost: CostModel = DEFAULT_COST,
        fabric_cost: FabricCost | None = None,
        telemetry: Union[Telemetry, bool, None] = None,
        env: Environment | None = None,
    ) -> None:
        self._spec = ClusterSpec(seed=seed, cost=cost, fabric_cost=fabric_cost)
        self._telemetry = telemetry
        self._env = env
        self._nodes: list[NodeDecl] = []
        self._stacks: dict[str, list[_StackScope]] = {}
        self._links: list[LinkDecl] = []

    def node(
        self,
        name: str,
        *,
        devices=("nvme",),
        config=None,
        failure_domain: str | None = None,
    ) -> "ClusterBuilder":
        """Add a node; subsequent ``stack()`` calls target it."""
        if name in self._stacks:
            raise LabStorError(f"node {name!r} already in cluster")
        self._nodes.append(NodeDecl(
            name, devices=tuple(devices), config=config,
            failure_domain=failure_domain,
        ))
        self._stacks[name] = []
        return self

    def stack(self, mount: str) -> _StackScope:
        """Open a stack scope on the current node."""
        if not self._nodes:
            raise LabStorError("call node(...) before stack(...)")
        scope = _StackScope(self, mount)
        self._stacks[self._nodes[-1].name].append(scope)
        return scope

    def link(self, a: str, b: str, cost: FabricCost | None = None,
             *, bidirectional: bool = True) -> "ClusterBuilder":
        for name in (a, b):
            if name not in self._stacks:
                raise FabricError(
                    f"cannot link unknown node {name!r}; "
                    f"cluster has {sorted(self._stacks)}"
                )
        if a == b:
            raise FabricError(f"node {a!r} needs no link to itself")
        self._links.append(LinkDecl(a, b, cost, bidirectional))
        return self

    def connect_all(self, cost: FabricCost | None = None) -> "ClusterBuilder":
        """Full mesh over the nodes declared so far."""
        names = sorted(self._stacks)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                self._links.append(LinkDecl(a, b, cost))
        return self

    def build(self, shards: int | None = None):
        """Freeze the declarations into a :class:`ClusterSpec` and bring
        it to life.  No declared links means a full mesh.

        ``build()`` returns a live :class:`Cluster` hosting every node
        on one clock.

        ``build(shards=N)`` returns a
        :class:`~repro.cluster.par.ParHandle` whose ``run(...)`` executes
        the same spec under the conservative windowed parallel runner —
        one Cluster per node, sharded across ``N`` processes,
        byte-identical at every ``N``.
        """
        spec = replace(
            self._spec,
            nodes=tuple(
                replace(d, stacks=tuple(
                    StackDecl(sc._mount, tuple(sc._calls))
                    for sc in self._stacks[d.name]))
                for d in self._nodes),
            links=tuple(self._links),
        )
        if shards is None:
            return Cluster(spec, telemetry=self._telemetry, env=self._env)
        if not isinstance(shards, int) or shards < 1:
            raise LabStorError(f"shards must be a positive int, got {shards!r}")
        if self._env is not None or self._telemetry is not None:
            raise LabStorError(
                "build(shards=N) gives every node-world its own Environment "
                "and telemetry pipeline; drop env= / telemetry= from "
                "cluster(...) (REPRO_TELEMETRY=1 instruments every world)"
            )
        from .par import ParHandle

        return ParHandle(spec, shards)


def cluster(**kw) -> ClusterBuilder:
    """Begin a fluent cluster composition::

        cl = cluster(seed=3).node("n0").node("n1").build()
    """
    return ClusterBuilder(**kw)
