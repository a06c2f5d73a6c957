"""The Node abstraction: one LabStor deployment inside a cluster.

A :class:`Node` is what :class:`~repro.system.LabStorSystem` is to a
single machine — its own devices, Runtime, workers, and clients — except
it rides its **cluster's** discrete-event clock, RNG registry,
sanitizer, and telemetry instead of owning them.  Nodes hosted by the
same :class:`~repro.cluster.Cluster` advance on one virtual timeline;
either way cross-node interactions (fabric transfers, replica fan-out,
failure and recovery) are timestamped messages, so they are globally
ordered and digest-reproducible.

Node deliberately duck-types the slice of the LabStorSystem surface the
rest of the codebase composes against: :class:`~repro.builder.StackBuilder`
needs ``.devices`` / ``.runtime`` / ``.install_faults``, and
:class:`~repro.faults.FaultEngine` needs ``.env`` / ``.runtime`` /
``.devices`` — so stacks mount and fault plans install on a node exactly
as they do on a standalone system, unchanged.

Construct nodes through :class:`~repro.cluster.ClusterBuilder`, not
directly; the Cluster owns topology and route construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Union

from ..builder import StackBuilder
from ..core.client import LabStorClient
from ..core.runtime import LabStorRuntime, RuntimeConfig
from ..devices.profiles import DeviceSpec
from ..mods import STANDARD_REPO

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultEngine, FaultPlan
    from .builder import Cluster

__all__ = ["Node"]


class Node:
    """One machine of the cluster: devices + Runtime on the cluster's clock."""

    def __init__(
        self,
        cluster: "Cluster",
        name: str,
        *,
        devices: Iterable[Union[str, DeviceSpec]] = ("nvme",),
        config: RuntimeConfig | None = None,
        failure_domain: str | None = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.name = name
        #: placement constraint: replicas prefer distinct failure domains
        #: (rack/row/PDU); defaults to the node name, i.e. every node is
        #: its own domain
        self.failure_domain = failure_domain if failure_domain is not None else name
        self.cost = cluster.cost
        # device RNG streams are node-qualified so two nodes with the same
        # device kind draw from independent, seed-stable streams
        self.devices = {}
        for dev in devices:
            spec = dev if isinstance(dev, DeviceSpec) else DeviceSpec(dev)
            self.devices[spec.kind] = spec.build(
                self.env, rng=cluster.rngs.stream(f"{name}.device.{spec.kind}")
            )
        self.runtime = LabStorRuntime(
            self.env, self.devices, cost=self.cost, config=config
        )
        self.runtime.mount_repo("standard", STANDARD_REPO)
        self._clients: list[LabStorClient] = []
        self.faults = None

    # -- LabStorSystem-compatible surface ------------------------------
    def stack(self, mount: str) -> StackBuilder:
        """Begin a fluent stack configuration on this node."""
        return StackBuilder(self, mount)

    def install_faults(self, plan: Union["FaultPlan", str]) -> "FaultEngine":
        """Arm deterministic fault injection scoped to this node.

        Draws from the node-qualified ``"{name}.faults"`` RNG stream so
        plans on different nodes replay independently."""
        from ..faults import FaultEngine, FaultPlan

        if isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        if self.faults is None:
            self.faults = FaultEngine(
                self.env, plan, rng=self.cluster.rngs.stream(f"{self.name}.faults")
            ).install(self)
        else:
            self.faults.extend(plan)
        return self.faults

    def client(self, ordered: bool = True) -> LabStorClient:
        """Create and connect a client on this node (setup-time only: the
        connect handshake drives the simulation via ``env.run``)."""
        c = LabStorClient(self.env, self.runtime)
        self.env.run(self.env.process(c.connect(ordered=ordered)))
        self._clients.append(c)
        return c

    @property
    def online(self) -> bool:
        return self.runtime.online

    def shutdown(self, drain: bool = True) -> None:
        """Tear this node down; an offline (crashed, never restarted)
        node skips the drain — its queues can never empty."""
        if drain and self.runtime.online:
            for c in self._clients:
                if c.conn is not None:
                    self.env.run(c.conn.qp.drained())
        for c in self._clients:
            c.close()
        self._clients.clear()
        self.runtime.shutdown()

    def run(self, *args, **kw):
        return self.env.run(*args, **kw)

    def process(self, gen, **kw):
        return self.env.process(gen, **kw)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        state = "online" if self.runtime.online else "OFFLINE"
        return (f"<Node {self.name} [{state}] domain={self.failure_domain} "
                f"devices={sorted(self.devices)}>")


class ClusterClient:
    """A client homed on one node that can call services cluster-wide.

    Local calls go straight through the node's shared-memory queue pair,
    exactly like a standalone LabStorClient.  Remote calls ride the
    home node's NIC queue pair onto the fabric (see
    :mod:`repro.cluster.routing`): serialize out, execute on the owning
    node through its executor's proxy client, serialize the response
    back, reap the NIC completion.

    Create via :meth:`Cluster.client` during setup — connecting runs the
    IPC handshake with ``env.run``, which must not happen mid-simulation.
    """

    def __init__(self, cluster: "Cluster", home: Node, ordered: bool = True) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.home = home
        self.local = home.client(ordered=ordered)
        #: remote calls issued (local calls are visible on ``local``)
        self.remote_calls = 0

    @property
    def pid(self) -> int:
        return self.local.pid

    def call_on(self, node_name: str, path: str, req, timeout_ns: int | None = None):
        """Process generator: execute ``req`` against ``path`` on a named
        node, routing over the fabric when the node is not home."""
        if node_name == self.home.name:
            stack, _ = self.home.runtime.namespace.resolve(path)
            return (yield from self.local.call(stack, req, timeout_ns=timeout_ns))
        self.remote_calls += 1
        route = self.cluster.route(self.home.name, node_name)
        return (yield from route.call(path, req, timeout_ns=timeout_ns))

    def call(self, path: str, req, timeout_ns: int | None = None):
        """Process generator: route by the cluster service registry."""
        owner = self.cluster.owner_of(path)
        return (yield from self.call_on(owner, path, req, timeout_ns=timeout_ns))

    def close(self) -> None:
        self.local.close()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return f"<ClusterClient pid={self.pid} home={self.home.name}>"
