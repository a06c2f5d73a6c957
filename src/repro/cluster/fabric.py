"""The network fabric model: links, costs, and cross-node transfers.

Generalizes the cross-core queue-pair cost model of :mod:`repro.ipc` to
cross-node hops.  Where a shared-memory queue pair charges one
``shm_hop_ns`` cache transfer per pop, a fabric hop decomposes into the
NIC fetch (``nic_tx_ns``, charged as the NIC queue pair's pop cost), a
**serialization** term (``bytes / bandwidth``, holding the directed
link's wire — capacity-1, so concurrent messages queue behind each
other), and a **propagation** term (``link_lat_ns``, pipelined: paid
after the wire is released, so back-to-back messages overlap their
flight time).  Completions pay ``nic_rx_ns`` on the reap side.

Links are declared per directed pair; :meth:`NetworkFabric.add_link`
installs both directions by default.  Topology is explicit — routing a
call between unlinked nodes raises :class:`~repro.errors.FabricError`
rather than inventing a path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import FabricError
from ..sim import Environment, Resource

__all__ = ["FabricCost", "FabricLink", "NetworkFabric", "FabricTransport"]


@dataclass(frozen=True)
class FabricCost:
    """Per-link cost constants, nanoseconds and bytes/second.

    Defaults approximate one switch hop of a 100GbE datacenter fabric;
    override per link for heterogeneous topologies (e.g. a slow
    cross-rack uplink next to fast in-rack links).
    """

    link_lat_ns: int = 1500          # propagation + one switch traversal
    bw_bytes_per_s: float = 12.5e9   # 100 Gb/s payload rate
    nic_tx_ns: int = 600             # doorbell + NIC DMA fetch of the WQE
    nic_rx_ns: int = 600             # completion reap on the initiator

    def serialize_ns(self, nbytes: int) -> int:
        """Wire occupancy of an ``nbytes`` message."""
        return round(nbytes / self.bw_bytes_per_s * 1e9)

    def with_overrides(self, **kw) -> "FabricCost":
        return replace(self, **kw)


DEFAULT_FABRIC_COST = FabricCost()


class FabricLink:
    """One directed link.  The wire is a capacity-1 resource held for the
    serialization term only; propagation is paid after release so
    consecutive messages pipeline (message N+1 serializes while message
    N is still in flight)."""

    def __init__(self, env: Environment, src: str, dst: str, cost: FabricCost) -> None:
        self.env = env
        self.src = src
        self.dst = dst
        self.cost = cost
        self._wire = Resource(env, capacity=1)
        self.transfers = 0
        self.bytes_moved = 0

    def send(self, nbytes: int):
        """Process generator: serialize ``nbytes`` onto the wire and
        return the **arrival time** without sleeping out the propagation.

        What a route's port carries: the sender only experiences the wire
        occupancy; the propagation term is realized at the receiver as
        the returned ``release + link_lat_ns`` delivery timestamp.
        Counters move at wire release, when the flight starts.
        """
        with self._wire.request() as grant:
            yield grant
            yield self.env.timeout(self.cost.serialize_ns(nbytes))
        self.transfers += 1
        self.bytes_moved += nbytes
        return self.env.now + self.cost.link_lat_ns

    def transfer(self, nbytes: int):
        """Process generator: move ``nbytes`` across the link, returning
        once they have arrived."""
        arrival = yield from self.send(nbytes)
        yield self.env.timeout(arrival - self.env.now)

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<FabricLink {self.src}->{self.dst} "
                f"transfers={self.transfers} bytes={self.bytes_moved}>")


class NetworkFabric:
    """The cluster's set of directed links, declared at topology time."""

    def __init__(self, env: Environment, cost: FabricCost | None = None) -> None:
        self.env = env
        self.cost = cost or DEFAULT_FABRIC_COST
        self._links: dict[tuple[str, str], FabricLink] = {}

    def add_link(self, src: str, dst: str, cost: FabricCost | None = None,
                 *, bidirectional: bool = True) -> None:
        if src == dst:
            raise FabricError(f"node {src!r} needs no link to itself")
        pairs = [(src, dst), (dst, src)] if bidirectional else [(src, dst)]
        for a, b in pairs:
            if (a, b) not in self._links:
                self._links[(a, b)] = FabricLink(self.env, a, b, cost or self.cost)

    def link(self, src: str, dst: str) -> FabricLink:
        try:
            return self._links[(src, dst)]
        except KeyError:
            known = sorted(f"{a}->{b}" for a, b in self._links)
            raise FabricError(
                f"no fabric link {src}->{dst}; topology has {known}"
            ) from None

    def connected(self, src: str, dst: str) -> bool:
        return (src, dst) in self._links

    def links(self) -> list[FabricLink]:
        """All links in deterministic (src, dst) order."""
        return [self._links[k] for k in sorted(self._links)]

    def stats(self) -> dict[str, dict[str, int]]:
        return {
            f"{ln.src}->{ln.dst}": {"transfers": ln.transfers,
                                    "bytes": ln.bytes_moved}
            for ln in self.links()
        }


class FabricTransport:
    """Adapts the fabric to a peer-keyed ``transfer(peer, nbytes)``
    surface (the :class:`~repro.pfs.OrangeFs` network seam): each message
    from ``home`` pays the directed link to the peer's node.  A peer
    mapped to the home node itself transfers for free (node-local I/O
    crosses no wire)."""

    def __init__(self, fabric: NetworkFabric, home: str, peers: dict) -> None:
        self.fabric = fabric
        self.home = home
        #: logical peer key ("mds", data-server index, ...) -> node name
        self.peers = dict(peers)
        self.messages = 0

    def transfer(self, peer, nbytes: int):
        """Process generator: move ``nbytes`` from home to ``peer``."""
        try:
            node = self.peers[peer]
        except KeyError:
            raise FabricError(
                f"transport has no peer {peer!r}; knows {sorted(map(str, self.peers))}"
            ) from None
        self.messages += 1
        if node == self.home:
            return
        yield from self.fabric.link(self.home, node).transfer(nbytes)
