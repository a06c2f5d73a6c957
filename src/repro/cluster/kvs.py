"""Sharded, replicated GenericKVS across cluster nodes.

:class:`HashRing` places keys with consistent hashing: every node owns
``vnodes`` SHA-256-positioned virtual points on a 64-bit ring, and a
key's **preference list** is the first N *distinct* nodes walking
clockwise from the key's position — reordered so distinct failure
domains come first (a rack loss costs at most one replica of any key
while domains suffice).  Adding or removing a node moves only the keys
adjacent to its virtual points, and placement depends on nothing but
the node names — every gateway computes identical lists.

:class:`ShardedKVS` mirrors the :class:`~repro.mods.generic_kvs.GenericKVS`
generator surface (put/get/remove/exists) over that placement:

- **writes** fan out to all N replicas concurrently and succeed at a
  write quorum (majority by default); once too many replicas have
  failed for the quorum to be reachable, the op raises
  :class:`~repro.errors.QuorumError` carrying the last replica error;
- **reads** fan out to all N replicas and return the first successful
  value (quorum 1) — a crashed replica's branch fails over silently,
  which is what keeps reads alive through a node kill;
- **application errors** (an ``ENOENT`` get, a malformed op) are not
  failures of the replica but answers from it: the first one settles
  the op by raising, exactly as a plain GenericKVS call would.

Late replica completions after the quorum settles are harmless: the
accumulator checks the settled event before touching it, and the spare
branches run as daemons on the shared clock (deterministically).

**Anti-entropy** (``anti_entropy=True``): a replica that crashes and
restarts recovers only what *its own* metadata log held at the power
cut — writes acked by the surviving quorum during the outage are
missing, and a quorum-1 read that happens to land on the rejoined node
would serve stale data.  With anti-entropy on, the gateway registers a
restart hook on every replica node; a restarting node is marked stale —
**excluded from read fan-outs only** (writes keep the full preference
list: fresh writes make it fresher) — while a resync daemon
quorum-reads every tracked key the node holds a replica of from the
healthy peers and write-repairs it (or replays a deletion) on the
recovered node, then lifts the read exclusion.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from ..core.requests import LabRequest
from ..errors import (
    FsError,
    IpcError,
    MediaError,
    QueueFull,
    QuorumError,
    RetriesExhausted,
    RuntimeCrashed,
    TimeoutError,
    WorkerCrashed,
)
from ..sim import Interrupt

if TYPE_CHECKING:  # pragma: no cover
    from .node import ClusterClient

__all__ = ["HashRing", "ShardedKVS"]

#: replica errors a fan-out absorbs and fails over from; anything else
#: (assertion-grade bugs, bad arguments) propagates immediately
FAILOVER_ERRORS = (
    TimeoutError,
    RuntimeCrashed,
    WorkerCrashed,
    RetriesExhausted,
    MediaError,
    QueueFull,
    IpcError,
)


def _hash64(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class HashRing:
    """Consistent-hash placement with virtual nodes and failure domains."""

    def __init__(
        self,
        nodes: Iterable[Union[str, tuple[str, str]]],
        vnodes: int = 64,
    ) -> None:
        self.vnodes = vnodes
        self.domains: dict[str, str] = {}
        for entry in nodes:
            name, domain = entry if isinstance(entry, tuple) else (entry, entry)
            self.domains[name] = domain
        if not self.domains:
            raise QuorumError("hash ring needs at least one node")
        points: list[tuple[int, str]] = []
        for name in self.domains:
            for v in range(vnodes):
                points.append((_hash64(f"{name}#{v}"), name))
        points.sort()
        self._points = points
        self._positions = [p for p, _ in points]

    def nodes(self) -> list[str]:
        return list(self.domains)

    def _walk(self, key: str) -> list[str]:
        """Distinct nodes in clockwise ring order from the key's position."""
        start = bisect_right(self._positions, _hash64(key))
        seen: list[str] = []
        n = len(self._points)
        for i in range(n):
            name = self._points[(start + i) % n][1]
            if name not in seen:
                seen.append(name)
                if len(seen) == len(self.domains):
                    break
        return seen

    def preference(self, key: str, n: int) -> list[str]:
        """The key's first ``n`` replica holders, distinct failure domains
        first (ring order breaks ties within and across domains)."""
        if n > len(self.domains):
            raise QuorumError(
                f"cannot place {n} replicas on {len(self.domains)} node(s)"
            )
        walk = self._walk(key)
        chosen: list[str] = []
        used_domains: set[str] = set()
        for name in walk:  # pass 1: one node per failure domain
            if len(chosen) == n:
                break
            domain = self.domains[name]
            if domain not in used_domains:
                chosen.append(name)
                used_domains.add(domain)
        for name in walk:  # pass 2: fill from remaining nodes in ring order
            if len(chosen) == n:
                break
            if name not in chosen:
                chosen.append(name)
        return chosen

    def primary(self, key: str) -> str:
        return self.preference(key, 1)[0]


class ShardedKVS:
    """The cluster-wide key-value surface (build via
    :meth:`Cluster.shard_kvs`; extra gateways via :meth:`bind`)."""

    def __init__(
        self,
        client: "ClusterClient",
        *,
        mount: str,
        ring: HashRing,
        replicas: int = 1,
        quorum: Optional[int] = None,
        timeout_ns: Optional[int] = None,
        anti_entropy: bool = False,
    ) -> None:
        if replicas < 1:
            raise QuorumError("need at least one replica")
        if replicas > len(ring.domains):
            raise QuorumError(
                f"{replicas} replicas need {replicas} nodes; "
                f"ring has {len(ring.domains)}"
            )
        self.client = client
        self.env = client.env
        self.cost = client.home.cost
        self.mount = mount
        self.ring = ring
        self.replicas = replicas
        self.write_quorum = quorum if quorum is not None else replicas // 2 + 1
        if not 1 <= self.write_quorum <= replicas:
            raise QuorumError(
                f"write quorum {self.write_quorum} outside [1, {replicas}]"
            )
        #: per-replica-op deadline; None waits out crashes/retries
        self.timeout_ns = timeout_ns
        self.fanouts = 0
        self.failovers = 0
        self.quorum_failures = 0
        self.anti_entropy = anti_entropy
        #: nodes currently excluded from read fan-outs (rejoining after a
        #: crash, not yet re-synced)
        self._stale: set[str] = set()
        #: keys this gateway has ever written (resync's worklist; a
        #: removed key stays tracked so resync can replay the deletion)
        self._tracked: set[str] = set()
        self.resyncs = 0
        self.repaired = 0
        if anti_entropy:
            # pure callback registration — no events, so arming anti-
            # entropy leaves an un-crashed run's trace digest untouched
            for name in sorted(ring.domains):
                node = client.cluster.nodes[name]
                node.runtime.on_restart(
                    lambda n=name: self._on_node_restart(n)
                )

    def bind(self, client: "ClusterClient") -> "ShardedKVS":
        """A second gateway on another node sharing this placement.

        Anti-entropy stays with the primary gateway — bound gateways
        would otherwise register duplicate restart hooks and race the
        same repairs."""
        return ShardedKVS(
            client, mount=self.mount, ring=self.ring, replicas=self.replicas,
            quorum=self.write_quorum, timeout_ns=self.timeout_ns,
        )

    # ------------------------------------------------------------------
    def _intercept(self):
        # same client-side interception price GenericKVS pays
        yield self.env.timeout(self.cost.generic_fs_ns)

    def _fanout(self, op: str, payload: dict, targets: Sequence[str], need: int):
        """Process generator: issue ``op`` to every target, settle at
        ``need`` acks (value = first success), fail once unreachable."""
        env = self.env
        self.fanouts += 1
        done = env.event()
        total = len(targets)
        state = {"ok": 0, "fail": 0, "last_err": None, "value": None, "valued": False}

        def replica(node_name: str):
            req = LabRequest(op=op, payload=dict(payload))
            try:
                value = yield from self.client.call_on(
                    node_name, self.mount, req, timeout_ns=self.timeout_ns
                )
            except (Interrupt, GeneratorExit):
                raise
            except FAILOVER_ERRORS as exc:
                self.failovers += 1
                state["fail"] += 1
                state["last_err"] = exc
                if not done.triggered and state["fail"] > total - need:
                    self.quorum_failures += 1
                    done.fail(QuorumError(
                        f"{op} {payload.get('key')!r}: quorum {need}/{total} "
                        f"unreachable after {state['fail']} replica failure(s); "
                        f"last: {exc!r}"
                    ))
            except Exception as exc:  # app-level error (ENOENT, bad op):
                # the service answered; its verdict is authoritative, not
                # something another replica can out-vote
                if not done.triggered:
                    done.fail(exc)
            else:
                state["ok"] += 1
                if not state["valued"]:
                    state["value"] = value
                    state["valued"] = True
                if not done.triggered and state["ok"] >= need:
                    done.succeed(state["value"])

        for name in targets:  # spawn order == preference order: deterministic
            env.process(
                replica(name),
                name=f"skvs.{op}.{payload.get('key')}@{name}",
                daemon=True,
            )
        return (yield done)  # raises QuorumError when the event failed

    def _targets(self, key: str) -> list[str]:
        return self.ring.preference(key, self.replicas)

    def _targets_read(self, key: str) -> list[str]:
        """Preference list minus stale (rejoined, un-resynced) replicas;
        falls back to the full list when exclusion would leave nothing."""
        pref = self._targets(key)
        if not self._stale:
            return pref
        healthy = [n for n in pref if n not in self._stale]
        return healthy or pref

    # -- anti-entropy --------------------------------------------------
    def _on_node_restart(self, node_name: str) -> None:
        """Restart hook: quarantine the rejoined replica's reads and
        launch its resync."""
        self._stale.add(node_name)
        self.env.process(
            self._resync(node_name),
            name=f"skvs.resync.{node_name}",
            daemon=True,
        )

    def _resync(self, node_name: str):
        """Process generator: repair every tracked key the recovered node
        replicates from a quorum read of its healthy peers, then lift the
        read exclusion."""
        for key in sorted(self._tracked):
            pref = self._targets(key)
            if node_name not in pref:
                continue
            healthy = [n for n in pref if n != node_name and n not in self._stale]
            if not healthy:
                continue  # no fresh peer to read from; leave quarantined
            req: Optional[LabRequest] = None
            try:
                value = yield from self._fanout("kvs.get", {"key": key}, healthy, 1)
            except FsError:
                # deleted during the outage: replay the deletion
                req = LabRequest(op="kvs.remove", payload={"key": key})
            except QuorumError:
                continue  # peers unreachable right now; skip this key
            else:
                req = LabRequest(op="kvs.put", payload={"key": key, "value": value})
            try:
                yield from self.client.call_on(
                    node_name, self.mount, req, timeout_ns=self.timeout_ns
                )
            except FsError:
                pass  # removing an already-absent key: nothing to repair
            except FAILOVER_ERRORS:
                return  # node died again mid-resync; next restart retries
            self.repaired += 1
        self._stale.discard(node_name)
        self.resyncs += 1

    # -- GenericKVS surface ------------------------------------------------
    def put(self, key: str, value: bytes):
        self._tracked.add(key)
        yield from self._intercept()
        return (yield from self._fanout(
            "kvs.put", {"key": key, "value": value},
            self._targets(key), self.write_quorum,
        ))

    def get(self, key: str):
        yield from self._intercept()
        return (yield from self._fanout(
            "kvs.get", {"key": key}, self._targets_read(key), 1,
        ))

    def remove(self, key: str):
        yield from self._intercept()
        return (yield from self._fanout(
            "kvs.remove", {"key": key}, self._targets(key), self.write_quorum,
        ))

    def exists(self, key: str):
        yield from self._intercept()
        return (yield from self._fanout(
            "kvs.exists", {"key": key}, self._targets_read(key), 1,
        ))
