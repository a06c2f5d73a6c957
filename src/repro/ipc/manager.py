"""The IPC Manager: connection handshake and queue-pair brokerage.

Clients connect over a UNIX domain socket (credential exchange), after
which the manager allocates a shared-memory segment, grants it to the
client PID, and builds the client's primary queue pair.  Intermediate
queue pairs (for requests spawned by other requests) live in private
memory and skip the access checks.
"""

from __future__ import annotations

from ..errors import IpcError
from ..kernel.cpu import DEFAULT_COST, CostModel
from ..sim import Environment
from .queue_pair import QueuePair
from .shmem import ShMemManager

__all__ = ["IpcManager"]

# UNIX-domain-socket handshake (connect + credential passing), ns.
UDS_HANDSHAKE_NS = 25_000


class ClientConn:
    """State the IPC manager keeps per connected client."""

    def __init__(self, pid: int, qp: QueuePair, segment) -> None:
        self.pid = pid
        self.qp = qp
        self.segment = segment


class IpcManager:
    def __init__(
        self,
        env: Environment,
        cost: CostModel = DEFAULT_COST,
        runtime_pid: int = 1,
    ) -> None:
        self.env = env
        self.cost = cost
        self.shmem = ShMemManager(env, runtime_pid)
        self.runtime_pid = runtime_pid
        self.conns: dict[int, ClientConn] = {}
        self.qps: dict[int, QueuePair] = {}
        self._on_connect = []  # callbacks: fn(ClientConn)

    def on_connect(self, fn) -> None:
        """Register a callback fired for each new client connection
        (the Work Orchestrator uses this to trigger rebalance)."""
        self._on_connect.append(fn)

    # -- connection lifecycle -----------------------------------------------
    def connect(self, pid: int, *, ordered: bool = True, depth: int = 4096):
        """Process generator: handshake + shared primary QP for ``pid``."""
        if pid in self.conns:
            raise IpcError(f"pid {pid} already connected")
        yield self.env.timeout(UDS_HANDSHAKE_NS)
        seg = yield self.env.process(self.shmem.alloc(depth * 64))
        seg.grant(pid)
        yield self.env.process(self.shmem.map_into(seg, pid))
        qp = QueuePair(
            self.env,
            primary=True,
            ordered=ordered,
            depth=depth,
            segment=seg,
            pop_cost_ns=self.cost.shm_hop_ns,
            owner=f"client{pid}",
        )
        conn = ClientConn(pid, qp, seg)
        self.conns[pid] = conn
        self.qps[qp.qid] = qp
        for fn in self._on_connect:
            fn(conn)
        return conn

    def disconnect(self, pid: int) -> None:
        conn = self.conns.pop(pid, None)
        if conn is None:
            return
        self.qps.pop(conn.qp.qid, None)
        self.shmem.free(conn.segment)

    def reconnect(self, pid: int):
        """Process generator: drop and re-establish (fork/execve path)."""
        self.disconnect(pid)
        conn = yield self.env.process(self.connect(pid))
        return conn

    # -- queue management -----------------------------------------------------
    def get_qp(self, qid: int) -> QueuePair:
        try:
            return self.qps[qid]
        except KeyError:
            raise IpcError(f"unknown qid {qid}") from None

    def primary_qps(self) -> list[QueuePair]:
        return [qp for qp in self.qps.values() if qp.primary]
