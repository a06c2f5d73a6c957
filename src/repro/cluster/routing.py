"""Cross-node call routing: NIC queue pairs over fabric links.

One :class:`RemoteRoute` exists per directed node pair that is linked in
both directions, paired with a :class:`RouteExecutor` on the target
node.  The anatomy mirrors a real RDMA/NVMe-oF initiator-target path,
built entirely from existing primitives:

1. the initiator submits a :class:`_RemoteOp` envelope to the route's
   **NIC queue pair** — an unordered private-memory
   :class:`~repro.ipc.QueuePair` whose pop cost is the NIC's WQE fetch
   (``nic_tx_ns``) and whose ``owner`` names the route, so a sanitizer
   conservation failure says *which node's* NIC leaked;
2. the TX loop pops the envelope, holds the outbound
   :class:`~repro.cluster.fabric.FabricLink`'s wire for the request's
   serialization, and posts the pickled request on an egress **port** as
   a message timestamped ``wire release + link_lat_ns``;
3. at that arrival time the target's executor runs the request through
   its **proxy client** (an ordinary unordered LabStorClient connected
   to the target's Runtime at setup) and posts the response — value or
   pickled error — back the same way over its own outbound link;
4. the response completes the envelope on the NIC QP — **always**, as an
   error completion (NACK) when anything failed, so ``submitted ==
   completed + inflight`` holds through node crashes, timeouts, and
   unresolvable mounts — and the RX loop reaps it (``nic_rx_ns`` per
   reap) and fires the initiator's pending event.

A port is anything with ``send(kind, arrival_ns, req_id, nbytes,
payload)`` that delivers the message to the peer's ingress handler at
``arrival_ns``: :class:`repro.sim.par.OutPort` between per-node worlds,
the cluster's same-Environment port when both nodes share a clock.  The
route halves cannot tell the two apart, which is what makes the two
placements one implementation.

Target-node crashes surface naturally: the proxy client's Wait rides
out the crash window and raises :class:`~repro.errors.RuntimeCrashed`,
which comes back to the caller as the NACK payload — the signal
:class:`~repro.cluster.ShardedKVS` uses to fail over to a replica.
"""

from __future__ import annotations

import pickle
from typing import Any, Optional

from ..errors import FabricError
from ..ipc.queue_pair import Completion, QueuePair
from ..sim import Event, Interrupt

__all__ = ["RemoteRoute", "RouteExecutor", "join_pair"]

#: fixed wire overhead per message: headers, op code, key framing
WIRE_HEADER_BYTES = 64


def _payload_bytes(value: Any) -> int:
    if isinstance(value, (bytes, bytearray, memoryview)):
        return len(value)
    if isinstance(value, str):
        return len(value)
    return 0


def request_wire_bytes(req: Any) -> int:
    """On-the-wire size of a request: header + payload blobs/strings."""
    payload = getattr(req, "payload", None) or {}
    return WIRE_HEADER_BYTES + sum(_payload_bytes(v) for v in payload.values())


class _RemoteOp:
    """Envelope a remote call rides through the NIC queue pair."""

    __slots__ = ("path", "req", "timeout_ns", "est_ns")

    def __init__(self, path: str, req: Any, timeout_ns: Optional[int]) -> None:
        self.path = path
        self.req = req
        self.timeout_ns = timeout_ns
        self.est_ns = 0  # queue-depth estimator input (NIC QPs don't classify)


def pickle_error(exc: BaseException) -> bytes:
    """Pickle a remote failure, verified round-trippable.

    Every :mod:`repro.errors` class keeps its type, message and
    attributes (``ReproError.__reduce__``); a foreign exception whose
    ``__init__`` doesn't survive the default ``(cls, args)``
    reconstruction (or that drags unpicklable context along) degrades to
    a :class:`FabricError` carrying the type name and message.
    """
    try:
        blob = pickle.dumps(exc)
        pickle.loads(blob)
        return blob
    except Exception:  # noqa: BLE001 - any pickling defect degrades
        return pickle.dumps(
            FabricError(f"remote {type(exc).__name__}: {exc}"))


class RemoteRoute:
    """Initiator half of one directed src→dst path.

    The NIC queue pair, the TX serialization on the outbound link, and
    the RX completion reap all live on the *source* node's env.  The
    request is pickled onto an egress port as a timestamped message whose
    arrival is ``wire release + link_lat_ns``; the response comes back
    the same way and completes the queue pair (ACK or NACK), so NIC
    conservation holds across node crashes.
    """

    def __init__(self, env, src_name: str, dst_name: str, out, port) -> None:
        self.env = env
        self.src_name = src_name
        self.dst_name = dst_name
        self.out = out          # FabricLink src->dst (owned by this env)
        self.port = port        # egress port toward dst
        self.qp = QueuePair(
            env,
            primary=False,
            ordered=False,
            depth=4096,
            segment=None,
            pop_cost_ns=out.cost.nic_tx_ns,
            owner=f"fabric:{src_name}->{dst_name}",
        )
        self._pending: dict[int, Event] = {}   # req_id -> initiator event
        self._inflight: dict[int, Any] = {}    # req_id -> original request
        self.remote_calls = 0
        self.nacks = 0
        self._tx = env.process(
            self._tx_loop(), name=f"nic.{src_name}->{dst_name}.tx", daemon=True
        )
        self._rx = env.process(
            self._rx_loop(), name=f"nic.{src_name}->{dst_name}.rx", daemon=True
        )

    @property
    def inflight(self) -> int:
        """Calls awaiting a response (the runner's termination input)."""
        return len(self._inflight)

    # -- initiator side ------------------------------------------------
    def call(self, path: str, req: Any, timeout_ns: int | None = None):
        """Process generator: one remote call, raising the remote error."""
        ev = self.env.event()
        self._pending[req.req_id] = ev
        try:
            self.qp.submit(_RemoteOp(path, req, timeout_ns))
            comp = yield ev
        except BaseException:
            self._pending.pop(req.req_id, None)
            raise
        if comp.error is not None:
            raise comp.error
        return comp.value

    def _tx_loop(self):
        try:
            while True:
                op = yield from self.qp.pop_request()  # pays the WQE fetch
                self.env.process(
                    self._send(op),
                    name=f"nic.{self.src_name}->{self.dst_name}.op{op.req.req_id}",
                    daemon=True,
                )
        except Interrupt:
            return  # route closed

    def _send(self, op: _RemoteOp):
        self.remote_calls += 1
        req = op.req
        self._inflight[req.req_id] = req
        nbytes = request_wire_bytes(req)
        arrival = yield from self.out.send(nbytes)
        self.port.send("req", arrival, req.req_id, nbytes,
                       pickle.dumps((op.path, req, op.timeout_ns)))

    def deliver(self, msg) -> None:
        """Ingress callback: a response message reached this env.

        Completes the queue pair unconditionally — even when the waiting
        caller already gave up (a settled KVS fan-out interrupts its
        laggard replica daemons) — so ``submitted == completed`` still
        balances after the run.
        """
        req = self._inflight.pop(msg.req_id)
        value, errblob = pickle.loads(msg.payload)
        error = pickle.loads(errblob) if errblob is not None else None
        if error is not None:
            self.nacks += 1
        self.qp.complete(Completion(req, value=value, error=error))

    def _rx_loop(self):
        try:
            while True:
                comp = yield from self.qp.pop_completion()  # pays the reap
                ev = self._pending.pop(comp.request.req_id, None)
                if ev is not None and not ev.triggered:
                    ev.succeed(comp)
        except Interrupt:
            return  # route closed

    def close(self) -> None:
        for proc in (self._tx, self._rx):
            if proc is not None and proc.is_alive:
                proc.interrupt("route closed")
        self._tx = self._rx = None
        self._pending.clear()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<RemoteRoute {self.src_name}->{self.dst_name} "
                f"calls={self.remote_calls} inflight={self.inflight}>")


class RouteExecutor:
    """Executor half: receives pickled requests for one inbound directed
    pair, executes them on the local node through an ordinary unordered
    proxy client, and ships the (value | NACK) response back over the
    locally-owned return link.

    Requests are re-identified from the local process's request-id
    counter on arrival: wire ids from different source nodes come from
    independent counters and may collide inside one worker's active map,
    while the response still travels under the wire id the initiator is
    waiting on.
    """

    def __init__(self, env, src_name: str, dst_node, back, port) -> None:
        self.env = env
        self.src_name = src_name
        self.node = dst_node
        self.back = back        # FabricLink dst->src (owned by this env)
        self.port = port        # egress port toward src
        self.proxy = dst_node.client(ordered=False)
        self.active = 0
        self.handled = 0
        self.nacks = 0

    def deliver(self, msg) -> None:
        """Ingress callback: a request message reached this env."""
        self.env.process(
            self._handle(msg),
            name=f"nicx.{self.src_name}->{self.node.name}.op{msg.req_id}",
            daemon=True,
        )

    def _handle(self, msg):
        from ..core import requests as _corereq

        self.active += 1
        try:
            path, req, timeout_ns = pickle.loads(msg.payload)
            req.req_id = next(_corereq._req_ids)
            try:
                stack, _ = self.node.runtime.namespace.resolve(path)
                value = yield from self.proxy.call(stack, req,
                                                   timeout_ns=timeout_ns)
                body = (value, None)
            except (Interrupt, GeneratorExit):
                raise
            except BaseException as exc:  # noqa: BLE001 - becomes the NACK
                self.nacks += 1
                body = (None, pickle_error(exc))
            nbytes = WIRE_HEADER_BYTES + _payload_bytes(body[0])
            arrival = yield from self.back.send(nbytes)
            self.port.send("resp", arrival, msg.req_id, nbytes,
                           pickle.dumps(body))
            self.handled += 1
        finally:
            self.active -= 1

    def close(self) -> None:
        self.proxy.close()

    def __repr__(self) -> str:  # pragma: no cover - diagnostics only
        return (f"<RouteExecutor {self.src_name}->{self.node.name} "
                f"handled={self.handled} active={self.active}>")


def join_pair(env, host, peer: str, link, port, on_message):
    """Stand up ``host``'s halves of the bidirectionally linked pair
    ``(host, peer)`` and return ``(route, executor)``.

    Both halves send on the one egress ``port`` toward ``peer`` and share
    the locally-owned outbound ``link`` — responses contend for the wire
    with this node's own requests.  ``on_message(port_name, kind,
    handler)`` subscribes them to what ``peer`` sends back: responses to
    the route, requests to the executor.
    """
    route = RemoteRoute(env, host.name, peer, link, port)
    on_message(f"{peer}->{host.name}", "resp", route.deliver)
    executor = RouteExecutor(env, peer, host, link, port)
    on_message(f"{peer}->{host.name}", "req", executor.deliver)
    return route, executor
