"""The LabStor client library.

Connects a client process to the Runtime, submits requests to its primary
queue pair, demultiplexes completions, and implements ``Wait`` with crash
detection (Section III-C3): if the Runtime dies mid-request, the client
parks until the administrator restarts it (bounded by
``config.restart_wait_ns``), triggers StateRepair, and then continues —
the request survives in the shared-memory queue.

For stacks mounted with ``exec_mode: sync`` the client bypasses the
Runtime and executes the DAG in its own thread (the decentralized designs
of Section III-B; "Lab-D" in the evaluation).
"""

from __future__ import annotations

import itertools
from typing import Any

from ..errors import LabStorError, RuntimeCrashed, TimeoutError
from ..ipc.queue_pair import Completion
from ..obs.spans import SpanContext
from ..sim import Environment, Interrupt
from .labstack import LabStack
from .requests import LabRequest
from .runtime import LabStorRuntime

__all__ = ["LabStorClient"]

_pids = itertools.count(1000)


class LabStorClient:
    def __init__(self, env: Environment, runtime: LabStorRuntime, pid: int | None = None) -> None:
        self.env = env
        self.runtime = runtime
        self.pid = pid if pid is not None else next(_pids)
        self.conn = None
        self._pending: dict[int, Any] = {}   # req_id -> Event
        self._poller = None
        self.fd_table: dict[int, int] = {}   # fd -> stack_id (GenericFS state)
        self._fd_counter = itertools.count(3)
        self.completed = 0
        #: CQEs the poller drains per reap hop (batch CQ reaping)
        self.reap_batch_max = 16

    # ------------------------------------------------------------------
    def connect(self, ordered: bool = True):
        """Process generator: establish the IPC connection.

        ``ordered=False`` makes the primary queue pair unordered so a
        worker may process this client's requests concurrently (needed
        for fio-style multi-outstanding block I/O; POSIX file streams
        keep the ordered default).
        """
        if self.conn is not None:
            raise LabStorError(f"client {self.pid} already connected")
        self.conn = yield self.env.process(self.runtime.ipc.connect(self.pid, ordered=ordered))
        self._poller = self.env.process(
            self._poll_completions(), name=f"client{self.pid}.poller", daemon=True
        )
        return self.conn

    def disconnect(self) -> None:
        if self.conn is None:
            return
        self.runtime.orchestrator.unregister_queue(self.conn.qp)
        self.runtime.ipc.disconnect(self.pid)
        self.conn = None

    def close(self) -> None:
        """Tear the client down for good: disconnect and stop the
        completion poller daemon.

        Unlike :meth:`disconnect` (which ``execve`` uses and which leaves
        the poller to notice the connection change), close() interrupts
        the poller so the simulated process count cannot grow across
        repeated client construction.  Call it only once the client's
        outstanding requests have drained (``LabStorSystem.shutdown``
        drains first); completions arriving after close are dropped.
        """
        poller, self._poller = self._poller, None
        self.disconnect()
        if poller is not None and poller.is_alive:
            poller.interrupt("client closed")
        self._pending.clear()

    def fork(self, child_pid: int | None = None):
        """Process generator modelling fork/clone: the child reconnects and
        inherits the parent's open fd table (copied via the Runtime)."""
        child = LabStorClient(self.env, self.runtime, pid=child_pid)
        yield self.env.process(child.connect())
        # fd state is copied runtime-side: one message per table
        yield self.env.timeout(2 * self.runtime.cost.shm_hop_ns)
        child.fd_table = dict(self.fd_table)
        return child

    def execve(self):
        """Process generator modelling execve: disconnect, reconnect, and
        reload fd state from the Runtime."""
        saved = dict(self.fd_table)
        self.disconnect()
        yield self.env.process(self.connect())
        yield self.env.timeout(2 * self.runtime.cost.shm_hop_ns)
        self.fd_table = saved

    # ------------------------------------------------------------------
    def alloc_fd(self, stack_id: int) -> int:
        fd = next(self._fd_counter)
        self.fd_table[fd] = stack_id
        return fd

    def release_fd(self, fd: int) -> None:
        self.fd_table.pop(fd, None)

    # ------------------------------------------------------------------
    def call(self, stack: LabStack, req: LabRequest, timeout_ns: int | None = None):
        """Process generator: execute ``req`` against ``stack`` and return
        the completion value.  Chooses sync/async by the stack's rules.

        ``timeout_ns`` bounds the async wait: past the deadline the call
        raises :class:`~repro.errors.TimeoutError` and fails the pending
        completion event instead of hanging — a late completion for the
        abandoned request is dropped by the poller."""
        env = self.env
        req.stack_id = stack.stack_id
        req.client_pid = self.pid
        req.submit_ns = env._now
        t = self.runtime.tracer
        sc = None
        if env._obs:
            sc = SpanContext(
                op=req.op, now=env._now, req_id=req.req_id,
                stack_id=stack.stack_id, sync=stack.exec_mode == "sync",
            )
            req.obs = sc
            t.emit(env._now, "obs.open", span=sc)
        if stack.exec_mode == "sync":
            if sc is not None:
                sc.mark_dispatched(env._now)
            try:
                value = yield env.process(self.runtime.execute_sync(req))
            finally:
                req.complete_ns = env._now
                if sc is not None:
                    sc.mark_complete(env._now)
                    sc.close(env._now)
                    t.emit(env._now, "obs.span", span=sc)
            self.completed += 1
            return value
        if self.conn is None:
            raise LabStorError(f"client {self.pid} not connected")
        entry = stack.entry
        req.mod_uuid = entry.uuid
        req.est_ns = entry.est_processing_time(req)
        deadline = env._now + timeout_ns if timeout_ns is not None else None
        ev = env.event()
        self._pending[req.req_id] = ev
        try:
            self.conn.qp.submit(req, pid=self.pid)
            comp = yield from self._wait(ev, deadline)
        except BaseException as exc:
            # abandoned request: forget it so a late completion is dropped
            self._pending.pop(req.req_id, None)
            if isinstance(exc, TimeoutError) and not ev.triggered:
                # fail the pending event so any other waiter sees the
                # timeout, and defuse it explicitly: when the deadline
                # expires during a crash ride-out, no wait condition was
                # ever armed on ev, so there is no stale subscriber left
                # to absorb the failure
                ev.fail(exc)
                ev.defuse()
            if sc is not None:
                sc.close(env._now)
                t.emit(env._now, "obs.span", span=sc)
            raise
        # completion-side cross-core hop (the submit-side hop is traced by
        # the worker's pop); charged in _poll_completions, attributed here
        if env._trace:
            t.emit(env._now, "span", name="ipc", dur_ns=self.runtime.cost.shm_hop_ns)
        self.completed += 1
        if sc is not None:
            sc.add_cat("ipc", self.runtime.cost.shm_hop_ns)
            sc.close(env._now)
            t.emit(env._now, "obs.span", span=sc)
        if comp.error is not None:
            raise comp.error
        return comp.value

    def submit_batch(self, stack: LabStack, reqs: list, timeout_ns: int | None = None):
        """Process generator: submit ``reqs`` against ``stack`` as one batch
        and return per-op :class:`Completion`\\ s in submission order.

        The whole batch rides a single doorbell through the queue pair: the
        client pays the marginal ``batch_op_ns`` per SQE it builds (the
        span's ``batch`` phase), then one ``submit_batch`` call hands the
        lot to the SQ.  Per-op failures — injected rejections, faults,
        timeouts — are captured in ``Completion.error`` rather than raised,
        so one bad op never masks its batch-mates' results.

        On sync stacks (Lab-D, no queues to batch over) the ops simply
        execute in order with the same per-op Completion surface.
        """
        reqs = list(reqs)
        t = self.runtime.tracer
        cost = self.runtime.cost
        if stack.exec_mode == "sync":
            comps = []
            for req in reqs:
                try:
                    value = yield from self.call(stack, req, timeout_ns=timeout_ns)
                except (Interrupt, GeneratorExit):
                    raise
                except BaseException as exc:  # noqa: BLE001 - per-op surface
                    comps.append(Completion(req, error=exc))
                else:
                    comps.append(Completion(req, value=value))
            return comps
        if self.conn is None:
            raise LabStorError(f"client {self.pid} not connected")
        events = []
        for req in reqs:
            req.stack_id = stack.stack_id
            req.client_pid = self.pid
            req.mod_uuid = stack.entry.uuid
            req.est_ns = stack.entry.est_processing_time(req)
            req.submit_ns = self.env.now
            if t.obs:
                sc = SpanContext(
                    op=req.op, now=self.env.now, req_id=req.req_id,
                    stack_id=stack.stack_id, sync=False,
                )
                req.obs = sc
                t.emit(self.env.now, "obs.open", span=sc)
            ev = self.env.event()
            self._pending[req.req_id] = ev
            events.append(ev)
            # SQE build: the per-op marginal cost paid before the doorbell
            yield self.env.timeout(cost.batch_op_ns)
        _accepts, rejects = self.conn.qp.submit_batch(reqs, pid=self.pid)
        reject_errors = {id(r): exc for r, exc in rejects}
        deadline = self.env.now + timeout_ns if timeout_ns is not None else None
        comps = []
        for req, ev in zip(reqs, events):
            sc = req.obs
            if id(req) in reject_errors:
                self._pending.pop(req.req_id, None)
                comp = Completion(req, error=reject_errors[id(req)])
            else:
                try:
                    comp = yield from self._wait(ev, deadline)
                except (Interrupt, GeneratorExit):
                    raise
                except BaseException as exc:  # noqa: BLE001 - per-op surface
                    self._pending.pop(req.req_id, None)
                    if isinstance(exc, TimeoutError) and not ev.triggered:
                        ev.fail(exc)  # defused by the stale wait condition
                    comp = Completion(req, error=exc)
                else:
                    # completion-side cross-core hop, attributed per op
                    t.emit(self.env.now, "span", name="ipc", dur_ns=cost.shm_hop_ns)
                    self.completed += 1
                    if sc is not None:
                        sc.add_cat("ipc", cost.shm_hop_ns)
            if sc is not None:
                sc.close(self.env.now)
                t.emit(self.env.now, "obs.span", span=sc)
            comps.append(comp)
        return comps

    def call_path(self, path: str, op: str, payload: dict | None = None, **kw):
        """Resolve a path through the namespace and call the owning stack."""
        stack, remainder = self.runtime.namespace.resolve(path)
        req = LabRequest(op=op, payload={"path": remainder, **(payload or {})}, **kw)
        return self.call(stack, req)

    # ------------------------------------------------------------------
    def _wait(self, ev, deadline: int | None = None):
        """Wait with crash detection (the paper's Wait): poll for the
        completion, periodically checking whether the Runtime died.
        ``deadline`` (absolute ns) caps the wait with a TimeoutError."""
        env = self.env
        runtime = self.runtime
        while True:
            if not runtime.online:
                yield from self._ride_out_crash()
            window = runtime.config.restart_wait_ns
            if deadline is not None:
                if env._now >= deadline:
                    raise TimeoutError(
                        f"client {self.pid}: no completion within the op timeout"
                    )
                window = min(window, deadline - env._now)
            result = yield env.any_of([ev, env.timeout(window)])
            if ev in result:
                return ev._value
            # timed out: loop re-checks runtime liveness before waiting again

    def _ride_out_crash(self):
        """Wait for the administrator to restart the Runtime, then repair."""
        restart = self.runtime.online_event()
        deadline = self.env.timeout(self.runtime.config.restart_wait_ns * 10)
        result = yield self.env.any_of([restart, deadline])
        if restart not in result:
            raise RuntimeCrashed(
                f"client {self.pid}: runtime offline beyond the restart window"
            )
        # client library iterates the namespace and repairs every LabMod
        for stack in self.runtime.namespace.stacks():
            for mod in stack.mods.values():
                mod.state_repair()

    def _poll_completions(self):
        qp = self.conn.qp
        try:
            while self.conn is not None and self.conn.qp is qp:
                # batch CQ reap: one hop drains whatever the CQ holds
                comps = yield from qp.pop_completion_batch(self.pid, self.reap_batch_max)
                pending_pop = self._pending.pop
                for comp in comps:
                    ev = pending_pop(comp.request.req_id, None)
                    if ev is not None and not ev._triggered:
                        ev.succeed(comp)
        except Interrupt:
            return  # client closed: stop reaping
