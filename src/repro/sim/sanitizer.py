"""Opt-in invariant checking and determinism auditing for the simulator.

The sanitizer has three layers:

1. **event-lifecycle auditing** — leaked never-triggered events that still
   have a live non-daemon process waiting on them, failed-but-never-defused
   events silently dropped at teardown, and double resume of a dead process;
2. **conservation invariants** — queue-pair counters (``inflight >= 0``,
   ``submitted_total == completed_total + inflight``, ``est_queued_ns``
   non-negative and zero whenever the SQ is empty), store capacity/service
   discipline, worker in-flight accounting, orchestrator coverage
   (every registered queue assigned to a live worker after each rebalance,
   no stale worker ids in the busy-time bookkeeping), and batch
   conservation — queue-pair batch counters stay consistent with the
   per-op totals, and every ``san.batch`` record (emitted when a merged
   run settles) shows N ops ⇒ N outcomes delivered, none twice;
3. **a determinism checker** — see :mod:`repro.sim.check`, which runs a
   scenario twice under the same seed and compares trace-stream hashes.

Hooks ride the :class:`~repro.sim.trace.Tracer` pub/sub seam: instrumented
components emit ``san.*`` trace events only when ``tracer.audit`` is set,
so with the sanitizer disabled each emission site costs a single branch.

Enable it either programmatically::

    san = Sanitizer().install(env)      # strict: violations raise
    ...
    report = san.finish()               # teardown audit

or for every :class:`~repro.system.LabStorSystem` / experiment driver by
setting ``REPRO_SANITIZE=1`` in the process environment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..config import SANITIZE_ENV_VAR
from ..config import current as _config
from ..errors import SanitizerError
from .core import Environment, Process
from .trace import TraceEvent

if TYPE_CHECKING:  # pragma: no cover
    from .core import Event

__all__ = ["Sanitizer", "SanitizerError", "sanitize_requested", "maybe_attach"]

#: set to a non-empty value (other than "0") to attach a strict sanitizer
#: to every system/experiment environment built by the harnesses
#: (legacy alias; the parse itself lives in :mod:`repro.config`)
AUDIT_ENV_VAR = SANITIZE_ENV_VAR


def sanitize_requested() -> bool:
    return _config().sanitize


def maybe_attach(env: Environment) -> "Sanitizer | None":
    """Attach a strict sanitizer to ``env`` iff ``REPRO_SANITIZE`` is set
    and ``env`` has none yet (a runner that audits the Environment it
    hands a harness attached one already); returns the env's sanitizer."""
    if not sanitize_requested():
        return None
    for sink in env.tracer._sinks:
        if isinstance(sink, Sanitizer):
            return sink
    return Sanitizer().install(env)


class Sanitizer:
    """Invariant checker wired into a tracer as a ``san.*`` event sink.

    ``strict=True`` (the default) raises :class:`SanitizerError` at the
    violating emission; ``strict=False`` collects violations for a report
    (the mode the CLI checker uses so one run surfaces every problem).
    """

    def __init__(self, strict: bool = True, track_events: bool = True) -> None:
        self.strict = strict
        self.track_events = track_events
        self.env: Environment | None = None
        self.violations: list[str] = []
        self.checks: dict[str, int] = {}
        self._events: dict[int, Any] = {}  # id(event) -> event (strong refs)
        self._finished = False

    # ------------------------------------------------------------------
    def install(self, env: Environment) -> "Sanitizer":
        self.env = env
        env.tracer.audit = True
        env.tracer.add_sink(self)
        return self

    def _violate(self, msg: str) -> None:
        self.violations.append(msg)
        if self.strict:
            raise SanitizerError(msg)

    def _count(self, kind: str) -> None:
        self.checks[kind] = self.checks.get(kind, 0) + 1

    # ------------------------------------------------------------------
    # sink entry point
    # ------------------------------------------------------------------
    def __call__(self, ev: TraceEvent) -> None:
        cat = ev.category
        if cat == "san.ev_new":
            if self.track_events:
                e = ev.fields["event"]
                self._events[id(e)] = e
        elif cat == "san.resume":
            self._check_resume(ev.fields["process"], ev.time_ns)
        elif cat == "san.qp":
            self._check_qp(ev.fields["qp"], ev.time_ns)
        elif cat == "san.store":
            self._check_store(ev.fields["store"], ev.time_ns)
        elif cat == "san.worker":
            self._check_worker(ev.fields["worker"], ev.time_ns)
        elif cat == "san.rebalance":
            self._check_orchestrator(ev.fields["orch"], ev.time_ns)
        elif cat == "san.batch":
            self._check_batch(ev.fields, ev.time_ns)

    # ------------------------------------------------------------------
    # per-category invariant checks
    # ------------------------------------------------------------------
    def _check_resume(self, proc: Process, now: int) -> None:
        self._count("resume")
        if proc._triggered:
            self._violate(
                f"t={now}: double resume of dead process {proc.name!r}"
            )

    def _check_qp(self, qp: Any, now: int) -> None:
        self._count("qp")
        # owner_tag names the responsible endpoint ("client1001",
        # "fabric:n0->n1"), so a cross-node conservation failure says
        # which node's QP leaked instead of a bare process-global qid
        tag = f"t={now}: {getattr(qp, 'owner_tag', None) or f'QP {qp.qid}'}"
        if qp.inflight < 0:
            self._violate(f"{tag} inflight went negative ({qp.inflight})")
        if qp.submitted_total != qp.completed_total + qp.inflight:
            self._violate(
                f"{tag} conservation broken: submitted={qp.submitted_total} "
                f"!= completed={qp.completed_total} + inflight={qp.inflight}"
            )
        if qp.est_queued_ns < 0:
            self._violate(f"{tag} est_queued_ns went negative ({qp.est_queued_ns})")
        if qp.sq_depth == 0 and not qp.sq._putters and qp.est_queued_ns != 0:
            self._violate(
                f"{tag} est_queued_ns={qp.est_queued_ns} but the SQ is empty"
            )
        # batch conservation: batch_ops_submitted counts at the doorbell,
        # batch_ops_accepted at SQ acceptance — accepted may lag (full
        # ring) but never exceed submitted, and every batch-accepted op is
        # also in the per-op total
        b_doorbells = getattr(qp, "batches_submitted", 0)
        b_ops = getattr(qp, "batch_ops_submitted", 0)
        b_acc = getattr(qp, "batch_ops_accepted", 0)
        if b_doorbells < 0 or b_ops < b_doorbells:
            self._violate(
                f"{tag} batch counters inconsistent: doorbells={b_doorbells} "
                f"> batch_ops={b_ops}"
            )
        if b_acc > b_ops:
            self._violate(
                f"{tag} accepted {b_acc} batch ops but only {b_ops} were submitted"
            )
        if b_acc > qp.submitted_total:
            self._violate(
                f"{tag} batch-accepted ops ({b_acc}) exceed the per-op "
                f"submitted total ({qp.submitted_total}): double accounting"
            )

    def _check_store(self, store: Any, now: int) -> None:
        self._count("store")
        if store.capacity is not None and len(store.items) > store.capacity:
            self._violate(
                f"t={now}: store over capacity ({len(store.items)} > {store.capacity})"
            )
        if store.items and store._getters:
            self._violate(
                f"t={now}: store has {len(store.items)} item(s) while "
                f"{len(store._getters)} getter(s) are blocked"
            )

    def _check_worker(self, worker: Any, now: int) -> None:
        self._count("worker")
        tag = f"t={now}: worker {worker.worker_id}"
        if worker.inflight < 0:
            self._violate(f"{tag} inflight went negative ({worker.inflight})")
        for qid, n in worker._inflight_per_qp.items():
            if n < 0:
                self._violate(f"{tag} per-queue inflight negative for QP {qid} ({n})")
        bp = getattr(worker, "batch_pops", 0)
        bpo = getattr(worker, "batch_pop_ops", 0)
        if bpo < 2 * bp:  # a batch pop by definition drained >= 2 SQEs
            self._violate(
                f"{tag} batch-pop accounting broken: {bp} batch pops but "
                f"only {bpo} ops drained"
            )

    def _check_batch(self, fields: dict, now: int) -> None:
        """A merged run settled: N constituents must yield exactly N
        outcomes, each delivered exactly once (no double accounting)."""
        self._count("batch")
        source = fields.get("source", "?")
        ops = fields.get("ops", 0)
        delivered = fields.get("delivered", 0)
        double = fields.get("double", 0)
        if ops < 1:
            self._violate(f"t={now}: batch from {source} with {ops} ops")
        if delivered != ops:
            self._violate(
                f"t={now}: batch from {source} delivered {delivered}/{ops} outcomes"
            )
        if double:
            self._violate(
                f"t={now}: batch from {source} double-delivered {double} outcome(s)"
            )

    def _check_orchestrator(self, orch: Any, now: int) -> None:
        self._count("rebalance")
        live_ids = {w.worker_id for w in orch.workers}
        stale = set(orch._prev_busy) - live_ids
        if stale:
            self._violate(
                f"t={now}: orchestrator has stale worker ids in _prev_busy: {sorted(stale)}"
            )
        if orch.workers:
            assigned = {qp.qid for w in orch.workers for qp in w.queues}
            orphans = [qp.qid for qp in orch.queues if qp.qid not in assigned]
            if orphans:
                self._violate(
                    f"t={now}: rebalance left queue(s) {orphans} assigned to no live worker"
                )

    # ------------------------------------------------------------------
    # teardown audit
    # ------------------------------------------------------------------
    def finish(self) -> dict[str, Any]:
        """Run the event-lifecycle audit and return a report dict.

        Leak detection (a non-daemon process parked on an event nobody can
        trigger any more) only makes sense once the heap has run dry; with
        events still scheduled, a pending wait is just a pending wait.
        """
        self._finished = True
        heap_live = (
            bool(self.env._heap or self.env._urgent or self.env._due)
            if self.env is not None
            else True
        )
        for e in self._events.values():
            if e._triggered and not e._ok and not e._defused and not e._processed:
                self._violate(
                    f"failed event {e!r} swallowed at teardown: "
                    f"{e._value!r} was never defused or delivered"
                )
            elif not e._triggered and not heap_live:
                for cb in e.callbacks or ():
                    proc = getattr(cb, "__self__", None)
                    if (
                        isinstance(proc, Process)
                        and proc.is_alive
                        and not proc.daemon
                    ):
                        self._violate(
                            f"leaked event {e!r}: process {proc.name!r} "
                            "waits on it forever (heap exhausted)"
                        )
                        break
        return self.report()

    def report(self) -> dict[str, Any]:
        return {
            "violations": list(self.violations),
            "events_tracked": len(self._events),
            "checks": dict(self.checks),
            "finished": self._finished,
        }
