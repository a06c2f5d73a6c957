"""The Work Orchestrator: queue→worker assignment and CPU scaling.

A userspace process/thread scheduling framework (Section III-C4, in the
spirit of FlexSC).  ``rebalance(n queues, m workers)`` runs when a new
client connects and every ``interval_ns``.  The policy seam is modular:

- :class:`RoundRobinPolicy` — queues dealt evenly over a fixed worker
  pool (the Fig 5(b) baseline: best bandwidth, terrible tail latency for
  latency-sensitive apps that land behind long compressions).
- :class:`DynamicPolicy` — LabStor's policy: queues are classified into
  latency-sensitive (LQ) and computational (CQ) groups using the LabMods'
  EstProcessingTime and queue depth; the groups are partitioned onto
  *disjoint* worker subsets by solving a balanced multi-knapsack
  (greedy LPT), and the worker count scales with measured load so the
  fewest cores are used within a performance-loss threshold.
"""

from __future__ import annotations

import abc
from typing import Callable

from ..errors import LabStorError
from ..ipc.queue_pair import QueuePair
from ..kernel.cpu import Cpu
from ..sim import Environment, Interrupt
from ..units import msec
from .workers import Worker

__all__ = ["RoundRobinPolicy", "DynamicPolicy", "WorkOrchestrator"]


def _lpt_partition(queues: list[QueuePair], nbins: int) -> list[list[QueuePair]]:
    """Longest-processing-time-first greedy bin packing: heaviest queue to
    the lightest bin — the classic approximation for equal-weight sacks."""
    bins: list[list[QueuePair]] = [[] for _ in range(nbins)]
    weights = [0.0] * nbins

    def load(qp: QueuePair) -> float:
        return qp.est_queued_ns + qp.est_ewma_ns + 1.0

    for qp in sorted(queues, key=lambda q: -load(q)):
        i = min(range(nbins), key=lambda b: (weights[b], b))
        bins[i].append(qp)
        weights[i] += load(qp)
    return bins


class OrchestratorPolicy(abc.ABC):
    name = "abstract"

    @abc.abstractmethod
    def assign(self, queues: list[QueuePair], workers: list[Worker]) -> dict[int, list[QueuePair]]:
        """Return worker_id -> queues. Every queue must be assigned."""

    def target_workers(self, current: int, demand_cores: float, backlog: int,
                       min_workers: int, max_workers: int) -> int:
        """How many workers the pool should have (default: keep current)."""
        return current


class RoundRobinPolicy(OrchestratorPolicy):
    """Deal queues over all workers, ignoring load classes."""

    name = "rr"

    def assign(self, queues, workers):
        out: dict[int, list[QueuePair]] = {w.worker_id: [] for w in workers}
        if not workers:
            return out
        ids = [w.worker_id for w in workers]
        for i, qp in enumerate(sorted(queues, key=lambda q: q.qid)):
            out[ids[i % len(ids)]].append(qp)
        return out


class DynamicPolicy(OrchestratorPolicy):
    """LabStor's dynamic policy: LQ/CQ separation + load-driven scaling."""

    name = "dynamic"

    def __init__(
        self,
        lq_threshold_ns: int = 200_000,
        target_util: float = 0.5,
        loss_threshold: float = 0.25,
    ) -> None:
        #: a queue whose per-request estimate exceeds this is computational
        self.lq_threshold_ns = lq_threshold_ns
        self.target_util = target_util
        self.loss_threshold = loss_threshold

    def classify(self, queues: list[QueuePair]) -> tuple[list[QueuePair], list[QueuePair]]:
        lqs, cqs = [], []
        for qp in queues:
            depth = max(1, qp.sq_depth)
            instantaneous = qp.est_queued_ns / depth if qp.sq_depth else 0.0
            per_req = max(instantaneous, qp.est_ewma_ns)
            (cqs if per_req > self.lq_threshold_ns else lqs).append(qp)
        return lqs, cqs

    def assign(self, queues, workers):
        out: dict[int, list[QueuePair]] = {w.worker_id: [] for w in workers}
        if not workers:
            return out
        lqs, cqs = self.classify(queues)
        ids = [w.worker_id for w in workers]
        if not cqs or not lqs or len(workers) == 1:
            for i, part in enumerate(_lpt_partition(queues, len(workers))):
                out[ids[i]].extend(part)
            return out
        # Dedicate workers to LQs proportionally to their load share, but at
        # least one and at most all-but-one (CQs always keep a worker).
        lq_load = sum(q.est_queued_ns + q.est_ewma_ns for q in lqs) + 1
        cq_load = sum(q.est_queued_ns + q.est_ewma_ns for q in cqs) + 1
        n_lq = round(len(workers) * lq_load / (lq_load + cq_load))
        n_lq = max(1, min(len(workers) - 1, n_lq))
        for i, part in enumerate(_lpt_partition(lqs, n_lq)):
            out[ids[i]].extend(part)
        for i, part in enumerate(_lpt_partition(cqs, len(workers) - n_lq)):
            out[ids[n_lq + i]].extend(part)
        return out

    def target_workers(self, current, demand_cores, backlog, min_workers, max_workers):
        needed = max(min_workers, -(-int(demand_cores * 1000) // int(self.target_util * 1000)))
        if backlog > 64 and needed <= current:
            needed = current + 1  # queues are building up: scale out
        return min(max_workers, needed)


class WorkOrchestrator:
    """Owns the worker pool and drives periodic rebalancing."""

    def __init__(
        self,
        env: Environment,
        cpu: Cpu,
        executor,
        policy: OrchestratorPolicy | None = None,
        *,
        nworkers: int = 1,
        min_workers: int = 1,
        max_workers: int = 16,
        interval_ns: int = msec(1.0),
        tracer=None,
        worker_kw: dict | None = None,
        auto_respawn: bool = True,
    ) -> None:
        self.env = env
        self.cpu = cpu
        self.executor = executor
        self.policy = policy or RoundRobinPolicy()
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.interval_ns = interval_ns
        self.tracer = tracer if tracer is not None else env.tracer
        self.worker_kw = worker_kw or {}
        self.workers: list[Worker] = []
        self.queues: list[QueuePair] = []
        self._next_worker_id = 0
        self._prev_busy: dict[int, int] = {}
        self._epoch_start = env.now
        # busy time burnt this epoch by workers that have since retired
        self._retired_busy_ns = 0
        self.rebalances = 0
        self.paused = False  # set while the Runtime is crashed
        #: replace crashed workers immediately (the built-in reflex).  With
        #: auto_respawn off, a crash only records a dead worker — an
        #: external healer (the repro.ctl control daemon) must respawn.
        self.auto_respawn = auto_respawn
        self.dead_workers = 0  # crashes not yet compensated by a respawn
        for _ in range(nworkers):
            self.spawn_worker()
        self._proc = env.process(self._epoch_loop(), name="orchestrator", daemon=True)

    # -- worker pool ------------------------------------------------------
    def spawn_worker(self) -> Worker:
        if len(self.workers) >= self.max_workers:
            raise LabStorError("worker pool at max_workers")
        w = Worker(
            self.env,
            self._next_worker_id,
            self.cpu,
            self.executor,
            tracer=self.tracer,
            **self.worker_kw,
        )
        self._next_worker_id += 1
        self.workers.append(w)
        self._prev_busy[w.worker_id] = w.core.busy_time()
        return w

    def decommission_worker(self, worker: Worker) -> None:
        """Reassign all the worker's queues, then stop it."""
        self.workers.remove(worker)
        # Fold the retiree's final busy delta into this epoch's measured
        # demand and drop its _prev_busy entry — scale-in must neither
        # under-report demand nor leave stale worker ids behind.
        busy = worker.core.busy_time()
        prev = self._prev_busy.pop(worker.worker_id, busy)
        self._retired_busy_ns += busy - prev
        for qp in list(worker.queues):
            worker.unassign(qp)
        worker.decommission()
        self.cpu.unpin(worker.core_id)
        if self.workers and not self.paused:
            # Immediately hand the retiree's queues to the survivors; waiting
            # for the next epoch would strand them for up to interval_ns.
            self.rebalance()

    def crash_worker(self, worker: Worker, cause: str = "worker crash") -> Worker | None:
        """Kill ``worker`` immediately (fault injection): its in-flight
        requests complete with errors, its queues move to a freshly spawned
        replacement.  Returns the replacement (None while the Runtime is
        down — a crashed system respawns its pool on restart instead — or
        when ``auto_respawn`` is off, where the dead worker waits for an
        external healer)."""
        self.workers.remove(worker)
        busy = worker.core.busy_time()
        prev = self._prev_busy.pop(worker.worker_id, busy)
        self._retired_busy_ns += busy - prev
        for qp in list(worker.queues):
            worker.unassign(qp)
        worker.crash(cause)
        self.cpu.unpin(worker.core_id)
        if self.paused:
            return None
        if not self.auto_respawn:
            self.dead_workers += 1
            if self.workers:
                # survivors adopt the victim's queues; with an empty pool
                # the queues wait for the healer's spawn_worker()
                self.rebalance()
            return None
        replacement = self.spawn_worker()
        self.rebalance()
        return replacement

    def heal_worker(self) -> Worker:
        """Spawn a replacement for a crashed worker and hand it queues
        immediately — the control daemon's liveness actuator when
        ``auto_respawn`` is off."""
        w = self.spawn_worker()
        if self.dead_workers:
            self.dead_workers -= 1
        self.rebalance()
        return w

    # -- queue registration -------------------------------------------------
    def register_queue(self, qp: QueuePair) -> None:
        if qp not in self.queues:
            self.queues.append(qp)
            self.rebalance()

    def unregister_queue(self, qp: QueuePair) -> None:
        if qp in self.queues:
            self.queues.remove(qp)
            for w in self.workers:
                w.unassign(qp)

    def on_client_connect(self, conn) -> None:
        """IpcManager connect callback: adopt the client's primary QP."""
        self.register_queue(conn.qp)

    # -- rebalance ------------------------------------------------------------
    def measured_demand_cores(self) -> float:
        """Cores of CPU the pool consumed in the last epoch."""
        elapsed = max(1, self.env.now - self._epoch_start)
        total = self._retired_busy_ns
        for w in self.workers:
            busy = w.core.busy_time()
            total += busy - self._prev_busy.get(w.worker_id, 0)
        return total / elapsed

    def rebalance(self) -> None:
        self.rebalances += 1
        assignment = self.policy.assign(self.queues, self.workers)
        by_id = {w.worker_id: w for w in self.workers}
        for wid, qps in assignment.items():
            worker = by_id[wid]
            for qp in list(worker.queues):
                if qp not in qps:
                    worker.unassign(qp)
            for qp in qps:
                worker.assign(qp)
        t = self.tracer
        if t.audit:
            t.emit(self.env.now, "san.rebalance", orch=self)

    def _scale(self) -> None:
        demand = self.measured_demand_cores()
        backlog = sum(qp.sq_depth for qp in self.queues)
        target = self.policy.target_workers(
            len(self.workers), demand, backlog, self.min_workers, self.max_workers
        )
        while len(self.workers) < target:
            self.spawn_worker()
        while len(self.workers) > target:
            # retire the worker with the least queued work
            victim = min(self.workers, key=lambda w: sum(q.est_queued_ns for q in w.queues))
            self.decommission_worker(victim)

    def _epoch_loop(self):
        try:
            while True:
                yield self.env.timeout(self.interval_ns)
                if self.paused:
                    continue
                self._scale()
                self.rebalance()
                for w in self.workers:
                    self._prev_busy[w.worker_id] = w.core.busy_time()
                self._retired_busy_ns = 0
                self._epoch_start = self.env.now
        except Interrupt:
            return  # orchestrator shut down

    def shutdown(self) -> None:
        """Stop the epoch loop and retire every worker (system teardown)."""
        self.paused = True  # decommission must not rebalance onto survivors
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("orchestrator shutdown")
        for w in list(self.workers):
            self.decommission_worker(w)

    # -- introspection ----------------------------------------------------
    def worker_count(self) -> int:
        return len(self.workers)

    def assignment_snapshot(self) -> dict[int, list[int]]:
        return {w.worker_id: w.assigned_qids() for w in self.workers}
