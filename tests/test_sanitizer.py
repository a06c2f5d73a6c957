"""Tests for the simulation sanitizer and determinism checker.

Each detector is exercised with the violation class that the satellite
bugfixes in this PR would have produced: stranded queues and stale worker
ids (orchestrator scale-in), conservation drift (queue-pair accounting),
dropped waiters (run-until-event stop path), and swallowed late failures
(any_of sub-events).
"""

import random

import pytest

from repro.core import LabRequest, RoundRobinPolicy, WorkOrchestrator
from repro.errors import SanitizerError
from repro.ipc import QueuePair
from repro.kernel import Cpu
from repro.sim import Environment, Sanitizer
from repro.scenarios import Program
from repro.sim.check import AuditRun


def echo_executor(req, x):
    yield from x.work(1000, span="exec")
    return "done"


# --- event-lifecycle auditing ------------------------------------------
def test_leaked_event_with_waiting_process_detected():
    env = Environment()
    san = Sanitizer(strict=False).install(env)
    ev = env.event()  # nobody will ever trigger this

    def waiter():
        yield ev

    env.process(waiter())
    env.run()  # heap runs dry with the process still parked
    report = san.finish()
    assert any("leaked event" in v for v in report["violations"])


def test_daemon_process_waits_are_not_leaks():
    env = Environment()
    san = Sanitizer(strict=False).install(env)
    ev = env.event()

    def poller():
        yield ev

    env.process(poller(), daemon=True)
    env.run()
    assert san.finish()["violations"] == []


def test_idle_device_dispatch_loops_are_not_leaks():
    """A kernel-baseline environment has no Runtime pollers, so its heap
    runs dry; the parked per-hctx dispatch loops are service daemons, not
    processes somebody forgot to wake."""
    from repro.devices.profiles import make_device
    from repro.kernel import make_filesystem

    env = Environment()
    san = Sanitizer(strict=False).install(env)
    fs = make_filesystem("ext4", env, make_device(env, "nvme"))

    def go():
        fd = yield env.process(fs.open("/f", create=True))
        yield env.process(fs.write(fd, b"x" * 4096, offset=0))
        yield env.process(fs.fsync(fd))

    env.run(env.process(go()))
    assert san.finish()["violations"] == []


def test_runner_env_under_repro_sanitize_carries_one_sanitizer(monkeypatch):
    """The experiment runner attaches the ``REPRO_SANITIZE`` sanitizer to
    the Environment it hands a point; the LabStorSystem the point builds
    on it must reuse that one, not add a second sink."""
    from repro.experiments import runner

    envs = []

    class Recording(Environment):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            envs.append(self)

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setattr(runner, "Environment", Recording)
    exp = runner.EXPERIMENTS["anatomy"]  # a LabStor stack: LabStorSystem on the env
    runner.run_experiment(exp, grid=[exp.smoke], processes=1)
    (env,) = envs
    assert sum(isinstance(s, Sanitizer) for s in env.tracer._sinks) == 1


def test_swallowed_failure_detected_at_teardown():
    env = Environment()
    san = Sanitizer(strict=False).install(env)
    ev = env.event()
    ev.fail(RuntimeError("dropped on the floor"))
    # the run ends before the failure is processed or defused
    report = san.finish()
    assert any("swallowed" in v for v in report["violations"])


def test_double_resume_of_dead_process_detected():
    env = Environment()
    Sanitizer().install(env)
    ev = env.event()

    def waiter():
        yield ev

    p = env.process(waiter())
    env.run(until=1)  # let the process park on ev
    ev.callbacks.append(p._resume)  # simulate a buggy double subscription
    ev.succeed()
    with pytest.raises(SanitizerError, match="double resume"):
        env.run()


# --- conservation invariants -------------------------------------------
def test_qp_conservation_violation_detected():
    env = Environment()
    Sanitizer().install(env)
    qp = QueuePair(env)

    def proc():
        yield qp.submit(LabRequest(op="x"))

    env.run(env.process(proc()))
    qp.inflight = 5  # corrupt the books
    with pytest.raises(SanitizerError, match="conservation broken"):
        qp.try_pop_request()


def test_qp_est_queued_must_drain_to_zero():
    env = Environment()
    Sanitizer().install(env)
    qp = QueuePair(env)

    def proc():
        yield qp.submit(LabRequest(op="x", est_ns=1000))

    env.run(env.process(proc()))
    assert qp.try_pop_request() is not None
    assert qp.est_queued_ns == 0
    qp.est_queued_ns = 7  # corrupt: phantom queued work on an empty SQ
    from repro.ipc import Completion

    with pytest.raises(SanitizerError, match="SQ is empty"):
        qp.complete(Completion(None))


def test_orchestrator_stale_prev_busy_detected():
    env = Environment()
    Sanitizer().install(env)
    cpu = Cpu(env, ncores=4)
    orch = WorkOrchestrator(env, cpu, echo_executor, nworkers=2)
    orch._prev_busy[999] = 0  # a retired worker's entry was never dropped
    with pytest.raises(SanitizerError, match="stale worker ids"):
        orch.rebalance()


def test_orchestrator_orphaned_queue_detected():
    class DroppingPolicy(RoundRobinPolicy):
        """Buggy policy: forgets to assign registered queues."""

        def assign(self, queues, workers):
            return {w.worker_id: [] for w in workers}

    env = Environment()
    cpu = Cpu(env, ncores=4)
    orch = WorkOrchestrator(env, cpu, echo_executor, nworkers=2)
    orch.register_queue(QueuePair(env))
    Sanitizer().install(env)
    orch.policy = DroppingPolicy()
    with pytest.raises(SanitizerError, match="no live worker"):
        orch.rebalance()


def test_sanitizer_non_strict_collects_instead_of_raising():
    env = Environment()
    san = Sanitizer(strict=False).install(env)
    qp = QueuePair(env)

    def proc():
        yield qp.submit(LabRequest(op="x"))

    env.run(env.process(proc()))
    qp.inflight = 5
    qp.try_pop_request()  # does not raise
    assert len(san.violations) >= 1
    assert san.report()["checks"]["qp"] >= 1


# --- batch conservation -------------------------------------------------
def test_qp_batch_double_accounting_detected():
    env = Environment()
    Sanitizer().install(env)
    qp = QueuePair(env)

    def proc():
        accepts, rejects = qp.submit_batch([LabRequest(op="x"), LabRequest(op="y")])
        assert not rejects
        yield env.all_of(accepts)

    env.run(env.process(proc()))
    assert qp.batches_submitted == 1
    assert qp.batch_ops_submitted == qp.batch_ops_accepted == 2
    # corrupt: batch books claim more ops than the per-op total ever saw
    qp.batch_ops_submitted = qp.batch_ops_accepted = 99
    with pytest.raises(SanitizerError, match="double accounting"):
        qp.try_pop_request()


def test_qp_batch_counter_inconsistency_detected():
    env = Environment()
    Sanitizer().install(env)
    qp = QueuePair(env)

    def proc():
        accepts, _rejects = qp.submit_batch([LabRequest(op="x")])
        yield env.all_of(accepts)

    env.run(env.process(proc()))
    qp.batch_ops_submitted = 0  # corrupt: a doorbell with no ops behind it
    with pytest.raises(SanitizerError, match="batch counters inconsistent"):
        qp.try_pop_request()


def test_batch_settle_record_must_conserve_ops():
    env = Environment()
    san = Sanitizer(strict=False).install(env)
    env.tracer.emit(env.now, "san.batch", source="test", ops=3, delivered=3, double=0)
    assert san.violations == []
    env.tracer.emit(env.now, "san.batch", source="test", ops=3, delivered=2, double=0)
    assert any("delivered 2/3" in v for v in san.violations)
    env.tracer.emit(env.now, "san.batch", source="test", ops=3, delivered=3, double=1)
    assert any("double-delivered" in v for v in san.violations)
    assert san.report()["checks"]["batch"] == 3


def test_worker_batch_pop_accounting_detected():
    from repro.core.workers import Worker

    env = Environment()
    Sanitizer().install(env)
    cpu = Cpu(env, ncores=4)
    worker = Worker(env, 0, cpu, echo_executor, batch_max=8)
    worker.batch_pops = 3  # corrupt: pops recorded without drained ops
    with pytest.raises(SanitizerError, match="batch-pop accounting"):
        env.tracer.emit(env.now, "san.worker", worker=worker, qp=None)


# --- determinism checker -----------------------------------------------
class _Jitter(Program):
    """Sixteen timeouts whose lengths come from ``rng``."""

    def __init__(self, rng):
        super().__init__()
        self.rng = rng

    def build(self, env):
        return env

    def drive(self, env):
        def jitter():
            for _ in range(16):
                yield env.timeout(self.rng.randrange(1, 10**6))

        return env.process(jitter())

    def finish(self, env, value):
        return {}


def test_determinism_check_passes_on_seeded_scenario(determinism_check):
    # re-seeded inside every run
    determinism_check(lambda: _Jitter(random.Random(42)))


def test_determinism_check_flags_unseeded_randomness(determinism_check):
    rng = random.Random(1234)  # shared across runs: draws keep advancing

    with pytest.raises(AssertionError, match="non-deterministic"):
        determinism_check(lambda: _Jitter(rng))


def test_audit_run_attach_enables_audit_seam():
    audit = AuditRun()
    env = Environment()
    audit.attach(env)
    assert env.tracer.audit and env.tracer.enabled
    env.event()  # tracked by the sanitizer's registry
    assert audit.sanitizer.report()["events_tracked"] >= 1
