"""repro.faults: plans, injectors, retry policies, crash consistency."""

import pytest

from repro.core.runtime import RuntimeConfig
from repro.errors import (
    ConsistencyError,
    LabStorError,
    MediaError,
    QueueFull,
    RetriesExhausted,
    TimeoutError,
    WorkerCrashed,
)
from repro.faults import (
    CrashConsistencyChecker,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    plan_from_env,
    torn_prefix_len,
)
from repro.mods.generic_fs import GenericFS
from repro.system import LabStorSystem
from repro.units import msec, usec


def _system(plan=None, **cfg):
    cfg.setdefault("nworkers", 1)
    sys_ = LabStorSystem(devices=("nvme",), config=RuntimeConfig(**cfg),
                         fault_plan=plan)
    sys_.stack("fs::/t").fs(variant="min").device("nvme").uuid_prefix("t").mount()
    return sys_


def _write_files(sys_, gfs, n, bs=4096):
    def go():
        acked = 0
        for i in range(n):
            try:
                yield from gfs.write_file(f"fs::/t/f{i}", bytes([i % 251]) * bs)
            except Exception:  # noqa: BLE001 - giveups are part of the scenario
                continue
            acked += 1
        return acked

    return sys_.run(sys_.process(go()))


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_round_trips(self):
        text = ("media_error:device=nvme,op=write,probability=0.2,count=3;"
                "latency:device=nvme,every=2ms,extra_ns=50us;"
                "power_cut:at=5ms,restart_after=1ms")
        plan = FaultPlan.parse(text)
        assert len(plan.specs) == 3
        assert plan.specs[0].probability == 0.2
        assert plan.specs[1].every == msec(2)
        assert plan.specs[2].restart_after == msec(1)
        assert FaultPlan.parse(plan.to_text()).specs == plan.specs

    def test_unknown_kind_rejected(self):
        with pytest.raises(LabStorError, match="kind"):
            FaultSpec(kind="gamma_ray")

    def test_spec_needs_a_trigger(self):
        with pytest.raises(LabStorError, match="trigger"):
            FaultSpec(kind="media_error", device="nvme")

    def test_latency_needs_extra_ns(self):
        with pytest.raises(LabStorError, match="extra_ns"):
            FaultSpec(kind="latency", device="nvme", at=100)

    def test_power_cut_scenario_shape(self):
        plan = FaultPlan.power_cut_scenario(at=int(msec(2)), restart_after=100)
        kinds = sorted(s.kind for s in plan.specs)
        assert kinds == ["power_cut", "torn_write"]

    def test_plan_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert plan_from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "qp_reject:probability=0.5,count=2")
        plan = plan_from_env()
        assert plan is not None and plan.specs[0].kind == "qp_reject"


# ---------------------------------------------------------------------------
# no plan -> zero-overhead fast path
# ---------------------------------------------------------------------------
def test_no_plan_leaves_fast_paths_unarmed(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    sys_ = _system()
    assert sys_.faults is None
    assert all(dev.faults is None for dev in sys_.devices.values())
    assert all(conn.qp.reject_hook is None for conn in sys_.runtime.ipc.conns.values())
    sys_.shutdown()


# ---------------------------------------------------------------------------
# device injectors + retry
# ---------------------------------------------------------------------------
def test_media_errors_surface_and_retry_absorbs_them():
    plan = FaultPlan.of(FaultSpec(kind="media_error", device="nvme", op="write",
                                  probability=1.0, count=4))
    sys_ = _system(plan)
    gfs = GenericFS(sys_.client(), retry=RetryPolicy(max_attempts=6))
    acked = _write_files(sys_, gfs, 8)
    assert acked == 8
    assert sys_.faults.injected["media_error"] == 4
    assert sys_.devices["nvme"].errors == 4
    assert gfs.retry.retries == 4
    sys_.shutdown()

def test_media_error_without_retry_raises_typed_error():
    plan = FaultPlan.of(FaultSpec(kind="media_error", device="nvme", op="write",
                                  probability=1.0, count=1))
    sys_ = _system(plan)
    gfs = GenericFS(sys_.client())

    def go():
        yield from gfs.write_file("fs::/t/f0", b"x" * 4096)

    with pytest.raises(MediaError):
        sys_.run(sys_.process(go()))
    sys_.shutdown()

def test_latency_injection_slows_identical_workload():
    def elapsed(plan):
        sys_ = _system(plan)
        _write_files(sys_, GenericFS(sys_.client()), 6)
        now = sys_.env.now
        sys_.shutdown()
        return now

    plan = FaultPlan.of(FaultSpec(kind="latency", device="nvme",
                                  probability=1.0, count=6,
                                  extra_ns=int(usec(500))))
    assert elapsed(plan) > elapsed(None) + 5 * usec(500)

def test_retries_exhausted_is_typed_and_counted():
    plan = FaultPlan.of(FaultSpec(kind="media_error", device="nvme", op="write",
                                  probability=1.0))  # unbounded
    sys_ = _system(plan)
    retry = RetryPolicy(max_attempts=3)
    gfs = GenericFS(sys_.client(), retry=retry)

    def go():
        yield from gfs.write_file("fs::/t/f0", b"x" * 4096)

    with pytest.raises(RetriesExhausted) as ei:
        sys_.run(sys_.process(go()))
    assert isinstance(ei.value.__cause__, MediaError)
    assert retry.gave_up == 1 and retry.retries == 2
    sys_.shutdown()

def test_retry_backoff_is_deterministic_and_bounded():
    policy = RetryPolicy(backoff_ns=100, backoff_factor=3, max_backoff_ns=500)
    assert [policy.backoff(i) for i in range(4)] == [100, 300, 500, 500]

def test_per_op_timeout_fails_the_event():
    # a stall longer than the timeout: the client op must fail, then succeed
    # on a later attempt once the stall ends
    plan = FaultPlan.of(FaultSpec(kind="stall", device="nvme",
                                  at=1, extra_ns=int(msec(2))))
    sys_ = _system(plan)
    retry = RetryPolicy(max_attempts=5, timeout_ns=int(usec(200)),
                        backoff_ns=int(usec(100)))
    gfs = GenericFS(sys_.client(), retry=retry)
    acked = _write_files(sys_, gfs, 1)
    assert acked == 1
    assert retry.retries >= 1
    sys_.shutdown()


# ---------------------------------------------------------------------------
# queue-pair rejection
# ---------------------------------------------------------------------------
def test_qp_reject_raises_queuefull_and_keeps_conservation():
    plan = FaultPlan.of(FaultSpec(kind="qp_reject", probability=1.0, count=3))
    sys_ = _system(plan)
    gfs = GenericFS(sys_.client(), retry=RetryPolicy(max_attempts=6))
    acked = _write_files(sys_, gfs, 5)
    assert acked == 5
    qps = [conn.qp for conn in sys_.runtime.ipc.conns.values()]
    assert sum(qp.rejected_total for qp in qps) == 3
    for qp in qps:
        assert qp.submitted_total == qp.completed_total + qp.inflight
    sys_.shutdown()

def test_qp_reject_without_retry_is_queuefull():
    plan = FaultPlan.of(FaultSpec(kind="qp_reject", probability=1.0, count=1))
    sys_ = _system(plan)
    gfs = GenericFS(sys_.client())

    def go():
        yield from gfs.write_file("fs::/t/f0", b"x" * 4096)

    with pytest.raises(QueueFull):
        sys_.run(sys_.process(go()))
    sys_.shutdown()


# ---------------------------------------------------------------------------
# worker crash
# ---------------------------------------------------------------------------
def test_worker_crash_respawns_and_completes_with_typed_error():
    plan = FaultPlan.of(FaultSpec(kind="worker_crash", at=int(usec(50))))
    sys_ = _system(plan, nworkers=1, max_workers=4)
    retry = RetryPolicy(max_attempts=6)
    gfs = GenericFS(sys_.client(), retry=retry)
    acked = _write_files(sys_, gfs, 12)
    assert acked == 12
    assert sys_.faults.injected["worker_crash"] == 1
    # the pool replaced the crashed worker
    assert sys_.runtime.orchestrator.worker_count() == 1
    qps = [conn.qp for conn in sys_.runtime.ipc.conns.values()]
    for qp in qps:
        assert qp.submitted_total == qp.completed_total + qp.inflight
    sys_.shutdown()

def test_worker_crashed_error_is_retryable_by_default():
    from repro.faults import DEFAULT_RETRYABLE

    assert WorkerCrashed in DEFAULT_RETRYABLE
    assert TimeoutError in DEFAULT_RETRYABLE


# ---------------------------------------------------------------------------
# power cut + crash consistency
# ---------------------------------------------------------------------------
def test_power_cut_recovers_acked_writes():
    plan = FaultPlan.power_cut_scenario(at=int(msec(1)),
                                        restart_after=int(msec(1)))
    sys_ = _system(plan)
    gfs = GenericFS(sys_.client(), retry=RetryPolicy(max_attempts=6,
                                                     timeout_ns=int(msec(50))))
    checker = CrashConsistencyChecker()

    def go():
        acked = 0
        for i in range(30):
            path = f"fs::/t/f{i}"
            data = bytes([i % 251]) * 4096
            checker.begin(path, data)
            try:
                yield from gfs.write_file(path, data)
            except Exception:  # noqa: BLE001
                continue
            checker.ack(path)
            acked += 1
        return acked

    acked = sys_.run(sys_.process(go()))
    assert sys_.runtime.crashes == 1
    assert sys_.faults.injected["power_cut"] == 1
    report = sys_.run(sys_.process(checker.verify(gfs)))
    assert report["acked_ok"] == acked
    labfs = sys_.runtime.registry.get("t.labfs")
    assert labfs.repairs >= 1
    sys_.shutdown()

def test_on_crash_drops_volatile_labfs_state():
    sys_ = _system()
    gfs = GenericFS(sys_.client())
    _write_files(sys_, gfs, 5)
    labfs = sys_.runtime.registry.get("t.labfs")
    assert len(labfs.inodes) > 1
    sys_.runtime.crash()
    # only the implicit root survives a crash; restart rebuilds from the log
    assert len(labfs.inodes) == 1 and "/" in labfs.by_path
    sys_.run(sys_.env.process(sys_.runtime.restart()))
    assert len(labfs.inodes) == 6  # root + 5 files
    sys_.shutdown()


class TestTornPrefix:
    def test_exact_prefix_detected(self):
        old = b"o" * 4096
        new = b"n" * 4096
        rec = new[:1024] + old[1024:]
        assert torn_prefix_len(old, new, rec) == 1024

    def test_full_old_and_full_new_are_prefixes(self):
        old, new = b"o" * 1024, b"n" * 1024
        assert torn_prefix_len(old, new, old) == 0
        assert torn_prefix_len(old, new, new) == 1024

    def test_non_sector_tear_is_not_a_prefix(self):
        old, new = b"o" * 4096, b"n" * 4096
        rec = new[:100] + old[100:]
        assert torn_prefix_len(old, new, rec) is None

    def test_checker_flags_corruption(self):
        # no cache: the verify read must observe the raw device blocks
        sys_ = LabStorSystem(devices=("nvme",), config=RuntimeConfig(nworkers=1))
        (sys_.stack("fs::/t").fs(variant="min").device("nvme")
             .cache(False).uuid_prefix("t").mount())
        gfs = GenericFS(sys_.client())
        checker = CrashConsistencyChecker()
        data = b"d" * 4096
        checker.begin("fs::/t/f0", data)

        def go():
            yield from gfs.write_file("fs::/t/f0", data)

        sys_.run(sys_.process(go()))
        checker.ack("fs::/t/f0")
        # corrupt the acked file behind the checker's back (paths are
        # mount-relative in LabFS; blocks maps page -> device byte offset)
        labfs = sys_.runtime.registry.get("t.labfs")
        ino = labfs.inodes[labfs.by_path["/f0"]]
        sys_.devices["nvme"].store.write(ino.blocks[0], b"X" * 16)
        with pytest.raises(ConsistencyError):
            sys_.run(sys_.process(checker.verify(gfs)))
        sys_.shutdown()


# ---------------------------------------------------------------------------
# wiring: builder, env var, determinism
# ---------------------------------------------------------------------------
def test_builder_faults_installs_on_mount():
    plan = FaultPlan.of(FaultSpec(kind="qp_reject", probability=0.5, count=1))
    sys_ = LabStorSystem(devices=("nvme",), config=RuntimeConfig(nworkers=1))
    assert sys_.faults is None
    sys_.stack("fs::/t").fs(variant="min").uuid_prefix("t").faults(plan).mount()
    assert sys_.faults is not None and len(sys_.faults.plan.specs) == 1
    sys_.shutdown()

def test_fault_plan_env_var_arms_system(monkeypatch):
    monkeypatch.setenv("REPRO_FAULTS",
                       "media_error:device=nvme,op=write,probability=1.0,count=2")
    sys_ = _system()
    gfs = GenericFS(sys_.client(), retry=RetryPolicy(max_attempts=4))
    acked = _write_files(sys_, gfs, 4)
    assert acked == 4
    assert sys_.faults.injected["media_error"] == 2
    sys_.shutdown()

