"""Tests for the IPC layer (shared memory grants, queue pairs, manager)."""

import pytest

from repro.errors import IpcError, ShmAccessError
from repro.ipc import Completion, IpcManager, QueueFlag, QueuePair, ShMemManager
from repro.sim import Environment


def run(env, gen):
    return env.run(env.process(gen))


# --- shared memory -----------------------------------------------------
def test_segment_grant_and_check():
    env = Environment()
    mgr = ShMemManager(env, runtime_pid=1)

    def proc():
        seg = yield env.process(mgr.alloc(4096))
        seg.grant(42)
        seg.check(42)  # ok
        with pytest.raises(ShmAccessError):
            seg.check(99)
        return seg

    seg = run(env, proc())
    assert seg.is_granted(1)  # owner


def test_map_requires_grant():
    env = Environment()
    mgr = ShMemManager(env)

    def proc():
        seg = yield env.process(mgr.alloc(4096))
        with pytest.raises(ShmAccessError):
            yield env.process(mgr.map_into(seg, 7))
        seg.grant(7)
        yield env.process(mgr.map_into(seg, 7))
        return seg

    seg = run(env, proc())
    assert 7 in seg.mapped


def test_revoke_removes_access():
    env = Environment()
    mgr = ShMemManager(env)

    def proc():
        seg = yield env.process(mgr.alloc(4096))
        seg.grant(5)
        seg.revoke(5)
        with pytest.raises(ShmAccessError):
            seg.check(5)
        with pytest.raises(ShmAccessError):
            seg.revoke(1)  # owner's grant is permanent
        return True

    assert run(env, proc())


# --- queue pairs -----------------------------------------------------------
def test_qp_submit_pop_complete_roundtrip():
    env = Environment()
    qp = QueuePair(env, pop_cost_ns=100)
    results = []

    def client():
        qp.submit({"op": "hello"})
        comp = yield env.process(qp.pop_completion())
        results.append((env.now, comp.value))

    def worker():
        req = yield env.process(qp.pop_request())
        qp.complete(Completion(req, value="done"))

    env.process(client())
    env.process(worker())
    env.run()
    # two pops, each charging the 100ns hop
    assert results == [(200, "done")]
    assert qp.submitted_total == 1 and qp.completed_total == 1 and qp.inflight == 0


def test_qp_access_check_on_shared_segment():
    env = Environment()
    mgr = ShMemManager(env)

    def proc():
        seg = yield env.process(mgr.alloc(4096))
        seg.grant(10)
        qp = QueuePair(env, segment=seg)
        qp.submit("ok", pid=10)
        with pytest.raises(ShmAccessError):
            qp.submit("nope", pid=11)
        return True

    assert run(env, proc())


def test_qp_completion_without_submission_rejected():
    env = Environment()
    qp = QueuePair(env)
    with pytest.raises(IpcError):
        qp.complete(Completion(None))


def test_qp_drained_event():
    env = Environment()
    qp = QueuePair(env)
    drained_at = []

    def watcher():
        yield qp.drained()  # nothing in flight: immediate
        qp.submit("r1")
        qp.submit("r2")
        ev = qp.drained()
        yield ev
        drained_at.append(env.now)

    def worker():
        yield env.timeout(10)
        for _ in range(2):
            req = yield env.process(qp.pop_request())
            yield env.timeout(50)
            qp.complete(Completion(req))

    env.process(watcher())
    env.process(worker())
    env.run()
    assert len(drained_at) == 1
    assert drained_at[0] >= 110


def test_qp_upgrade_flags_protocol():
    env = Environment()
    qp = QueuePair(env, primary=True)
    qp.mark_update_pending()
    assert qp.flag is QueueFlag.UPDATE_PENDING
    qp.ack_update()
    assert qp.flag is QueueFlag.UPDATE_ACKED
    qp.resume()
    assert qp.flag is QueueFlag.NORMAL


def test_qp_ack_without_pending_rejected():
    env = Environment()
    qp = QueuePair(env)
    with pytest.raises(IpcError):
        qp.ack_update()


def test_intermediate_qp_rejects_upgrade_marking():
    env = Environment()
    qp = QueuePair(env, primary=False)
    with pytest.raises(IpcError):
        qp.mark_update_pending()


def test_qp_est_queued_tracking():
    env = Environment()
    qp = QueuePair(env)

    class Req:
        est_ns = 500

    qp.submit(Req())
    qp.submit(Req())
    assert qp.est_queued_ns == 1000
    assert qp.try_pop_request() is not None
    assert qp.est_queued_ns == 500


# --- IPC manager -------------------------------------------------------
def test_connect_builds_granted_primary_qp():
    env = Environment()
    ipc = IpcManager(env)

    def proc():
        conn = yield env.process(ipc.connect(pid=100))
        return conn

    conn = run(env, proc())
    assert conn.qp.primary
    assert conn.segment.is_granted(100)
    assert ipc.get_qp(conn.qp.qid) is conn.qp
    assert env.now > 0  # handshake + mapping took time


def test_double_connect_rejected():
    env = Environment()
    ipc = IpcManager(env)

    def proc():
        yield env.process(ipc.connect(pid=5))
        with pytest.raises(IpcError):
            yield env.process(ipc.connect(pid=5))
        return True

    assert run(env, proc())


def test_disconnect_then_reconnect():
    env = Environment()
    ipc = IpcManager(env)

    def proc():
        conn1 = yield env.process(ipc.connect(pid=5))
        conn2 = yield env.process(ipc.reconnect(pid=5))
        return conn1, conn2

    conn1, conn2 = run(env, proc())
    assert conn1.qp.qid != conn2.qp.qid
    assert conn1.qp.qid not in ipc.qps


def test_on_connect_callback_fires():
    env = Environment()
    ipc = IpcManager(env)
    seen = []
    ipc.on_connect(lambda conn: seen.append(conn.pid))

    def proc():
        yield env.process(ipc.connect(pid=9))

    run(env, proc())
    assert seen == [9]


def test_unknown_qid():
    env = Environment()
    ipc = IpcManager(env)
    with pytest.raises(IpcError):
        ipc.get_qp(99999)


# --- regressions: ISSUE 1 queue-pair accounting -------------------------
class _Req:
    def __init__(self, est_ns=1000):
        self.est_ns = est_ns


def test_submit_counts_only_when_sq_accepts():
    """With a full ring the put blocks; counters must not move until the
    entry actually lands in the SQ."""
    env = Environment()
    qp = QueuePair(env, depth=1)
    qp.submit(_Req(est_ns=100))
    qp.submit(_Req(est_ns=200))  # ring full: this putter blocks
    assert qp.submitted_total == 1
    assert qp.inflight == 1
    assert qp.est_queued_ns == 100
    # popping frees the slot: the blocked entry is accepted synchronously
    assert qp.try_pop_request() is not None
    assert qp.submitted_total == 2
    assert qp.inflight == 2
    assert qp.est_queued_ns == 200


def test_complete_without_submission_raises_before_mutating():
    env = Environment()
    qp = QueuePair(env)
    with pytest.raises(IpcError, match="completion without submission"):
        qp.complete(Completion(None))
    assert qp.inflight == 0
    assert qp.completed_total == 0
    assert qp.submitted_total == 0


def test_est_queued_deducted_at_pop_not_after_hop():
    env = Environment()
    qp = QueuePair(env, pop_cost_ns=500)
    qp.submit(_Req(est_ns=750))
    got = []

    def worker():
        req = yield from qp.pop_request()
        got.append(req)

    env.process(worker())
    env.run()
    assert got[0].est_ns == 750
    assert qp.est_queued_ns == 0


def test_submit_total_conservation_through_lifecycle():
    env = Environment()
    qp = QueuePair(env)

    def proc():
        yield qp.submit(_Req())
        yield qp.submit(_Req())

    env.run(env.process(proc()))
    qp.try_pop_request()
    qp.complete(Completion(None))
    assert qp.submitted_total == qp.completed_total + qp.inflight == 2
