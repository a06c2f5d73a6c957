"""Scheduler ordering guarantees + audit-equivalence stress.

The run loop in ``repro.sim.core`` splits same-time events across an
urgent lane, a due lane and the heap (see the Environment docstring);
these tests pin the (time, priority, insertion-id) total order across
every lane combination, including the externally-scheduled
URGENT-with-delay corner, and then push >=100k events through a plain
run and a sanitizer run to prove the audit seam changes neither virtual
time nor the event count, and that no pending event leaks.
"""

from repro.sim import NORMAL, URGENT, LOW, Environment, Sanitizer
from repro.sim.resources import Resource, Store


def _tagged(env: Environment, order: list, tag: str):
    ev = env.event()
    ev.callbacks.append(lambda e: order.append(tag))
    return ev


# ----------------------------------------------------------------------
# tie-breaking
# ----------------------------------------------------------------------
def test_same_time_priority_order():
    env = Environment()
    order: list[str] = []
    for tag, prio in (("low", LOW), ("normal", NORMAL), ("urgent", URGENT)):
        env._schedule(_tagged(env, order, tag), 10, prio)
    env.run()
    assert order == ["urgent", "normal", "low"]
    assert env.now == 10


def test_same_priority_fires_in_insertion_order():
    env = Environment()
    order: list[str] = []
    # urgent lane FIFO
    for tag in ("u1", "u2", "u3"):
        _tagged(env, order, tag).succeed(priority=URGENT)
    # due lane FIFO
    for tag in ("n1", "n2"):
        _tagged(env, order, tag).succeed()
    env.run()
    assert order == ["u1", "u2", "u3", "n1", "n2"]


def test_urgent_with_delay_beats_same_time_urgent_lane():
    """The heap-resident URGENT corner: an URGENT event scheduled with a
    positive delay carries an older insertion id than any urgent-lane
    entry created at its firing time, so it must pop first even though
    the lane normally wins."""
    env = Environment()
    order: list[str] = []
    z = _tagged(env, order, "z")
    env._schedule(z, 10, URGENT)
    a = _tagged(env, order, "a")
    env._schedule(a, 10, URGENT)
    b = _tagged(env, order, "b")
    # z fires first at t=10 (oldest eid) and pushes b onto the urgent
    # lane; a is still heap-resident with a smaller eid than b
    z.callbacks.append(lambda e: b.succeed(priority=URGENT))
    env.run()
    assert order == ["z", "a", "b"]


def test_due_lane_loses_same_time_tie_to_heap():
    """A NORMAL event that waited in the heap (scheduled earlier, with a
    delay) outranks a NORMAL delay-0 event created at its firing time:
    eids grow monotonically with virtual time."""
    env = Environment()
    order: list[str] = []
    w = _tagged(env, order, "w")
    env._schedule(w, 10, URGENT)
    x = _tagged(env, order, "x")
    env._schedule(x, 10, NORMAL)
    d = _tagged(env, order, "d")
    w.callbacks.append(lambda e: d.succeed())  # NORMAL -> due lane at t=10
    env.run()
    assert order == ["w", "x", "d"]


def test_step_matches_run_ordering():
    """step() must walk the exact order run() does (shared invariant)."""

    def build():
        env = Environment()
        order: list[str] = []
        env._schedule(_tagged(env, order, "a"), 5, NORMAL)
        env._schedule(_tagged(env, order, "b"), 5, URGENT)
        c = _tagged(env, order, "c")
        c.succeed(priority=URGENT)
        _tagged(env, order, "d").succeed()
        return env, order

    env, via_run = build()
    env.run()
    env2, via_step = build()
    while env2._heap or env2._urgent or env2._due:
        env2.step()
    assert via_run == via_step == ["c", "d", "b", "a"]


# ----------------------------------------------------------------------
# audit-equivalence stress
# ----------------------------------------------------------------------
def _churn(env: Environment, loops: int):
    """A workload that cycles every event class: Timeouts, Events (store
    put/get), Conditions (any_of), Processes (nested spawns), Initialize
    (one per process) and resource _Requests."""
    res = Resource(env, capacity=2)
    store = Store(env)

    def sub():
        yield env.timeout(2)

    def worker(wid: int):
        for j in range(loops):
            req = res.request()
            yield req
            yield env.timeout(5)
            res.release(req)
            yield store.put((wid, j))
            yield store.get()
            if j % 8 == 0:
                yield env.any_of([env.timeout(3), env.timeout(4)])
            if j % 16 == 0:
                yield env.process(sub())
            yield env.timeout(1)

    return env.all_of([env.process(worker(i)) for i in range(8)])


def test_audit_equivalence_stress_100k_events_no_leaks():
    env = Environment()
    env.run(_churn(env, 2400))
    assert env._eid >= 100_000, f"stress too small: {env._eid} events"
    # nothing left scheduled: every event was consumed
    assert not env._heap and not env._urgent and not env._due

    # identical run under the sanitizer: the audit hooks must observe the
    # run without steering it (same clock, same number of scheduled
    # events), and the teardown audit proves no event leaked mid-flight
    env2 = Environment()
    san = Sanitizer(strict=False).install(env2)
    env2.run(_churn(env2, 2400))
    report = san.finish()
    assert report["violations"] == []
    assert not env2._heap and not env2._urgent and not env2._due
    assert (env2.now, env2._eid) == (env.now, env._eid)
