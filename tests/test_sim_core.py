"""Unit tests for the DES kernel (repro.sim.core)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt, StopSimulation


def test_timeout_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(100)
        assert env.now == 100
        yield env.timeout(50)
        return env.now

    p = env.process(proc())
    assert env.run(p) == 150
    assert env.now == 150


def test_zero_delay_timeout():
    env = Environment()

    def proc():
        yield env.timeout(0)
        return "done"

    assert env.run(env.process(proc())) == "done"
    assert env.now == 0


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value_propagates():
    env = Environment()

    def child():
        yield env.timeout(10)
        return 42

    def parent():
        value = yield env.process(child())
        return value * 2

    assert env.run(env.process(parent())) == 84


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    log = []

    def waiter():
        value = yield ev
        log.append((env.now, value))

    def trigger():
        yield env.timeout(30)
        ev.succeed("payload")

    env.process(waiter())
    env.process(trigger())
    env.run()
    assert log == [(30, "payload")]


def test_event_fail_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def waiter():
        with pytest.raises(ValueError, match="boom"):
            yield ev
        return "handled"

    def trigger():
        yield env.timeout(5)
        ev.fail(ValueError("boom"))

    p = env.process(waiter())
    env.process(trigger())
    assert env.run(p) == "handled"


def test_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_unhandled_process_exception_crashes_run():
    env = Environment()

    def bad():
        yield env.timeout(1)
        raise RuntimeError("crashed process")

    env.process(bad())
    with pytest.raises(RuntimeError, match="crashed process"):
        env.run()


def test_all_of_waits_for_every_event():
    env = Environment()

    def proc():
        t1 = env.timeout(10, value="a")
        t2 = env.timeout(20, value="b")
        result = yield env.all_of([t1, t2])
        assert env.now == 20
        return [result[t1], result[t2]]

    assert env.run(env.process(proc())) == ["a", "b"]


def test_any_of_fires_on_first():
    env = Environment()

    def proc():
        t1 = env.timeout(10, value="fast")
        t2 = env.timeout(99, value="slow")
        result = yield env.any_of([t1, t2])
        assert env.now == 10
        assert t1 in result
        return result[t1]

    assert env.run(env.process(proc())) == "fast"


def test_interrupt_delivers_cause():
    env = Environment()
    log = []

    def victim():
        try:
            yield env.timeout(1000)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def attacker(target):
        yield env.timeout(40)
        target.interrupt("decommissioned")

    p = env.process(victim())
    env.process(attacker(p))
    env.run()
    assert log == [(40, "decommissioned")]


def test_interrupted_process_can_rewait():
    """After an interrupt the original event still stands and can be re-yielded."""
    env = Environment()

    def victim():
        t = env.timeout(100)
        try:
            yield t
        except Interrupt:
            pass
        yield t  # re-wait for the same timeout
        return env.now

    def attacker(target):
        yield env.timeout(10)
        target.interrupt()

    p = env.process(victim())
    env.process(attacker(p))
    assert env.run(p) == 100


def test_interrupt_dead_process_rejected():
    env = Environment()

    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker():
        while True:
            yield env.timeout(7)

    env.process(ticker())
    env.run(until=100)
    assert env.now == 100


def test_run_until_time_reaches_bound_when_events_run_out():
    """run(until=t) ends at t whether the heap drains early, was empty
    from the start, or still holds a later event."""
    drained = Environment()
    drained.timeout(10)
    drained.run(until=1000)
    assert drained.now == 1000

    empty = Environment()
    empty.run(until=1000)
    assert empty.now == 1000

    pending = Environment()
    pending.timeout(10)
    pending.timeout(5000)
    pending.run(until=1000)
    assert pending.now == 1000
    assert pending.peek() == 5000


def test_run_until_past_time_rejected():
    env = Environment()
    env.timeout(10)
    env.run()
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_determinism_same_seed_same_trace():
    def build_and_run():
        env = Environment()
        order = []

        def proc(name, delay):
            yield env.timeout(delay)
            order.append((env.now, name))

        for i in range(10):
            env.process(proc(f"p{i}", (i * 37) % 11))
        env.run()
        return order

    assert build_and_run() == build_and_run()


def test_simultaneous_events_fifo_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(10)
        order.append(name)

    for name in ("a", "b", "c"):
        env.process(proc(name))
    env.run()
    assert order == ["a", "b", "c"]


def test_yield_non_event_rejected():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError):
        env.run()


def test_run_until_event_returns_value():
    env = Environment()
    ev = env.event()

    def trigger():
        yield env.timeout(3)
        ev.succeed("v")

    env.process(trigger())
    assert env.run(until=ev) == "v"


def test_run_until_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run()
    assert env.run(until=ev) == "early"


def test_process_is_alive():
    env = Environment()

    def proc():
        yield env.timeout(10)

    p = env.process(proc())
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_condition_with_failed_subevent_fails():
    env = Environment()
    ev1 = env.event()
    ev2 = env.event()

    def trigger():
        yield env.timeout(1)
        ev1.fail(KeyError("inner"))
        ev2.succeed()

    def waiter():
        with pytest.raises(KeyError):
            yield env.all_of([ev1, ev2])
        return True

    env.process(trigger())
    p = env.process(waiter())
    assert env.run(p) is True


# --- regressions: ISSUE 1 satellite fixes -------------------------------
def test_any_of_late_failure_on_losing_subevent_is_defused():
    """A sub-event failing *after* an any_of already triggered must not
    crash Environment.step() (the condition defuses it)."""
    env = Environment()
    winner, loser = env.event(), env.event()
    results = []

    def waiter():
        cond = yield env.any_of([winner, loser])
        results.append(winner in cond)

    def driver():
        yield env.timeout(10)
        winner.succeed("first")
        yield env.timeout(10)
        loser.fail(RuntimeError("too late"))

    env.process(waiter())
    env.process(driver())
    env.run()  # must not raise
    assert results == [True]
    assert loser.triggered and not loser.ok


def test_any_of_late_failure_of_unsubscribed_subevent_is_defused():
    """Same class of bug via the constructor path: when one sub-event is
    already processed, the remaining ones must still be watched so their
    later failures are absorbed."""
    env = Environment()
    done = env.event()
    done.succeed("early")
    env.run()  # process `done` so Condition sees callbacks=None
    late = env.event()

    def waiter():
        yield env.any_of([done, late])

    def driver():
        yield env.timeout(5)
        late.fail(ValueError("nobody is watching"))

    env.process(waiter())
    env.process(driver())
    env.run()  # must not raise


def test_run_until_event_does_not_drop_other_waiters():
    """run(until=event) used to raise StopSimulation mid-callback-loop,
    so other processes waiting on the same event never resumed."""
    env = Environment()
    ev = env.event()
    log = []

    def other():
        yield ev
        log.append("resumed")
        yield env.timeout(5)
        log.append("done")

    def trigger():
        yield env.timeout(10)
        ev.succeed("v")

    env.process(other())
    env.process(trigger())
    assert env.run(until=ev) == "v"
    assert log == ["resumed"]  # the co-waiter got its callback
    env.run()  # continue past the stop point
    assert log == ["resumed", "done"]


def test_run_until_failed_event_still_raises():
    env = Environment()
    ev = env.event()

    def trigger():
        yield env.timeout(1)
        ev.fail(KeyError("bad"))

    env.process(trigger())
    with pytest.raises(KeyError):
        env.run(until=ev)


def test_daemon_flag_defaults_false_and_is_settable():
    env = Environment()

    def proc():
        yield env.timeout(1)

    p = env.process(proc())
    d = env.process(proc(), daemon=True)
    assert not p.daemon and d.daemon
    env.run()
