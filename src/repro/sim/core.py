"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES engine in the SimPy style.
Every LabStor component (workers, clients, devices, the kernel substrate)
is a :class:`Process` driven by an :class:`Environment` whose clock is an
integer nanosecond counter.

Determinism: events scheduled for the same timestamp are executed in
(priority, insertion-order) order, so a seeded run always produces the
same trace.

Wall-clock hot path: this module is the floor under every host-time
number the repro can produce (see ``python3 benchmarks/perf/run.py``),
so the per-event path is deliberately flat:

- tracer gate flags are mirrored into ``env._audit`` / ``env._obs`` /
  ``env._trace`` (see :class:`~repro.sim.trace.Tracer`), so allocation
  and scheduling test one attribute instead of ``env.tracer.audit``;
- zero-delay events bypass the heap through two FIFO lanes (see
  :class:`Environment`);
- ``run()`` inlines the per-event step (one function call per event is
  ~10% of the engine's disabled-path budget).  ``step()`` stays the
  single-event reference implementation with identical semantics.

Every event is built by its class constructor and freed by the
interpreter; there is no object pooling (DESIGN.md "Simulator
performance" records why it was removed).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import SimulationError
from .trace import Tracer

# Event priorities. Lower value runs first at equal timestamps.
URGENT = 0
NORMAL = 1
LOW = 2

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Interrupt",
    "StopSimulation",
    "URGENT",
    "NORMAL",
    "LOW",
]


class StopSimulation(Exception):
    """Raised internally to end :meth:`Environment.run` early."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries an arbitrary payload (e.g. the reason a worker was
    decommissioned by the Work Orchestrator).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    Life-cycle: *pending* -> *triggered* (scheduled on the heap) ->
    *processed* (callbacks ran).  An event succeeds with a value or fails
    with an exception; waiting processes receive the value or have the
    exception thrown into them.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed", "_defused",
                 "_seid")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        self._defused = False
        if env._audit:
            env.tracer.emit(env._now, "san.ev_new", event=self)

    # -- state inspection ---------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        env = self.env
        env._eid = eid = env._eid + 1
        if priority:
            if priority == 1:
                self._seid = eid
                env._due.append(self)
            else:
                heappush(env._heap, (env._now, priority, eid, self))
        else:
            # URGENT now-events take the FIFO fast lane (see _schedule)
            self._seid = eid
            env._urgent.append(self)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() requires an exception, got {exc!r}")
        self._triggered = True
        self._ok = False
        self._value = exc
        self.env._schedule(self, delay=0, priority=priority)
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so it does not crash the run."""
        self._defused = True

    def __repr__(self) -> str:
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` nanoseconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: int, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay = int(delay)
        self._triggered = True
        self._ok = True
        self._value = value
        env._eid = eid = env._eid + 1
        if delay:
            heappush(env._heap, (env._now + delay, NORMAL, eid, self))
        else:
            self._seid = eid
            env._due.append(self)


class Initialize(Event):
    """Internal: kicks a freshly created process on the next step."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        # inlined Event.__init__ (same field order, same audit emit)
        self.env = env
        self.callbacks = [process._rcb]
        self._value = None
        self._ok = True
        self._triggered = True
        self._processed = False
        self._defused = False
        if env._audit:
            env.tracer.emit(env._now, "san.ev_new", event=self)
        env._eid = eid = env._eid + 1
        self._seid = eid
        env._urgent.append(self)


class Process(Event):
    """Wraps a generator; the process *is* an event that fires on return.

    The generator yields :class:`Event` instances; each ``yield`` suspends
    the process until the yielded event is processed.  ``return value``
    inside the generator succeeds the process event with that value.
    """

    __slots__ = ("_generator", "_target", "name", "daemon", "_rcb")

    def __init__(
        self,
        env: "Environment",
        generator: Generator,
        name: str | None = None,
        daemon: bool = False,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        # inlined Event.__init__ (same field order, same audit emit)
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        if env._audit:
            env.tracer.emit(env._now, "san.ev_new", event=self)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        #: daemon processes (worker loops, pollers) are expected to be
        #: still waiting at teardown; the sanitizer's leak audit skips them
        self.daemon = daemon
        # the one bound `_resume` this process ever subscribes with — a
        # fresh bound method per yield is pure allocator traffic (they
        # compare equal, so interrupt()'s remove() keeps working)
        self._rcb = self._resume
        Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._defused = True
        event._triggered = True
        event.callbacks = [self._rcb]
        self.env._schedule(event, delay=0, priority=URGENT)
        # Unsubscribe from the event the process was waiting on: the wait
        # continues to stand (SimPy semantics: the interrupted process may
        # re-yield the same event), but this resume path must not fire twice.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._rcb)
            except ValueError:
                pass
        self._target = None

    def _resume(self, event: Event) -> None:
        env = self.env
        if env._audit:
            env.tracer.emit(env._now, "san.resume", process=self, event=event)
        # Drop the subscription ref now: the wait is over, and a stale
        # _target would keep the processed event (and its value) alive
        # for as long as the process runs without yielding again.
        self._target = None
        env._active_proc = self
        generator = self._generator
        try:
            while True:
                try:
                    if event._ok:
                        next_event = generator.send(event._value)
                    else:
                        event._defused = True
                        next_event = generator.throw(event._value)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    self._triggered = True
                    env._eid = eid = env._eid + 1
                    self._seid = eid
                    env._due.append(self)
                    break
                except BaseException as exc:  # noqa: BLE001 - process crashed
                    self._ok = False
                    self._value = exc
                    self._triggered = True
                    env._eid = eid = env._eid + 1
                    self._seid = eid
                    env._due.append(self)
                    break

                try:
                    callbacks = next_event.callbacks
                except AttributeError:
                    raise SimulationError(
                        f"process {self.name!r} yielded {next_event!r}, expected an Event"
                    ) from None
                if next_event.env is not env:
                    raise SimulationError("yielded event belongs to a different Environment")
                if callbacks is not None:
                    # Event still pending or scheduled: subscribe and suspend.
                    callbacks.append(self._rcb)
                    self._target = next_event
                    break
                # Event already processed: loop and feed its value straight in.
                event = next_event
        finally:
            env._active_proc = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'dead' if self._triggered else 'alive'}>"


class ConditionValue:
    """Dict-like result of :class:`AllOf` / :class:`AnyOf` conditions."""

    def __init__(self, events: list[Event]) -> None:
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class Condition(Event):
    """Composite event over several sub-events (used by all_of / any_of)."""

    __slots__ = ("_events", "_count", "_needed")

    def __init__(self, env: "Environment", events: Iterable[Event], needed: int) -> None:
        # inlined Event.__init__ (same field order, same audit emit)
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        if env._audit:
            env.tracer.emit(env._now, "san.ev_new", event=self)
        self._events = events = list(events)
        self._count = 0
        self._needed = needed if needed >= 0 else len(events)
        if not events:
            self.succeed(ConditionValue([]))
            return
        # Subscribe to *every* sub-event, even after the condition has
        # already triggered: _check must keep watching so a late failure
        # on an unwatched sub-event is defused instead of crashing step().
        check = self._check
        for ev in events:
            if ev.env is not env:
                raise SimulationError("condition spans multiple Environments")
            if ev.callbacks is None:
                check(ev)
            else:
                ev.callbacks.append(check)

    def _check(self, event: Event) -> None:
        if self._triggered:
            if not event._ok:
                # The condition already fired (e.g. an any_of won): absorb
                # the late failure of a now-unwatched sub-event.
                event._defused = True
            return
        if not event._ok:
            event._defused = True
            self._release_losers()
            self.fail(event._value)
            return
        self._count += 1
        if self._count >= self._needed:
            value = ConditionValue([ev for ev in self._events if ev._triggered])
            self._release_losers()
            self.succeed(value)

    def _release_losers(self) -> None:
        """Cut the references that tie this condition to its still-pending
        sub-events once the outcome is decided.

        The subscription on a pending loser exists only to defuse a late
        *failure* (see __init__).  A Timeout can never fail — it is born
        triggered-ok — so its callback entry is pure ballast, and worse, it
        forms a cycle (timeout -> _check -> condition -> value -> timeout
        for an any_of window) that only the cycle collector could free;
        cutting it lets refcounting release every poll-window timeout as
        soon as it is processed.  Failable sub-events keep their entry.
        """
        check = self._check
        for ev in self._events:
            cbs = ev.callbacks
            if cbs is not None and type(ev) is Timeout:
                try:
                    cbs.remove(check)
                except ValueError:
                    pass
        self._events = ()


class Environment:
    """The simulation environment: clock, event heap, process bookkeeping."""

    #: always 0 (object pooling is gone); benchmarks/perf/workloads.py reads it
    pool_reused = 0

    def __init__(self, initial_time: int = 0, tracer: Tracer | None = None) -> None:
        self._now = int(initial_time)
        self._heap: list[tuple[int, int, int, Event]] = []
        # URGENT zero-delay events (grants, store accepts, process kicks)
        # bypass the heap: they are always scheduled *at the current time*
        # with the highest priority, so they sort before every heap entry
        # and among themselves by insertion id — exactly deque FIFO order.
        # They are also the heap's worst case (a new minimum on every push),
        # so the fast lane saves two full-depth sift passes per event.
        # Lane entries are bare events; the insertion id rides on the
        # event itself (``_seid``) so no per-schedule tuple is allocated.
        self._urgent: deque[Event] = deque()
        # Same fast lane for NORMAL zero-delay events (watcher/wake fires,
        # process completions, timeout(0)).  Correct because eids grow
        # monotonically with virtual time: a same-time NORMAL heap entry
        # was necessarily scheduled at an *earlier* virtual time (it had a
        # positive delay), so its eid is smaller than every _due entry's
        # and the heap-vs-deque tie always resolves to the heap.
        self._due: deque[Event] = deque()
        self._eid = 0
        self._active_proc: Optional[Process] = None
        # cached tracer gate flags; kept in sync by Tracer's flag setters
        self._trace = False
        self._audit = False
        self._obs = False
        #: shared pub/sub seam for spans and sanitizer audit hooks
        self.tracer = tracer if tracer is not None else Tracer()
        self.tracer._attach_env(self)

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_proc

    # -- factories ------------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator, name: str | None = None, daemon: bool = False
    ) -> Process:
        return Process(self, generator, name=name, daemon=daemon)

    def all_of(self, events: Iterable[Event]) -> Condition:
        return Condition(self, events, needed=-1)

    def any_of(self, events: Iterable[Event]) -> Condition:
        return Condition(self, events, needed=1)

    # -- scheduling -----------------------------------------------------
    def _schedule(self, event: Event, delay: int, priority: int = NORMAL) -> None:
        self._eid = eid = self._eid + 1
        if delay == 0:
            if priority == NORMAL:
                event._seid = eid
                self._due.append(event)
                return
            if priority == URGENT:
                event._seid = eid
                self._urgent.append(event)
                return
        heappush(self._heap, (self._now + delay, priority, eid, event))

    def peek(self) -> int:
        """Time of the next scheduled event, or a huge sentinel if empty."""
        if self._urgent or self._due:
            return self._now
        return self._heap[0][0] if self._heap else 2**63

    def _pop_event(self) -> tuple[int, int, Event]:
        """Pop the next event in strict (time, priority, eid) order.

        Returns ``(prio, eid, event)`` with ``self._now`` advanced.  The
        urgent lane wins unless the heap top is an URGENT event at the
        current time with a smaller insertion id (only possible for an
        externally scheduled URGENT event with a positive delay).  The
        due lane loses any same-time tie against the heap: a same-time
        heap entry either has higher priority or — having been scheduled
        at an earlier virtual time — a smaller insertion id.
        """
        heap = self._heap
        urgent = self._urgent
        if urgent:
            if heap:
                top = heap[0]
                if top[1] == 0 and top[0] == self._now and top[2] < urgent[0]._seid:
                    heappop(heap)
                    return 0, top[2], top[3]
            event = urgent.popleft()
            return 0, event._seid, event
        due = self._due
        if due:
            if heap:
                top = heap[0]
                if top[0] == self._now and top[1] <= 1:
                    heappop(heap)
                    return top[1], top[2], top[3]
            event = due.popleft()
            return 1, event._seid, event
        try:
            when, prio, eid, event = heappop(heap)
        except IndexError:
            raise SimulationError("no scheduled events") from None
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        return prio, eid, event

    def step(self) -> None:
        """Process exactly one event."""
        _prio, _eid, event = self._pop_event()
        if self._audit:
            self.tracer.emit(self._now, "san.step", kind=type(event).__name__,
                             name=getattr(event, "name", None), ok=event._ok, prio=_prio)
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks:
            for cb in callbacks:
                cb(event)
        if not event._ok and not event._defused:
            # An unhandled failure: crash the simulation loudly rather than
            # silently dropping the error.
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))

    def run(self, until: Any = None, *, until_window: Optional[int] = None) -> Any:
        """Run until ``until`` (a time, an Event, or heap exhaustion).

        Returns the event's value if ``until`` is an Event.  ``until=t``
        always returns with ``now == t``, whether or not events remain.

        ``until_window=W`` is the conservative-parallel entry: process
        every event with time **strictly below** ``W`` (the delay-0 lanes
        are always drained — they live at ``now < W``), then return with
        the clock left at the last processed event.  Unlike ``until=``,
        the clock is *not* advanced to ``W`` (the next window must see
        ``peek()`` report the true next event time) and an empty heap is
        not an error (an idle shard simply has nothing below the bound).
        """
        stop_at: Optional[int] = None
        stop_event: Optional[Event] = None
        win: Optional[int] = None
        if until_window is not None:
            if until is not None:
                raise SimulationError("run(): until= and until_window= are mutually exclusive")
            win = int(until_window)
            if win <= self._now:
                raise SimulationError(
                    f"run(until_window={win}) is not in the future (now={self._now})")
        if until is None:
            pass
        elif isinstance(until, Event):
            stop_event = until
            if stop_event.callbacks is None:
                # Already processed.
                if not stop_event._ok and not stop_event._defused:
                    raise stop_event._value
                return stop_event._value
            stop_event.callbacks.append(self._stop_cb)
        else:
            stop_at = int(until)
            if stop_at <= self._now:
                raise SimulationError(f"run(until={stop_at}) is not in the future (now={self._now})")

        # The inlined event loop: semantically identical to
        #   while self._heap or self._urgent or self._due: self.step()
        # but without the per-event call and attribute traffic.  Any change
        # here must be mirrored in step()/_pop_event() (and vice versa).
        heap = self._heap
        urgent = self._urgent
        due = self._due
        urgent_pop = urgent.popleft
        due_pop = due.popleft
        pop_heap = heappop
        now = self._now
        try:
            while True:
                if urgent:
                    # Fast lane; the heap top only outranks it in the
                    # external URGENT-with-delay corner (see _pop_event).
                    if heap:
                        top = heap[0]
                        if top[1] == 0 and top[0] == now and top[2] < urgent[0]._seid:
                            pop_heap(heap)
                            _prio, event = 0, top[3]
                        else:
                            event = urgent_pop()
                            _prio = 0
                    else:
                        event = urgent_pop()
                        _prio = 0
                elif due:
                    # NORMAL delay-0 lane; a same-time heap entry always
                    # outranks it (higher priority or smaller eid — see
                    # _pop_event).
                    if heap:
                        top = heap[0]
                        if top[0] == now and top[1] <= 1:
                            pop_heap(heap)
                            _prio, event = top[1], top[3]
                        else:
                            event = due_pop()
                            _prio = 1
                    else:
                        event = due_pop()
                        _prio = 1
                elif heap:
                    if stop_at is not None and heap[0][0] > stop_at:
                        break
                    if win is not None and heap[0][0] >= win:
                        break
                    when, _prio, _eid, event = pop_heap(heap)
                    if when < now:
                        raise SimulationError("event scheduled in the past")
                    self._now = now = when
                else:
                    break
                if self._audit:
                    self.tracer.emit(self._now, "san.step", kind=type(event).__name__,
                                     name=getattr(event, "name", None),
                                     ok=event._ok, prio=_prio)
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    for cb in callbacks:
                        cb(event)
                    # a callback may have re-entered run() (client connect
                    # handshakes during build helpers) — re-sync the local
                    # clock mirror before the next lane/heap comparison
                    now = self._now
                if not event._ok and not event._defused:
                    exc = event._value
                    raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))
        except StopSimulation:
            assert stop_event is not None
            if not stop_event._ok:
                # re-raise from the original cause: this suppresses the
                # StopSimulation context without clobbering an exception
                # chain the failure already carries (retry giveups etc.)
                raise stop_event._value from stop_event._value.__cause__
            return stop_event._value
        if stop_at is not None:
            # every event at or before the bound has run; the clock ends
            # on the bound whether later events are pending or none are
            self._now = stop_at
        if stop_event is not None and not stop_event._triggered:
            raise SimulationError("run() ran out of events before the awaited event fired")
        if stop_event is not None:
            if not stop_event._ok and not stop_event._defused:
                raise stop_event._value
            return stop_event._value
        return None

    def _stop_cb(self, event: Event) -> None:
        """Armed on ``run(until=event)``'s stop event.

        Must not raise here: a raise mid-callback-loop would drop the stop
        event's remaining callbacks, so other processes waiting on the same
        event would never resume.  Instead schedule an URGENT sentinel whose
        processing raises after the stop event's callback loop completed.
        """
        if not event._ok:
            # run() re-raises this failure to its caller once the sentinel
            # fires; defuse it here or step()'s unhandled-failure crash
            # would preempt the sentinel and leave it stale in the heap.
            event._defused = True
        sentinel = Event(self)
        sentinel._triggered = True
        sentinel._ok = True
        sentinel.callbacks = [_raise_stop]
        self._schedule(sentinel, delay=0, priority=URGENT)


def _raise_stop(event: Event) -> None:
    raise StopSimulation()
