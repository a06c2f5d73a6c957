"""Shared-resource primitives for the DES kernel.

- :class:`Resource` — counted capacity (e.g. a lock is capacity 1, a CPU
  pool is capacity N); FIFO grant order.
- :class:`PriorityResource` — like Resource but grants by (priority, fifo).
- :class:`Store` — a queue of Python objects with blocking put/get.
- :class:`FilterStore` — Store whose get() takes a predicate.
- :class:`Container` — a divisible quantity (bytes of free space, tokens).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from ..errors import SimulationError
from .core import Environment, Event, NORMAL, URGENT

__all__ = ["Resource", "PriorityResource", "Store", "FilterStore", "Container"]


class _Request(Event):
    """A pending claim on a Resource; usable as a context manager."""

    __slots__ = ("resource", "priority", "_order")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        # Inlined Event.__init__ (same field order, same audit emit): the
        # request/grant cycle runs once per work() call, so the extra
        # super() hop is measurable on the engine hot path.
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._processed = False
        self._defused = False
        if env._audit:
            env.tracer.emit(env._now, "san.ev_new", event=self)
        self.resource = resource
        self.priority = priority
        resource._order = self._order = resource._order + 1
        resource._queue.append(self)
        resource._trigger_grants()

    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw an ungranted request (no-op if already granted)."""
        if not self._triggered:
            try:
                self.resource._queue.remove(self)
            except ValueError:
                pass


class Resource:
    """Counted shared resource with FIFO queuing."""

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError("Resource capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._users: set[_Request] = set()
        self._queue: deque[_Request] = deque()
        self._order = 0
        # cumulative integral of `count` over time, for utilization accounting
        self._busy_ns = 0
        self._last_change = env.now

    # -- public API -----------------------------------------------------
    @property
    def count(self) -> int:
        """Number of grants currently held."""
        return len(self._users)

    def request(self, priority: int = 0) -> _Request:
        return _Request(self, priority)

    def release(self, request: _Request) -> None:
        users = self._users
        if request in users:
            # inlined self._account(): release is once-per-work-call hot
            now = self.env._now
            self._busy_ns += (now - self._last_change) * len(users)
            self._last_change = now
            users.discard(request)
            self._trigger_grants()
        else:
            request.cancel()

    def busy_time(self) -> int:
        """Integral of ``count`` over time, in grant-nanoseconds."""
        return self._busy_ns + (self.env.now - self._last_change) * len(self._users)

    # -- internals ------------------------------------------------------
    def _account(self) -> None:
        now = self.env._now
        self._busy_ns += (now - self._last_change) * len(self._users)
        self._last_change = now

    def _pop_next(self) -> _Request:
        """Remove and return the next request to grant (queue non-empty)."""
        return self._queue.popleft()

    def _trigger_grants(self) -> None:
        users = self._users
        queue = self._queue
        capacity = self.capacity
        if queue and len(users) < capacity:
            # one accounting flush covers every grant below: they all land
            # at the same instant, so after the first flush the delta is
            # zero — identical math, one inlined `_account` per batch
            env = self.env
            now = env._now
            self._busy_ns += (now - self._last_change) * len(users)
            self._last_change = now
            while queue and len(users) < capacity:
                req = self._pop_next()
                users.add(req)
                # inlined req.succeed(None, URGENT): a queued request is
                # never triggered and its _ok/_value are still pristine
                req._triggered = True
                env._eid = req._seid = env._eid + 1
                env._urgent.append(req)


class PriorityResource(Resource):
    """Resource granting by (priority, FIFO); lower priority value first."""

    def _pop_next(self) -> _Request:
        req = min(self._queue, key=lambda r: (r.priority, r._order))
        self._queue.remove(req)
        return req


class Store:
    """Unbounded-or-bounded FIFO of items with blocking semantics."""

    #: shadowed by FilterStore with a real deque; the class-level empty
    #: tuple lets the put/get fast paths test "no filter getters" with a
    #: plain attribute load on ordinary Stores
    _filter_getters: Any = ()

    def __init__(self, env: Environment, capacity: int | None = None) -> None:
        self.env = env
        self.capacity = capacity
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any, Optional[Callable[[Any], None]]]] = deque()
        self._watchers: list[Event] = []

    def __len__(self) -> int:
        return len(self.items)

    def when_nonempty(self) -> Event:
        """Non-consuming wait: fires when the store holds >= 1 item.

        Unlike :meth:`get`, the item stays in the store — used by pollers
        (LabStor workers) that watch many queues and pop explicitly.
        """
        ev = self.env.event()
        if self.items:
            ev.succeed()
        else:
            self._watchers.append(ev)
        return ev

    def _notify_watchers(self) -> None:
        if self.items and self._watchers:
            watchers, self._watchers = self._watchers, []
            for ev in watchers:
                ev.succeed()

    def put(self, item: Any, on_accept: Callable[[Any], None] | None = None) -> Event:
        """Returns an event that fires once the item is accepted.

        ``on_accept`` runs synchronously at the moment the item actually
        enters the store (possibly later than the put, if the store is at
        capacity) — the seam queue pairs use to keep their accounting tied
        to acceptance rather than to the put call.
        """
        env = self.env
        ev = env.event()
        if not self._putters and (self.capacity is None or len(self.items) < self.capacity):
            # Fast path: the store accepts immediately.  Byte-for-byte the
            # same event/eid sequence _dispatch would produce (accept event
            # first, then any getter serves), minus the putter-deque round
            # trip.
            self.items.append(item)
            if on_accept is not None:
                on_accept(item)
            ev._triggered = True
            env._eid = ev._seid = env._eid + 1
            env._urgent.append(ev)
            if self._getters or self._filter_getters:
                self._serve()
                if self._putters:
                    self._accept()
            if self.items and self._watchers:
                self._notify_watchers()
            if env._audit:
                env.tracer.emit(env._now, "san.store", store=self)
            return ev
        self._putters.append((ev, item, on_accept))
        self._dispatch()
        return ev

    def get(self) -> Event:
        """Returns an event that fires with the next item."""
        env = self.env
        ev = env.event()
        if self.items and not self._getters and not self._putters and not self._filter_getters:
            # Fast path: an item is ready and nobody is queued ahead.
            # Identical to _dispatch serving this getter (pending filter
            # getters never match a stored item — _dispatch runs after
            # every put — so popping FIFO here cannot starve one).
            ev._triggered = True
            ev._value = self.items.popleft()
            env._eid = ev._seid = env._eid + 1
            env._urgent.append(ev)
            if self.items and self._watchers:
                self._notify_watchers()
            if env._audit:
                env.tracer.emit(env._now, "san.store", store=self)
            return ev
        if not self.items and not self._putters:
            # Multi-waiter fast path: the store is empty and nothing is
            # queued to accept, so _dispatch would scan all three stages
            # and do nothing — park the getter directly.  This is the
            # steady state of a worker pool blocking on a drained queue
            # (N getters stack up here between bursts).
            self._getters.append(ev)
            if env._audit:
                env.tracer.emit(env._now, "san.store", store=self)
            return ev
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_get(self) -> Any | None:
        """Non-blocking pop; None when empty."""
        if self.items:
            item = self.items.popleft()
            self._dispatch()
            return item
        return None

    def _accept(self) -> None:
        env = self.env
        while self._putters and (self.capacity is None or len(self.items) < self.capacity):
            ev, item, on_accept = self._putters.popleft()
            self.items.append(item)
            if on_accept is not None:
                on_accept(item)
            # inlined ev.succeed(None, URGENT); ev is store-private pending
            ev._triggered = True
            env._eid = ev._seid = env._eid + 1
            env._urgent.append(ev)

    def _serve(self) -> None:
        env = self.env
        getters = self._getters
        items = self.items
        while getters and items:
            ev = getters.popleft()
            # inlined ev.succeed(item, URGENT)
            ev._triggered = True
            ev._value = items.popleft()
            env._eid = ev._seid = env._eid + 1
            env._urgent.append(ev)

    def _dispatch(self) -> None:
        # Guarded version of accept/serve/accept: each stage only runs
        # when it can possibly make progress (Store._serve and
        # FilterStore._serve both require items; the re-accept only
        # matters if _serve freed capacity).  Must stay observably
        # identical to the unguarded sequence — skipped stages are
        # exactly the no-op ones.
        if self._putters:
            self._accept()
        if self.items:
            self._serve()
            if self._putters:
                self._accept()
            if self.items and self._watchers:
                self._notify_watchers()
        env = self.env
        if env._audit:
            env.tracer.emit(env._now, "san.store", store=self)


class FilterStore(Store):
    """Store whose getters can demand items matching a predicate."""

    def __init__(self, env: Environment, capacity: int | None = None) -> None:
        super().__init__(env, capacity)
        self._filter_getters: deque[tuple[Event, Callable[[Any], bool]]] = deque()

    def get(self, filter: Callable[[Any], bool] | None = None) -> Event:  # noqa: A002
        if filter is None:
            return super().get()
        ev = self.env.event()
        self._filter_getters.append((ev, filter))
        self._dispatch()
        return ev

    def _serve(self) -> None:
        super()._serve()
        served = True
        while served:
            served = False
            for pair in list(self._filter_getters):
                ev, pred = pair
                for item in self.items:
                    if pred(item):
                        self.items.remove(item)
                        self._filter_getters.remove(pair)
                        ev.succeed(item, URGENT)
                        served = True
                        break


class Container:
    """A divisible quantity with blocking get (put never blocks)."""

    def __init__(self, env: Environment, init: int = 0, capacity: int | None = None) -> None:
        if init < 0:
            raise SimulationError("Container initial level must be >= 0")
        self.env = env
        self.capacity = capacity
        self.level = init
        self._getters: deque[tuple[Event, int]] = deque()

    def put(self, amount: int) -> None:
        if amount < 0:
            raise SimulationError("Container.put amount must be >= 0")
        self.level += amount
        if self.capacity is not None:
            self.level = min(self.level, self.capacity)
        self._dispatch()

    def get(self, amount: int) -> Event:
        if amount < 0:
            raise SimulationError("Container.get amount must be >= 0")
        ev = self.env.event()
        self._getters.append((ev, amount))
        self._dispatch()
        return ev

    def _dispatch(self) -> None:
        while self._getters and self._getters[0][1] <= self.level:
            ev, amount = self._getters.popleft()
            self.level -= amount
            ev.succeed(amount, URGENT)
