"""Inter-process message queues for the simulation kernel.

ACE daemons talk to their four logical threads over message queues (§2.1.1
of the paper); :class:`Store` is that primitive.  A ``put`` never blocks
(queues are unbounded unless a capacity is given), a ``get`` yields an event
that fires when an item is available.  FIFO delivery order is guaranteed
among waiters and items, which keeps traces deterministic.

A store's three containers (items, parked getters, parked putters) are
allocated on first use: every connection endpoint, listener and daemon
queue is a store, a parked request/reply channel only ever uses one of the
three, and an empty ``deque`` is ~0.75 KB.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim.kernel import Event, SimulationError, Simulator, URGENT


class QueueClosed(Exception):
    """Raised to getters when a queue is closed and drained."""

    def __init__(self, name: str = ""):
        super().__init__(f"queue {name!r} closed")
        self.name = name


#: what an unused container reads as: empty, falsy, never mutated — the
#: first append swaps a real deque in
_UNUSED: tuple = ()


class Store:
    """Unbounded (or capacity-bounded) FIFO of arbitrary items."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: deque[Any] = _UNUSED
        self._getters: deque[Event] = _UNUSED
        self._putters: deque[tuple[Event, Any]] = _UNUSED
        self._closed = False

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def put(self, item: Any) -> Event:
        """Deposit ``item``; returns an event (immediate unless at capacity)."""
        if self._closed:
            ev = Event(self.sim)
            ev.defuse()
            ev.fail(QueueClosed(self.name), priority=URGENT)
            return ev
        ev = Event(self.sim)
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item, priority=URGENT)
            ev.succeed(priority=URGENT)
        elif self.capacity is None or len(self._items) < self.capacity:
            if self._items is _UNUSED:
                self._items = deque()
            self._items.append(item)
            ev.succeed(priority=URGENT)
        else:
            if self._putters is _UNUSED:
                self._putters = deque()
            self._putters.append((ev, item))
        return ev

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False if at capacity or closed."""
        if self._closed:
            return False
        if self._getters:
            self._getters.popleft().succeed(item, priority=URGENT)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        if self._items is _UNUSED:
            self._items = deque()
        self._items.append(item)
        return True

    def deliver(self, item: Any) -> bool:
        """:meth:`try_put` for kernel context: a parked getter is resumed
        inside this call instead of through a scheduled wake.

        Only for a caller that is the single callback of a NORMAL-priority
        timeout (a message arriving off the wire).  The kernel delivers
        every URGENT occurrence due now before any NORMAL one, so nothing
        URGENT is pending when such a callback runs, and the callback
        schedules nothing after the hand-off: the getter's wake would have
        been the very next delivery anyway, and resuming it here keeps
        the order and saves the event.  A process (the resume would nest
        inside its step) or the callback of a ready-queue event (other
        URGENT entries may be queued ahead of the wake) has no such
        guarantee — they use :meth:`put` / :meth:`try_put`.
        """
        if self._getters:  # never while closed: close() drains them
            self._getters.popleft().succeed_now(item)
            return True
        return self.try_put(item)

    def get(self) -> Event:
        """Yieldable event that fires with the next item."""
        ev = Event(self.sim)
        if self._items:
            ev.succeed(self._items.popleft(), priority=URGENT)
            self._admit_putter()
        elif self._closed:
            ev.defuse()
            ev.fail(QueueClosed(self.name), priority=URGENT)
        else:
            if self._getters is _UNUSED:
                self._getters = deque()
            self._getters.append(ev)
        return ev

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(found, item)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def close(self) -> None:
        """Close the queue: pending getters fail, future puts fail.

        The failure events are defused: a waiter that was interrupted away
        before the close must not crash the simulator with an unhandled
        QueueClosed (live waiters still receive the exception normally).
        """
        if self._closed:
            return
        self._closed = True
        while self._getters:
            ev = self._getters.popleft()
            ev.defuse()
            ev.fail(QueueClosed(self.name), priority=URGENT)
        while self._putters:
            ev, _item = self._putters.popleft()
            ev.defuse()
            ev.fail(QueueClosed(self.name), priority=URGENT)

    def _admit_putter(self) -> None:
        if self._putters:
            ev, item = self._putters.popleft()
            self._items.append(item)   # a deque: the caller just popped from it
            ev.succeed(priority=URGENT)

