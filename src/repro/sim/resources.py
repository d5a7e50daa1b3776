"""Shared-resource primitives: counted resources.

:class:`Resource` models things like CPU execution slots on a simulated host
(a host with one core serializes daemon work; an SMP host runs the four
daemon threads genuinely concurrently, which experiment E20 measures).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.sim.kernel import Event, SimulationError, Simulator, URGENT


class Request(Event):
    """The event returned by :meth:`Resource.request`; fires on grant."""

    __slots__ = ()


class Resource:
    """A resource with ``capacity`` identical slots and a FIFO wait queue."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._users: set[Request] = set()
        self._queue: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        req = Request(self.sim)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed(req, priority=URGENT)
        else:
            self._queue.append(req)
        return req

    def try_acquire(self) -> Optional[Request]:
        """Non-blocking request: a granted :class:`Request` when a slot is
        free (no event is scheduled), else None and nothing is queued."""
        if len(self._users) >= self.capacity:
            return None
        req = Request(self.sim)
        self._users.add(req)
        req.succeed_now()  # no value: a request holding itself is a cycle
        return req

    def release(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
        else:
            # Releasing a still-queued (never granted) request cancels it.
            try:
                self._queue.remove(request)
                return
            except ValueError:
                raise SimulationError("release of a request this resource never granted")
        if self._queue:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            nxt.succeed(nxt, priority=URGENT)

