"""Shared-resource primitives: counted resources and continuous containers.

:class:`Resource` models things like CPU execution slots on a simulated host
(a host with one core serializes daemon work; an SMP host runs the four
daemon threads genuinely concurrently, which experiment E20 measures).
:class:`Container` models divisible quantities such as memory or disk.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.sim.kernel import Event, SimulationError, Simulator, URGENT


class Request(Event):
    """The event returned by :meth:`Resource.request`; fires on grant."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource


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
        req = Request(self)
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
        req = Request(self)
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


class Container:
    """A continuous quantity with bounded level (memory, disk, battery)."""

    def __init__(
        self,
        sim: Simulator,
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "",
    ):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        if not 0 <= init <= capacity:
            raise SimulationError(f"init {init} outside [0, {capacity}]")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._level = init
        self._getters: deque[tuple[Event, float]] = deque()
        self._putters: deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount < 0:
            raise SimulationError("negative put amount")
        ev = Event(self.sim)
        if self._level + amount <= self.capacity:
            self._level += amount
            ev.succeed(priority=URGENT)
            self._drain()
        else:
            self._putters.append((ev, amount))
        return ev

    def get(self, amount: float) -> Event:
        if amount < 0:
            raise SimulationError("negative get amount")
        if amount > self.capacity:
            raise SimulationError(f"get {amount} exceeds capacity {self.capacity}")
        ev = Event(self.sim)
        if amount <= self._level:
            self._level -= amount
            ev.succeed(priority=URGENT)
            self._drain()
        else:
            self._getters.append((ev, amount))
        return ev

    def try_get(self, amount: float) -> bool:
        if 0 <= amount <= self._level:
            self._level -= amount
            self._drain()
            return True
        return False

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._getters and self._getters[0][1] <= self._level:
                ev, amount = self._getters.popleft()
                self._level -= amount
                ev.succeed(priority=URGENT)
                progressed = True
            if self._putters and self._level + self._putters[0][1] <= self.capacity:
                ev, amount = self._putters.popleft()
                self._level += amount
                ev.succeed(priority=URGENT)
                progressed = True
