"""Core event loop: events, processes, and the simulator.

The kernel is intentionally small.  An :class:`Event` is a one-shot future
with callbacks; a :class:`Process` wraps a generator and drives it by
subscribing to whatever event the generator yields; the :class:`Simulator`
owns the event heap and the virtual clock.

Only the pieces ACE needs are implemented: timeouts, process spawning and
interruption, and ``AnyOf``/``AllOf`` composition.  The scheduling order is
total and deterministic: ``(time, priority, sequence-number)``.

Hot path (E24)
--------------
Almost every occurrence in an ACE run is *zero-delay*: event triggers,
queue hand-offs, process bootstraps, relays for already-processed yields,
interrupt kicks.  Pushing each of those through the binary heap costs a
tuple allocation plus O(log n) sift both ways.  The scheduler instead
lands zero-delay occurrences on per-priority FIFO **ready queues**, and
process bootstraps, relays and interrupt kicks are small :class:`_Resume`
records rather than throwaway ``Event`` allocations.

The total order is still ``(time, priority, seq)``: every schedule consumes
one global sequence number, ready entries are FIFO-by-sequence within their
priority, and :meth:`Simulator._pop_next` compares the heap head's
``(time, priority, seq)`` against the best ready head before popping.  The
suite checks this against an always-heappush oracle
(``tests/sim/heap_only.py``): same-seed traces are bit-identical.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

#: Event priorities.  Lower sorts earlier at equal timestamps.
URGENT = 0
NORMAL = 1
LOW = 2


class SimulationError(RuntimeError):
    """Raised for kernel misuse (re-triggering events, bad yields, ...)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The interrupted process may catch it and continue; the event it was
    waiting on remains pending and may be re-yielded.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* once (``succeed`` or ``fail``) and then delivered
    to all registered callbacks when the simulator pops it off the heap.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_scheduled", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._triggered = False
        self._scheduled = False
        self._defused = False

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Mark the event successful and schedule callback delivery."""
        self._trigger(True, value, priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Mark the event failed; waiting processes see ``exc`` raised."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._trigger(False, exc, priority)
        return self

    def defuse(self) -> None:
        """Suppress the 'unhandled failure' crash for this event."""
        self._defused = True

    def _trigger(self, ok: bool, value: Any, priority: int) -> None:
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = ok
        self._value = value
        self.sim._schedule(self, delay=0.0, priority=priority)

    def succeed_now(self, value: Any = None) -> None:
        """Mark the event successful and run its callbacks in the caller's
        frame: no schedule, no sequence number.  Only for a caller that
        knows nothing else is due before the callbacks would have run —
        see :meth:`repro.sim.queues.Store.deliver`."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self._deliver()

    def _deliver(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        assert callbacks is not None
        for cb in callbacks:
            cb(self)
        if not self._ok and not self._defused and not callbacks:
            # A failure nobody waited on: surface it instead of losing it.
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class _Resume:
    """A ready-queue record resuming (or interrupting) a process directly.

    Stands in for three throwaway ``Event`` allocations — the bootstrap
    in :meth:`Process.__init__`, the relay for already-processed yields in
    :meth:`Process._step`, and the kick in :meth:`Process.interrupt` —
    with one small record and a deque append.  ``cancelled`` lets
    :meth:`Process._throw` revoke a pending resume.
    """

    __slots__ = ("proc", "ok", "value", "kick", "cancelled")

    def __init__(self, proc: "Process", ok: bool, value: Any, kick: bool = False):
        self.proc = proc
        self.ok = ok
        self.value = value
        self.kick = kick
        self.cancelled = False

    def _deliver(self) -> None:
        if self.cancelled:
            return
        proc = self.proc
        if self.kick:
            proc._throw(Interrupt(self.value))
            return
        proc._pending_resume = None
        proc._waiting_on = None
        if self.ok:
            proc._step(proc.generator.send, self.value)
        else:
            proc._step(proc.generator.throw, self.value)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, priority: int = NORMAL):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._triggered = True
        self._ok = True
        self._value = value
        sim._schedule(self, delay=delay, priority=priority)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process itself is an event that fires when the generator returns
    (value = the generator's return value) or raises (failure).
    """

    __slots__ = ("generator", "name", "_waiting_on", "_pending_resume", "_resume_cb", "obs_context")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        self._pending_resume: Optional[_Resume] = None
        # One bound method reused for every yield instead of allocating a
        # fresh one per callbacks.append.
        self._resume_cb = self._resume
        # Ambient observability context: spawned processes inherit the
        # spawner's current span, so fan-out work (notifications, store
        # replication, RPC attempts) stays causally attached to the request
        # that caused it.  Opaque to the kernel.
        parent = sim.active_process
        self.obs_context = parent.obs_context if parent is not None else None
        # Bootstrap: resume once at the current time.
        record = _Resume(self, True, None)
        self._pending_resume = record
        sim._schedule_record(record, URGENT)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return  # already finished; interrupting is a no-op
        self.sim._schedule_record(_Resume(self, True, cause, kick=True), URGENT)

    # -- internal --------------------------------------------------------
    def _resume(self, event: Event) -> None:
        self._waiting_on = None
        if event._ok:
            self._step(self.generator.send, event._value)
        else:
            event.defuse()
            self._step(self.generator.throw, event._value)

    def _throw(self, exc: BaseException) -> None:
        if self._triggered:
            return
        record = self._pending_resume
        if record is not None:
            record.cancelled = True
            self._pending_resume = None
        waiting = self._waiting_on
        if waiting is not None and waiting.callbacks is not None:
            try:
                waiting.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._waiting_on = None
        self._step(self.generator.throw, exc)

    def _step(self, call: Callable, arg: Any) -> None:
        sim = self.sim
        prev_active = sim.active_process
        sim.active_process = self
        try:
            try:
                target = call(arg)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self.fail(exc)
                return
            if not isinstance(target, Event):
                err = SimulationError(f"process {self.name!r} yielded non-event {target!r}")
                self._step(self.generator.throw, err)
                return
            if target.sim is not sim:
                err = SimulationError("yielded event belongs to a different simulator")
                self._step(self.generator.throw, err)
                return
            if target.callbacks is None:
                # Already processed: resume at the current time through the
                # scheduler so ordering stays consistent.
                if not target._ok:
                    target.defuse()
                record = _Resume(self, target._ok, target._value)
                self._pending_resume = record
                self._waiting_on = None
                sim._schedule_record(record, URGENT)
            else:
                target.callbacks.append(self._resume_cb)
                self._waiting_on = target
        finally:
            sim.active_process = prev_active


class _Condition(Event):
    """Base for AnyOf/AllOf: waits on several events at once."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes simulators")
        self._pending = 0
        for ev in self.events:
            if ev.callbacks is None:
                self._observe(ev)
            else:
                self._pending += 1
                ev.callbacks.append(self._on_child)
        self._finalize_if_done()

    def _on_child(self, ev: Event) -> None:
        self._pending -= 1
        if not self._triggered:
            self._observe(ev)
            self._finalize_if_done()
        elif not ev._ok:
            ev.defuse()

    def _observe(self, ev: Event) -> None:
        raise NotImplementedError

    def _finalize_if_done(self) -> None:
        raise NotImplementedError

    def results(self) -> dict[Event, Any]:
        """Values of all child events that have completed successfully."""
        return {
            ev: ev._value
            for ev in self.events
            if ev._triggered and ev._ok and ev.callbacks is None
        }


class AnyOf(_Condition):
    """Fires when the first child event fires (success or failure)."""

    __slots__ = ()

    def _observe(self, ev: Event) -> None:
        if self._triggered:
            return
        if ev._ok:
            self.succeed({ev: ev._value})
        else:
            ev.defuse()
            self.fail(ev._value)

    def _finalize_if_done(self) -> None:
        if not self._triggered and not self.events:
            self.succeed({})


class AllOf(_Condition):
    """Fires when every child has fired; fails fast on any child failure."""

    __slots__ = ()

    def _observe(self, ev: Event) -> None:
        if self._triggered:
            return
        if not ev._ok:
            ev.defuse()
            self.fail(ev._value)

    def _finalize_if_done(self) -> None:
        if self._triggered:
            return
        if all(ev._triggered and ev.callbacks is None for ev in self.events):
            self.succeed({ev: ev._value for ev in self.events})


class Simulator:
    """The event loop: a heap of ``(time, priority, seq, event)`` entries
    plus per-priority ready queues for the zero-delay occurrences that
    dominate real runs (see the module docstring).
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = 0
        self._running = False
        #: ready queues, one FIFO of ``(seq, item)`` per priority level
        self._ready: tuple[deque, deque, deque] = (deque(), deque(), deque())
        #: the process currently being stepped (None between steps); lets
        #: freshly spawned processes inherit the spawner's obs_context
        self.active_process: Optional[Process] = None
        # -- hot-path counters (read by repro.obs.profiling / E24) --------
        #: heap entries pushed (every schedule with a delay)
        self.n_heap_pushes = 0
        #: relay/boot/kick resumes scheduled as _Resume records
        self.n_relays_avoided = 0
        #: events + resume records delivered by step()
        self.n_delivered = 0

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None, priority: int = NORMAL) -> Timeout:
        return Timeout(self, delay, value, priority)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn a new process from a generator."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._seq += 1
        if delay == 0.0 and 0 <= priority <= 2:
            self._ready[priority].append((self._seq, event))
        else:
            self.n_heap_pushes += 1
            heapq.heappush(self._heap, (self._now + delay, priority, self._seq, event))

    def _schedule_record(self, record: _Resume, priority: int) -> None:
        """Land a resume record on a ready queue.  Consumes one sequence
        number, like any other schedule."""
        self._seq += 1
        self.n_relays_avoided += 1
        self._ready[priority].append((self._seq, record))

    def counters(self) -> dict[str, int]:
        """Kernel hot-path counters (E24's profiling harness reads these).

        ``ready_hits`` is derived (every schedule goes to exactly one of
        heap or ready queue) so the hottest branch pays no counter cost.
        """
        return {
            "events_scheduled": self._seq,
            "heap_pushes": self.n_heap_pushes,
            "ready_hits": self._seq - self.n_heap_pushes,
            "relays_avoided": self.n_relays_avoided,
            "events_delivered": self.n_delivered,
        }

    def _pop_next(self, _heappop=heapq.heappop) -> tuple[float, Any]:
        """Pop the globally next occurrence: the ``(time, priority, seq)``
        minimum across the heap and the ready queues.

        Ready entries always carry ``time == now`` (time only advances when
        the heap delivers, and the heap never delivers past a non-empty
        ready queue), so the comparison against the heap head reduces to
        ``(priority, seq)`` when the head is due now.
        """
        ready = self._ready
        if ready[0]:
            queue, prio = ready[0], 0
        elif ready[1]:
            queue, prio = ready[1], 1
        elif ready[2]:
            queue, prio = ready[2], 2
        else:
            entry = _heappop(self._heap)
            return entry[0], entry[3]
        heap = self._heap
        if heap:
            head = heap[0]
            if head[0] <= self._now and (
                head[1] < prio or (head[1] == prio and head[2] < queue[0][0])
            ):
                _heappop(heap)
                return head[0], head[3]
        return self._now, queue.popleft()[1]

    def peek(self) -> float:
        """Time of the next scheduled occurrence, or ``inf`` if none."""
        ready = self._ready
        if ready[0] or ready[1] or ready[2]:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def step(self) -> None:
        """Process exactly one occurrence (event delivery or resume)."""
        when, item = self._pop_next()
        if when < self._now:
            raise SimulationError("time went backwards")
        self._now = when
        self.n_delivered += 1
        item._deliver()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queues drain or the clock would pass ``until``.

        When ``until`` is given the clock is always advanced to exactly
        ``until`` on return, even if the queues drained earlier.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        heap = self._heap
        r0, r1, r2 = self._ready
        pop = self._pop_next
        delivered = 0
        try:
            if until is None:
                while r0 or r1 or r2 or heap:
                    when, item = pop()
                    self._now = when
                    delivered += 1
                    item._deliver()
            else:
                if until < self._now:
                    raise SimulationError(f"until={until} is in the past (now={self._now})")
                # Ready entries are always due at the current time, which
                # never exceeds ``until`` inside this loop.
                while r0 or r1 or r2 or (heap and heap[0][0] <= until):
                    when, item = pop()
                    self._now = when
                    delivered += 1
                    item._deliver()
                self._now = until
        finally:
            self.n_delivered += delivered
            self._running = False

    def run_window(self, before: float) -> int:
        """Process every occurrence strictly earlier than ``before``.

        The conservative-sync hook for sharded runs (E29): a shard kernel
        may safely process all events with ``time < before`` when its peers
        cannot send it anything arriving earlier than ``before`` (the
        coordinator guarantees this via the inter-shard lookahead).  Unlike
        :meth:`run`, the clock is **not** advanced to ``before`` — it stays
        at the last delivered occurrence, because the window bound is a
        safety horizon, not a time barrier.  Returns the number of
        occurrences delivered.
        """
        if self._running:
            raise SimulationError("run_window() is not reentrant")
        if before <= self._now:
            return 0
        self._running = True
        heap = self._heap
        r0, r1, r2 = self._ready
        pop = self._pop_next
        delivered = 0
        try:
            # Ready entries are always due at the current time, which stays
            # strictly below ``before`` inside this loop (only delivered
            # occurrence times advance it).
            while r0 or r1 or r2 or (heap and heap[0][0] < before):
                when, item = pop()
                self._now = when
                delivered += 1
                item._deliver()
        finally:
            self.n_delivered += delivered
            self._running = False
        return delivered

    def run_process(self, generator: Generator, name: str = "", timeout: Optional[float] = None) -> Any:
        """Convenience: spawn a process, run until it finishes, return its value.

        Raises whatever the process raised; raises ``SimulationError`` if the
        queues drain (or ``timeout`` elapses) before the process completes.
        """
        proc = self.process(generator, name=name)
        deadline = None if timeout is None else self._now + timeout
        heap = self._heap
        r0, r1, r2 = self._ready
        pop = self._pop_next
        delivered = 0
        try:
            while not proc._triggered:
                if not (r0 or r1 or r2):
                    # Only heap entries can advance the clock, so the
                    # deadlock/timeout checks live on this branch alone:
                    # ready entries are always due at the current time,
                    # which is already known to be within the deadline.
                    if not heap:
                        raise SimulationError(
                            f"deadlock: process {proc.name!r} never completed"
                        )
                    if deadline is not None and heap[0][0] > deadline:
                        raise SimulationError(
                            f"process {proc.name!r} exceeded timeout {timeout}"
                        )
                when, item = pop()
                self._now = when
                delivered += 1
                item._deliver()
            # Drain the delivery of the completion event itself.
            while proc.callbacks is not None and self.peek() <= self._now:
                when, item = pop()
                self._now = when
                delivered += 1
                item._deliver()
        finally:
            self.n_delivered += delivered
        if proc.ok:
            return proc.value
        proc.defuse()
        raise proc.value
