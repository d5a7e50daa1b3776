"""Core event loop: events, processes, and the simulator.

The kernel is intentionally small.  An :class:`Event` is a one-shot future
with callbacks; a :class:`Process` wraps a generator and drives it by
subscribing to whatever event the generator yields; the :class:`Simulator`
owns the event heap and the virtual clock.

Only the pieces ACE needs are implemented: timeouts (which
:meth:`Simulator.cancel` can take back), process spawning and
interruption, and ``AllOf`` (waiting for every one of several events).  The
scheduling order is total and deterministic: ``(time, priority,
sequence-number)``.

Hot path (E24)
--------------
About a quarter of an ACE run's occurrences are *zero-delay*: event
triggers, queue hand-offs, process bootstraps, relays for already-processed
yields, interrupt kicks.  Pushing each of those through the binary heap costs a
tuple allocation plus O(log n) sift both ways.  The scheduler instead
lands zero-delay occurrences on per-priority FIFO **ready queues**, and
process bootstraps, relays and interrupt kicks are small :class:`_Resume`
records rather than throwaway ``Event`` allocations.

An occurrence is one frame wherever it can be (``event()`` / ``timeout()``
build with slot stores): a timer wake runs three kernel functions, ``timeout``,
``Event._deliver``, ``Process._resume``, a ready wake five (``tests/sim/test_kernel_calls.py``).

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

    An event is *triggered* once (``succeed`` or ``fail``; ``_ok`` is None
    until then) and delivered to all registered callbacks when the
    simulator pops it off the heap.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None
        self._defused = False

    # -- inspection ------------------------------------------------------
    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def processed(self) -> bool:
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        return self._ok

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError("event value read before trigger")
        return self._value

    # -- triggering ------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Mark the event successful and schedule callback delivery."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._schedule(self, 0.0, priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Mark the event failed; waiting processes see ``exc`` raised."""
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exc
        self.sim._schedule(self, 0.0, priority)
        return self

    def defuse(self) -> None:
        """Suppress the 'unhandled failure' crash for this event."""
        self._defused = True

    def succeed_now(self, value: Any = None) -> None:
        """Mark the event successful and run its callbacks in the caller's
        frame: no schedule, no sequence number.  Only for a caller that
        knows nothing else is due before the callbacks would have run —
        see :meth:`repro.sim.queues.Store.deliver`."""
        if self._ok is not None:
            raise SimulationError(f"{self!r} already triggered")
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
        state = "pending" if self._ok is None else "triggered"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class _Resume:
    """A ready-queue record resuming (or interrupting) a process directly.

    Stands in for three throwaway ``Event`` allocations — the bootstrap
    in :meth:`Process.__init__`, the relay for already-processed yields in
    :meth:`Process._resume`, and the kick in :meth:`Process.interrupt` —
    with one small record and a deque append.  ``cancelled`` lets
    :meth:`Process._throw` revoke a pending resume, and the holder of a
    kick revoke the interrupt.  ``_ok`` / ``_value`` / ``_defused`` are
    named as on an :class:`Event`: :meth:`Process._resume` reads either.
    """

    __slots__ = ("proc", "_ok", "_value", "_defused", "kick", "cancelled")

    def __init__(self, proc: "Process", ok: bool, value: Any, kick: bool = False):
        self.proc = proc
        self._ok = ok
        self._value = value
        self.kick = kick
        self.cancelled = False

    def _deliver(self) -> None:
        if self.cancelled:
            return
        proc = self.proc
        if self.kick:
            proc._throw(Interrupt(self._value))
            return
        proc._pending_resume = None
        proc._resume(self)


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation,
    unless :meth:`Simulator.cancel` takes it back first; built by :meth:`Simulator.timeout`."""

    __slots__ = ("delay", "cancelled")


def _uncount(timer: Timeout) -> None:
    """A cancelled timeout's one callback: popped before a sweep took it
    out, it is no longer in the heap to be counted."""
    timer.sim._n_cancelled -= 1


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
        return self._ok is None

    def interrupt(self, cause: Any = None) -> Optional[_Resume]:
        """Throw :class:`Interrupt` into the process at the current time.

        Returns the scheduled kick (``None`` when the process has already
        finished): setting its ``cancelled`` revokes the interrupt if it
        has not been delivered yet."""
        if self._ok is not None:
            return None  # already finished; interrupting is a no-op
        record = _Resume(self, True, cause, kick=True)
        self.sim._schedule_record(record, URGENT)
        return record

    # -- internal --------------------------------------------------------
    def _resume(self, event: Any) -> None:
        """The one step body, for a delivered event or a _Resume alike."""
        self._waiting_on = None
        sim = self.sim
        prev_active = sim.active_process
        sim.active_process = self
        try:
            try:
                if event._ok:
                    target = self.generator.send(event._value)
                else:
                    event._defused = True
                    target = self.generator.throw(event._value)
            except StopIteration as stop:
                self._resume_cb = None   # break the self-cycle: refcounting frees it
                self.succeed(stop.value)
                return
            except BaseException as exc:
                self._resume_cb = None
                # The traceback's first frame is this one, which holds the
                # process: without it a failed process is freed by refcount.
                self.fail(exc.with_traceback(exc.__traceback__.tb_next))
                return
            if not isinstance(target, Event):
                err = SimulationError(f"process {self.name!r} yielded non-event {target!r}")
                self._resume(_Resume(self, False, err))
            elif target.sim is not sim:
                err = SimulationError("yielded event belongs to a different simulator")
                self._resume(_Resume(self, False, err))
            elif target.callbacks is None:
                # Already processed: resume at the current time through the
                # scheduler so ordering stays consistent.
                if not target._ok:
                    target._defused = True
                record = _Resume(self, target._ok, target._value)
                self._pending_resume = record
                sim._schedule_record(record, URGENT)
            else:
                target.callbacks.append(self._resume_cb)
                self._waiting_on = target
        finally:
            sim.active_process = prev_active

    def _throw(self, exc: BaseException) -> None:
        if self._ok is not None:
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
        self._resume(_Resume(self, False, exc))


class AllOf(Event):
    """Waits on several events at once: fires with ``{event: value}`` when
    every child has been processed, and fails with the first child failure
    (a child failing after that is defused)."""

    __slots__ = ("events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for ev in self.events:
            if ev.sim is not sim:
                raise SimulationError("condition mixes simulators")
        for ev in self.events:
            if ev.callbacks is not None:
                ev.callbacks.append(self._on_child)
            elif not ev._ok and self._ok is None:
                ev.defuse()
                self.fail(ev._value)
        self._succeed_if_done()

    def _on_child(self, ev: Event) -> None:
        if ev._ok:
            self._succeed_if_done()
        else:
            ev.defuse()
            if self._ok is None:
                self.fail(ev._value)

    def _succeed_if_done(self) -> None:
        if self._ok is None and all(ev.callbacks is None for ev in self.events):
            self.succeed({ev: ev._value for ev in self.events})


#: The heap is swept of cancelled timeouts once they number more than
#: this and more than half of it: asyncio's rule for its timer heap
#: (``_MIN_SCHEDULED_TIMER_HANDLES``, ``_MIN_CANCELLED_TIMER_HANDLES_FRACTION``).
MIN_CANCELLED_TO_SWEEP = 100


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
        #: cancelled timeouts still scheduled (see :meth:`cancel`)
        self._n_cancelled = 0

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    # -- event factories ---------------------------------------------------
    def event(self, _new=object.__new__) -> Event:
        ev = _new(Event)
        ev.sim = self
        ev.callbacks = []
        ev._value = None
        ev._ok = None
        ev._defused = False
        return ev

    def timeout(self, delay: float, value: Any = None, priority: int = NORMAL,
                _new=object.__new__, _heappush=heapq.heappush) -> Timeout:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        timer = _new(Timeout)
        timer.sim = self
        timer.callbacks = []
        timer._value = value
        timer._ok = True
        timer._defused = False
        timer.delay = delay
        timer.cancelled = False
        self._seq += 1
        if delay == 0.0 and 0 <= priority <= 2:
            self._ready[priority].append((self._seq, timer))
        else:
            self.n_heap_pushes += 1
            _heappush(self._heap, (self._now + delay, priority, self._seq, timer))
        return timer

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn a new process from a generator."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float, priority: int) -> None:
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

    def cancel(self, timer: Timeout) -> None:
        """Take back a pending timeout: its callbacks are dropped and it
        will never run them.  Nothing happens if it was already delivered
        or cancelled.

        The heap entry stays until it pops (a delivery that only updates
        the count of cancelled entries) or until
        cancelled entries outnumber :data:`MIN_CANCELLED_TO_SWEEP` and
        half the heap; then the heap is rebuilt in place without them.
        Entries keep their ``(time, priority, seq)`` keys, so a sweep
        changes no delivery order, only how many no-ops are delivered."""
        if timer.callbacks is None or timer.cancelled:
            return
        timer.cancelled = True
        timer.callbacks = [_uncount]
        self._n_cancelled += 1
        heap = self._heap
        if self._n_cancelled > MIN_CANCELLED_TO_SWEEP and 2 * self._n_cancelled > len(heap):
            live = [entry for entry in heap
                    if not (isinstance(entry[3], Timeout) and entry[3].cancelled)]
            self._n_cancelled -= len(heap) - len(live)
            heap[:] = live
            heapq.heapify(heap)

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
        ``(priority, seq)`` when the head is due now.  :meth:`_drain` inlines a copy.
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
        try:
            when, item = self._pop_next()
        except IndexError:
            raise SimulationError("step() with nothing scheduled") from None
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
        if until is not None and until < self._now:
            raise SimulationError(f"until={until} is in the past (now={self._now})")
        self._running = True
        try:
            self._drain(float("inf") if until is None else until, True)
        finally:
            self._running = False
        if until is not None:
            self._now = until

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
        try:
            return self._drain(before, False)
        finally:
            self._running = False

    def _drain(self, bound: float, inclusive: bool, _heappop=heapq.heappop) -> int:
        """Deliver (and count) what is due before ``bound``, or at it when
        ``inclusive``: :meth:`_pop_next`'s choice inlined, so change both together."""
        heap = self._heap
        r0, r1, r2 = self._ready
        delivered = 0
        try:
            while True:
                if r0:
                    queue, prio = r0, 0
                elif r1:
                    queue, prio = r1, 1
                elif r2:
                    queue, prio = r2, 2
                elif heap and (heap[0][0] < bound or inclusive and heap[0][0] == bound):
                    when, _, _, item = _heappop(heap)
                    self._now = when
                    delivered += 1
                    item._deliver()
                    continue
                else:
                    break
                if heap and heap[0][0] <= self._now and heap[0][1:3] < (prio, queue[0][0]):
                    item = _heappop(heap)[3]
                else:
                    item = queue.popleft()[1]
                delivered += 1
                item._deliver()
        finally:
            self.n_delivered += delivered
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
            while proc._ok is None:
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
