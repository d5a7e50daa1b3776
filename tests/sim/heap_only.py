"""Heap-only scheduling oracle: every schedule is a ``heappush``, none lands
on a ready queue.  Same ``(time, priority, seq)`` total order as the kernel's
scheduler, so the same workload must produce the same trace on both.

``Simulator.timeout`` lands its own entry instead of calling ``_schedule``,
so the oracle replaces it too; ``Simulator.event`` schedules nothing."""

import heapq

import pytest

from repro.sim.kernel import NORMAL, SimulationError, Simulator, Timeout


def _schedule(self, event, delay, priority):
    _schedule_record(self, event, priority, delay)


def _schedule_record(self, record, priority, delay=0.0):
    self._seq += 1
    self.n_heap_pushes += 1
    heapq.heappush(self._heap, (self._now + delay, priority, self._seq, record))


def _timeout(self, delay, value=None, priority=NORMAL):
    if delay < 0:
        raise SimulationError(f"negative timeout delay {delay!r}")
    timer = object.__new__(Timeout)
    timer.sim = self
    timer.callbacks = []
    timer._value = value
    timer._ok = True
    timer._defused = False
    timer.delay = delay
    timer.cancelled = False
    _schedule_record(self, timer, priority, delay)
    return timer


@pytest.fixture
def heap_only_kernel(monkeypatch):
    """Every ``Simulator`` built while this fixture is active is heap-only."""
    monkeypatch.setattr(Simulator, "_schedule", _schedule)
    monkeypatch.setattr(Simulator, "_schedule_record", _schedule_record)
    monkeypatch.setattr(Simulator, "timeout", _timeout)
