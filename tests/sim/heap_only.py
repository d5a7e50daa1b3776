"""Heap-only scheduling oracle: every schedule is a ``heappush``, none lands
on a ready queue.  Same ``(time, priority, seq)`` total order as the kernel's
scheduler, so the same workload must produce the same trace on both."""

import heapq

import pytest

from repro.sim.kernel import SimulationError, Simulator


def _schedule(self, event, delay, priority):
    if event._scheduled:
        raise SimulationError(f"{event!r} scheduled twice")
    event._scheduled = True
    _schedule_record(self, event, priority, delay)


def _schedule_record(self, record, priority, delay=0.0):
    self._seq += 1
    self.n_heap_pushes += 1
    heapq.heappush(self._heap, (self._now + delay, priority, self._seq, record))


@pytest.fixture
def heap_only_kernel(monkeypatch):
    """Every ``Simulator`` built while this fixture is active is heap-only."""
    monkeypatch.setattr(Simulator, "_schedule", _schedule)
    monkeypatch.setattr(Simulator, "_schedule_record", _schedule_record)
