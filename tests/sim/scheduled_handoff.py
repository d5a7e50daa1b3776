"""Scheduled hand-off oracle: a message arriving for a parked reader wakes
it through a ready-queue event (``Store.try_put``), as every other put
does, instead of resuming it inside the delivery (``Store.deliver``).  One
event more per such arrival, the same order of everything: the same
workload must produce the same trace either way."""

from types import SimpleNamespace

import pytest

from repro.net.sockets import Connection


@pytest.fixture
def scheduled_handoff(monkeypatch):
    """While active, every ``Connection`` enqueues arrivals with the
    scheduled wake; ``.parked_arrivals`` of the returned object counts the
    arrivals that found a reader parked."""
    seen = SimpleNamespace(parked_arrivals=0)

    def _enqueue(self, item):
        if not self._inbox.closed:
            seen.parked_arrivals += bool(self._inbox._getters)
            self._inbox.try_put(item)

    monkeypatch.setattr(Connection, "_enqueue", _enqueue)
    return seen
