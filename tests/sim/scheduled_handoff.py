"""Scheduled hand-off oracle: a message arriving for a parked reader wakes
it through a ready-queue event (``Store.try_put``), as every other put
does, instead of resuming it inside the delivery (``Store.deliver``).  One
event more per such arrival, the same order of everything: the same
workload must produce the same trace either way."""

from types import SimpleNamespace

import pytest

from repro.sim import Store


@pytest.fixture
def scheduled_handoff(monkeypatch):
    """While active, every arrival a connection's inbox takes (the only
    caller of ``Store.deliver``) is put with the scheduled wake;
    ``.parked_arrivals`` of the returned object counts the arrivals that
    found a reader parked."""
    seen = SimpleNamespace(parked_arrivals=0)

    def deliver(self, item):
        seen.parked_arrivals += bool(self._getters)
        return self.try_put(item)

    monkeypatch.setattr(Store, "deliver", deliver)
    return seen
