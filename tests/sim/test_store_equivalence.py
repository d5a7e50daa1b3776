"""``Store`` against the three-deque oracle.

The store allocates its containers on first use; whatever the sequence
of operations, a caller must see what an eager three-deque store shows:
the same return values, the same ``QueueClosed`` failures, the same
lengths, and every event delivered in the order it was triggered.
``deliver`` is ``try_put`` from kernel context — called with nothing
pending, as its contract requires — minus the parked getter's wake event.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Simulator, Store

from tests.sim.three_deque_store import ThreeDequeStore

_ITEM = st.integers(0, 5)
_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["put", "try_put", "deliver"]), _ITEM),
    st.tuples(st.sampled_from(["get", "try_get", "close", "run"])),
), max_size=40)


@pytest.mark.parametrize("capacity", [None, 1, 3])
@pytest.mark.parametrize("cls", [Store])
@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_any_sequence_matches_the_oracle(cls, capacity, ops):
    sim = Simulator()
    store = cls(sim, capacity)
    oracle = ThreeDequeStore(capacity)
    delivered = []
    wakes_saved = 0

    def watch(who, event):
        event.callbacks.append(lambda ev: delivered.append(
            (who, ev.value if ev.ok else type(ev.value))))

    for who, (op, *args) in enumerate(ops):
        if op == "put":
            watch(who, store.put(*args))
            oracle.put(*args, who)
        elif op == "get":
            watch(who, store.get())
            oracle.get(who)
        elif op == "try_put":
            assert store.try_put(*args) == oracle.try_put(*args)
        elif op == "deliver":
            sim.run()  # a delivery timeout's callback finds nothing URGENT pending
            wakes_saved += bool(oracle.getters)
            assert store.deliver(*args) == oracle.try_put(*args)
            assert delivered == oracle.fired  # the getter ran inside the call
        elif op == "try_get":
            assert store.try_get() == oracle.try_get()
        elif op == "close":
            store.close()
            oracle.close()
        else:
            sim.run()
            assert delivered == oracle.fired
        assert len(store) == len(oracle.items)
        assert store.closed == oracle.closed
    sim.run()
    assert delivered == oracle.fired
    assert sim.counters()["events_scheduled"] == len(oracle.fired) - wakes_saved
