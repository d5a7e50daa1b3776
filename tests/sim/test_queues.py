"""Unit tests for Store / PriorityStore."""

import pytest

from repro.sim import PriorityStore, QueueClosed, Simulator, Store


def test_put_then_get_fifo():
    sim = Simulator()
    store = Store(sim)

    def proc():
        yield store.put("a")
        yield store.put("b")
        first = yield store.get()
        second = yield store.get()
        return [first, second]

    assert sim.run_process(proc()) == ["a", "b"]


def test_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter():
        item = yield store.get()
        got.append((item, sim.now))

    def putter():
        yield sim.timeout(4.0)
        yield store.put("x")

    sim.process(getter())
    sim.process(putter())
    sim.run()
    assert got == [("x", 4.0)]


def test_multiple_getters_served_in_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter(tag):
        item = yield store.get()
        got.append((tag, item))

    def putter():
        yield sim.timeout(1.0)
        yield store.put(1)
        yield store.put(2)

    sim.process(getter("g1"))
    sim.process(getter("g2"))
    sim.process(putter())
    sim.run()
    assert got == [("g1", 1), ("g2", 2)]


def test_capacity_blocks_putter():
    sim = Simulator()
    store = Store(sim, capacity=1)
    log = []

    def putter():
        yield store.put("a")
        log.append(("put-a", sim.now))
        yield store.put("b")
        log.append(("put-b", sim.now))

    def getter():
        yield sim.timeout(5.0)
        item = yield store.get()
        log.append(("got", item, sim.now))

    sim.process(putter())
    sim.process(getter())
    sim.run()
    assert log == [("put-a", 0.0), ("got", "a", 5.0), ("put-b", 5.0)]


def test_try_put_try_get():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.try_put("a") is True
    assert store.try_put("b") is False
    found, item = store.try_get()
    assert (found, item) == (True, "a")
    found, _ = store.try_get()
    assert found is False


def test_deliver_resumes_a_parked_getter_in_place():
    sim = Simulator()
    store = Store(sim)
    got = []

    def reader():
        while True:
            got.append((yield store.get()))

    sim.process(reader())
    sim.run()
    scheduled = sim.counters()["events_scheduled"]
    assert store.deliver("a") is True
    # The reader ran inside the call and is parked on its next get().
    assert got == ["a"] and len(store) == 0
    assert sim.counters()["events_scheduled"] == scheduled


def test_deliver_without_a_getter_is_try_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    assert store.deliver("a") is True and len(store) == 1
    assert store.deliver("b") is False        # at capacity
    store.close()
    assert store.deliver("c") is False        # closed
    assert sim.counters()["events_scheduled"] == 0


def test_close_fails_pending_getters():
    sim = Simulator()
    store = Store(sim, name="q")
    outcome = []

    def getter():
        try:
            yield store.get()
        except QueueClosed:
            outcome.append("closed")

    def closer():
        yield sim.timeout(1.0)
        store.close()

    sim.process(getter())
    sim.process(closer())
    sim.run()
    assert outcome == ["closed"]
    assert store.closed


def test_put_after_close_fails():
    sim = Simulator()
    store = Store(sim)
    store.close()

    def proc():
        with pytest.raises(QueueClosed):
            yield store.put("x")

    sim.run_process(proc())
    assert store.try_put("x") is False


def test_priority_store_orders_items():
    sim = Simulator()
    store = PriorityStore(sim)

    def proc():
        for value in [5, 1, 3]:
            yield store.put(value)
        out = []
        for _ in range(3):
            out.append((yield store.get()))
        return out

    assert sim.run_process(proc()) == [1, 3, 5]


def test_priority_store_stable_on_ties():
    sim = Simulator()
    store = PriorityStore(sim)
    a = (1, "first")
    b = (1, "second")

    def proc():
        yield store.put(a)
        yield store.put(b)
        return [(yield store.get()), (yield store.get())]

    assert sim.run_process(proc()) == [a, b]


def test_priority_store_serves_waiting_getter():
    sim = Simulator()
    store = PriorityStore(sim)
    got = []

    def getter():
        got.append((yield store.get()))

    def putter():
        yield sim.timeout(1.0)
        yield store.put(9)

    sim.process(getter())
    sim.process(putter())
    sim.run()
    assert got == [9]


def test_len_reflects_buffered_items():
    sim = Simulator()
    store = Store(sim)
    store.try_put(1)
    store.try_put(2)
    assert len(store) == 2
