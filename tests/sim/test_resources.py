"""Unit tests for Resource / Container."""

import pytest

from repro.sim import Container, Resource, SimulationError, Simulator


def test_resource_grants_up_to_capacity():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    granted = []

    def worker(tag):
        req = res.request()
        yield req
        granted.append((tag, sim.now))
        yield sim.timeout(10.0)
        res.release(req)

    for tag in "abc":
        sim.process(worker(tag))
    sim.run()
    assert granted == [("a", 0.0), ("b", 0.0), ("c", 10.0)]


def test_resource_release_wakes_fifo():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(tag, hold):
        req = res.request()
        yield req
        order.append(tag)
        yield sim.timeout(hold)
        res.release(req)

    sim.process(worker("a", 1.0))
    sim.process(worker("b", 1.0))
    sim.process(worker("c", 1.0))
    sim.run()
    assert order == ["a", "b", "c"]


def test_resource_counts():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    assert res.count == 1
    assert res.queued == 1
    res.release(r1)
    assert res.count == 1  # r2 promoted
    res.release(r2)
    assert res.count == 0


def test_release_queued_request_cancels_it():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    r1 = res.request()
    r2 = res.request()
    res.release(r2)  # cancel while queued
    assert res.queued == 0
    res.release(r1)
    assert res.count == 0


def test_try_acquire_takes_a_free_slot_without_an_event():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.try_acquire()
    assert held is not None and held.triggered and held.processed
    assert (res.count, res.queued) == (1, 0)
    assert res.try_acquire() is None          # busy: nothing is queued
    assert (res.count, res.queued) == (1, 0)
    assert sim.counters()["events_scheduled"] == 0
    waiter = res.request()                    # request() still queues...
    res.release(held)                         # ...and release() promotes it
    assert res.count == 1 and waiter.triggered
    res.release(waiter)
    assert res.count == 0


def test_release_unknown_request_raises():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res2 = Resource(sim, capacity=1)
    req = res2.request()
    with pytest.raises(SimulationError):
        res.release(req)


def test_bad_capacity_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_container_put_get():
    sim = Simulator()
    tank = Container(sim, capacity=100.0, init=50.0)

    def proc():
        yield tank.get(20.0)
        yield tank.put(5.0)
        return tank.level

    assert sim.run_process(proc()) == 35.0


def test_container_get_blocks_until_level():
    sim = Simulator()
    tank = Container(sim, capacity=10.0, init=0.0)
    log = []

    def getter():
        yield tank.get(5.0)
        log.append(("got", sim.now))

    def filler():
        yield sim.timeout(2.0)
        yield tank.put(3.0)
        yield sim.timeout(2.0)
        yield tank.put(3.0)

    sim.process(getter())
    sim.process(filler())
    sim.run()
    assert log == [("got", 4.0)]
    assert tank.level == 1.0


def test_container_put_blocks_at_capacity():
    sim = Simulator()
    tank = Container(sim, capacity=10.0, init=9.0)
    log = []

    def putter():
        yield tank.put(5.0)
        log.append(("put", sim.now))

    def drainer():
        yield sim.timeout(3.0)
        yield tank.get(6.0)

    sim.process(putter())
    sim.process(drainer())
    sim.run()
    assert log == [("put", 3.0)]
    assert tank.level == 8.0


def test_container_try_get():
    sim = Simulator()
    tank = Container(sim, capacity=10.0, init=4.0)
    assert tank.try_get(3.0) is True
    assert tank.try_get(3.0) is False
    assert tank.level == 1.0


def test_container_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Container(sim, capacity=0.0)
    with pytest.raises(SimulationError):
        Container(sim, capacity=5.0, init=6.0)
    tank = Container(sim, capacity=5.0)
    with pytest.raises(SimulationError):
        tank.get(6.0)
    with pytest.raises(SimulationError):
        tank.put(-1.0)
