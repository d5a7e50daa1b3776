"""Unit tests for Resource."""

import pytest

from repro.sim import Resource, SimulationError, Simulator


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

