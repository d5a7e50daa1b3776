"""Unit tests for simulated hosts."""

import pytest

from repro.net import Host, HostDownError
from repro.sim import Simulator


def make_host(sim, **kw):
    kw.setdefault("bogomips", 800.0)
    return Host(sim, "bar", **kw)


def test_execute_duration_scales_with_bogomips():
    sim = Simulator()
    fast = Host(sim, "fast", bogomips=800.0)
    slow = Host(sim, "slow", bogomips=400.0)
    done = {}

    def work(host, tag):
        yield from host.execute(800.0)  # 1 s on the fast host
        done[tag] = sim.now

    sim.process(work(fast, "fast"))
    sim.process(work(slow, "slow"))
    sim.run()
    assert done["fast"] == pytest.approx(1.0)
    assert done["slow"] == pytest.approx(2.0)


def test_single_core_serializes_work():
    sim = Simulator()
    host = make_host(sim, cores=1)
    done = []

    def work(tag):
        yield from host.execute(800.0)
        done.append((tag, sim.now))

    sim.process(work("a"))
    sim.process(work("b"))
    sim.run()
    assert done == [("a", pytest.approx(1.0)), ("b", pytest.approx(2.0))]


def test_two_cores_run_concurrently():
    sim = Simulator()
    host = make_host(sim, cores=2)
    done = []

    def work(tag):
        yield from host.execute(800.0)
        done.append((tag, sim.now))

    sim.process(work("a"))
    sim.process(work("b"))
    sim.run()
    assert [t for _, t in done] == [pytest.approx(1.0), pytest.approx(1.0)]


def test_crash_interrupts_execution_queue():
    sim = Simulator()
    host = make_host(sim)
    with pytest.raises(ValueError):
        Host(sim, "bad", bogomips=0)
    host.crash()
    assert not host.up

    def work():
        yield from host.execute(100.0)

    with pytest.raises(HostDownError):
        sim.run_process(work())


def test_crash_mid_execution_raises_on_completion():
    sim = Simulator()
    host = make_host(sim)
    outcome = []

    def work():
        try:
            yield from host.execute(8000.0)  # 10 s
            outcome.append("done")
        except HostDownError:
            outcome.append(("crashed-at", sim.now))

    def killer():
        yield sim.timeout(2.0)
        host.crash()

    sim.process(work())
    sim.process(killer())
    sim.run()
    assert outcome == [("crashed-at", 10.0)]


def test_restart_resets_and_allows_work():
    sim = Simulator()
    host = make_host(sim)
    host.crash()
    host.restart()
    assert host.up

    def work():
        yield from host.execute(800.0)
        return sim.now

    assert sim.run_process(work()) == pytest.approx(1.0)


def test_utilization_tracks_busy_fraction():
    sim = Simulator()
    host = make_host(sim)

    def work():
        yield from host.execute(800.0)  # busy 1s
        yield sim.timeout(3.0)          # idle 3s

    sim.process(work())
    sim.run()
    assert host.utilization() == pytest.approx(0.25)


def test_utilization_reset():
    sim = Simulator()
    host = make_host(sim)

    def work():
        yield from host.execute(800.0)

    sim.process(work())
    sim.run()
    host.reset_utilization()

    def idle():
        yield sim.timeout(1.0)

    sim.process(idle())
    sim.run()
    assert host.utilization() == pytest.approx(0.0)


def test_run_queue_length():
    sim = Simulator()
    host = make_host(sim)

    def work():
        yield from host.execute(8000.0)

    sim.process(work())
    sim.process(work())
    sim.process(work())
    sim.run(until=1.0)
    assert host.run_queue_length() == 2


def test_epoch_bumps_on_crash():
    sim = Simulator()
    host = make_host(sim)
    e0 = host.epoch
    host.crash()
    host.restart()
    assert host.epoch == e0 + 1


# ---------------------------------------------------------------------------
# A process interrupted while it waits for a core must not take the core
# with it (ACEDaemon.kill under load; a policy attempt cut at its deadline)
# ---------------------------------------------------------------------------

def _worker(host, seconds, done, tag):
    yield from host.execute(seconds * host.bogomips)
    done.append((tag, host.sim.now))


def _late(sim, host, done):
    """Asks for the core at t = 2, for one second."""
    yield sim.timeout(2.0)
    yield from _worker(host, 1.0, done, "c")


def test_interrupt_while_queued_for_the_core_gives_the_place_back():
    sim = Simulator()
    host = make_host(sim, cores=1)
    done = []
    sim.process(_worker(host, 1.0, done, "a"))
    queued = sim.process(_worker(host, 1.0, done, "b"))
    queued.defuse()

    def killer():
        yield sim.timeout(0.5)
        assert host.run_queue_length() == 1
        queued.interrupt("killed")

    sim.process(killer())
    sim.process(_late(sim, host, done))     # a finished at t = 1
    sim.run(until=10.0)
    assert done == [("a", pytest.approx(1.0)), ("c", pytest.approx(3.0))]
    assert (host.cpu.count, host.cpu.queued) == (0, 0)
    assert host.utilization() == pytest.approx(0.2)   # a's and c's second


def test_interrupt_between_grant_and_delivery_frees_the_core():
    sim = Simulator()
    host = make_host(sim, cores=1)
    done = []
    procs = {}

    def holder():
        # Holds the core directly so the interrupt and the release can be
        # issued in one step: the kick is delivered first, while b's grant
        # is triggered but not yet delivered.
        slot = host.cpu.request()
        yield sim.timeout(1.0)
        procs["b"].interrupt("killed")
        host.cpu.release(slot)
        assert host.cpu.count == 1 and procs["b"].is_alive

    sim.process(holder())
    procs["b"] = sim.process(_worker(host, 1.0, done, "b"))
    procs["b"].defuse()
    sim.process(_late(sim, host, done))
    sim.run(until=10.0)
    assert done == [("c", pytest.approx(3.0))]
    assert (host.cpu.count, host.cpu.queued) == (0, 0)


def test_free_core_is_taken_without_an_event():
    sim = Simulator()
    host = make_host(sim, cores=1)
    done = []
    sim.process(_worker(host, 1.0, done, "a"))
    sim.run()
    # bootstrap + the work timeout + the process's own completion
    assert sim.counters()["events_scheduled"] == 3
    assert done == [("a", pytest.approx(1.0))]
