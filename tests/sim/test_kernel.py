"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    Interrupt,
    SimulationError,
    Simulator,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(5.0)
        seen.append(sim.now)
        yield sim.timeout(2.5)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [5.0, 7.5]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_run_until_stops_and_advances_clock():
    sim = Simulator()
    fired = []

    def proc():
        yield sim.timeout(10.0)
        fired.append(True)

    sim.process(proc())
    sim.run(until=5.0)
    assert fired == []
    assert sim.now == 5.0
    sim.run(until=20.0)
    assert fired == [True]
    assert sim.now == 20.0


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimulationError):
        sim.run(until=1.0)


def test_process_return_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 42

    assert sim.run_process(proc()) == 42


def test_process_exception_propagates():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError, match="boom"):
        sim.run_process(proc())


def test_run_process_deadlock_detected():
    sim = Simulator()

    def proc():
        yield sim.event()  # never triggered

    with pytest.raises(SimulationError, match="deadlock"):
        sim.run_process(proc())


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        value = yield ev
        got.append(value)

    def firer():
        yield sim.timeout(3.0)
        ev.succeed("hello")

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert got == ["hello"]


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def waiter():
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    def firer():
        yield sim.timeout(1.0)
        ev.fail(RuntimeError("bad"))

    sim.process(waiter())
    sim.process(firer())
    sim.run()
    assert caught == ["bad"]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_succeed_now_runs_callbacks_in_the_callers_frame():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter():
        got.append((yield ev))
        yield sim.event()  # stay parked: finishing would schedule an event

    sim.process(waiter())
    sim.run()
    before = sim.counters()["events_scheduled"]
    ev.succeed_now("direct")
    assert got == ["direct"]                  # before any run()
    assert ev.triggered and ev.processed and ev.ok
    assert sim.counters()["events_scheduled"] == before
    with pytest.raises(SimulationError):
        ev.succeed_now("again")
    with pytest.raises(SimulationError):
        ev.succeed("again")


def test_yield_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    sim.run()  # deliver it with no waiters
    got = []

    def late_waiter():
        value = yield ev
        got.append(value)

    sim.process(late_waiter())
    sim.run()
    assert got == ["early"]


def test_yield_non_event_raises_inside_process():
    sim = Simulator()
    caught = []

    def proc():
        try:
            yield 42
        except SimulationError as exc:
            caught.append("yes")
            if False:
                yield

    sim.process(proc())
    sim.run()
    assert caught == ["yes"]


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(100.0)
            log.append("slept full")
        except Interrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(2.0)
        proc.interrupt("wake up")

    sim.process(interrupter())
    sim.run()
    assert log == [("interrupted", 2.0, "wake up")]


def test_interrupt_finished_process_is_noop():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)

    proc = sim.process(quick())
    sim.run()
    proc.interrupt()  # should not raise
    sim.run()


def test_interrupted_process_can_rewait():
    sim = Simulator()
    log = []

    def sleeper():
        tmo = sim.timeout(10.0)
        try:
            yield tmo
        except Interrupt:
            log.append(("intr", sim.now))
            yield tmo  # original timeout still pending
            log.append(("woke", sim.now))

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(3.0)
        proc.interrupt()

    sim.process(interrupter())
    sim.run()
    assert log == [("intr", 3.0), ("woke", 10.0)]


def test_all_of_waits_for_all():
    sim = Simulator()

    def proc():
        a = sim.timeout(1.0, value="a")
        b = sim.timeout(5.0, value="b")
        result = yield sim.all_of([a, b])
        return (sim.now, sorted(result.values()))

    assert sim.run_process(proc()) == (5.0, ["a", "b"])


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def proc():
        result = yield sim.all_of([])
        return result

    assert sim.run_process(proc()) == {}


def test_determinism_same_order_at_equal_time():
    def build():
        sim = Simulator()
        order = []

        def worker(tag, delay):
            yield sim.timeout(delay)
            order.append(tag)

        for tag in "abcde":
            sim.process(worker(tag, 1.0))
        sim.run()
        return order

    assert build() == build() == list("abcde")


def test_process_is_alive():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)

    p = sim.process(proc())
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_interrupt_returns_a_kick_that_can_be_revoked():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(2.0)
            log.append(("woke", sim.now))
        except Interrupt as exc:
            log.append(("interrupted", exc.cause, sim.now))

    p = sim.process(sleeper())
    sim.run(until=1.0)
    kick = p.interrupt("revoked")
    kick.cancelled = True
    sim.run()
    assert log == [("woke", 2.0)]
    assert p.interrupt("too late") is None   # finished: nothing scheduled


def test_a_finished_process_is_freed_without_the_collector():
    import gc
    import weakref

    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "done"

    p = sim.process(proc())
    generator = weakref.ref(p.generator)
    sim.run()
    assert p.value == "done" and generator() is not None
    gc.disable()
    try:
        del p
        assert generator() is None   # no cycle left for the collector
    finally:
        gc.enable()


def test_a_failed_process_is_freed_without_the_collector():
    import gc
    import weakref

    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        raise ValueError("boom")

    p = sim.process(proc())
    p.defuse()
    generator = weakref.ref(p.generator)
    sim.run()
    assert isinstance(p.value, ValueError) and generator() is not None
    # the traceback keeps the generator's own frame, for whoever reads it
    assert p.value.__traceback__.tb_frame.f_code is proc.__code__
    gc.disable()
    try:
        del p
        assert generator() is None   # the traceback holds no frame that holds it
    finally:
        gc.enable()
