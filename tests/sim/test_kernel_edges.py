"""Edge coverage for kernel composition and stepping."""

import pytest

from repro.sim import SimulationError, Simulator


def test_peek_and_step():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(3.0)
    assert sim.peek() == 3.0
    sim.step()
    assert sim.now == 3.0


def test_step_with_nothing_scheduled_is_named():
    sim = Simulator()
    with pytest.raises(SimulationError, match=r"step\(\) with nothing scheduled"):
        sim.step()
    sim.timeout(1.0)
    sim.step()
    with pytest.raises(SimulationError, match=r"step\(\) with nothing scheduled"):
        sim.step()
    assert sim.now == 1.0 and sim.counters()["events_delivered"] == 1


def test_all_of_fails_fast():
    sim = Simulator()
    bad = sim.event()
    caught = []

    def proc():
        try:
            yield sim.all_of([bad, sim.timeout(100.0)])
        except ValueError:
            caught.append(sim.now)

    def failer():
        yield sim.timeout(2.0)
        bad.fail(ValueError("nope"))

    sim.process(proc())
    sim.process(failer())
    sim.run()
    assert caught == [2.0]


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_run_reentrancy_guard():
    sim = Simulator()
    errors = []

    def proc():
        try:
            sim.run(until=5.0)
        except SimulationError as exc:
            errors.append("reentrant" in str(exc))
        yield sim.timeout(0.1)

    sim.process(proc())
    sim.run()
    assert errors == [True]


def test_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")


def test_cross_simulator_event_rejected():
    sim1, sim2 = Simulator(), Simulator()
    foreign = sim2.event()
    caught = []

    def proc():
        try:
            yield foreign
        except SimulationError:
            caught.append(True)
            if False:
                yield

    sim1.process(proc())
    sim1.run()
    assert caught == [True]


def test_unhandled_event_failure_crashes_loudly():
    sim = Simulator()
    ev = sim.event()
    ev.fail(RuntimeError("nobody listening"))
    with pytest.raises(RuntimeError, match="nobody listening"):
        sim.run()


def test_defused_failure_is_silent():
    sim = Simulator()
    ev = sim.event()
    ev.defuse()
    ev.fail(RuntimeError("suppressed"))
    sim.run()  # no raise
