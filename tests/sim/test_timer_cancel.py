"""``Simulator.cancel``: a cancelled timeout never runs its callbacks; one
that pops is a no-op delivery; once cancelled entries outnumber
``MIN_CANCELLED_TO_SWEEP`` and half the heap, the heap is rebuilt without
them and every other entry keeps its place in the delivery order.

Each test runs on the kernel's scheduler and on the heap-only oracle
(``tests/sim/heap_only.py``), whose heap also holds resume records.
"""

import pytest

from repro.sim.kernel import MIN_CANCELLED_TO_SWEEP, Simulator
from tests.sim.heap_only import heap_only_kernel  # noqa: F401 - fixture


@pytest.fixture(params=["heap-only", "fastpath"])
def sim(request):
    if request.param == "heap-only":
        request.getfixturevalue("heap_only_kernel")
    return Simulator()


def test_a_cancelled_timer_never_calls_back(sim):
    fired = []
    timer = sim.timeout(1.0)
    timer.callbacks.append(lambda ev: fired.append(sim.now))
    sim.run(until=0.5)
    sim.cancel(timer)
    assert timer.cancelled and sim._n_cancelled == 1
    delivered = sim.n_delivered
    sim.run()
    assert fired == []
    assert sim.n_delivered == delivered + 1   # popped: a no-op delivery
    assert sim._n_cancelled == 0 and timer.processed


def test_cancelling_a_delivered_or_cancelled_timer_does_nothing(sim):
    fired = []
    timer = sim.timeout(1.0)
    timer.callbacks.append(lambda ev: fired.append(sim.now))
    sim.run()
    sim.cancel(timer)
    assert fired == [1.0] and not timer.cancelled
    other = sim.timeout(1.0)
    sim.cancel(other)
    sim.cancel(other)
    assert sim._n_cancelled == 1


def test_the_heap_is_swept_once_cancelled_timers_are_the_majority(sim):
    order = []
    timers = []
    for i in range(3 * MIN_CANCELLED_TO_SWEEP):
        timer = sim.timeout(1.0 + (i * 7 % 13) / 10)
        timer.callbacks.append(lambda ev, i=i: order.append(i))
        timers.append(timer)
    keep = set(range(0, len(timers), 3))
    size = len(sim._heap)
    swept = False
    for i, timer in enumerate(timers):
        if i not in keep:
            sim.cancel(timer)
            swept = swept or len(sim._heap) < size
    # 200 of 300 cancelled: the 151st cancel is over 100 and over half the
    # heap, so it swept those 151 out; the 49 cancelled after it remain
    first_sweep = len(timers) // 2 + 1
    assert swept
    assert sim._n_cancelled == len(timers) - len(keep) - first_sweep
    assert len(sim._heap) == len(keep) + sim._n_cancelled
    sim.run()
    assert sim._n_cancelled == 0
    # same order as the uncancelled timers' keys: (time, seq)
    expected = sorted(keep, key=lambda i: (timers[i].delay, i))
    assert order == expected


def test_a_process_waiting_on_a_swept_timer_is_not_woken(sim):
    woke = []

    def sleeper(timer):
        yield timer
        woke.append(sim.now)

    timers = [sim.timeout(5.0) for _ in range(2 * MIN_CANCELLED_TO_SWEEP + 2)]
    sim.process(sleeper(timers[0]))
    sim.run(until=1.0)
    for timer in timers:
        sim.cancel(timer)
    # the waited-on timer went in the sweep; the rest pop as no-ops
    assert all(entry[3] is not timers[0] for entry in sim._heap)
    assert len(sim._heap) == sim._n_cancelled < len(timers)
    sim.run()
    assert woke == []
