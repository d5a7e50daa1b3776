"""Edge coverage for the kernel's ready-queue fast path (E24).

Every test runs on both the kernel's scheduler and the heap-only oracle
(``tests/sim/heap_only.py``) and asserts the *same observable behavior*,
because the ready queues' contract is "bit-identical total order, just
cheaper".  The tricky spots:
interrupts racing a same-tick success, conditions over mixed
processed/pending children, ``run(until=...)`` stopping with ready entries
due, and resuming from already-processed yields (the relay-allocation
case) including failures and cancellation.
"""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator
from tests.sim.heap_only import heap_only_kernel  # noqa: F401 - fixture


@pytest.fixture(params=["heap-only", "fastpath"])
def sim(request):
    if request.param == "heap-only":
        request.getfixturevalue("heap_only_kernel")
    return Simulator()


@pytest.fixture
def both(heap_only_kernel, monkeypatch):
    """``both(build)``: run ``build(sim)`` on the heap-only oracle, then on
    the kernel's own scheduler; returns both outcomes in that order."""
    def run(build):
        slow = build(Simulator())
        monkeypatch.undo()
        return slow, build(Simulator())
    return run


# ---------------------------------------------------------------------------
# Interrupt racing a same-tick success
# ---------------------------------------------------------------------------

def _race(sim, interrupt_first):
    log = []

    def sleeper():
        gate = sim.event()
        sim.process(controller(gate))
        try:
            got = yield gate
            log.append(("value", got, sim.now))
        except Interrupt as intr:
            log.append(("interrupt", intr.cause, sim.now))
            # The defused success must still be observable afterwards.
            log.append(("late", gate.triggered, gate.value))

    def controller(gate):
        yield sim.timeout(1.0)
        if interrupt_first:
            target.interrupt("bump")
            gate.succeed("payload")
        else:
            gate.succeed("payload")
            target.interrupt("bump")

    target = sim.process(sleeper())
    sim.run()
    return log


@pytest.mark.parametrize("interrupt_first", [True, False])
def test_interrupt_races_same_tick_success(interrupt_first, both):
    slow, fast = both(lambda s: _race(s, interrupt_first))
    assert slow == fast
    # The kick is URGENT, the success NORMAL: the interrupt wins the tick
    # regardless of call order, and the success is still visible after.
    assert slow[0] == ("interrupt", "bump", 1.0)
    assert slow[1] == ("late", True, "payload")


def test_interrupt_cancels_pending_resume(sim):
    """An interrupt delivered while a resume from an *already processed*
    yield is still queued must cancel that resume, not double-resume.

    Sequencing: the poker schedules the kick *before* the waiter's step
    that yields the processed event, so at the same (time, URGENT) tick the
    kick's lower seq delivers it between the resume being queued and the
    resume being delivered.
    """
    log = []
    done = sim.event()
    done.succeed("early")
    sim.run(until=0.0)  # done is processed before anyone waits on it
    assert done.processed
    trigger = sim.event()

    def waiter():
        yield trigger
        try:
            got = yield done  # processed: queues a same-tick resume
            log.append(("value", got))
        except Interrupt as intr:
            log.append(("interrupt", intr.cause))
        got = yield sim.timeout(1.0, "after")
        log.append(("after", got, sim.now))

    proc = sim.process(waiter())

    def poker():
        # Both scheduled in one step: trigger delivery (seq n) resumes the
        # waiter, which queues the `done` resume (seq n+2); the kick
        # (seq n+1) lands between them and must cancel it.
        from repro.sim import URGENT

        trigger.succeed(priority=URGENT)
        proc.interrupt("now")
        return
        yield

    sim.process(poker())
    sim.run()
    assert log == [("interrupt", "now"), ("after", "after", 1.0)]


def test_interrupt_after_completion_is_noop(sim):
    def quick():
        return "done"
        yield

    proc = sim.run_process(quick())
    assert proc == "done"


# ---------------------------------------------------------------------------
# Already-processed yields (the relay case)
# ---------------------------------------------------------------------------

def _processed_yield(sim):
    log = []
    ok = sim.event()
    ok.succeed(41)
    bad = sim.event()
    bad.fail(RuntimeError("stale failure"))
    bad.defuse()
    sim.run(until=0.0)
    assert ok.processed and bad.processed

    def consumer():
        got = yield ok          # success resume, no relay allocation
        log.append(("ok", got, sim.now))
        try:
            yield bad           # failure resume must re-raise
        except RuntimeError as exc:
            log.append(("bad", str(exc), sim.now))
        return "end"

    log.append(("ret", sim.run_process(consumer())))
    return log


def test_yield_already_processed_event(both):
    slow, fast = both(_processed_yield)
    assert slow == fast == [
        ("ok", 41, 0.0),
        ("bad", "stale failure", 0.0),
        ("ret", "end"),
    ]


def test_yield_processed_failure_nobody_catches(sim):
    """A re-raised processed failure that escapes the process fails the
    process event — identically on both paths."""
    boom = sim.event()
    boom.fail(ValueError("unhandled"))
    boom.defuse()
    sim.run(until=0.0)

    def victim():
        yield boom

    with pytest.raises(ValueError, match="unhandled"):
        sim.run_process(victim())


# ---------------------------------------------------------------------------
# Conditions over mixed processed/pending children
# ---------------------------------------------------------------------------

def _mixed_all(sim):
    early = sim.event()
    early.succeed(1)
    sim.run(until=0.0)
    late = sim.timeout(5.0, 2)

    def waiter():
        got = yield sim.all_of([early, late])
        return [got[early], got[late]]

    value = sim.run_process(waiter())
    return value, sim.now


def test_all_of_mixed_processed_and_pending(both):
    slow, fast = both(_mixed_all)
    assert slow == fast == ([1, 2], 5.0)


# ---------------------------------------------------------------------------
# run(until=...) with ready entries due
# ---------------------------------------------------------------------------

def _until_boundary(sim):
    log = []
    sim.timeout(2.0).callbacks.append(lambda ev: log.append(("heap", sim.now)))

    def chatter():
        for i in range(3):
            yield sim.timeout(0)  # zero-delay: ready queue
            log.append(("zero", i, sim.now))

    sim.process(chatter())
    sim.run(until=1.0)
    log.append(("stopped", sim.now))
    sim.run(until=3.0)
    log.append(("done", sim.now))
    return log


def test_run_until_stops_between_ready_and_heap(both):
    slow, fast = both(_until_boundary)
    assert slow == fast
    # All zero-delay work at t=0 drains before until=1.0 stops the run;
    # the t=2.0 heap entry only fires in the second run.
    assert slow == [
        ("zero", 0, 0.0), ("zero", 1, 0.0), ("zero", 2, 0.0),
        ("stopped", 1.0),
        ("heap", 2.0),
        ("done", 3.0),
    ]


def test_run_until_in_past_raises(sim):
    sim.timeout(5.0)
    sim.run(until=4.0)
    with pytest.raises(SimulationError, match="in the past"):
        sim.run(until=1.0)


def test_ready_entries_preserve_fifo_and_priority(sim):
    """Same-tick deliveries honor (priority, seq) exactly like the heap."""
    from repro.sim import LOW, NORMAL, URGENT

    log = []
    for tag, prio in [("n1", NORMAL), ("u1", URGENT), ("l1", LOW),
                      ("n2", NORMAL), ("u2", URGENT)]:
        sim.event().succeed(tag, priority=prio).callbacks.append(
            (lambda t: lambda ev: log.append(t))(tag))
    sim.run(until=0.0)
    assert log == ["u1", "u2", "n1", "n2", "l1"]


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def _counter_workload(sim):
    def worker(i):
        ev = sim.event()
        ev.succeed(i)
        got = yield ev
        yield sim.timeout(0)
        yield sim.timeout(0.5)
        return got

    def driver():
        total = 0
        for i in range(10):
            total += yield sim.process(worker(i))
        return total

    assert sim.run_process(driver()) == 45
    return sim.counters()


def test_counters_account_for_every_schedule(both):
    slow, fast = both(_counter_workload)

    # Same logical work on both paths.
    assert slow["events_scheduled"] == fast["events_scheduled"]
    assert slow["events_delivered"] == fast["events_delivered"]
    # Every schedule lands in exactly one of heap / ready queue.
    for c in (slow, fast):
        assert c["events_scheduled"] == c["heap_pushes"] + c["ready_hits"]
    # The heap-only oracle never touches the ready queue.
    assert slow["ready_hits"] == 0
    assert slow["relays_avoided"] == 0
    # The kernel routed all zero-delay work off the heap: only the ten
    # 0.5s timeouts are genuine future entries.
    assert fast["heap_pushes"] == 10
    assert fast["ready_hits"] > 0
    # One bootstrap record per spawned process (10 workers + the driver);
    # the yielded events here are triggered-but-undelivered, so they take
    # the ordinary callback path, not the processed-yield resume.
    assert fast["relays_avoided"] == 11



# ---------------------------------------------------------------------------
# The two copies of the order rule: step() pops through _pop_next, run()
# and run_window() through _drain's inlined copy
# ---------------------------------------------------------------------------

def _driven_trace(sim, how):
    """Timers due together at three priorities, zero-delay wakes at every
    priority after each timer, and an interrupt; logged in delivery order
    while ``how`` drives the kernel."""
    from repro.sim import LOW, NORMAL, URGENT

    log = []

    def sleeper(tag, prio, delays):
        for d in delays:
            try:
                yield sim.timeout(d, priority=prio)
            except Interrupt as intr:
                log.append((sim.now, tag, "interrupted", intr.cause))
                continue
            log.append((sim.now, tag, d))
            for p in (LOW, URGENT, NORMAL):
                sim.event().succeed(p, priority=p).callbacks.append(
                    lambda ev, tag=tag: log.append((sim.now, tag, "prio", ev.value)))

    procs = [sim.process(sleeper(tag, prio, delays)) for tag, prio, delays in [
        ("a", NORMAL, [1, 0, 1, 0.5]),
        ("b", URGENT, [1, 1, 0, 0.5]),
        ("c", LOW, [0, 2, 0.5, 0]),
        ("d", NORMAL, [2, 0.5, 0, 0]),
    ]]

    def poker():
        yield sim.timeout(2)
        procs[0].interrupt("poke")

    sim.process(poker())
    if how == "run":
        sim.run()
    elif how == "step":
        while sim.peek() != float("inf"):
            sim.step()
    else:
        before = 0.25
        while sim.peek() != float("inf"):
            sim.run_window(before)
            before += 0.25
    return log, sim.counters()


@pytest.mark.parametrize("how", ["run", "step", "run_window"])
def test_run_step_and_window_deliver_in_one_order(how, both):
    slow, fast = both(lambda sim: _driven_trace(sim, how))
    reference = _driven_trace(Simulator(), "run")
    assert fast == reference
    assert slow[0] == reference[0]
    assert slow[1]["events_delivered"] == reference[1]["events_delivered"]
    assert len(reference[0]) == 61
