"""A policy attempt runs inline in its caller's process, under one budget
timer: no attempt process, no race of the attempt against the timer.

* an attempt that outruns its budget raises ``DeadlineExceeded`` at the
  instant its budget ends, and its channel is discarded, so the late
  reply never reaches the next call;
* a ``kill()`` or a host crash during an attempt ends the caller with
  the daemon's own ``Interrupt``, and the channel goes with it;
* an outer policy's deadline firing inside an inner policy call is the
  outer call's ``DeadlineExceeded``; the inner timer never fires into
  the caller afterwards;
* a reply and the budget timer landing at the same instant leave no
  stray ``Interrupt`` behind, and a disarmed timer revokes a kick it has
  already scheduled;
* the heap-only oracle gives the same trace on a run with expiries;
* a finished attempt cancels its timer, so a thousand pooled calls under
  a long budget leave a heap no larger than twice its live entries;
* ``_call_with_policy`` spawns no process and names no ``any_of``.
"""

import inspect
import math

import pytest

import repro.sim.kernel as kernel
from repro.core.client import ServiceClient, _AttemptBudget
from repro.core.daemon import Request
from repro.core.policy import CallPolicy, DeadlineExceeded
from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.sim import Interrupt
from tests.core.conftest import AceFixture, EchoDaemon
from tests.sim.heap_only import heap_only_kernel  # noqa: F401 - fixture

ONE_TRY = CallPolicy(deadline=2.0, attempt_timeout=0.5, max_attempts=1,
                     breaker_threshold=0)


def _slow(delay, text="late"):
    return ACECmdLine("slowEcho", text=text, delay=delay)


def _with_echo(seed=0):
    ace = AceFixture(seed=seed).boot()
    host = ace.net.make_host("bar", room="hawk")
    echo = ace.add_daemon(EchoDaemon(ace.ctx, "echo1", host, room="hawk"))
    echo.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    return ace, echo


def test_an_attempt_that_outruns_its_budget_ends_at_the_budget(ace_with_echo):
    ace, echo = ace_with_echo
    client = ace.client(principal="late")
    seen = []

    def scenario():
        started = ace.sim.now
        with pytest.raises(DeadlineExceeded, match="0.500s attempt budget"):
            yield from client.call(echo.address, _slow(0.6), policy=ONE_TRY)
        seen.append(ace.sim.now == started + ONE_TRY.attempt_timeout)
        yield ace.sim.timeout(0.5)   # the late reply has been sent by now
        reply = yield from client.call(
            echo.address, ACECmdLine("echo", text="next"), policy=ONE_TRY)
        seen.append(reply["text"])

    ace.run(scenario())
    assert seen == [True, "next"]


class RelayDaemon(EchoDaemon):
    """Relays ``relay`` to another echo as a ``slowEcho`` policy call and
    records whatever ends the call."""

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define("relay", ArgSpec("delay", ArgType.NUMBER))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.target = None
        self.ended = []

    def cmd_relay(self, request: Request):
        try:
            reply = yield from self.client.call(
                self.target, _slow(request.command.float("delay")), policy=ONE_TRY)
        except BaseException as exc:
            self.ended.append((type(exc).__name__, getattr(exc, "cause", None),
                               self.ctx.sim.now))
            raise
        return {"text": reply["text"]}


@pytest.mark.parametrize("fault", ["kill", "host-crash"])
def test_a_stopped_daemon_ends_its_attempt_with_its_own_interrupt(ace_with_echo, fault):
    ace, echo = ace_with_echo
    relay = ace.add_daemon(RelayDaemon(ace.ctx, "relay1", ace.net.make_host("relay")))
    relay.target = echo.address
    relay.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    dialled = []
    connect = relay.client.connect

    def recording_connect(address, **kw):
        conn = yield from connect(address, **kw)
        dialled.append(conn)
        return conn

    relay.client.connect = recording_connect
    caller = ace.client(principal="outer")
    ace.sim.process(caller.call(relay.address, ACECmdLine("relay", delay=0.3),
                                policy=CallPolicy(deadline=5.0, attempt_timeout=5.0,
                                                  max_attempts=1, breaker_threshold=0)))
    ace.sim.run(until=ace.sim.now + 0.1)
    assert not relay.client.pool._idle.get(echo.address)   # the attempt holds it
    fault_at = ace.sim.now
    if fault == "kill":
        relay.kill()
    else:
        relay.host.crash()
    ace.sim.run(until=ace.sim.now + 2.0)
    assert relay.ended == [("Interrupt", "daemon stopped", fault_at)]
    (conn,) = dialled
    assert conn.closed and conn.channel.remote == echo.address


def test_an_outer_deadline_inside_an_inner_call_is_the_outer_deadline(ace_with_echo):
    ace, echo = ace_with_echo
    outer, inner = ace.client(principal="outer"), ace.client(principal="inner")
    roomy = CallPolicy(deadline=3.0, attempt_timeout=1.5, max_attempts=1,
                       breaker_threshold=0)

    def nested_attempt(address, command, **kw):
        # the outer call's attempt is itself a policy call
        return (yield from inner.call(address, command, policy=roomy))

    outer.pool.call = nested_attempt
    seen = []

    def scenario():
        started = ace.sim.now
        try:
            yield from outer.call(echo.address, _slow(1.0), policy=ONE_TRY)
        except DeadlineExceeded as exc:
            seen.append(("outer", str(exc).endswith("0.500s attempt budget"),
                         ace.sim.now == started + ONE_TRY.attempt_timeout))
        # past the inner attempt's budget: its timer was disarmed
        yield ace.sim.timeout(2.0)
        seen.append("quiet")

    ace.run(scenario())
    assert seen == [("outer", True, True), "quiet"]
    assert not any(inner.pool._idle.values())


def _reply_instant(budget):
    """One slowEcho under ``budget`` on a fresh fixture: how it ended, when,
    and whether the caller slept on undisturbed afterwards."""
    ace, echo = _with_echo()
    client = ace.client(principal="edge")
    policy = CallPolicy(deadline=budget, attempt_timeout=budget, max_attempts=1,
                        breaker_threshold=0)
    seen = {}

    def scenario():
        seen["started"] = ace.sim.now
        try:
            yield from client.call(echo.address, _slow(0.25), policy=policy)
            seen["outcome"] = "reply"
        except DeadlineExceeded:
            seen["outcome"] = "deadline"
        seen["ended"] = ace.sim.now
        yield ace.sim.timeout(1.0)
        seen["quiet"] = True

    ace.run(scenario())
    return seen


def test_a_reply_at_the_budget_instant_leaves_no_stray_interrupt():
    free = _reply_instant(10.0)
    assert free["outcome"] == "reply"
    # A budget that ends exactly when the reply resumes the caller.
    budget = free["ended"] - free["started"]
    while free["started"] + budget < free["ended"]:
        budget = math.nextafter(budget, math.inf)
    while free["started"] + budget > free["ended"]:
        budget = math.nextafter(budget, -math.inf)
    assert free["started"] + budget == free["ended"]
    edge = _reply_instant(budget)
    # The timer was scheduled first, so it wins the tie, at that instant;
    # either way the caller sleeps on with no Interrupt.
    assert (edge["outcome"], edge["ended"], edge["quiet"]) == \
        ("deadline", free["ended"], True)


def test_a_disarmed_timer_revokes_the_kick_it_scheduled():
    sim = kernel.Simulator()
    log = []

    def sleeper():
        try:
            yield sim.timeout(1.0)
            log.append(("woke", sim.now))
        except Interrupt as exc:
            log.append(("interrupted", exc.cause))

    proc = sim.process(sleeper())
    sim.run(until=0.5)
    timer = _AttemptBudget(proc)
    timer(None)                       # fires: the kick is scheduled...
    assert timer.kick is not None and not timer.kick.cancelled
    kick = timer.kick
    timer.disarm()                    # ...and revoked before delivery
    assert kick.cancelled and timer.proc is None and timer.kick is None
    sim.run()
    assert log == [("woke", 1.0)]


def _expiry_run():
    """Calls that answer, calls that outrun their budget and retry, and
    calls that run out of deadline, from three concurrent callers."""
    ace, echo = _with_echo(seed=3)
    retrying = CallPolicy(deadline=1.2, attempt_timeout=0.3, max_attempts=3,
                          backoff_base=0.05, backoff_max=0.1, breaker_threshold=0)
    rows = []

    def caller(name, delays):
        client = ace.client(principal=name)
        for i, delay in enumerate(delays):
            started = ace.sim.now
            try:
                reply = yield from client.call(
                    echo.address, _slow(delay, f"{name}{i}"), policy=retrying)
                rows.append((name, i, started, ace.sim.now, reply["text"]))
            except DeadlineExceeded as exc:
                rows.append((name, i, started, ace.sim.now, str(exc)))

    for name, delays in (("a", [0.1, 0.4, 0.05]), ("b", [0.5, 0.2, 0.35]),
                         ("c", [0.02, 0.31, 0.6])):
        ace.sim.process(caller(name, delays))
    ace.sim.run(until=ace.sim.now + 10.0)
    stats = ace.ctx.resilience.stats
    return rows, stats.deadline_expired, stats.retries, ace.sim.counters()


def test_expiries_run_identically_on_the_heap_only_oracle(heap_only_kernel, monkeypatch):
    slow_rows, slow_expired, slow_retries, slow_counters = _expiry_run()
    monkeypatch.undo()
    fast_rows, fast_expired, fast_retries, fast_counters = _expiry_run()
    assert len(slow_rows) == 9
    assert slow_expired > 0 and slow_retries > 0
    assert (slow_rows, slow_expired, slow_retries) == (fast_rows, fast_expired, fast_retries)
    assert slow_counters["events_scheduled"] == fast_counters["events_scheduled"]
    assert slow_counters["ready_hits"] == 0 < fast_counters["ready_hits"]


def test_a_policy_call_spawns_no_process_and_builds_no_any_of(ace_with_echo, monkeypatch):
    ace, echo = ace_with_echo
    client = ace.client(principal="inline")
    built = []

    def counting(cls):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            built.append(cls.__name__)
            init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    def scenario():
        yield from client.call(echo.address, ACECmdLine("echo", text="warm"), policy=ONE_TRY)
        yield ace.sim.timeout(0.01)
        counting(kernel.Process)
        reply = yield from client.call(echo.address, ACECmdLine("echo", text="hot"),
                                       policy=ONE_TRY)
        with pytest.raises(DeadlineExceeded):
            yield from client.call(echo.address, _slow(0.6), policy=ONE_TRY)
        return reply["text"], list(built)

    assert ace.run(scenario()) == ("hot", [])
    source = inspect.getsource(ServiceClient._call_with_policy)
    assert ".process(" not in source and "any_of" not in source


def test_finished_attempts_leave_no_timers_in_the_heap():
    """A finished attempt cancels its budget timer, and the kernel sweeps
    cancelled timers out, so a long policy budget does not pile up."""
    ace, echo = _with_echo(seed=5)
    client = ace.client(principal="many")
    patient = CallPolicy(deadline=60.0, attempt_timeout=30.0, max_attempts=1,
                         breaker_threshold=0)
    heap = ace.sim._heap

    def scenario():
        for i in range(1200):
            reply = yield from client.call(
                echo.address, ACECmdLine("echo", text=f"m{i}"), policy=patient)
            assert reply["text"] == f"m{i}"

    ace.run(scenario())
    # live: neither a cancelled timer nor one whose only callback is a
    # disarmed token (one that has let go of its caller)
    live = sum(1 for _, _, _, event in heap
               if not getattr(event, "cancelled", False) and any(
                   not (isinstance(cb, _AttemptBudget) and cb.proc is None)
                   for cb in event.callbacks or ()))
    counters = ace.ctx.obs.metrics.snapshot("rpc.pool.")
    assert counters["rpc.pool.reuse"] >= 1000   # pooled, not dialled per call
    assert len(heap) <= 2 * live + 100, (len(heap), live)
