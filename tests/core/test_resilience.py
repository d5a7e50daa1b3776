"""Tests for the resilient RPC layer: deadlines, retries, circuit
breakers, lookup fallback, and credential-cache eviction."""

import pytest

from repro.core import Service
from repro.core.client import FAILOVER_POLICY
from repro.core.policy import (
    CLOSED,
    OPEN,
    BreakerOpen,
    CallError,
    CallPolicy,
    CircuitBreaker,
    DeadlineExceeded,
    TransportError,
)
from repro.lang import ACECmdLine
from repro.lang.command import CLIENT_ID_ARG
from repro.net import Address, ConnectionClosed, ConnectionRefused
from repro.services.asd import asd_lookup
from repro.sim import canonical_trace_hash

from tests.core.conftest import AceFixture, EchoDaemon


# -- CircuitBreaker unit ------------------------------------------------------

def test_breaker_state_machine():
    b = CircuitBreaker(threshold=2, reset=5.0)
    assert b.allow(0.0)
    assert not b.record_failure(1.0)
    assert b.record_failure(2.0)  # second failure trips it
    assert b.state == OPEN and b.trips == 1
    assert not b.allow(3.0)          # still open
    assert b.allow(7.0)              # reset elapsed: half-open probe admitted
    assert not b.allow(7.1)          # ...but only one probe at a time
    assert not b.record_failure(7.5)  # probe failed: re-open, not a new trip
    assert not b.allow(8.0)
    assert b.allow(12.6)
    assert b.record_success()        # probe succeeded: re-closed
    assert b.state == CLOSED and b.failures == 0


def test_breaker_disabled_when_threshold_zero():
    b = CircuitBreaker(threshold=0, reset=5.0)
    for t in range(10):
        assert not b.record_failure(float(t))
    assert b.allow(100.0)
    assert b.state == CLOSED


def test_backoff_delay_grows_and_caps():
    policy = CallPolicy(backoff_base=0.1, backoff_max=0.4, backoff_jitter=0.0)
    import random
    rng = random.Random(1)
    delays = [policy.backoff_delay(a, rng) for a in (1, 2, 3, 4)]
    assert delays == [0.1, 0.2, 0.4, 0.4]


# -- the one entry point ------------------------------------------------------

@pytest.mark.parametrize("with_policy", [False, True], ids=["plain", "policy"])
@pytest.mark.parametrize("replicas", [False, True], ids=["one-address", "first-replica-dead"])
def test_call_layers_compose(ace_with_echo, replicas, with_policy):
    """``client.call``: a policy adds stamp + ``rpc:`` span + RpcStats, a
    sequence of addresses adds the replica loop — independently."""
    ace, echo = ace_with_echo
    ace.ctx.idempotent_retries = True
    received = []

    def cmd_echo(request):
        received.append(request.command)
        return {"text": request.command.str("text")}

    echo.cmd_echo = cmd_echo
    policy = None
    if with_policy:
        policy = CallPolicy(
            deadline=2.0, attempt_timeout=1.0, max_attempts=1, breaker_threshold=0
        )
    dead = Address("bar", 59999)          # nothing listens there: refused
    target = [dead, echo.address] if replicas else echo.address
    stats = ace.ctx.resilience.stats
    before = stats.snapshot()
    failovers = ace.ctx.obs.metrics.counter("rpc.failover")
    client = ace.client(principal="matrix")

    def flow():
        root = client.begin_trace("matrix")
        try:
            reply = yield from client.call(target, ACECmdLine("echo", text="hi"), policy)
        finally:
            client.end_trace(root)
        return root, reply

    root, reply = ace.run(flow())
    assert reply["text"] == "hi"
    assert failovers.value == (1 if replicas else 0)
    after = stats.snapshot()
    delta = {k: after[k] - before[k] for k in after if after[k] != before[k]}
    if not with_policy:
        assert delta == {}
    elif replicas:
        assert delta == {"calls": 2, "successes": 1, "failures": 1}
    else:
        assert delta == {"calls": 1, "successes": 1}
    (command,) = received
    assert (CLIENT_ID_ARG in command) == with_policy
    rpc_spans = (["rpc:echo"] * (2 if replicas else 1)) if with_policy else []
    hops = ace.ctx.obs.tracer.tree(root.trace_id).hops()
    assert hops == ["matrix"] + rpc_spans + ["call:echo", "serve:echo"]


def test_call_without_addresses_is_an_error(ace):
    with pytest.raises(CallError, match="no addresses"):
        ace.run(ace.client().call([], ACECmdLine("ping")))


# -- the failure contract: a call fails one way --------------------------------

ONE_TRY = CallPolicy(deadline=3.0, attempt_timeout=2.0, max_attempts=1, breaker_threshold=0)
ENTRY_POINTS = ("connect", "call", "policy-call", "replica-call", "pool.call", "pipe.call",
                "held conn.call")


def _enter(client, entry, address, command, held=None):
    """Send ``command`` to ``address`` through one ``ServiceClient`` entry
    point (``held``: the connection ``held conn.call`` opened beforehand)."""
    if entry == "connect":
        conn = yield from client.connect(address)
        conn.close()
    elif entry == "call":
        yield from client.call(address, command)
    elif entry == "policy-call":
        yield from client.call(address, command, ONE_TRY)
    elif entry == "replica-call":
        yield from client.call([address, address], command, ONE_TRY)
    elif entry == "pool.call":
        yield from client.pool.call(address, command)
    elif entry == "pipe.call":
        pipe = yield from client.pipelined(address)
        yield from pipe.call(command)
    else:
        yield from held.call(command)


def _dies_reading(ace, daemon, verb):
    """``daemon`` is killed while a ``verb`` command is on the wire to it:
    the request was sent, the process that would have answered is gone."""
    arrive = ace.net._arrive_stream

    def arrive_or_die(peer, payload):
        if daemon.running and peer.host is daemon.host and str(payload).startswith(verb):
            daemon.kill()
        else:
            arrive(peer, payload)

    ace.net._arrive_stream = arrive_or_die


@pytest.mark.parametrize("fault", ["nothing-listening", "host-crashed", "killed-mid-call"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_nobody_answering_is_a_transport_error(ace_with_echo, entry, fault):
    """Whatever the entry point and however the endpoint went away, the
    caller sees ``TransportError`` — the socket error is its ``__cause__``
    and its text is in the message (a failed dial's message *is* that text)."""
    ace, echo = ace_with_echo
    client = ace.client(principal="contract")
    address = echo.address
    held = ace.run(client.connect(address)) if entry == "held conn.call" else None
    verb = "attach" if entry == "connect" else "echo"
    if fault == "killed-mid-call":
        _dies_reading(ace, echo, verb)
    elif fault == "host-crashed":
        ace.net.crash_host("bar")
    elif held is None:
        address = Address("bar", 59999)
    else:
        echo.stop()
        ace.sim.run(until=ace.sim.now + 1.0)

    def flow():
        with pytest.raises(CallError) as info:
            yield from _enter(client, entry, address, ACECmdLine("echo", text="x"), held)
        return info.value

    exc = ace.run(flow())
    assert type(exc) is TransportError and exc.reply is None
    cause = exc.__cause__
    # A replica call reports its last replica: dead by the time it is dialed.
    lost = held is not None or (fault == "killed-mid-call" and entry != "replica-call")
    if not lost:
        assert isinstance(cause, ConnectionRefused) and str(exc) == str(cause)
        assert str(exc) == (f"no route to {address}" if fault == "host-crashed"
                            else f"nothing listening at {address}")
    elif entry == "pipe.call":
        assert isinstance(cause, ConnectionClosed)
        assert str(exc) == f"pipeline channel closed: peer closed {address}"
    else:
        assert isinstance(cause, ConnectionClosed)
        assert str(exc) == f"connection lost during {verb!r}: peer closed {address}"


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_cmd_failed_is_exactly_call_error(ace_with_echo, entry):
    """The service answered: exactly ``CallError``, carrying the reply."""
    ace, echo = ace_with_echo
    client = ace.client(principal="contract")
    held = ace.run(client.connect(echo.address)) if entry == "held conn.call" else None
    if entry == "connect":   # the only command connect sends is the attach
        echo._handle_attach = lambda command, channel: ("nobody", False, "intentional failure")

    def flow():
        with pytest.raises(CallError) as info:
            yield from _enter(client, entry, echo.address, ACECmdLine("boom"), held)
        return info.value

    exc = ace.run(flow())
    assert type(exc) is CallError
    assert exc.reply.name == "cmdFailed" and exc.reply["reason"] == "intentional failure"
    assert ace.ctx.obs.metrics.counter("rpc.failover").value == 0


# -- the third target shape: a Service ------------------------------------------

def _two_echoes(seed=0):
    """Two ``Echo`` instances in different rooms; returns the fixture and
    the daemons by name."""
    ace = AceFixture(seed=seed).boot()
    echoes = {}
    for name, host, room in (("echo1", "bar", "hawk"), ("echo2", "baz", "jay")):
        echoes[name] = ace.add_daemon(
            EchoDaemon(ace.ctx, name, ace.net.make_host(host, room=room), room=room))
        echoes[name].start()
    ace.sim.run(until=ace.sim.now + 1.0)
    return ace, echoes


def _echo_by(client, target, policy=None):
    """Who answered an ``echo`` sent to ``target``, and how long it took."""
    t0 = client.ctx.sim.now
    reply = yield from client.call(target, ACECmdLine("echo", text="x"), policy)
    return reply["by"], client.ctx.sim.now - t0


@pytest.mark.parametrize("policy", [None, FAILOVER_POLICY], ids=["plain", "policy"])
def test_service_target_fails_over_to_the_next_instance(policy):
    """The first-listed instance is dead and still listed (its lease has
    not lapsed): the call is answered by the second."""
    ace, echoes = _two_echoes()
    client = ace.client(principal="svc")
    first, _ = ace.run(_echo_by(client, Service(cls="Echo"), policy))
    echoes[first].kill()
    second, _ = ace.run(_echo_by(client, Service(cls="Echo"), policy))
    assert {first, second} == {"echo1", "echo2"}
    assert ace.ctx.obs.metrics.counter("rpc.failover").value == 1


def test_service_target_tries_a_suspect_instance_last():
    """A crashed host refuses nothing, so the outage is one attempt
    timeout — paid once: the breaker remembers, the corpse goes last until
    it answers again."""
    ace, echoes = _two_echoes()
    client = ace.client(principal="svc")
    echo = Service(cls="Echo")
    first, _ = ace.run(_echo_by(client, echo, FAILOVER_POLICY))
    victim = echoes[first]
    ace.net.crash_host(victim.host.name)
    survivor, outage = ace.run(_echo_by(client, echo, FAILOVER_POLICY))
    assert survivor != first
    assert FAILOVER_POLICY.attempt_timeout <= outage < 1.5
    assert ace.ctx.resilience.suspect(victim.address)
    again, took = ace.run(_echo_by(client, echo, FAILOVER_POLICY))
    assert again == survivor and took < 0.1
    # The host and the daemon come back and answer somebody: first again.
    ace.net.restart_host(victim.host.name)
    victim.respawn(1).start()
    ace.sim.run(until=ace.sim.now + 1.0)
    ace.run(_echo_by(client, victim.address, FAILOVER_POLICY))
    assert not ace.ctx.resilience.suspect(victim.address)
    assert ace.run(_echo_by(client, echo, FAILOVER_POLICY))[0] == first


def test_service_target_failures_are_call_errors():
    """``cmdFailed`` is exactly ``CallError`` and is not failed over; no
    match is a plain ``CallError`` whose message names the query."""
    ace, _ = _two_echoes()
    client = ace.client(principal="svc")

    def flow():
        with pytest.raises(CallError) as boom:
            yield from client.call(Service(cls="Echo"), ACECmdLine("boom"), FAILOVER_POLICY)
        with pytest.raises(CallError, match="no service matching cls='Echo' room='attic'") as none:
            yield from client.call(Service(cls="Echo", room="attic"), ACECmdLine("ping"))
        return boom.value, none.value

    boom, none = ace.run(flow())
    assert type(boom) is CallError and boom.reply["reason"] == "intentional failure"
    assert type(none) is CallError and none.reply is None
    assert ace.ctx.obs.metrics.counter("rpc.failover").value == 0


def test_service_target_room_narrows_the_match():
    ace, _ = _two_echoes()
    client = ace.client(principal="svc")
    for room, name in (("hawk", "echo1"), ("jay", "echo2")):
        assert ace.run(_echo_by(client, Service(cls="Echo", room=room)))[0] == name


def test_service_target_is_lookup_then_call_on_the_wire():
    """On a succeeding path a ``Service`` target leaves the trace and the
    wire that the hand-written find-then-call leaves."""
    def written_once(client):
        yield from client.call(Service(name="echo1"), ACECmdLine("echo", text="x"))

    def by_hand(client):
        records = yield from asd_lookup(client, client.ctx.asd_address, name="echo1")
        yield from client.call(records[0].address, ACECmdLine("echo", text="x"))

    seen = []
    for flow in (written_once, by_hand):
        ace, _ = _two_echoes(seed=7)
        ace.run(flow(ace.client(principal="svc")))
        seen.append((canonical_trace_hash(ace.ctx.trace.records), ace.net.stats.snapshot(),
                     ace.sim.now))
    assert seen[0] == seen[1]


# -- deadlines ----------------------------------------------------------------

def test_deadline_bounds_slow_call(ace_with_echo):
    """A call to a healthy-but-slow endpoint fails at the deadline instead
    of hanging for the service's 30 s — the gray-failure antidote."""
    ace, echo = ace_with_echo
    policy = CallPolicy(
        deadline=1.0, attempt_timeout=0.4, max_attempts=3,
        backoff_base=0.02, backoff_max=0.05, breaker_threshold=0,
    )

    def scenario():
        client = ace.client(principal="deadline-tester")
        yield from client.call(
            echo.address,
            ACECmdLine("slowEcho", text="x", delay=30.0),
            policy=policy,
        )

    t0 = ace.sim.now
    with pytest.raises(DeadlineExceeded):
        ace.run(scenario())
    elapsed = ace.sim.now - t0
    assert elapsed <= policy.deadline * 1.2  # bounded, with backoff slop
    assert ace.ctx.resilience.stats.deadline_expired > 0


# -- retries ------------------------------------------------------------------

def test_retry_recovers_after_link_heals(ace_with_echo):
    """Full loss on the client-service link stalls early attempts; once the
    link heals mid-call, a retry succeeds within the deadline."""
    ace, echo = ace_with_echo
    ace.net.set_link_fault("infra", "bar", 1.0)

    def heal():
        yield ace.sim.timeout(0.6)
        ace.net.clear_link_fault("infra", "bar")

    ace.sim.process(heal())
    policy = CallPolicy(
        deadline=10.0, attempt_timeout=0.25, max_attempts=8,
        backoff_base=0.05, backoff_max=0.2, breaker_threshold=0,
    )
    retries_before = ace.ctx.resilience.stats.retries

    def scenario():
        client = ace.client(principal="retry-tester")
        reply = yield from client.call(
            echo.address, ACECmdLine("echo", text="hi"), policy=policy
        )
        return reply

    reply = ace.run(scenario())
    assert reply["text"] == "hi"
    assert ace.ctx.resilience.stats.retries > retries_before


# -- circuit breaker against a dead endpoint ----------------------------------

def test_breaker_opens_sheds_and_recovers():
    ace = AceFixture().boot()
    host = ace.net.make_host("bar", room="hawk")
    echo = EchoDaemon(ace.ctx, "echo1", host, room="hawk")
    echo.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    address = echo.address
    policy = CallPolicy(
        deadline=3.0, attempt_timeout=2.0, max_attempts=1,
        breaker_threshold=2, breaker_reset=1.0,
    )

    def one_call():
        client = ace.client(principal="breaker-tester")
        reply = yield from client.call(
            address, ACECmdLine("echo", text="x"), policy=policy
        )
        return reply

    ace.net.crash_host("bar")
    stats = ace.ctx.resilience.stats
    for _ in range(2):  # threshold failures trip the breaker
        with pytest.raises(TransportError):
            ace.run(one_call())
    assert stats.breaker_trips == 1
    breaker = ace.ctx.resilience.breaker(address, policy)
    assert breaker.state == OPEN

    # While open: instant rejection, no sim time burned on the dead host.
    t0 = ace.sim.now
    with pytest.raises(BreakerOpen):
        ace.run(one_call())
    assert ace.sim.now == t0
    assert stats.breaker_rejected == 1

    # Host comes back; after the reset period the half-open probe re-closes.
    ace.net.restart_host("bar")
    relaunched = EchoDaemon(ace.ctx, "echo1b", host, room="hawk", port=address.port)
    relaunched.start()
    ace.sim.run(until=ace.sim.now + 1.5)
    reply = ace.run(one_call())
    assert reply["text"] == "x"
    assert breaker.state == CLOSED
    assert stats.breaker_resets >= 1


# -- ASD lookup fallback ------------------------------------------------------

def test_asd_lookup_falls_back_to_cached_records():
    ace = AceFixture().boot()
    host = ace.net.make_host("bar", room="hawk")
    echo = EchoDaemon(ace.ctx, "echo1", host, room="hawk")
    echo.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    client = ace.client(host=host, principal="lookup-tester")

    def lookup():
        records = yield from asd_lookup(client, ace.ctx.asd_address, cls="Echo")
        return records

    records = ace.run(lookup())
    assert [r.name for r in records] == ["echo1"]

    ace.net.crash_host("infra")  # the ASD host itself goes down
    fallback = ace.run(lookup(), timeout=120.0)
    assert [r.name for r in fallback] == ["echo1"]
    assert fallback[0].address == echo.address
    assert ace.ctx.resilience.stats.lookup_fallbacks == 1

    def lookup_uncached():
        return (yield from asd_lookup(
            client, ace.ctx.asd_address, cls="Echo", use_cache=False
        ))

    with pytest.raises(Exception):
        ace.run(lookup_uncached(), timeout=120.0)


# -- credential cache eviction ------------------------------------------------

def test_credential_cache_ttl_eviction(ace_with_echo):
    ace, echo = ace_with_echo
    ttl = max(ace.ctx.security.credential_cache_ttl, 0.0)
    now = ace.ctx.lease_duration + ttl + 100.0
    echo._credential_cache["stale"] = (0.0, [])
    echo._credential_cache["fresh"] = (now, [])
    echo._evict_stale_credentials(now)
    assert "stale" not in echo._credential_cache
    assert "fresh" in echo._credential_cache
    # Sweeps are rate-limited to one per lease duration...
    echo._credential_cache["stale2"] = (0.0, [])
    echo._evict_stale_credentials(now + 0.1)
    assert "stale2" in echo._credential_cache
    # ...and run again once a lease period has passed.
    echo._evict_stale_credentials(now + ace.ctx.lease_duration + 0.1)
    assert "stale2" not in echo._credential_cache
