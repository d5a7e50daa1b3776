"""Every call rides the client's connection pool under a deadline, and no
connection outlives its host's incarnation.

* a policy call dials a replica once and reuses the channel after that,
  and so does a call that names no policy;
* a call that names no policy to a handler that never answers ends at
  ``PLAIN_POLICY``'s deadline;
* an attempt whose ``attempt_timeout`` runs out first leaves no
  idle channel behind, and the daemon's command thread sees EOF; nor
  does one whose caller is interrupted;
* a channel opened with ``attach=False`` never serves an attaching caller;
* the pool reuses attached channels and never hands out a suspect one: a
  channel that saw a transport error, one whose peer hung up while it sat
  idle (plain or SSL), one whose caller was interrupted mid-call;
* after a host crash + restart the new incarnation answers — through
  ``pool.call`` and a policy call — never a zombie of the old one, within
  a round trip of the reset;
* a replica whose host died (no restart) costs one attempt timeout before
  the call fails over, and its channel is discarded;
* every connection the pool drops is counted in ``rpc.pool.discard``;
* a daemon flow that makes its own client leaves no channel parked.
"""

import pytest

from repro.core.client import PLAIN_POLICY
from repro.core.policy import CallPolicy, DeadlineExceeded, TransportError
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.sim import Interrupt
from repro.workloads import user_session_workload
from tests.core.conftest import EchoDaemon

ONE_TRY = CallPolicy(deadline=2.0, attempt_timeout=0.5, max_attempts=1,
                     breaker_threshold=0)


def _counter(ace, name):
    return ace.ctx.obs.metrics.counter(name)


def _recording(client):
    """Record every channel ``client`` dials (its ``connect`` calls)."""
    dialled = []
    connect = client.connect

    def recording_connect(*args, **kw):
        conn = yield from connect(*args, **kw)
        dialled.append((conn, kw))
        return conn

    client.connect = recording_connect
    return dialled


def _echo(client, address, text, **kw):
    reply = yield from client.call(address, ACECmdLine("echo", text=text), **kw)
    return reply


def test_ten_policy_calls_to_one_replica_dial_once(ace_with_echo):
    ace, echo = ace_with_echo
    client = ace.client(principal="pooled")
    dialled = _recording(client)
    reuse = _counter(ace, "rpc.pool.reuse")
    reuses = reuse.value

    def scenario():
        for i in range(10):
            reply = yield from _echo(client, echo.address, f"m{i}", policy=ONE_TRY)
            assert reply.get("text") == f"m{i}"

    ace.run(scenario())
    assert len(dialled) == 1
    assert reuse.value - reuses == 9
    assert len(client.pool._idle[echo.address]) == 1


def test_ten_calls_without_a_policy_dial_once(ace_with_echo):
    ace, echo = ace_with_echo
    client = ace.client(principal="plain")
    dialled = _recording(client)

    def scenario():
        for i in range(10):
            reply = yield from _echo(client, echo.address, f"m{i}")
            assert reply.get("text") == f"m{i}"

    ace.run(scenario())
    ((conn, _),) = dialled
    assert client.pool._idle[echo.address] == [conn]


def test_a_call_without_a_policy_ends_at_the_plain_deadline(ace_with_echo):
    ace, echo = ace_with_echo
    client = ace.client(principal="stalled")
    elapsed = []

    def scenario():
        t0 = ace.sim.now
        never = ACECmdLine("slowEcho", text="never", delay=10 * PLAIN_POLICY.deadline)
        with pytest.raises(DeadlineExceeded):
            yield from client.call(echo.address, never)
        elapsed.append(ace.sim.now - t0)

    ace.sim.process(scenario())
    ace.sim.run(until=ace.sim.now + 2 * PLAIN_POLICY.deadline)
    assert elapsed == [pytest.approx(PLAIN_POLICY.deadline)]


def test_an_attempt_that_loses_its_race_leaves_no_idle_channel(ace_with_echo):
    ace, echo = ace_with_echo
    client = ace.client(principal="racer")
    dialled = _recording(client)
    discard = _counter(ace, "rpc.pool.discard")
    discards = discard.value

    def scenario():
        with pytest.raises(DeadlineExceeded):
            yield from client.call(
                echo.address, ACECmdLine("slowEcho", text="late", delay=2.0),
                policy=ONE_TRY)

    ace.run(scenario())
    ((conn, _),) = dialled
    server_side = conn.channel.peer
    assert conn.closed
    assert not any(client.pool._idle.values())
    assert discard.value == discards + 1
    ace.sim.run(until=ace.sim.now + 0.01)      # > one path latency
    assert server_side.pending() == 1          # the EOF, queued behind the handler
    ace.sim.run(until=ace.sim.now + 3.0)       # slowEcho done, the thread reads EOF
    assert server_side.closed


def test_an_interrupted_caller_leaves_no_idle_channel(ace_with_echo):
    """A daemon's flow stopped mid-call (its daemon died) stops the call's
    attempt too: the pool closes the channel rather than parking it."""
    ace, echo = ace_with_echo
    client = ace.client(principal="stopped")
    dialled = _recording(client)
    stopped = []

    def caller():
        try:
            yield from client.call(echo.address, ACECmdLine("slowEcho", text="x", delay=1.0))
        except Interrupt:
            stopped.append(ace.sim.now)

    proc = ace.sim.process(caller())
    ace.sim.run(until=ace.sim.now + 0.1)
    proc.interrupt("daemon stopped")
    ace.sim.run(until=ace.sim.now + 2.0)
    ((conn, _),) = dialled
    assert len(stopped) == 1 and conn.closed
    assert not any(client.pool._idle.values())


def test_an_unattached_channel_never_serves_an_attaching_caller(ace_with_echo):
    ace, echo = ace_with_echo
    client = ace.client(principal="mixed")
    dialled = _recording(client)

    def scenario():
        yield from _echo(client, echo.address, "bare", policy=ONE_TRY, attach=False)
        yield from _echo(client, echo.address, "attached", policy=ONE_TRY)
        yield from _echo(client, echo.address, "bare again", policy=ONE_TRY, attach=False)
        yield from _echo(client, echo.address, "attached again", policy=ONE_TRY)

    ace.run(scenario())
    assert [kw.get("attach", True) for _, kw in dialled] == [False, True]
    idle = client.pool._idle
    (bare,) = idle[(echo.address, False, None)]
    (attached,) = idle[echo.address]
    assert bare is dialled[0][0] and attached is dialled[1][0]


# ----------------------------------------------------------------------
# Crash + restart: the new incarnation answers
# ----------------------------------------------------------------------
def _reincarnate(ace, echo):
    """Crash the echo's host, bring it straight back and start a fresh
    daemon on the same port; the old daemon's threads never notice."""
    ace.net.crash_host("bar")
    ace.net.restart_host("bar")
    reborn = EchoDaemon(ace.ctx, "echo1b", echo.host, room="hawk", port=echo.address.port)
    ace.add_daemon(reborn)
    reborn.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    return reborn


def _timed(ace, gen):
    def run():
        t0 = ace.sim.now
        reply = yield from gen
        return reply, ace.sim.now - t0
    return ace.run(run())


def _reset_and_redial(ace, reborn):
    """What a reset reused channel costs: one round trip to hear the reset,
    then what a fresh client pays for dial + attach + the call."""
    fresh = ace.client(principal="fresh")
    _, dial_and_call = _timed(ace, _echo(fresh, reborn.address, "warm", policy=ONE_TRY))
    return 2 * ace.net.lan_latency + dial_and_call



def test_pool_call_after_a_restart_reaches_the_new_incarnation(ace_with_echo):
    ace, echo = ace_with_echo
    client = ace.client(principal="pooled")
    command = ACECmdLine("echo", text="who")
    assert ace.run(client.pool.call(echo.address, command)).get("by") == "echo1"
    reborn = _reincarnate(ace, echo)
    expected = _reset_and_redial(ace, reborn)
    dial = _counter(ace, "rpc.pool.dial")
    dials = dial.value
    reply, elapsed = _timed(ace, client.pool.call(echo.address, command))
    assert reply.get("by") == "echo1b"
    assert elapsed == pytest.approx(expected, rel=0.05)
    assert dial.value == dials + 1     # the reused channel was reset: redialled once


def test_policy_call_after_a_restart_reaches_the_new_incarnation(ace_with_echo):
    ace, echo = ace_with_echo
    client = ace.client(principal="policy")
    assert ace.run(_echo(client, echo.address, "who", policy=ONE_TRY)).get("by") == "echo1"
    expected = _reset_and_redial(ace, _reincarnate(ace, echo))
    reply, elapsed = _timed(ace, _echo(client, echo.address, "who", policy=ONE_TRY))
    assert reply.get("by") == "echo1b"
    assert elapsed == pytest.approx(expected, rel=0.05)
    assert ace.ctx.resilience.stats.retries == 0   # the pool redialled, not the policy


def test_a_dead_replica_costs_one_attempt_then_fails_over(ace_with_echo):
    ace, echo = ace_with_echo
    twin = EchoDaemon(ace.ctx, "echo2", ace.net.make_host("baz", room="hawk"), room="hawk")
    ace.add_daemon(twin)
    twin.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    client = ace.client(principal="failover")
    replicas = [echo.address, twin.address]
    assert ace.run(_echo(client, replicas, "warm", policy=ONE_TRY)).get("by") == "echo1"
    ace.net.crash_host("bar")
    discard = _counter(ace, "rpc.pool.discard")
    discards = discard.value
    reply, elapsed = _timed(ace, _echo(client, replicas, "who", policy=ONE_TRY))
    assert reply.get("by") == "echo2"
    assert ONE_TRY.attempt_timeout <= elapsed < ONE_TRY.attempt_timeout + 0.01
    assert client.pool._idle[echo.address] == []
    assert discard.value == discards + 1


def test_a_plain_call_to_a_crashed_host_fails_at_the_connect_timeout(ace_with_echo):
    """A crash closes the daemon's end of a pooled channel without a word.
    A call that waits on it fails when a dial to the down host would have
    been refused, not at the plain policy's deadline."""
    ace, echo = ace_with_echo
    client = ace.client(principal="plain")
    assert ace.run(_echo(client, echo.address, "warm")).get("by") == "echo1"
    ace.net.crash_host("bar")

    def lost():
        with pytest.raises(TransportError):
            yield from _echo(client, echo.address, "lost")

    _, elapsed = _timed(ace, lost())
    assert elapsed == pytest.approx(ace.net.connect_timeout, abs=1e-9)


def test_the_pool_counts_a_connection_dropped_on_a_transport_error(ace_with_echo):
    ace, echo = ace_with_echo
    client = ace.client(principal="dropped")
    dialled = _recording(client)
    discard = _counter(ace, "rpc.pool.discard")

    def scenario():
        yield from client.pool.call(echo.address, ACECmdLine("echo", text="warm"))
        discards = discard.value
        call = ace.sim.process(client.pool.call(
            echo.address, ACECmdLine("slowEcho", text="x", delay=1.0)))
        yield ace.sim.timeout(0.1)
        ((conn, _),) = dialled
        conn.channel.peer.close()     # the daemon's end hangs up mid-exchange
        with pytest.raises(TransportError):
            yield call
        return discards

    discards = ace.run(scenario())
    assert discard.value == discards + 1
    assert client.pool._idle[echo.address] == []


def _parked(daemon):
    """Live command threads: one per channel some client holds open."""
    return sum(1 for proc in daemon._child_procs if proc.is_alive and ".cmd:" in proc.name)


def test_a_daemon_flow_that_makes_its_own_client_leaves_nothing_parked():
    """The SRM polls the directory, handlers look services up, boot
    registers the rooms, E18's users look services and users up: each such
    flow hangs up its pooled channels (or holds one for its life), so the
    count of live command threads stays flat."""
    def booted(*rooms):
        env = ACEEnvironment(seed=5)
        env.add_infrastructure()
        for room in rooms:
            env.add_room(room, building="nichols")
        env.boot(settle=2.0)
        return env

    env = booted("hawk", "office21")
    assert _parked(env.daemons["roomdb"]) == _parked(booted().daemons["roomdb"])
    watched = [env.daemons["asd"], env.daemons["aud"]]
    env.run_for(20.0)
    before = [_parked(daemon) for daemon in watched]
    user_session_workload(env, n_users=3, duration=5.0)
    env.run_for(60.0)
    assert [_parked(daemon) for daemon in watched] == before


# ----------------------------------------------------------------------
# Reuse, and the channels the pool must never hand out again
# ----------------------------------------------------------------------
def test_pool_reuses_channels_and_discards_suspects(ace_with_echo):
    ace, echo = ace_with_echo
    dial = _counter(ace, "rpc.pool.dial")
    reuse = _counter(ace, "rpc.pool.reuse")
    discard = _counter(ace, "rpc.pool.discard")
    # the daemons' registrations went through their own pools at boot
    dials, reuses = dial.value, reuse.value

    def scenario():
        client = ace.client(principal="pooled")
        for i in range(5):
            reply = yield from client.pool.call(
                echo.address, ACECmdLine("echo", text=f"p{i}")
            )
            assert reply.get("text") == f"p{i}"
        return client

    client = ace.run(scenario())
    assert dial.value - dials == 1    # one dial+attach...
    assert reuse.value - reuses == 4  # ...amortised over the other calls
    assert len(client.pool._idle[echo.address]) == 1

    # A transport failure poisons the channel: it must never be re-pooled.
    ace.net.crash_host("bar")
    discards = discard.value

    def failing():
        with pytest.raises(TransportError):
            yield from client.pool.call(echo.address, ACECmdLine("echo", text="x"))

    ace.run(failing())
    assert client.pool._idle[echo.address] == []
    assert discard.value == discards + 1


def _redial_after_peer_close(sim, ctx, client, address):
    """A pooled ``ping``; the daemon's end of that idle channel closes and
    the EOF reaches (but is not read by) the client; the next pooled
    ``ping`` must discard the stale channel and dial afresh."""
    dial = ctx.obs.metrics.counter("rpc.pool.dial")
    discard = ctx.obs.metrics.counter("rpc.pool.discard")

    def ping():
        reply = yield from client.pool.call(address, ACECmdLine("ping"))
        return reply.name

    assert sim.run_process(ping(), timeout=30.0) == "cmdOk"
    (held,) = client.pool._idle[address]
    transport = getattr(held.channel, "conn", held.channel)
    transport.peer.close()
    sim.run(until=sim.now + 0.5)
    assert not held.closed and held.channel.pending() == 1   # unread EOF
    dials, discards = dial.value, discard.value

    assert sim.run_process(ping(), timeout=30.0) == "cmdOk"
    assert discard.value == discards + 1     # the stale one, thrown away...
    assert dial.value == dials + 1           # ...and replaced by a fresh dial
    assert held.closed
    assert client.pool._idle[address] != [held]


def test_pool_discards_idle_connection_whose_peer_closed(ace_with_echo):
    # ``closed`` only flips once somebody reads the EOF, so the pool must
    # look at what is queued on an idle channel before handing it out.
    ace, echo = ace_with_echo
    _redial_after_peer_close(
        ace.sim, ace.ctx, ace.client(principal="pooled"), echo.address)


def test_pool_discards_stale_secure_channel():
    from repro.core import ServiceClient
    from repro.core.context import SecurityMode
    from tests.core.test_secure_modes import build_secure_ace

    sim, net, ctx, _asd, _authdb, echo = build_secure_ace(SecurityMode.SSL)
    client = ServiceClient(ctx, net.host("infra"), principal="user:alice")
    _redial_after_peer_close(sim, ctx, client, echo.address)


def test_pool_closes_connection_when_call_is_interrupted(ace_with_echo):
    # An exchange cut short by anything but a transport error or a
    # cmdFailed (here: the caller is interrupted mid-call) leaves a
    # channel in an unknown state: closed, counted, never pooled — and the
    # daemon's command thread sees EOF instead of parking on it forever.
    ace, echo = ace_with_echo
    discard = _counter(ace, "rpc.pool.discard")
    client = ace.client(principal="pooled")
    dialled = []
    connect = client.connect

    def recording_connect(*args, **kw):
        conn = yield from connect(*args, **kw)
        dialled.append(conn)
        return conn

    client.connect = recording_connect

    def caller():
        yield from client.pool.call(
            echo.address, ACECmdLine("slowEcho", text="x", delay=5.0))

    proc = ace.sim.process(caller(), name="caller")
    proc.defuse()
    ace.sim.run(until=ace.sim.now + 1.0)       # dialled, attached, waiting
    (conn,) = dialled
    server_side = conn.channel.peer
    assert not conn.closed and server_side.pending() == 0
    proc.interrupt("supervisor kill")
    ace.sim.run(until=ace.sim.now + 0.05)      # > one path latency
    assert not proc.is_alive
    assert conn.closed and server_side.pending() == 1    # EOF delivered
    assert discard.value == 1
    assert not any(client.pool._idle.values())
    ace.sim.run(until=ace.sim.now + 6.0)       # slowEcho done, thread reads EOF
    assert server_side.closed
