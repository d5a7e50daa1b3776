"""Pipelined RPC and connection pooling.

The scale-out RPC layer's contracts, regression-tested:

* k in-flight tagged commands on ONE channel come back matched to their
  callers even when replies arrive out of order, under link loss, and
  under latency jitter;
* a mid-pipeline transport death fails ONLY the in-flight calls —
  completed calls keep their replies and a fresh pipeline works
  immediately;
* the pool reuses attached channels (and discards suspect ones).
"""

import pytest

from repro.core.policy import DeadlineExceeded, TransportError
from repro.lang import ACECmdLine
from tests.core.conftest import AceFixture, EchoDaemon


def _counter(ace, name):
    return ace.ctx.obs.metrics.counter(name)


# ----------------------------------------------------------------------
# Tag matching
# ----------------------------------------------------------------------
def test_pipelined_replies_match_tags(ace_with_echo):
    ace, echo = ace_with_echo
    k = 8
    results = {}

    def one(pipe, i):
        # Mixed handler times from concurrent callers sharing one channel:
        # every caller must get exactly its own reply back.
        delay = (k - i) * 0.05
        reply = yield from pipe.call(
            ACECmdLine("slowEcho", text=f"msg{i}", delay=delay)
        )
        results[i] = reply.get("text")

    def scenario():
        client = ace.client(principal="pipeliner")
        pipe = yield from client.pipelined(echo.address, max_inflight=k)
        procs = [ace.sim.process(one(pipe, i)) for i in range(k)]
        yield ace.sim.all_of(procs)
        return pipe

    pipe = ace.run(scenario())
    assert results == {i: f"msg{i}" for i in range(k)}
    assert pipe.inflight == 0
    assert _counter(ace, "rpc.pipeline.matched").value >= k


def test_pipelining_beats_serial_round_trips(ace_with_echo):
    # The point of the tagged pipeline: k commands pay ~one round trip of
    # latency between them instead of k full round trips.  (Handlers still
    # execute serially on the daemon's single command thread — §2.1.1 —
    # so the win is the eliminated per-command wire gaps, as with Redis
    # pipelining against a single-threaded server.)
    ace, echo = ace_with_echo
    k = 16
    # A client across the backbone (~2ms each way): per-command round
    # trips dominate, which is exactly the regime pipelining targets.
    far = ace.net.make_host("far", room="away", segment="wan")

    def serial():
        client = ace.client(far, principal="serial")
        conn = yield from client.connect(echo.address)
        t0 = ace.sim.now
        for i in range(k):
            reply = yield from conn.call(ACECmdLine("echo", text=f"s{i}"))
            assert reply.get("text") == f"s{i}"
        conn.close()
        return ace.sim.now - t0

    def pipelined():
        client = ace.client(far, principal="pipe")
        pipe = yield from client.pipelined(echo.address, max_inflight=k)

        def one(i):
            reply = yield from pipe.call(ACECmdLine("echo", text=f"p{i}"))
            assert reply.get("text") == f"p{i}"

        t0 = ace.sim.now
        yield ace.sim.all_of([ace.sim.process(one(i)) for i in range(k)])
        return ace.sim.now - t0

    t_serial = ace.run(serial())
    t_pipe = ace.run(pipelined())
    assert t_pipe < t_serial * 0.6, (t_pipe, t_serial)


def test_pipelined_backpressure_bounds_inflight(ace_with_echo):
    ace, echo = ace_with_echo
    peak = []

    def one(pipe, i):
        reply = yield from pipe.call(ACECmdLine("slowEcho", text=str(i), delay=0.2))
        assert reply.get("text") == str(i)

    def watcher(pipe):
        for _ in range(40):
            peak.append(pipe.inflight)
            yield ace.sim.timeout(0.05)

    def scenario():
        client = ace.client(principal="bp")
        pipe = yield from client.pipelined(echo.address, max_inflight=3)
        procs = [ace.sim.process(one(pipe, i)) for i in range(10)]
        ace.sim.process(watcher(pipe))
        yield ace.sim.all_of(procs)
        return pipe

    pipe = ace.run(scenario())
    assert max(peak) <= 3          # the slot gate held
    assert pipe.inflight == 0      # and drained completely


# ----------------------------------------------------------------------
# Loss + latency jitter
# ----------------------------------------------------------------------
def test_pipelined_matching_survives_loss_and_jitter(ace_with_echo):
    ace, echo = ace_with_echo
    bar = ace.net.host("bar")
    attempts_taken = []

    def scenario():
        client = ace.client(principal="lossy")
        pipe = yield from client.pipelined(echo.address, max_inflight=4)
        # A path lossy enough to eat requests AND replies, plus a latency
        # spike halfway through (gray failure, not a clean cut).
        ace.net.set_link_fault("infra", "bar", loss=0.3)
        for i in range(12):
            if i == 6:
                bar.degrade(latency_mult=5.0)
            if i == 9:
                bar.degrade(latency_mult=1.0)
            for attempt in range(10):
                if pipe.closed:
                    pipe = yield from client.pipelined(echo.address, max_inflight=4)
                try:
                    reply = yield from pipe.call(
                        ACECmdLine("echo", text=f"lossy{i}"), timeout=0.8
                    )
                except DeadlineExceeded:
                    continue       # lost request or reply: re-issue
                # The invariant under fire: never someone else's reply.
                assert reply.get("text") == f"lossy{i}"
                attempts_taken.append(attempt + 1)
                break
            else:
                pytest.fail(f"call {i} never completed in 10 attempts")
        ace.net.clear_link_fault("infra", "bar")
        reply = yield from pipe.call(ACECmdLine("echo", text="clean"))
        assert reply.get("text") == "clean"

    ace.run(scenario(), timeout=300.0)
    assert len(attempts_taken) == 12
    assert max(attempts_taken) > 1     # the fault actually bit


def test_late_reply_is_discarded_not_mispaired(ace_with_echo):
    ace, echo = ace_with_echo
    discarded = _counter(ace, "rpc.pipeline.discarded")

    def scenario():
        client = ace.client(principal="late")
        pipe = yield from client.pipelined(echo.address, max_inflight=4)
        # This reply arrives ~1s from now, long after the caller gave up.
        with pytest.raises(DeadlineExceeded):
            yield from pipe.call(
                ACECmdLine("slowEcho", text="too-slow", delay=1.0), timeout=0.2
            )
        yield ace.sim.timeout(1.5)     # the orphaned reply lands here...
        # ...and must NOT be paired with the next call on the channel.
        reply = yield from pipe.call(ACECmdLine("echo", text="fresh"))
        assert reply.get("text") == "fresh"

    ace.run(scenario())
    assert discarded.value >= 1


# ----------------------------------------------------------------------
# Mid-pipeline transport death
# ----------------------------------------------------------------------
def test_midpipeline_crash_fails_only_inflight_calls():
    ace = AceFixture(seed=2).boot()
    host = ace.net.make_host("bar", room="hawk")
    echo = EchoDaemon(ace.ctx, "echo1", host, room="hawk")
    ace.add_daemon(echo)
    echo.start()
    ace.sim.run(until=ace.sim.now + 1.0)

    outcomes = {}

    def one(pipe, i, delay):
        try:
            reply = yield from pipe.call(
                ACECmdLine("slowEcho", text=f"call{i}", delay=delay)
            )
            outcomes[i] = ("ok", reply.get("text"))
        except TransportError:
            outcomes[i] = ("transport-error", None)

    def crasher():
        yield ace.sim.timeout(0.5)
        ace.net.crash_host("bar")

    def scenario():
        client = ace.client(principal="crashy")
        pipe = yield from client.pipelined(echo.address, max_inflight=4)
        ace.sim.process(crasher())
        # Fast pair first (handlers run serially: done well before 0.5s)...
        procs = [
            ace.sim.process(one(pipe, 0, 0.05)),
            ace.sim.process(one(pipe, 1, 0.05)),
        ]
        yield ace.sim.timeout(0.3)
        # ...slow pair issued second, still in flight when the host dies.
        procs += [
            ace.sim.process(one(pipe, 2, 2.0)),
            ace.sim.process(one(pipe, 3, 2.0)),
        ]
        yield ace.sim.all_of(procs)
        return client

    client = ace.run(scenario())
    # Completed calls kept their replies; only the in-flight pair failed.
    assert outcomes[0] == ("ok", "call0")
    assert outcomes[1] == ("ok", "call1")
    assert outcomes[2] == ("transport-error", None)
    assert outcomes[3] == ("transport-error", None)

    # A fresh pipeline to the relaunched service works immediately.
    ace.net.restart_host("bar")
    reborn = EchoDaemon(ace.ctx, "echo1b", host, room="hawk", port=echo.address.port)
    reborn.start()
    ace.sim.run(until=ace.sim.now + 1.0)

    def after():
        pipe = yield from client.pipelined(echo.address)
        reply = yield from pipe.call(ACECmdLine("echo", text="reborn"))
        return reply.get("text")

    assert ace.run(after()) == "reborn"


# ----------------------------------------------------------------------
# Connection pooling
# ----------------------------------------------------------------------
def test_pool_reuses_channels_and_discards_suspects(ace_with_echo):
    ace, echo = ace_with_echo
    dial = _counter(ace, "rpc.pool.dial")
    reuse = _counter(ace, "rpc.pool.reuse")

    def scenario():
        client = ace.client(principal="pooled")
        for i in range(5):
            reply = yield from client.pool.call(
                echo.address, ACECmdLine("echo", text=f"p{i}")
            )
            assert reply.get("text") == f"p{i}"
        return client

    client = ace.run(scenario())
    assert dial.value == 1            # one dial+attach...
    assert reuse.value == 4           # ...amortised over the other calls

    # A transport failure poisons the channel: it must never be re-pooled.
    ace.net.crash_host("bar")

    def failing():
        with pytest.raises((TransportError, Exception)):
            yield from client.pool.call(echo.address, ACECmdLine("echo", text="x"))

    ace.run(failing())
    assert client.pool._idle.get(str(echo.address), []) == []


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
