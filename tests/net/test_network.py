"""Unit tests for the network fabric: streams, datagrams, faults."""

import pytest

from repro.net import (
    Address,
    ConnectionClosed,
    ConnectionRefused,
    ConnectionReset,
    Network,
    NetworkError,
)
from repro.sim import RngRegistry, Simulator


def make_net(**kw):
    sim = Simulator()
    net = Network(sim, RngRegistry(1), **kw)
    net.make_host("alpha", segment="east")
    net.make_host("beta", segment="east")
    net.make_host("gamma", segment="west")
    return sim, net


def server_echo(net, host_name, port, count=1):
    """Accept one connection and echo `count` messages back."""
    listener = net.listen(net.host(host_name), port)

    def run():
        conn = yield from listener.accept()
        for _ in range(count):
            msg = yield from conn.recv()
            yield from conn.send(("echo", msg))
        conn.close()

    return run


def test_connect_and_roundtrip():
    sim, net = make_net()
    sim.process(server_echo(net, "beta", 5000)())

    def client():
        conn = yield from net.connect(net.host("alpha"), Address("beta", 5000))
        yield from conn.send("hello")
        reply = yield from conn.recv()
        return reply

    assert sim.run_process(client()) == ("echo", "hello")


def test_connect_refused_when_nothing_listening():
    sim, net = make_net()

    def client():
        yield from net.connect(net.host("alpha"), Address("beta", 9999), timeout=0.1)

    with pytest.raises(ConnectionRefused):
        sim.run_process(client())


def test_connect_refused_unknown_host():
    sim, net = make_net()

    def client():
        yield from net.connect(net.host("alpha"), Address("nosuch", 5000), timeout=0.1)

    with pytest.raises(ConnectionRefused):
        sim.run_process(client())


def test_messages_fifo_per_connection():
    sim, net = make_net(jitter_frac=0.5)
    listener = net.listen(net.host("beta"), 5000)
    received = []

    def server():
        conn = yield from listener.accept()
        for _ in range(20):
            received.append((yield from conn.recv()))

    def client():
        conn = yield from net.connect(net.host("alpha"), Address("beta", 5000))
        for i in range(20):
            yield from conn.send(i)

    sim.process(server())
    sim.process(client())
    sim.run()
    assert received == list(range(20))


def test_close_gives_peer_eof():
    sim, net = make_net()
    listener = net.listen(net.host("beta"), 5000)
    outcome = []

    def server():
        conn = yield from listener.accept()
        try:
            yield from conn.recv()
        except ConnectionClosed:
            outcome.append("eof")

    def client():
        conn = yield from net.connect(net.host("alpha"), Address("beta", 5000))
        conn.close()

    sim.process(server())
    sim.process(client())
    sim.run()
    assert outcome == ["eof"]


def test_send_after_close_raises():
    sim, net = make_net()
    listener = net.listen(net.host("beta"), 5000)

    def server():
        yield from listener.accept()

    def client():
        conn = yield from net.connect(net.host("alpha"), Address("beta", 5000))
        conn.close()
        with pytest.raises(ConnectionClosed):
            yield from conn.send("x")

    sim.process(server())
    sim.run_process(client())


def test_duplicate_bind_rejected():
    sim, net = make_net()
    net.listen(net.host("beta"), 5000)
    with pytest.raises(NetworkError):
        net.listen(net.host("beta"), 5000)


def test_latency_scopes_local_lan_backbone():
    sim, net = make_net()
    # local < lan < backbone ordering of delivery times
    times = {}

    def ping(src, dst, tag, port):
        listener = net.listen(net.host(dst), port)

        def server():
            conn = yield from listener.accept()
            yield from conn.recv()
            times[tag] = sim.now

        def client():
            conn = yield from net.connect(net.host(src), Address(dst, port))
            yield from conn.send("x")

        sim.process(server())
        sim.process(client())

    ping("alpha", "alpha", "local", 6000)
    ping("alpha", "beta", "lan", 6001)
    ping("alpha", "gamma", "backbone", 6002)
    sim.run()
    assert times["local"] < times["lan"] < times["backbone"]


def test_traffic_accounting_by_scope():
    sim, net = make_net()
    sim.process(server_echo(net, "gamma", 5000)())

    def client():
        conn = yield from net.connect(net.host("alpha"), Address("gamma", 5000))
        yield from conn.send("x" * 100)
        yield from conn.recv()

    sim.run_process(client())
    assert net.stats.bytes_backbone >= 100
    assert net.stats.bytes_local == 0


def test_host_crash_drops_inflight_and_closes_listeners():
    sim, net = make_net()
    listener = net.listen(net.host("beta"), 5000)
    outcome = []

    def server():
        conn = yield from listener.accept()
        try:
            while True:
                yield from conn.recv()
        except ConnectionClosed:
            outcome.append("server-closed")

    def client():
        conn = yield from net.connect(net.host("alpha"), Address("beta", 5000))
        yield from conn.send("one")
        yield sim.timeout(1.0)
        net.crash_host("beta")
        # Message to a dead host is silently dropped (no exception).
        yield from conn.send("two")

    sim.process(server())
    sim.process(client())
    sim.run()
    assert not net.host("beta").up
    assert listener.closed


def test_connect_to_crashed_host_refused():
    sim, net = make_net()
    net.listen(net.host("beta"), 5000)
    net.crash_host("beta")

    def client():
        yield from net.connect(net.host("alpha"), Address("beta", 5000), timeout=0.1)

    with pytest.raises(ConnectionRefused):
        sim.run_process(client())


def test_partition_blocks_cross_group_traffic():
    sim, net = make_net()
    sim.process(server_echo(net, "gamma", 5000)())
    net.set_partition([["alpha", "beta"], ["gamma"]])

    def client():
        yield from net.connect(net.host("alpha"), Address("gamma", 5000), timeout=0.1)

    with pytest.raises(ConnectionRefused):
        sim.run_process(client())
    net.clear_partition()

    def client2():
        conn = yield from net.connect(net.host("alpha"), Address("gamma", 5000))
        yield from conn.send("hi")
        return (yield from conn.recv())

    assert sim.run_process(client2()) == ("echo", "hi")


def test_datagram_roundtrip():
    sim, net = make_net()
    a = net.bind_datagram(net.host("alpha"), 7000)
    b = net.bind_datagram(net.host("beta"), 7000)

    def sender():
        yield from a.send(Address("beta", 7000), "ping")

    def receiver():
        source, payload = yield from b.recv()
        return source, payload

    sim.process(sender())
    source, payload = sim.run_process(receiver())
    assert payload == "ping"
    assert source == Address("alpha", 7000)


def test_datagram_loss():
    sim, net = make_net(loss_rate=1.0)
    a = net.bind_datagram(net.host("alpha"), 7000)
    b = net.bind_datagram(net.host("beta"), 7000)

    def sender():
        yield from a.send(Address("beta", 7000), "ping")

    sim.process(sender())
    sim.run()
    assert b.pending() == 0
    assert net.stats.dropped == 1


def test_multicast_reaches_all_members():
    sim, net = make_net()
    group = Address("224.0.0.1", 9000)
    socks = [net.bind_datagram(net.host(h), 7000) for h in ("alpha", "beta", "gamma")]
    for sock in socks[1:]:
        sock.join(group)

    def sender():
        yield from socks[0].send_multicast(group, "announce")

    sim.process(sender())
    sim.run()
    assert socks[1].pending() == 1
    assert socks[2].pending() == 1
    assert socks[0].pending() == 0  # sender doesn't hear itself


def test_multicast_leave():
    sim, net = make_net()
    group = Address("224.0.0.1", 9000)
    a = net.bind_datagram(net.host("alpha"), 7000)
    b = net.bind_datagram(net.host("beta"), 7000)
    b.join(group)
    b.leave(group)

    def sender():
        yield from a.send_multicast(group, "x")

    sim.process(sender())
    sim.run()
    assert b.pending() == 0


def test_ephemeral_ports_unique():
    sim, net = make_net()
    p1 = net.ephemeral_port("alpha")
    p2 = net.ephemeral_port("alpha")
    assert p1 != p2


def test_address_parse():
    assert Address.parse("bar:1234") == Address("bar", 1234)
    with pytest.raises(ValueError):
        Address.parse("no-port")


def test_a_connection_dies_with_its_hosts_incarnation():
    """A segment that reaches an endpoint of a host's previous life is
    refused with a reset: the stale end closes at once (its parked reader
    wakes to EOF, never to the segment) and the sender sees the reset one
    latency later.  While the host is down the segment is only dropped."""
    sim, net = make_net()
    listener = net.listen(net.host("beta"), 5000)
    lan = net.lan_latency
    seen = []

    def zombie():
        conn = yield from listener.accept()
        try:
            while True:
                seen.append((yield from conn.recv()))
        except ConnectionClosed:
            seen.append("eof")

    def client():
        conn = yield from net.connect(net.host("alpha"), Address("beta", 5000))
        yield from conn.send("one")
        yield sim.timeout(0.1)
        net.crash_host("beta")
        yield from conn.send("while-down")
        yield sim.timeout(0.1)
        assert conn.pending() == 0 and seen == ["one"]     # dropped: silence
        net.restart_host("beta")
        sent_at = sim.now
        yield from conn.send("after-restart")
        with pytest.raises(ConnectionReset):
            yield from conn.recv()
        return sim.now - sent_at

    sim.process(zombie())
    elapsed = sim.run_process(client())
    assert seen == ["one", "eof"]
    assert elapsed == pytest.approx(2 * lan, rel=0.05)   # there and back
    assert net.stats.dropped == 2


def test_a_restarted_host_serves_new_connections():
    sim, net = make_net()
    net.crash_host("beta")
    net.restart_host("beta")
    sim.process(server_echo(net, "beta", 5000)())

    def client():
        conn = yield from net.connect(net.host("alpha"), Address("beta", 5000))
        yield from conn.send("hello")
        return (yield from conn.recv())

    assert sim.run_process(client()) == ("echo", "hello")


def _two_shards():
    """alpha on shard 0, beta on shard 1, each shard with the full topology."""
    from repro.net.boundary import BoundaryNetwork
    from repro.sim.parallel import ShardContext

    owner = {"alpha": 0, "beta": 1}.__getitem__
    nets = []
    for index in range(2):
        shard_net = BoundaryNetwork(Simulator(), shard=ShardContext(index, 2, owner))
        shard_net.make_host("alpha")
        shard_net.make_host("beta")
        nets.append(shard_net)
    return nets


def _relay(near, far, until):
    """Run both shards to ``until``, relaying the boundary by hand one
    window (< the lookahead) at a time."""
    step = near.lan_latency / 2
    for k in range(1, round(until / step) + 1):
        for shard_net in (near, far):
            shard_net.sim.run(until=k * step)
        for src, dst in ((near, far), (far, near)):
            for messages in src.drain_outbox().values():
                dst.inject(messages)


def test_the_owning_shard_fences_a_stale_boundary_endpoint():
    """Across a shard boundary the host's owner refuses the segment and
    the reset rides back as a close message; the sender's shard sees it
    as a reset, the stale end's reader as EOF."""
    near, far = _two_shards()
    listener = far.listen(far.host("beta"), 5000)
    seen, outcome = [], {}

    def zombie():
        conn = yield from listener.accept()
        try:
            while True:
                seen.append((yield from conn.recv()))
        except ConnectionClosed:
            seen.append("eof")

    def client():
        conn = yield from near.connect(near.host("alpha"), Address("beta", 5000))
        yield from conn.send("one")
        yield near.sim.timeout(0.1)
        far.crash_host("beta")
        far.restart_host("beta")
        yield from conn.send("after-restart")
        try:
            yield from conn.recv()
        except ConnectionReset:
            outcome["reset_at"] = near.sim.now

    far.sim.process(zombie())
    near.sim.process(client())
    _relay(near, far, 1999 * near.lan_latency / 2)
    assert seen == ["one", "eof"]
    assert "reset_at" in outcome
    assert not far._boundary_conns and not near._boundary_conns


def _crash_closes_the_far_end(near, far, restart):
    """alpha holds a stream to beta; at 0.1 s beta crashes, and its crash
    closes beta's end, as a resident's ``kill()`` does.  With ``restart``
    beta is back at once and alpha sends again at 0.2 s.  Returns how
    alpha's read ended, and when."""
    listener = far.listen(far.host("beta"), 5000)
    outcome = []

    class Server:
        """A resident of beta holding the far end."""

        def kill(self):
            self.conn.close()

    server = Server()
    far.host("beta").residents[server] = None

    def accept():
        server.conn = yield from listener.accept()

    def crash():
        yield far.sim.timeout(0.1)
        far.crash_host("beta")
        if restart:
            far.restart_host("beta")

    def client():
        conn = yield from near.connect(near.host("alpha"), Address("beta", 5000))
        yield near.sim.timeout(0.2)
        if restart:
            yield from conn.send("after-restart")
        try:
            yield from conn.recv()
        except ConnectionClosed as exc:
            outcome.append((type(exc), near.sim.now))

    far.sim.process(accept())
    far.sim.process(crash())
    near.sim.process(client())
    return outcome


@pytest.mark.parametrize("restart", [False, True], ids=["still-down", "restarted-first"])
def test_an_endpoint_its_crash_closed_ends_alike_on_one_kernel_and_two_shards(restart):
    """A dead host's endpoint sends nothing when its crash closes it.  A
    peer still waiting one connect timeout later sees EOF if the host is
    still down; if the host came back first, the peer's next segment is
    reset.  The owning shard of a 2-shard fabric gives the same ends at
    the same instants."""
    sim, net = make_net()
    alone = _crash_closes_the_far_end(net, net, restart)
    sim.run(until=1.5)
    near, far = _two_shards()
    sharded = _crash_closes_the_far_end(near, far, restart)
    _relay(near, far, 1.5)

    ((kind, at),) = alone
    if restart:
        assert kind is ConnectionReset
        assert at == pytest.approx(0.2 + 2 * net.lan_latency, rel=0.05)
    else:
        assert kind is ConnectionClosed
        assert at == pytest.approx(0.1 + net.connect_timeout, abs=1e-9)
    assert [(k, pytest.approx(t, abs=1e-9)) for k, t in sharded] == alone
    assert not far._boundary_conns and not near._boundary_conns


def test_a_boundary_close_never_overtakes_the_data_it_follows():
    """Across a shard boundary too, a close posted right after a send
    lands no earlier than the data, jittered latencies or not."""
    from repro.net.boundary import BoundaryNetwork
    from repro.sim.parallel import ShardContext

    def send_then_close(seed):
        owner = {"alpha": 0, "beta": 1}.__getitem__
        near, far = (
            BoundaryNetwork(Simulator(), RngRegistry(seed), shard=ShardContext(i, 2, owner),
                            jitter_frac=0.5)
            for i in range(2))
        for shard_net in (near, far):
            shard_net.make_host("alpha", segment="east")
            shard_net.make_host("beta", segment="west")
        listener = far.listen(far.host("beta"), 5000)
        read = []

        def server():
            conn = yield from listener.accept()
            try:
                while True:
                    read.append((yield from conn.recv()))
            except ConnectionClosed:
                read.append("eof")

        def client():
            conn = yield from near.connect(near.host("alpha"), Address("beta", 5000))
            yield from conn.send("x" * 120)
            conn.close()

        far.sim.process(server())
        near.sim.process(client())
        _relay(near, far, 0.05)
        return read

    assert [seed for seed in range(40) if send_then_close(seed) != ["x" * 120, "eof"]] == []
