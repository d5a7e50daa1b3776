"""Edge-case coverage for the network fabric."""

import pytest

from repro.net import Address, Network
from repro.net.sockets import ConnectionClosed, wire_size
from repro.sim import RngRegistry, Simulator


def make_net(**kw):
    sim = Simulator()
    net = Network(sim, RngRegistry(3), **kw)
    net.make_host("a", segment="east")
    net.make_host("b", segment="east")
    return sim, net


def test_bandwidth_serialization_delay():
    """A 1 MB transfer at 1 Mbit/s takes ~8 s of transmit time."""
    sim, net = make_net(bandwidth_Bps=125_000.0)
    listener = net.listen(net.host("b"), 5000)
    arrival = {}

    def server():
        conn = yield from listener.accept()
        yield from conn.recv()
        arrival["t"] = sim.now

    def client():
        conn = yield from net.connect(net.host("a"), Address("b", 5000))
        yield from conn.send(b"x" * 1_000_000)

    sim.process(server())
    sim.process(client())
    sim.run()
    assert 7.9 < arrival["t"] < 8.2


def test_wire_size_kinds():
    assert wire_size(b"abc") == 3
    assert wire_size("héllo") == 6  # UTF-8
    assert wire_size(None) == 1
    assert wire_size({"k": 1}) == len(repr({"k": 1}).encode())

    class Sized:
        wire_size = 99

    class SizedCallable:
        def wire_size(self):
            return 7

    assert wire_size(Sized()) == 99
    assert wire_size(SizedCallable()) == 7


def test_traffic_stats_snapshot():
    sim, net = make_net()
    listener = net.listen(net.host("b"), 5000)

    def server():
        conn = yield from listener.accept()
        yield from conn.recv()

    def client():
        conn = yield from net.connect(net.host("a"), Address("b", 5000))
        yield from conn.send("x" * 50)

    sim.process(server())
    sim.process(client())
    sim.run()
    snap = net.stats.snapshot()
    assert snap["bytes_lan"] >= 50
    assert snap["bytes_total"] == snap["bytes_local"] + snap["bytes_lan"] + snap["bytes_backbone"]
    assert snap["messages"] >= 1


def test_jitter_is_deterministic_per_seed():
    def run(seed):
        sim = Simulator()
        net = Network(sim, RngRegistry(seed), jitter_frac=0.5)
        net.make_host("a")
        net.make_host("b")
        listener = net.listen(net.host("b"), 5000)
        times = []

        def server():
            conn = yield from listener.accept()
            for _ in range(5):
                yield from conn.recv()
                times.append(sim.now)

        def client():
            conn = yield from net.connect(net.host("a"), Address("b", 5000))
            for i in range(5):
                yield from conn.send(i)
                yield sim.timeout(0.01)

        sim.process(server())
        sim.process(client())
        sim.run()
        return times

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_restart_host_allows_new_binds():
    sim, net = make_net()
    net.listen(net.host("b"), 5000)
    net.crash_host("b")
    net.restart_host("b")
    listener = net.listen(net.host("b"), 5000)  # old bind was cleared
    assert not listener.closed


def test_partition_validates_host_names():
    sim, net = make_net()
    from repro.net import NetworkError

    with pytest.raises(NetworkError):
        net.set_partition([["nosuchhost"]])


def test_datagram_to_unbound_port_dropped():
    sim, net = make_net()
    sock = net.bind_datagram(net.host("a"), 7000)

    def sender():
        yield from sock.send(Address("b", 7999), "void")

    sim.process(sender())
    sim.run()
    assert net.stats.dropped == 1


def test_duplicate_datagram_bind_rejected():
    sim, net = make_net()
    from repro.net import NetworkError

    net.bind_datagram(net.host("a"), 7000)
    with pytest.raises(NetworkError):
        net.bind_datagram(net.host("a"), 7000)


def _send_then_close(seed):
    """What a server on another segment reads when, under heavy jitter,
    a client sends 120 bytes and closes at once."""
    sim = Simulator()
    net = Network(sim, RngRegistry(seed), jitter_frac=0.5)
    net.make_host("a", segment="east")
    net.make_host("b", segment="west")
    listener = net.listen(net.host("b"), 5000)
    read = []

    def server():
        conn = yield from listener.accept()
        try:
            while True:
                read.append((yield from conn.recv()))
        except ConnectionClosed as exc:
            read.append(str(exc))

    def client():
        conn = yield from net.connect(net.host("a"), Address("b", 5000))
        yield from conn.send("x" * 120)
        conn.close()

    sim.process(server())
    sim.process(client())
    sim.run()
    return read


def test_a_close_never_overtakes_the_data_it_follows():
    """The EOF's own jittered latency may be shorter than the data's; it
    then lands with the data, after it, instead of cutting it off."""
    expected = ["x" * 120, "peer closed a:10000"]
    assert [seed for seed in range(200) if _send_then_close(seed) != expected] == []
