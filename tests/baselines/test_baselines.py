"""Tests for the three comparison baselines."""

import pytest

from repro.baselines.central import CentralGatewayDaemon
from repro.baselines.jini import JiniLookupService, JiniParticipant, JiniServiceProxy
from repro.baselines.rmi import RMIClient, RMIEnvelope, RMIServer
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.net import Address, Network
from repro.services.devices import VCC4CameraDaemon
from repro.sim import RngRegistry, Simulator


# -- RMI -----------------------------------------------------------------------

def rmi_net():
    sim = Simulator()
    net = Network(sim, RngRegistry(1))
    net.make_host("server")
    net.make_host("client")
    return sim, net


def test_rmi_roundtrip():
    sim, net = rmi_net()
    server = RMIServer(net, net.host("server"), 6000, "PTZCameraInterface")
    server.register("setPosition", lambda x, y, z=0.0: {"pan": x + y})
    server.start()

    def scenario():
        client = RMIClient(net, net.host("client"), "PTZCameraInterface")
        yield from client.connect(server.address)
        result = yield from client.invoke("setPosition", 1.0, 2.0,
                                          signature="(DDD)V", z=0.5)
        client.close()
        return result

    assert sim.run_process(scenario(), timeout=10.0) == {"pan": 3.0}
    assert server.calls_served == 1


def test_rmi_unknown_method_raises():
    sim, net = rmi_net()
    server = RMIServer(net, net.host("server"), 6000, "I")
    server.start()

    def scenario():
        client = RMIClient(net, net.host("client"), "I")
        yield from client.connect(server.address)
        with pytest.raises(RuntimeError, match="NoSuchMethod"):
            yield from client.invoke("ghost")
        client.close()

    sim.run_process(scenario(), timeout=10.0)


def test_rmi_envelope_larger_than_ace_command():
    """The E1 claim, statically: the same logical call costs more bytes
    over RMI than as an ACE command string."""
    ace = ACECmdLine("setPosition", x=1.0, y=2.0, z=0.5)
    call = RMIEnvelope.call("PTZCameraInterface", "setPosition", "(DDD)V",
                            (1.0, 2.0), {"z": 0.5})
    assert call.wire_size() > 2 * ace.wire_size


def test_rmi_server_exception_propagates():
    sim, net = rmi_net()
    server = RMIServer(net, net.host("server"), 6000, "I")

    def boom():
        raise ValueError("device jammed")

    server.register("boom", boom)
    server.start()

    def scenario():
        client = RMIClient(net, net.host("client"), "I")
        yield from client.connect(server.address)
        with pytest.raises(RuntimeError, match="device jammed"):
            yield from client.invoke("boom")
        client.close()

    sim.run_process(scenario(), timeout=10.0)


# -- Jini -------------------------------------------------------------------------

def jini_net():
    sim = Simulator()
    net = Network(sim, RngRegistry(2))
    net.make_host("lookup-host")
    net.make_host("svc-host")
    net.make_host("client-host")
    lookup = JiniLookupService(net, net.host("lookup-host"), lease_duration=5.0)
    lookup.start()
    return sim, net, lookup


def test_jini_multicast_discovery_and_lookup():
    sim, net, lookup = jini_net()

    def scenario():
        svc = JiniParticipant(net, net.host("svc-host"))
        yield from svc.discover()
        proxy = JiniServiceProxy("PTZCamera", "cam1", Address("svc-host", 7000), {})
        lease = yield from svc.join(proxy)
        assert lease == 5.0

        client = JiniParticipant(net, net.host("client-host"))
        yield from client.discover()
        proxies = yield from client.lookup("PTZCamera")
        svc.close()
        client.close()
        return proxies

    proxies = sim.run_process(scenario(), timeout=30.0)
    assert len(proxies) == 1
    assert proxies[0].name == "cam1"
    # The serialized proxy is kilobytes (downloadable stub code).
    assert proxies[0].wire_size() > 4000


def test_jini_lease_expiry_purges():
    sim, net, lookup = jini_net()

    def scenario():
        svc = JiniParticipant(net, net.host("svc-host"))
        yield from svc.discover()
        yield from svc.join(JiniServiceProxy("Printer", "p1", Address("svc-host", 7000), {}))
        yield sim.timeout(6.0)  # past the 5 s lease
        client = JiniParticipant(net, net.host("client-host"))
        yield from client.discover()
        proxies = yield from client.lookup("Printer")
        renewed = yield from svc.renew("p1")
        svc.close()
        client.close()
        return proxies, renewed

    proxies, renewed = sim.run_process(scenario(), timeout=30.0)
    assert proxies == []
    assert renewed is None


def test_jini_discovery_times_out_without_lookup():
    sim = Simulator()
    net = Network(sim, RngRegistry(3))
    net.make_host("client-host")

    def scenario():
        participant = JiniParticipant(net, net.host("client-host"))
        with pytest.raises(TimeoutError):
            yield from participant.discover(timeout=0.2)
        participant.close()

    sim.run_process(scenario(), timeout=10.0)


# -- Central gateway -----------------------------------------------------------------

def test_gateway_forwards_device_commands():
    env = ACEEnvironment(seed=4, net_kwargs={"backbone_latency": 5e-3})
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    room_host = env.add_workstation("podium", room="hawk", segment="east", monitors=False)
    central_host = env.add_workstation("bighost", room="dc", segment="west", monitors=False)
    camera = env.add_device(VCC4CameraDaemon, "cam", room_host, room="hawk")
    gateway = env.add_daemon(
        CentralGatewayDaemon(env.ctx, "gateway", central_host, room="dc")
    )
    env.boot()

    def scenario():
        client = env.client(room_host, principal="user")
        yield from client.call(
            gateway.address,
            ACECmdLine("registerDevice", device="cam", host=room_host.name,
                       port=camera.port),
        )
        backbone_before = env.net.stats.bytes_backbone
        t0 = env.sim.now
        reply = yield from client.call(
            gateway.address,
            ACECmdLine("forward", device="cam", command="power state=on;"),
        )
        central_latency = env.sim.now - t0
        backbone_used = env.net.stats.bytes_backbone - backbone_before

        t1 = env.sim.now
        yield from client.call(camera.address, ACECmdLine("power", state="off"))
        direct_latency = env.sim.now - t1
        return reply, central_latency, direct_latency, backbone_used

    reply, central_latency, direct_latency, backbone_used = env.run(scenario())
    assert reply["r_state"] == "on"
    assert camera.powered is False  # the direct 'off' came last
    # The paper's locality claim: direct is faster and uses no backbone.
    assert direct_latency < central_latency
    assert backbone_used > 0


def test_gateway_unknown_device():
    env = ACEEnvironment(seed=4)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    gateway = env.add_daemon(
        CentralGatewayDaemon(env.ctx, "gateway", env.net.host("infra"))
    )
    env.boot()
    from repro.core import CallError

    def scenario():
        client = env.client(env.net.host("infra"))
        with pytest.raises(CallError, match="unknown device"):
            yield from client.call(
                gateway.address, ACECmdLine("forward", device="ghost", command="ping;")
            )

    env.run(scenario())
