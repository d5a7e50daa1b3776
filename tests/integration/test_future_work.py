"""Chapter 9 extensions: mobile sockets, nearest-printer automation,
voice device control."""

import pytest

from repro.core import CallError, Service
from repro.core.client import FAILOVER_POLICY
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.services import dsp
from repro.services.audio import SpeechToCommandDaemon, TextToSpeechDaemon
from repro.services.devices import Epson7350ProjectorDaemon
from repro.services.printer import PrinterDaemon, TaskAutomationDaemon
from tests.core.conftest import EchoDaemon


# ---------------------------------------------------------------------------
# Mobile sockets: a call that names a service, not an address
# ---------------------------------------------------------------------------

def mobile_env():
    env = ACEEnvironment(seed=120, lease_duration=5.0)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    for i in (1, 2):
        host = env.add_workstation(f"ehost{i}", room="lab", monitors=False)
        env.add_daemon(EchoDaemon(env.ctx, f"echo{i}", host, room="lab"))
    env.boot()
    return env


def test_service_call_survives_instance_death_before_lease_expiry():
    """The ASD still lists the dead instance (lease not expired); the call
    pays one attempt timeout on it and is answered by the live one."""
    env = mobile_env()
    client = env.client(env.net.host("infra"), principal="mobile-user")

    def session():
        echo = Service(cls="Echo")
        first = yield from client.call(echo, ACECmdLine("echo", text="before"),
                                       policy=FAILOVER_POLICY)
        env.net.crash_host(env.daemons[first["by"]].host.name)
        t0 = env.sim.now
        second = yield from client.call(echo, ACECmdLine("echo", text="after"),
                                        policy=FAILOVER_POLICY)
        return first["by"], second["by"], env.sim.now - t0

    by1, by2, outage = env.run(session())
    assert {by1, by2} == {"echo1", "echo2"}    # resumed on the other instance
    assert outage < 2.0 < env.ctx.lease_duration
    assert env.ctx.obs.metrics.counter("rpc.failover").value == 1


def test_service_call_no_instances():
    env = mobile_env()
    client = env.client(env.net.host("infra"), principal="mobile-user")

    def session():
        with pytest.raises(CallError, match="no service matching cls='NoSuchClass'") as err:
            yield from client.call(Service(cls="NoSuchClass"), ACECmdLine("ping"),
                                   policy=FAILOVER_POLICY)
        assert type(err.value) is CallError and err.value.reply is None

    env.run(session())


def test_service_call_semantic_errors_not_failed_over():
    """cmdFailed replies must raise, not trigger failover storms."""
    env = mobile_env()
    client = env.client(env.net.host("infra"), principal="mobile-user")

    def session():
        with pytest.raises(CallError) as err:
            yield from client.call(Service(cls="Echo"), ACECmdLine("boom"),
                                   policy=FAILOVER_POLICY)
        assert type(err.value) is CallError and err.value.reply is not None

    env.run(session())
    assert env.ctx.obs.metrics.counter("rpc.failover").value == 0


# ---------------------------------------------------------------------------
# Nearest-printer task automation
# ---------------------------------------------------------------------------

def printer_env():
    env = ACEEnvironment(seed=121)
    env.add_infrastructure("infra")
    env.add_room("hawk", dims=(10.0, 8.0, 3.0))
    env.add_room("office21", dims=(4.0, 3.0, 3.0))
    hawk_host = env.add_workstation("podium", room="hawk", monitors=False)
    office_host = env.add_workstation("desk", room="office21", monitors=False)
    env.add_device(PrinterDaemon, "printer.hawk", hawk_host, room="hawk")
    env.add_device(PrinterDaemon, "printer.office", office_host, room="office21")
    env.add_daemon(TaskAutomationDaemon(env.ctx, "automation", env.net.host("infra"),
                                        room="machineroom"))
    env.boot()
    # Register a user and place him in the hawk conference room.
    identity = env.create_identity("john", fullname="John Doe")
    env.register_user_direct(identity)
    env.daemon("aud").users["john"].location = "hawk"
    return env


def test_print_nearest_prefers_users_room():
    env = printer_env()

    def go():
        client = env.client(env.net.host("infra"), principal="john")
        return (yield from client.call(
            env.daemon("automation").address,
            ACECmdLine("printNearest", user="john", doc="slides.ps", pages=2),
        ))

    reply = env.run(go())
    assert reply["printer"] == "printer.hawk"
    assert reply["selection"] == "same-room"
    env.run_for(15.0)
    assert "slides.ps" in env.daemon("printer.hawk").printed
    assert env.daemon("printer.office").printed == []


def test_print_nearest_falls_back_without_location():
    env = printer_env()
    env.daemon("aud").users["john"].location = ""  # never identified

    def go():
        client = env.client(env.net.host("infra"), principal="john")
        return (yield from client.call(
            env.daemon("automation").address,
            ACECmdLine("printNearest", user="john", doc="memo.txt"),
        ))

    reply = env.run(go())
    assert reply["selection"] == "fallback"


def test_printer_spools_in_order():
    env = printer_env()
    printer = env.daemon("printer.hawk")

    def go():
        client = env.client(env.net.host("infra"), principal="john")
        conn = yield from client.connect(printer.address)
        for doc in ("a.ps", "b.ps", "c.ps"):
            yield from conn.call(ACECmdLine("printDocument", doc=doc))
        queue = yield from conn.call(ACECmdLine("getQueue"))
        conn.close()
        return queue

    queue = env.run(go())
    # One job may already be in the spooler's hands (neither queued nor done).
    assert 2 <= queue["queued"] + queue["printed"] <= 3
    env.run_for(20.0)
    assert printer.printed == ["a.ps", "b.ps", "c.ps"]


def test_printer_validates_pages():
    env = printer_env()
    from repro.core import CallError

    def go():
        client = env.client(env.net.host("infra"), principal="john")
        with pytest.raises(CallError, match="pages"):
            yield from client.call(
                env.daemon("printer.hawk").address,
                ACECmdLine("printDocument", doc="x", pages=0),
            )

    env.run(go())


# ---------------------------------------------------------------------------
# Voice device control ("the next stage ... commands given by voice", §7.5)
# ---------------------------------------------------------------------------

def test_voice_controls_projector():
    env = ACEEnvironment(seed=122)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    av = env.add_workstation("hawk-av", room="hawk", bogomips=3200.0, monitors=False)
    projector = env.add_device(Epson7350ProjectorDaemon, "projector", av, room="hawk")
    tts = env.add_daemon(TextToSpeechDaemon(env.ctx, "tts", av, room="hawk"))
    s2c = env.add_daemon(SpeechToCommandDaemon(env.ctx, "s2c", av, room="hawk"))
    env.boot()

    def setup():
        client = env.client(env.net.host("infra"))
        yield from client.call(
            tts.address,
            ACECmdLine("addSink", host=s2c.address.host, port=s2c.address.port))
        yield from client.call(
            s2c.address,
            ACECmdLine("mapCommand", word="projector_on",
                       host=projector.address.host, port=projector.address.port,
                       command="power state=on;"))
        # John says "projector on" (via the TTS as a stand-in speaker).
        yield from client.call(tts.address, ACECmdLine("say", text="projector_on"))

    env.run(setup())
    env.run_for(3.0)
    assert projector.powered is True
    assert [w for _, w in s2c.recognized] == ["projector_on"]
