"""Chapter 9 extensions: mobile sockets, nearest-printer automation,
voice device control."""

import pytest

from repro.core.mobile import MobileServiceConnection, NoInstanceAvailable
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.services import dsp
from repro.services.audio import SpeechToCommandDaemon, TextToSpeechDaemon
from repro.services.devices import Epson7350ProjectorDaemon
from repro.services.printer import PrinterDaemon, TaskAutomationDaemon
from tests.core.conftest import EchoDaemon


# ---------------------------------------------------------------------------
# Mobile sockets
# ---------------------------------------------------------------------------

def mobile_env():
    env = ACEEnvironment(seed=120, lease_duration=5.0)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    for i in (1, 2):
        host = env.add_workstation(f"ehost{i}", room="lab", monitors=False)
        env.add_daemon(EchoDaemon(env.ctx, f"echo{i}", host, room="lab"))
    env.boot()
    return env


def test_mobile_connection_survives_instance_death():
    env = mobile_env()
    client = env.client(env.net.host("infra"), principal="mobile-user")
    mobile = MobileServiceConnection(client, env.asd_address, cls="Echo")

    def session():
        yield from mobile.connect()
        first = mobile.current.name
        reply1 = yield from mobile.call(ACECmdLine("echo", text="before"))
        # Kill whichever instance we're bound to.
        env.net.crash_host(env.daemons[first].host.name)
        reply2 = yield from mobile.call(ACECmdLine("echo", text="after"))
        mobile.close()
        return first, reply1["by"], reply2["by"]

    first, by1, by2 = env.run(session())
    assert by1 == first
    assert by2 != first            # resumed on the other instance
    assert mobile.failovers == 1
    assert mobile.last_failover_time < 2.0


def test_mobile_connection_fast_failover_before_lease_expiry():
    """The ASD may still list the dead instance (lease not expired);
    the mobile socket skips it and finds the live one anyway."""
    env = mobile_env()
    client = env.client(env.net.host("infra"), principal="mobile-user")
    mobile = MobileServiceConnection(client, env.asd_address, cls="Echo")

    def session():
        yield from mobile.connect()
        victim = mobile.current.name
        env.net.crash_host(env.daemons[victim].host.name)
        # Immediately (ASD still lists the dead one for up to 5 s):
        reply = yield from mobile.call(ACECmdLine("echo", text="x"))
        mobile.close()
        return victim, reply["by"]

    victim, by = env.run(session())
    assert by != victim
    assert by.startswith("echo")


def test_mobile_connection_no_instances():
    env = mobile_env()
    client = env.client(env.net.host("infra"), principal="mobile-user")
    mobile = MobileServiceConnection(client, env.asd_address, cls="NoSuchClass")

    def session():
        with pytest.raises(NoInstanceAvailable):
            yield from mobile.connect()

    env.run(session())


def test_mobile_semantic_errors_not_retried():
    """cmdFailed replies must raise, not trigger failover storms."""
    env = mobile_env()
    from repro.core import CallError

    client = env.client(env.net.host("infra"), principal="mobile-user")
    mobile = MobileServiceConnection(client, env.asd_address, cls="Echo")

    def session():
        yield from mobile.connect()
        with pytest.raises(CallError):
            yield from mobile.call(ACECmdLine("boom"))
        mobile.close()

    env.run(session())
    assert mobile.failovers == 0


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
