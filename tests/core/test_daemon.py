"""Integration-ish unit tests for the base daemon: dispatch, threads,
startup sequence, and the built-in command set."""

import pytest

from repro.core import CallError
from repro.core.daemon import Request
from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.lang.command import CLIENT_ID_ARG, CLIENT_SEQ_ARG
from repro.net import Address

from tests.core.conftest import EchoDaemon


def test_echo_roundtrip(ace_with_echo):
    ace, echo = ace_with_echo

    def scenario():
        client = ace.client()
        reply = yield from client.call(echo.address, ACECmdLine("echo", text="hi"))
        return reply

    reply = ace.run(scenario())
    assert reply["text"] == "hi"
    assert reply["by"] == "echo1"


def test_generator_handler_takes_sim_time(ace_with_echo):
    ace, echo = ace_with_echo

    def scenario():
        client = ace.client()
        t0 = ace.sim.now
        yield from client.call(
            echo.address, ACECmdLine("slowEcho", text="x", delay=2.0)
        )
        return ace.sim.now - t0

    elapsed = ace.run(scenario())
    assert elapsed >= 2.0


def test_service_error_becomes_cmd_failed(ace_with_echo):
    ace, echo = ace_with_echo

    def scenario():
        client = ace.client()
        with pytest.raises(CallError, match="intentional failure"):
            yield from client.call(echo.address, ACECmdLine("boom"))
        # unchecked call returns the raw failure reply
        conn = yield from client.connect(echo.address)
        reply = yield from conn.call(ACECmdLine("boom"), check=False)
        conn.close()
        return reply

    reply = ace.run(scenario())
    assert reply.name == "cmdFailed"
    assert reply["cmd"] == "boom"


def test_unknown_command_rejected_by_semantics(ace_with_echo):
    ace, echo = ace_with_echo

    def scenario():
        client = ace.client()
        with pytest.raises(CallError, match="unknown command"):
            yield from client.call(echo.address, ACECmdLine("fabricated"))

    ace.run(scenario())


def test_malformed_string_gets_parse_failure(ace_with_echo):
    ace, echo = ace_with_echo

    def scenario():
        client = ace.client()
        conn = yield from client.connect(echo.address)
        yield from conn.channel.send("this is ; not a command =")
        reply_text = yield from conn.channel.recv()
        conn.close()
        return reply_text

    reply_text = ace.run(scenario())
    assert "cmdFailed" in reply_text


def test_builtin_ping_listcommands_getinfo(ace_with_echo):
    ace, echo = ace_with_echo

    def scenario():
        client = ace.client()
        conn = yield from client.connect(echo.address)
        pong = yield from conn.call(ACECmdLine("ping"))
        cmds = yield from conn.call(ACECmdLine("listCommands"))
        info = yield from conn.call(ACECmdLine("getInfo"))
        conn.close()
        return pong, cmds, info

    pong, cmds, info = ace.run(scenario())
    assert pong.name == "cmdOk"
    assert "echo" in cmds["commands"]
    assert "addNotification" in cmds["commands"]
    assert info["name"] == "echo1"
    assert info["cls"] == "ACEService/Echo"
    assert info["room"] == "hawk"


def test_class_path_reflects_hierarchy():
    class Sub(EchoDaemon):
        service_type = "SubEcho"

    assert Sub.class_path() == "ACEService/Echo/SubEcho"
    assert EchoDaemon.class_path() == "ACEService/Echo"


def test_startup_sequence_trace_order(ace_with_echo):
    """Fig. 9: launch → RoomDB → ASD → NetLogger → ready."""
    ace, echo = ace_with_echo
    kinds = [
        r.kind
        for r in ace.ctx.trace.records
        if r.source == "echo1"
        and r.kind in ("daemon-launch", "roomdb-registered", "asd-registered",
                       "netlogger-logged", "daemon-ready")
    ]
    assert kinds == [
        "daemon-launch",
        "roomdb-registered",
        "asd-registered",
        "netlogger-logged",
        "daemon-ready",
    ]


def test_startup_registers_room_and_log(ace_with_echo):
    ace, echo = ace_with_echo
    assert "echo1" in ace.roomdb.rooms["hawk"].services
    assert any(
        e.source == "echo1" and e.event == "service_started" for e in ace.netlogger.entries
    )
    assert "echo1" in ace.asd.records


def test_concurrent_clients_both_served(ace_with_echo):
    ace, echo = ace_with_echo
    results = []

    def one_client(tag):
        client = ace.client(principal=tag)
        reply = yield from client.call(echo.address, ACECmdLine("echo", text=tag))
        results.append(reply["text"])

    ace.sim.process(one_client("a"))
    ace.sim.process(one_client("b"))
    ace.sim.run(until=ace.sim.now + 5.0)
    assert sorted(results) == ["a", "b"]


def test_control_thread_serializes_commands(ace_with_echo):
    """Two slow commands from two connections execute back-to-back, not
    in parallel: the control thread is single (§2.1.1)."""
    ace, echo = ace_with_echo
    finish = []

    def one(tag):
        client = ace.client(principal=tag)
        yield from client.call(echo.address, ACECmdLine("slowEcho", text=tag, delay=1.0))
        finish.append(ace.sim.now)

    ace.sim.process(one("a"))
    ace.sim.process(one("b"))
    ace.sim.run(until=ace.sim.now + 10.0)
    assert len(finish) == 2
    assert abs(finish[1] - finish[0]) >= 1.0


def test_stop_deregisters_and_closes(ace_with_echo):
    ace, echo = ace_with_echo
    echo.stop()
    ace.sim.run(until=ace.sim.now + 1.0)
    assert "echo1" not in ace.asd.records
    assert not echo.running

    def scenario():
        client = ace.client()
        from repro.core import TransportError

        with pytest.raises(TransportError):
            yield from client.connect(echo.address)

    ace.run(scenario())


def test_commands_served_counter(ace_with_echo):
    ace, echo = ace_with_echo
    before = echo.commands_served

    def scenario():
        client = ace.client()
        yield from client.call(echo.address, ACECmdLine("echo", text="x"))

    ace.run(scenario())
    assert echo.commands_served == before + 1


def test_killing_a_daemon_queued_for_the_core_leaves_the_core_usable(ace_with_echo):
    """kill() interrupts a control thread parked in ``host.execute`` behind
    another daemon's work; its place in the run queue must go with it, or
    the next release grants the only core to a dead request for good."""
    ace, survivor = ace_with_echo
    host = survivor.host  # one core
    victim = EchoDaemon(ace.ctx, "echo2", host, room="hawk")
    ace.add_daemon(victim)
    victim.start()
    ace.sim.run(until=ace.sim.now + 1.0)

    def hog():
        yield from host.execute(1.0 * host.bogomips)  # the core, for 1 s

    def doomed_call():
        yield from ace.client().call(victim.address, ACECmdLine("echo", text="x"))

    def scenario():
        ace.sim.process(hog())
        ace.sim.process(doomed_call()).defuse()
        yield ace.sim.timeout(0.5)
        assert host.run_queue_length() == 1  # the victim's control thread
        victim.kill()
        yield ace.sim.timeout(1.0)
        return (yield from ace.client().call(
            survivor.address, ACECmdLine("echo", text="still here")))

    reply = ace.run(scenario(), timeout=30.0)
    assert reply["text"] == "still here"
    assert (host.cpu.count, host.cpu.queued) == (0, 0)


# -- a handler's dead downstream is its cmdFailed -------------------------------

class RelayDaemon(EchoDaemon):
    """Sends ``boom`` to ``downstream`` from a handler that guards nothing."""

    service_type = "Relay"
    downstream = None
    relayed = 0

    def build_semantics(self, sem: CommandSemantics) -> None:
        super().build_semantics(sem)
        sem.define("relay", ArgSpec("note", ArgType.STRING, required=False))

    def cmd_relay(self, request: Request):
        self.relayed += 1
        yield from self.client.call(self.downstream, ACECmdLine("boom"))
        return {}


@pytest.mark.parametrize("downstream, reason", [
    ("dead", "nothing listening at bar:59999"),
    ("cmdFailed", "'boom' failed: intentional failure"),
])
def test_unguarded_downstream_failure_is_the_handlers_cmd_failed(
        ace_with_echo, downstream, reason):
    """A ``CallError`` that leaves a handler — nobody answered it, or its
    downstream answered ``cmdFailed`` — is that handler's ``cmdFailed``:
    counted, traced and remembered like any reply, and the daemon serves on."""
    ace, echo = ace_with_echo
    relay = RelayDaemon(ace.ctx, "relay", echo.host, room="hawk")
    relay.downstream = Address("bar", 59999) if downstream == "dead" else echo.address
    ace.add_daemon(relay)
    relay.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    client = ace.client(principal="caller")
    served = relay.commands_served
    stamped = ACECmdLine("relay", **{CLIENT_ID_ARG: "caller#1", CLIENT_SEQ_ARG: 0})

    def flow():
        root = client.begin_trace("relay")
        try:
            with pytest.raises(CallError) as first:
                yield from client.call(relay.address, stamped)
        finally:
            client.end_trace(root)
        with pytest.raises(CallError) as retry:
            yield from client.call(relay.address, stamped)
        pong = yield from client.call(relay.address, ACECmdLine("ping"))
        return root, first.value, retry.value, pong

    root, first, retry, pong = ace.run(flow())
    assert type(first) is CallError
    assert first.reply.name == "cmdFailed" and first.reply["reason"] == reason
    assert pong.name == "cmdOk"
    # the retry of the same (client_id, seq) is the remembered reply, not a re-run
    assert retry.reply == first.reply and relay.relayed == 1
    assert relay.commands_served == served + 2   # relay + ping; a replay is not served
    spans = {s.name: s.status for s in ace.ctx.obs.tracer.spans_for(root.trace_id)}
    assert spans["serve:relay"] == "cmdFailed"
