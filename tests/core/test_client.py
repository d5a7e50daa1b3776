"""Unit tests for the client proxy layer and channel bindings."""

import pytest

from repro.core import CallError, ServiceClient, TransportError
from repro.core.client import channel_binding
from repro.lang import ACECmdLine
from repro.net import ConnectionRefused

from tests.core.conftest import AceFixture, EchoDaemon


@pytest.fixture
def ace_echo():
    ace = AceFixture().boot()
    host = ace.net.make_host("bar", room="hawk")
    echo = EchoDaemon(ace.ctx, "echo1", host, room="hawk")
    ace.add_daemon(echo)
    echo.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    return ace, echo


def test_call_error_carries_reply(ace_echo):
    ace, echo = ace_echo

    def go():
        client = ace.client()
        conn = yield from client.connect(echo.address)
        try:
            yield from conn.call(ACECmdLine("boom"))
        except CallError as exc:
            return exc
        finally:
            conn.close()

    exc = ace.run(go())
    assert exc.reply is not None
    assert exc.reply.name == "cmdFailed"
    assert exc.reply["cmd"] == "boom"


def test_call_closes_connection_on_failure(ace_echo):
    ace, echo = ace_echo

    def go():
        client = ace.client()
        with pytest.raises(CallError):
            yield from client.call(echo.address, ACECmdLine("boom"))
        # A fresh call still works: nothing leaked.
        reply = yield from client.call(echo.address, ACECmdLine("echo", text="ok"))
        return reply

    assert ace.run(go())["text"] == "ok"


def test_connect_without_attach(ace_echo):
    ace, echo = ace_echo

    def go():
        client = ace.client()
        conn = yield from client.connect(echo.address, attach=False)
        reply = yield from conn.call(ACECmdLine("ping"))
        conn.close()
        return reply

    assert ace.run(go()).name == "cmdOk"


def test_connect_refused_propagates(ace_echo):
    ace, echo = ace_echo

    def go():
        client = ace.client()
        with pytest.raises(TransportError) as info:
            yield from client.connect(type(echo.address)("bar", 59999))
        assert isinstance(info.value.__cause__, ConnectionRefused)
        assert str(info.value) == str(info.value.__cause__)

    ace.run(go())


def test_channel_binding_differs_per_connection(ace_echo):
    ace, echo = ace_echo

    def go():
        client = ace.client()
        c1 = yield from client.connect(echo.address)
        c2 = yield from client.connect(echo.address)
        b1, b2 = channel_binding(c1.channel), channel_binding(c2.channel)
        c1.close()
        c2.close()
        return b1, b2

    b1, b2 = ace.run(go())
    assert b1 != b2


def test_client_principal_reaches_daemon(ace_echo):
    ace, echo = ace_echo
    principals = []
    original = echo.cmd_echo

    def spy(request):
        principals.append(request.principal)
        return original(request)

    echo.cmd_echo = spy

    def go():
        client = ServiceClient(ace.ctx, ace.infra_host, principal="user:carol")
        yield from client.call(echo.address, ACECmdLine("echo", text="x"))

    ace.run(go())
    assert principals == ["user:carol"]
