"""Unit tests for NotificationTable + end-to-end notification delivery."""

from repro.core.notifications import NotificationEntry, NotificationTable
from repro.lang import ACECmdLine
from repro.net import Address

from tests.core.conftest import EchoDaemon


def entry(cmd="echo", listener="l1", host="h", port=1, callback="cb"):
    return NotificationEntry(cmd, listener, Address(host, port), callback)


# -- unit ---------------------------------------------------------------------

def test_add_and_listeners():
    table = NotificationTable()
    assert table.add(entry()) is True
    assert table.add(entry()) is False  # duplicate
    assert len(table.listeners("echo")) == 1
    assert table.listeners("other") == []


def test_remove_specific_callback():
    table = NotificationTable()
    table.add(entry(callback="cb1"))
    table.add(entry(callback="cb2"))
    assert table.remove("echo", "l1", "cb1") == 1
    assert [e.callback for e in table.listeners("echo")] == ["cb2"]


def test_remove_any_callback():
    table = NotificationTable()
    table.add(entry(callback="cb1"))
    table.add(entry(callback="cb2"))
    assert table.remove("echo", "l1") == 2
    assert table.watched_commands() == []


def test_remove_listener_everywhere():
    table = NotificationTable()
    table.add(entry(cmd="a"))
    table.add(entry(cmd="b"))
    table.add(entry(cmd="b", listener="other"))
    assert table.remove_listener("l1") == 2
    assert len(table) == 1


def test_entries_iteration_sorted():
    table = NotificationTable()
    table.add(entry(cmd="z"))
    table.add(entry(cmd="a"))
    assert [e.command for e in table.entries()] == ["a", "z"]


# -- integration (Fig. 8) -------------------------------------------------------

def make_listener(ace, name="listener"):
    host = ace.net.make_host(f"host-{name}", room="hawk")
    daemon = EchoDaemon(ace.ctx, name, host, room="hawk")
    ace.add_daemon(daemon)
    daemon.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    return daemon


def test_notification_delivered_on_command(ace_with_echo):
    ace, echo = ace_with_echo
    listener = make_listener(ace)

    def scenario():
        client = ace.client()
        # Step: listener asks echo1 to notify it when "echo" executes.
        yield from client.call(
            echo.address,
            ACECmdLine(
                "addNotification",
                cmd="echo",
                listener=listener.name,
                host=listener.host.name,
                port=listener.port,
                callback="onEchoSeen",
            ),
        )
        yield from client.call(echo.address, ACECmdLine("echo", text="trigger me"))

    ace.run(scenario())
    ace.sim.run(until=ace.sim.now + 2.0)
    assert len(listener.seen_notifications) == 1
    note = listener.seen_notifications[0]
    assert note["source"] == "echo1"
    assert note["trigger"] == "echo"
    assert "trigger me" in note["args"]


def test_failed_command_does_not_notify(ace_with_echo):
    ace, echo = ace_with_echo
    listener = make_listener(ace)

    def scenario():
        client = ace.client()
        yield from client.call(
            echo.address,
            ACECmdLine(
                "addNotification", cmd="boom", listener=listener.name,
                host=listener.host.name, port=listener.port, callback="onEchoSeen",
            ),
        )
        conn = yield from client.connect(echo.address)
        yield from conn.call(ACECmdLine("boom"), check=False)
        conn.close()

    ace.run(scenario())
    ace.sim.run(until=ace.sim.now + 2.0)
    assert listener.seen_notifications == []


def test_remove_notification_stops_delivery(ace_with_echo):
    ace, echo = ace_with_echo
    listener = make_listener(ace)

    def scenario():
        client = ace.client()
        add = ACECmdLine(
            "addNotification", cmd="echo", listener=listener.name,
            host=listener.host.name, port=listener.port, callback="onEchoSeen",
        )
        yield from client.call(echo.address, add)
        yield from client.call(
            echo.address,
            ACECmdLine("removeNotification", cmd="echo", listener=listener.name),
        )
        yield from client.call(echo.address, ACECmdLine("echo", text="quiet"))

    ace.run(scenario())
    ace.sim.run(until=ace.sim.now + 2.0)
    assert listener.seen_notifications == []


def test_watch_unknown_command_rejected(ace_with_echo):
    ace, echo = ace_with_echo

    def scenario():
        from repro.core import CallError
        import pytest

        client = ace.client()
        with pytest.raises(CallError, match="unknown command"):
            yield from client.call(
                echo.address,
                ACECmdLine(
                    "addNotification", cmd="nonexistent", listener="x",
                    host="h", port=1, callback="cb",
                ),
            )

    ace.run(scenario())


def test_multiple_listeners_all_notified(ace_with_echo):
    ace, echo = ace_with_echo
    listeners = [make_listener(ace, f"listener{i}") for i in range(3)]

    def scenario():
        client = ace.client()
        for listener in listeners:
            yield from client.call(
                echo.address,
                ACECmdLine(
                    "addNotification", cmd="echo", listener=listener.name,
                    host=listener.host.name, port=listener.port, callback="onEchoSeen",
                ),
            )
        yield from client.call(echo.address, ACECmdLine("echo", text="fanout"))

    ace.run(scenario())
    ace.sim.run(until=ace.sim.now + 2.0)
    assert all(len(l.seen_notifications) == 1 for l in listeners)


def test_dead_listener_purged_after_failure(ace_with_echo):
    ace, echo = ace_with_echo
    listener = make_listener(ace)

    def scenario():
        client = ace.client()
        yield from client.call(
            echo.address,
            ACECmdLine(
                "addNotification", cmd="echo", listener=listener.name,
                host=listener.host.name, port=listener.port, callback="onEchoSeen",
            ),
        )

    ace.run(scenario())
    ace.net.crash_host(listener.host.name)

    def trigger():
        client = ace.client()
        yield from client.call(echo.address, ACECmdLine("echo", text="to the void"))

    ace.run(trigger())
    ace.sim.run(until=ace.sim.now + 5.0)
    assert len(echo.notifications) == 0  # purged on delivery failure


def test_notifications_to_same_address_are_batched(ace_with_echo):
    """Two watchers behind one address share a pooled connection: the
    daemon groups their deliveries and counts the batch."""
    ace, echo = ace_with_echo
    listener = make_listener(ace)

    def scenario():
        client = ace.client()
        for who in ("watcher-a", "watcher-b"):
            yield from client.call(
                echo.address,
                ACECmdLine(
                    "addNotification", cmd="echo", listener=who,
                    host=listener.host.name, port=listener.port,
                    callback="onEchoSeen",
                ),
            )
        yield from client.call(echo.address, ACECmdLine("echo", text="fan out"))

    ace.run(scenario())
    ace.sim.run(until=ace.sim.now + 2.0)
    assert len(listener.seen_notifications) == 2
    batched = ace.ctx.obs.metrics.counter("daemon.echo1.notifications.batched")
    assert batched.value == 2


def test_channel_death_mid_fanout_purges_everyone_behind_it(ace_with_echo):
    """The listeners' end hangs up on the first of two deliveries over
    their shared connection: the transport error closes that connection
    and purges both — the second is never tried on the dead channel, and
    nothing dead is handed back to the pool."""
    ace, echo = ace_with_echo
    listener = make_listener(ace)
    notify_client = echo._notification_client()
    connect, dialled = notify_client.connect, []

    def hang_up_on_delivery(request):
        listener.seen_notifications.append(request.command.args)
        dialled[0].channel.peer.close()
        return {}

    listener.cmd_onEchoSeen = hang_up_on_delivery

    def recording_connect(*args, **kw):
        conn = yield from connect(*args, **kw)
        dialled.append(conn)
        return conn

    notify_client.connect = recording_connect
    discard = ace.ctx.obs.metrics.counter("rpc.pool.discard")

    def scenario():
        client = ace.client()
        for who in ("watcher-a", "watcher-b"):
            yield from client.call(
                echo.address,
                ACECmdLine(
                    "addNotification", cmd="echo", listener=who,
                    host=listener.host.name, port=listener.port,
                    callback="onEchoSeen",
                ),
            )
        yield from client.call(echo.address, ACECmdLine("echo", text="fan out"))

    ace.run(scenario())
    ace.sim.run(until=ace.sim.now + 2.0)
    assert len(listener.seen_notifications) == 1     # second never sent
    assert len(echo.notifications) == 0              # both purged
    (conn,) = dialled
    assert conn.closed
    assert discard.value == 0
    assert not any(notify_client.pool._idle.values())
