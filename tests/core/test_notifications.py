"""Unit tests for NotificationTable + end-to-end notification delivery."""

from repro.core import ACEDaemon
from repro.core.notifications import (
    CALLBACK_ARGS,
    ClassWatch,
    NotificationEntry,
    NotificationTable,
    notification_event,
)
from repro.lang import ACECmdLine
from repro.lang.command import error_reply
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


# -- the listening half: watch() and ClassWatch ---------------------------------

class EchoWatcher(ACEDaemon):
    """Listens to ``echo`` on every Echo service (optionally one room's)."""

    service_type = "EchoWatcher"

    def __init__(self, *args, only_room=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.echoes = ClassWatch(self, ("Echo",), {"echo": "onEchoSeen"}, room=only_room)
        self.seen = []

    def build_semantics(self, sem):
        sem.define("onEchoSeen", *CALLBACK_ARGS)
        sem.define("onServiceRegistered", *CALLBACK_ARGS)

    def on_started(self):
        self._spawn(self.echoes.watch_directory(), "watch-asd")
        self._spawn(self.echoes.scan(), "subscribe")

    def cmd_onServiceRegistered(self, request):
        return self.echoes.on_registered(request)

    def cmd_onEchoSeen(self, request):
        self.seen.append(notification_event(request).str("text"))
        return {}


def start(ace, daemon, settle=1.0):
    ace.add_daemon(daemon)
    daemon.start()
    ace.sim.run(until=ace.sim.now + settle)
    return daemon


def make_watcher(ace, **kwargs):
    host = ace.net.make_host("host-watcher", room="hawk")
    return start(ace, EchoWatcher(ace.ctx, "watcher", host, **kwargs))


def make_echo(ace, name, room="hawk"):
    host = ace.net.make_host(f"host-{name}", room=room)
    return start(ace, EchoDaemon(ace.ctx, name, host, room=room))


def say(ace, echo, text):
    ace.run(ace.client().call(echo.address, ACECmdLine("echo", text=text)))
    ace.sim.run(until=ace.sim.now + 1.0)


def test_class_watch_subscribes_present_and_later_services(ace_with_echo):
    ace, echo = ace_with_echo
    watcher = make_watcher(ace)
    assert echo.notifications.counts() == {"echo": 1}       # found by the scan
    # EchoWatcher scans once, so only the ``register`` event can cover this.
    late = make_echo(ace, "echo2")
    assert late.notifications.counts() == {"echo": 1}
    say(ace, echo, "first")
    say(ace, late, "second")
    assert watcher.seen == ["first", "second"]


def test_second_register_event_adds_no_second_entry(ace_with_echo):
    ace, echo = ace_with_echo
    watcher = make_watcher(ace)
    asked = ace.ctx.obs.metrics.counter("daemon.echo1.cmd.addNotification")
    assert asked.value == 1
    ace.run(echo._reregister())
    ace.sim.run(until=ace.sim.now + 1.0)
    assert asked.value == 2                  # the listener asked again ...
    assert len(echo.notifications) == 1      # ... and the table kept one entry
    say(ace, echo, "once")
    assert watcher.seen == ["once"]


def test_class_watch_room_narrows_scan_and_registrations(ace_with_echo):
    ace, echo = ace_with_echo               # room "hawk"
    elsewhere = make_echo(ace, "echo-dove", room="dove")
    make_watcher(ace, only_room="hawk")
    assert echo.notifications.counts() == {"echo": 1}
    assert elsewhere.notifications.counts() == {}
    assert make_echo(ace, "echo-dove2", room="dove").notifications.counts() == {}
    assert make_echo(ace, "echo-hawk2").notifications.counts() == {"echo": 1}


def test_next_scan_covers_a_directory_that_was_unreachable(ace_with_echo):
    ace, echo = ace_with_echo
    ace.asd.kill()
    watcher = make_watcher(ace, register_with_asd=False)
    assert echo.notifications.counts() == {}
    start(ace, ace.asd.respawn(1), settle=6.0)   # echo1 re-registers on renewal
    ace.run(watcher.echoes.scan())
    assert echo.notifications.counts() == {"echo": 1}


def test_next_scan_retries_a_service_that_refused(ace_with_echo):
    ace, echo = ace_with_echo
    echo._builtin_add_notification = lambda request: error_reply(request.command, "busy")
    watcher = make_watcher(ace)
    assert echo.notifications.counts() == {}
    del echo._builtin_add_notification
    ace.run(watcher.echoes.scan())
    assert echo.notifications.counts() == {"echo": 1}


def test_watch_reports_whether_the_far_side_accepted(ace_with_echo):
    ace, echo = ace_with_echo
    listener = make_listener(ace)
    assert ace.run(listener.watch(echo.address, "echo", "onEchoSeen")) is True
    assert ace.run(listener.watch(echo.address, "nonexistent", "onEchoSeen")) is False
    ace.net.crash_host(echo.host.name)
    assert ace.run(listener.watch(echo.address, "echo", "onEchoSeen")) is False
