"""Notification (§2.5, Fig. 8), both halves, in one module.

*Served:* every ACE daemon can be told, via ``addNotification``, to notify
another service whenever a given command executes.  The
:class:`NotificationTable` maps *watched command name* → list of (listener
address, callback command name); dispatch happens in the control thread
after the watched command succeeds: the daemon sends ``<callback>
source=<me> trigger=<cmd> ...args`` to each listener, which the paper
describes as "the listed interface methods are invoked on those services".

*Listening:* :meth:`NotificationMixin.watch` is the one place an
``addNotification`` command is built; :class:`ClassWatch` keeps a daemon
subscribed to every service of some classes, present and future (Fig. 9
step 4); callbacks declare :data:`CALLBACK_ARGS` and read their payload
with :func:`notification_event`.

:class:`~repro.core.daemon.ACEDaemon` inherits :class:`NotificationMixin`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Generator, Iterable, List, Optional, Sequence

from repro.lang import ACECmdLine, ACELanguageError, ArgSpec, ArgType, parse_command
from repro.lang.command import RESERVED_ARGS, error_reply, ok_reply
from repro.net import Address
from repro.net.host import HostDownError
from repro.sim import Interrupt

from repro.core.client import CallError, ServiceClient
from repro.core.policy import CallPolicy, TransportError

if TYPE_CHECKING:
    from repro.core.daemon import Request


@dataclass(frozen=True)
class NotificationEntry:
    """One registered listener."""

    command: str          # the command being watched
    listener: str         # service name of the listener (for bookkeeping)
    address: Address      # where to deliver
    callback: str         # command name to invoke on the listener


class NotificationTable:
    """The 'running list of which services to notify' (Fig. 8)."""

    def __init__(self) -> None:
        self._by_command: Dict[str, List[NotificationEntry]] = {}

    def add(self, entry: NotificationEntry) -> bool:
        """Register; returns False if an identical entry already exists."""
        entries = self._by_command.setdefault(entry.command, [])
        if entry in entries:
            return False
        entries.append(entry)
        return True

    def remove(self, command: str, listener: str, callback: str = "") -> int:
        """Drop matching entries; empty callback matches any.  Returns count."""
        entries = self._by_command.get(command, [])
        keep = [
            e
            for e in entries
            if not (e.listener == listener and (not callback or e.callback == callback))
        ]
        removed = len(entries) - len(keep)
        if keep:
            self._by_command[command] = keep
        else:
            self._by_command.pop(command, None)
        return removed

    def remove_listener(self, listener: str) -> int:
        """Drop every entry for a listener (e.g. after delivery failures)."""
        removed = 0
        for command in list(self._by_command):
            removed += self.remove(command, listener)
        return removed

    def listeners(self, command: str) -> List[NotificationEntry]:
        return list(self._by_command.get(command, ()))

    def watched_commands(self) -> List[str]:
        return sorted(self._by_command)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_command.values())

    def counts(self) -> Dict[str, int]:
        """Listener count per watched command (metrics-view friendly)."""
        return {command: len(entries) for command, entries in sorted(self._by_command.items())}

    def entries(self) -> Iterable[NotificationEntry]:
        for command in sorted(self._by_command):
            yield from self._by_command[command]


class NotificationMixin:
    """Fig. 8 as every daemon inherits it: serving ``addNotification`` /
    ``removeNotification`` and the fan-out after a watched command, and
    :meth:`watch` for asking the same of somebody else.

    :class:`~repro.core.daemon.ACEDaemon` is the one user; its ``__init__``
    creates ``notifications``, ``_notify_client`` and the ``_m_notify_*``
    instruments (their position in the registry is ``obsPush`` row order).
    """

    # -- served: built-in notification management --------------------------
    def _builtin_add_notification(self, request: Request) -> ACECmdLine:
        cmd = request.command
        watched = cmd.str("cmd")
        if watched not in self.semantics:
            return error_reply(cmd, f"cannot watch unknown command {watched!r}")
        entry = NotificationEntry(
            command=watched,
            listener=cmd.str("listener"),
            address=Address(cmd.str("host"), cmd.int("port")),
            callback=cmd.str("callback"),
        )
        added = self.notifications.add(entry)
        return ok_reply(cmd, added=1 if added else 0)

    def _builtin_remove_notification(self, request: Request) -> ACECmdLine:
        cmd = request.command
        removed = self.notifications.remove(
            cmd.str("cmd"), cmd.str("listener"), cmd.str("callback", "")
        )
        return ok_reply(cmd, removed=removed)

    def _spawn_notifications(self, request: Request) -> None:
        entries = self.notifications.listeners(request.command.name)
        if not entries:
            return
        # Strip reserved observability arguments from the forwarded payload;
        # the delivery call carries its own (fresh) trace context.
        payload = request.command.without_args(*RESERVED_ARGS).to_string()
        # One delivery process + one pooled connection per *address*, not
        # per listener: co-located listeners share the dial+attach and the
        # channel, so fan-out cost scales with hosts, not registrations.
        by_address: Dict[Address, List[NotificationEntry]] = {}
        for entry in entries:
            by_address.setdefault(entry.address, []).append(entry)
        for address, group in by_address.items():
            if len(group) > 1:
                self._m_notify_batched.inc(len(group))
            self._spawn(
                self._deliver_notifications(address, group, request, payload),
                "notify",
            )

    def _notification_client(self) -> ServiceClient:
        if self._notify_client is None:
            self._notify_client = self._service_client()
        return self._notify_client

    def _purge_listener(self, entry: NotificationEntry) -> None:
        """Paper: dead listeners get purged so future triggers don't stall."""
        self._m_notify_failed.inc()
        self.notifications.remove_listener(entry.listener)
        self.ctx.trace.emit(
            self.ctx.sim.now, self.name, "notification-failed", listener=entry.listener
        )

    def _deliver_notifications(
        self, address: Address, entries: List[NotificationEntry],
        request: Request, payload: str,
    ) -> Generator:
        """Invoke each co-located listener's callback (Fig. 8 step 3) over
        one pooled connection."""
        pool = self._notification_client().pool
        try:
            conn = yield from pool.acquire(address)
        except (CallError, HostDownError, Interrupt):
            for entry in entries:
                self._purge_listener(entry)
            return
        for i, entry in enumerate(entries):
            notification = ACECmdLine(
                entry.callback,
                source=self.name,
                trigger=request.command.name,
                principal=request.principal,
                args=payload,
            )
            try:
                yield from conn.call(notification)
            except (TransportError, HostDownError, Interrupt):
                # Before ``CallError`` (TransportError is one): the channel
                # is dead, so everyone still waiting behind it is purged.
                conn.close()
                for rest in entries[i:]:
                    self._purge_listener(rest)
                return
            except CallError:
                # The listener answered cmdFailed: channel is fine, the
                # registration is not — purge just this listener.
                self._purge_listener(entry)
                continue
            self._m_notify_sent.inc()
            self.ctx.trace.emit(
                self.ctx.sim.now, self.name, "notification-delivered",
                listener=entry.listener, cmd=request.command.name,
            )
        pool.release(address, conn)

    # -- listening ----------------------------------------------------------
    def watch(
        self, address: Address, watched: str, callback: str,
        policy: Optional[CallPolicy] = None,
    ) -> Generator:
        """Ask the daemon at ``address`` to invoke our ``callback`` whenever
        its ``watched`` command executes (Fig. 8 step 1).  Returns False
        when it cannot be reached or refuses; the caller decides whether a
        rescan, a resubscribe loop or nothing covers that."""
        command = ACECmdLine(
            "addNotification", cmd=watched, listener=self.name,
            host=self.host.name, port=self.port, callback=callback,
        )
        try:
            yield from self._service_client().call(address, command, policy=policy)
        except CallError:
            return False
        return True


#: what the fan-out sends a callback (Fig. 8 step 3): declare a callback as
#: ``sem.define("onX", *CALLBACK_ARGS)``
CALLBACK_ARGS = (
    ArgSpec("source", ArgType.STRING, required=False),
    ArgSpec("trigger", ArgType.STRING, required=False),
    ArgSpec("principal", ArgType.STRING, required=False),
    ArgSpec("args", ArgType.STRING, required=False),
)


def notification_event(request: Request) -> Optional[ACECmdLine]:
    """The watched command a callback is being told about (the fan-out
    forwards it as text in ``args``); None when absent or unparseable."""
    text = request.command.get("args")
    if not text:
        return None
    try:
        return parse_command(text)
    except ACELanguageError:
        return None


class ClassWatch:
    """Keeps ``daemon`` subscribed to every service of ``classes`` — those
    the directory lists now (:meth:`scan`) and those that register later
    (:meth:`watch_directory` + :meth:`on_registered`, Fig. 9 step 4).

    ``callbacks`` maps watched command → callback command; per service they
    are subscribed in declaration order.  ``room`` narrows the watch to one
    room's services.  The owning daemon declares ``onServiceRegistered``
    and delegates its handler to :meth:`on_registered`.
    """

    def __init__(self, daemon, classes: Sequence[str], callbacks: Dict[str, str],
                 room: Optional[str] = None):
        self.daemon = daemon
        self.classes = classes
        self.callbacks = callbacks
        self.room = room
        #: service name -> the watched commands its daemon has accepted
        self._held: Dict[str, set] = {}

    def watch_directory(self) -> Generator:
        """Hear about services the moment they register with the ASD,
        instead of waiting for a rescan."""
        asd = self.daemon.ctx.asd_address
        if asd is not None:
            yield from self.daemon.watch(asd, "register", "onServiceRegistered")

    def scan(self) -> Generator:
        """Look each class up in the directory and subscribe to every match
        not yet held.  Whatever is unreachable or refuses stays unheld, so
        the next scan tries it again."""
        from repro.services.asd import asd_lookup

        ctx = self.daemon.ctx
        if ctx.asd_address is None:
            return
        client = self.daemon._service_client()
        for cls in self.classes:
            try:
                services = yield from asd_lookup(
                    client, ctx.asd_address, cls=cls, room=self.room)
            except CallError:
                continue
            for service in services:
                yield from self._subscribe(service.name, service.address)

    def _subscribe(self, name: str, address: Address) -> Generator:
        held = self._held.setdefault(name, set())
        for watched, callback in self.callbacks.items():
            if watched not in held and (
                    yield from self.daemon.watch(address, watched, callback)):
                held.add(watched)

    def on_registered(self, request: Request) -> Generator:
        """Body of the owner's ``cmd_onServiceRegistered``."""
        event = notification_event(request)
        if event is None:
            return {}
        if not any(cls in event.str("cls", "").split("/") for cls in self.classes):
            return {}
        if self.room is not None and event.str("room", "") != self.room:
            return {}
        name = event.str("name")
        address = Address(event.str("host"), event.int("port"))
        # Whoever registers under this name starts with an empty table — a
        # restarted daemon is in no checkpoint — so what we held is gone.
        self._held.pop(name, None)
        yield from self._subscribe(name, address)
        return {}
