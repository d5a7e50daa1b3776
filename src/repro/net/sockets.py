"""Stream and datagram socket endpoints.

Connections are reliable, ordered, bidirectional message pipes (the TCP/SSL
sockets of §2.1); datagram sockets are unreliable, unordered (the UDP data
channel of §2.1.1).  All wire mechanics (latency, bandwidth, loss,
partitions) live in :class:`repro.net.network.Network`; these classes are
the endpoints daemons hold.

Sub-operations that take simulated time are generators used with
``yield from`` inside a simulation process::

    conn = yield from net.connect(host, Address("bar", 5000))
    yield from conn.send(command_string)
    reply = yield from conn.recv()
"""

from __future__ import annotations

from typing import Any, Generator, Optional, TYPE_CHECKING

from repro.sim import Event, QueueClosed, Store

from repro.net.address import Address

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.host import Host
    from repro.net.network import Network


class ConnectionClosed(Exception):
    """recv() on a closed connection / send() into a closed connection."""


class ConnectionRefused(Exception):
    """connect() to an address nobody is listening on (or unreachable)."""


_CLOSE = object()  # in-band control marker for orderly shutdown


class Connection:
    """One endpoint of an established stream connection."""

    def __init__(self, net: "Network", host: "Host", local: Address, remote: Address):
        self.net = net
        self.host = host
        self.local = local
        self.remote = remote
        self.peer: Optional["Connection"] = None  # set by Network at setup
        self._inbox: Store = Store(net.sim, name=f"conn {local}->{remote}")
        self._closed = False
        self._last_arrival = 0.0  # FIFO enforcement for jittered latency

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, payload: Any) -> Generator:
        """Transmit ``payload`` to the peer; waits for the transmit delay.

        Raises :class:`ConnectionClosed` if this side is already closed.
        Delivery is not acknowledged: if the peer or path dies in flight the
        payload is silently lost (as with TCP after the last ACK).
        """
        if self._closed:
            raise ConnectionClosed(f"send on closed connection {self.local}->{self.remote}")
        self.host.check_up()
        yield from self.net._stream_transmit(self, payload)

    def recv(self) -> Generator:
        """Wait for the next message; raises ConnectionClosed at EOF."""
        while True:
            try:
                item = yield self._inbox.get()
            except QueueClosed:
                raise ConnectionClosed(f"recv on closed connection {self.local}")
            if item is _CLOSE:
                self._mark_closed()
                raise ConnectionClosed(f"peer closed {self.remote}")
            return item

    def try_recv(self) -> tuple[bool, Any]:
        """Non-blocking receive; returns ``(found, payload)``."""
        found, item = self._inbox.try_get()
        if found and item is _CLOSE:
            self._mark_closed()
            raise ConnectionClosed(f"peer closed {self.remote}")
        return found, item

    def pending(self) -> int:
        return len(self._inbox)

    def close(self) -> None:
        """Orderly shutdown: peer sees EOF after one network latency."""
        if self._closed:
            return
        self._mark_closed()
        self.net._stream_close_notify(self)

    def _mark_closed(self) -> None:
        self._closed = True
        self._inbox.close()

    def _enqueue(self, item: Any) -> None:
        """Called by the network at arrival time, from the delivery
        timeout's only callback (what :meth:`Store.deliver` requires)."""
        if not self._inbox.closed:
            self._inbox.deliver(item)

    def _enqueue_close(self) -> None:
        if not self._inbox.closed:
            self._inbox.try_put(_CLOSE)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else "open"
        return f"<Connection {self.local}->{self.remote} {state}>"


class ListenerSocket:
    """A passive socket bound to ``address``, accepting inbound connections."""

    def __init__(self, net: "Network", host: "Host", address: Address):
        self.net = net
        self.host = host
        self.address = address
        self._backlog: Store = Store(net.sim, name=f"listen {address}")
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def accept(self) -> Generator:
        """Wait for the next inbound connection."""
        try:
            conn = yield self._backlog.get()
        except QueueClosed:
            raise ConnectionClosed(f"listener {self.address} closed")
        return conn

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._backlog.close()
        self.net._unbind_listener(self)

    def _offer(self, conn: Connection) -> bool:
        if self._closed:
            return False
        return self._backlog.try_put(conn)


class DatagramSocket:
    """Connectionless endpoint (the UDP data channel of §2.1.1)."""

    def __init__(self, net: "Network", host: "Host", address: Address):
        self.net = net
        self.host = host
        self.address = address
        self._inbox: Store = Store(net.sim, name=f"dgram {address}")
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def send(self, dest: Address, payload: Any) -> Generator:
        """Fire-and-forget datagram (may be lost, reordered)."""
        if self._closed:
            raise ConnectionClosed(f"send on closed datagram socket {self.address}")
        self.host.check_up()
        yield from self.net._datagram_transmit(self, dest, payload)

    def send_multicast(self, group: Address, payload: Any) -> Generator:
        """Deliver to every socket joined to ``group`` (lossy, per-member)."""
        if self._closed:
            raise ConnectionClosed(f"send on closed datagram socket {self.address}")
        self.host.check_up()
        yield from self.net._multicast_transmit(self, group, payload)

    def recv(self) -> Generator:
        """Wait for the next datagram; returns ``(source, payload)``."""
        try:
            item = yield self._inbox.get()
        except QueueClosed:
            raise ConnectionClosed(f"recv on closed datagram socket {self.address}")
        return item

    def try_recv(self) -> tuple[bool, Any]:
        return self._inbox.try_get()

    def pending(self) -> int:
        return len(self._inbox)

    def join(self, group: Address) -> None:
        self.net._multicast_join(group, self)

    def leave(self, group: Address) -> None:
        self.net._multicast_leave(group, self)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._inbox.close()
        self.net._unbind_datagram(self)

    def _enqueue(self, source: Address, payload: Any) -> None:
        if not self._inbox.closed:
            self._inbox.try_put((source, payload))


def wire_size(payload: Any) -> int:
    """Bytes a payload occupies on the wire.

    Strings/bytes count their encoded length; objects may advertise a
    ``wire_size`` attribute (ACE command strings and framed records do);
    anything else is charged by its ``repr`` as a rough envelope.
    """
    size = getattr(payload, "wire_size", None)
    if size is not None:
        return int(size() if callable(size) else size)
    if isinstance(payload, bytes):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if payload is None:
        return 1
    return len(repr(payload).encode("utf-8"))
