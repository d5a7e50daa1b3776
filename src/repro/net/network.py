"""The network fabric: delivery, faults, and traffic accounting.

Topology model
--------------
Hosts belong to *segments* (think: one switch per room/wing).  Latency for a
message is::

    same host          -> local_latency
    same segment       -> lan_latency   (+ jitter)
    different segment  -> lan_latency + backbone_latency (+ jitter)

plus a serialization term ``bytes / bandwidth_Bps`` charged at the sender.
Backbone bytes are counted separately so the distribution-vs-centralization
experiment (E16) can report them, exactly the traffic-locality argument the
paper makes against centralized clusters (§8.1).

Fault model
-----------
* ``Host.crash()`` — what runs on the host is killed and its sockets are
  closed; in-flight traffic to it is dropped at arrival time.  A stream
  endpoint dies with the host's incarnation and sends nothing on close:
  a peer still waiting a connect timeout later sees EOF if the host is
  still down, and once it is back a segment is refused with a reset (the
  peer sees EOF one latency later, a reader on the stale end sees EOF).
* ``set_partition(groups)`` — traffic between groups is dropped; connects
  across the cut raise ``ConnectionRefused`` after the connect timeout.
* ``loss_rate`` — i.i.d. datagram loss from the ``net.loss`` RNG stream
  (streams are reliable, as TCP would retransmit under the covers).
* **degraded hosts** (gray failure) — ``Host.degrade(latency_mult,
  bandwidth_mult)`` slows every message touching that host without taking
  it down; leases keep renewing, so only client-side deadlines notice.
* **flaky links** (gray failure) — ``set_link_fault(a, b, loss)`` drops a
  fraction of messages between two hosts.  Unlike ``loss_rate`` this also
  applies to *stream* payloads, modelling a path so lossy that TCP stalls
  past any reasonable RPC budget; the dropped message simply never
  arrives and the caller's deadline is what ends the wait.

A healthy stream segment runs three frames of the fabric: its one send
body (``_stream_transmit``), the hop's price (``_path``, which every send
path shares) and its delivery timer's one callback (``_land_segment``).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Iterable, List, Optional, Set

from repro.lang.command import ACECmdLine
from repro.sim import RngRegistry, Simulator, TraceRecorder

from repro.net.address import Address
from repro.net.host import Host, HostDownError
from repro.net.sockets import (
    Connection,
    ConnectionClosed,
    ConnectionRefused,
    DatagramSocket,
    ListenerSocket,
    wire_size,
)


class NetworkError(Exception):
    """Configuration/usage errors: duplicate binds, unknown hosts, ..."""


class TrafficStats:
    """Byte and message counters split by traffic scope."""

    def __init__(self) -> None:
        self.messages = 0
        self.bytes_local = 0
        self.bytes_lan = 0
        self.bytes_backbone = 0
        self.dropped = 0
        #: subset of ``dropped`` caused by injected link faults (chaos runs)
        self.dropped_fault = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_local + self.bytes_lan + self.bytes_backbone

    def snapshot(self) -> Dict[str, int]:
        return {
            "messages": self.messages,
            "bytes_local": self.bytes_local,
            "bytes_lan": self.bytes_lan,
            "bytes_backbone": self.bytes_backbone,
            "bytes_total": self.bytes_total,
            "dropped": self.dropped,
            "dropped_fault": self.dropped_fault,
        }


class Network:
    """Owns hosts, bindings, and every message in flight."""

    def __init__(
        self,
        sim: Simulator,
        rng: Optional[RngRegistry] = None,
        trace: Optional[TraceRecorder] = None,
        *,
        local_latency: float = 20e-6,
        lan_latency: float = 250e-6,
        backbone_latency: float = 2e-3,
        bandwidth_Bps: float = 12.5e6,  # 100 Mbit/s
        jitter_frac: float = 0.0,
        loss_rate: float = 0.0,
        connect_timeout: float = 1.0,
    ):
        self.sim = sim
        self.rng = rng if rng is not None else RngRegistry(0)
        # NB: an empty TraceRecorder is falsy (it has __len__), so a plain
        # ``trace or ...`` would silently discard the caller's recorder and
        # network records would never reach the environment trace.
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.local_latency = local_latency
        self.lan_latency = lan_latency
        self.backbone_latency = backbone_latency
        self.bandwidth_Bps = bandwidth_Bps
        self.jitter_frac = jitter_frac
        self.loss_rate = loss_rate
        self.connect_timeout = connect_timeout
        self.stats = TrafficStats()
        self.hosts: Dict[str, Host] = {}
        self._listeners: Dict[Address, ListenerSocket] = {}
        self._datagram: Dict[Address, DatagramSocket] = {}
        self._multicast: Dict[Address, Set[DatagramSocket]] = {}
        self._partition: Optional[Dict[str, int]] = None
        self._link_faults: Dict[tuple, float] = {}
        self._next_port: Dict[str, int] = {}
        self._jitter_rng = self.rng.py("net.jitter")
        self._loss_rng = self.rng.py("net.loss")
        #: every segment's delivery callback, bound once
        self._on_segment = self._land_segment

    # ------------------------------------------------------------------
    # Host management
    # ------------------------------------------------------------------
    def add_host(self, host: Host) -> Host:
        if host.name in self.hosts:
            raise NetworkError(f"duplicate host {host.name!r}")
        self.hosts[host.name] = host
        return host

    def make_host(self, name: str, **kwargs: Any) -> Host:
        return self.add_host(Host(self.sim, name, **kwargs))

    def host(self, name: str) -> Host:
        try:
            return self.hosts[name]
        except KeyError:
            raise NetworkError(f"unknown host {name!r}")

    def crash_host(self, name: str) -> None:
        """Crash a host and close its listeners and datagram sockets.

        Its established streams are fenced by the host's crash epoch
        instead (:meth:`_land_segment`): nothing reaches them again."""
        host = self.host(name)
        host.crash()
        for addr, listener in list(self._listeners.items()):
            if addr.host == name:
                listener.close()
        for addr, sock in list(self._datagram.items()):
            if addr.host == name:
                sock.close()
        self.trace.emit(self.sim.now, "network", "host-crash", host=name)

    def restart_host(self, name: str) -> None:
        self.host(name).restart()
        self.trace.emit(self.sim.now, "network", "host-restart", host=name)

    def ephemeral_port(self, host_name: str) -> int:
        from repro.net.address import WellKnownPorts

        port = self._next_port.get(host_name, WellKnownPorts.EPHEMERAL_BASE)
        self._next_port[host_name] = port + 1
        return port

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def set_partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Partition the network into the given host groups.

        Hosts not named in any group go into an implicit extra group.
        """
        mapping: Dict[str, int] = {}
        for idx, group in enumerate(groups):
            for host_name in group:
                self.host(host_name)  # validate
                mapping[host_name] = idx
        next_group = len(set(mapping.values()))
        for name in self.hosts:
            mapping.setdefault(name, next_group)
        self._partition = mapping
        self.trace.emit(self.sim.now, "network", "partition", groups=dict(mapping))

    def clear_partition(self) -> None:
        self._partition = None
        self.trace.emit(self.sim.now, "network", "partition-heal")

    def _reachable(self, src: Host, dst: Host) -> bool:
        if not dst.up:
            return False
        if self._partition is None or src.name == dst.name:
            return True
        return self._partition[src.name] == self._partition[dst.name]

    # ------------------------------------------------------------------
    # Flaky links (gray failure)
    # ------------------------------------------------------------------
    @staticmethod
    def _link_key(a: str, b: str) -> tuple:
        return (a, b) if a <= b else (b, a)

    def set_link_fault(self, a: str, b: str, loss: float) -> None:
        """Drop ``loss`` fraction of messages between hosts ``a`` and ``b``
        (both directions).  Unlike ``loss_rate``, stream payloads are
        dropped too — the gray-failure mode where TCP stalls forever."""
        self.host(a), self.host(b)  # validate
        if not 0.0 <= loss <= 1.0:
            raise NetworkError(f"link loss must be in [0, 1], got {loss}")
        key = self._link_key(a, b)
        if loss <= 0.0:
            self._link_faults.pop(key, None)
        else:
            self._link_faults[key] = loss
        self.trace.emit(self.sim.now, "network", "link-fault", a=a, b=b, loss=loss)

    def clear_link_fault(self, a: str, b: str) -> None:
        self._link_faults.pop(self._link_key(a, b), None)
        self.trace.emit(self.sim.now, "network", "link-fault-heal", a=a, b=b)

    def link_fault(self, a: str, b: str) -> float:
        return self._link_faults.get(self._link_key(a, b), 0.0)

    def _link_dropped(self, src: Host, dst: Host) -> bool:
        """Roll for an injected link-fault drop on a src→dst message."""
        loss = self._link_faults.get(self._link_key(src.name, dst.name), 0.0)
        if loss > 0 and self._loss_rng.random() < loss:
            self.stats.dropped += 1
            self.stats.dropped_fault += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Latency / accounting
    # ------------------------------------------------------------------
    def _path(self, src: Host, dst: Host, nbytes: Optional[int] = None) -> float:
        """One hop's latency, jitter drawn; with ``nbytes`` the message is
        counted and its bytes charged by scope (every send path's rule)."""
        stats = self.stats
        if src.name == dst.name:
            base = self.local_latency
            if nbytes is not None:
                stats.bytes_local += nbytes
        elif src.segment == dst.segment:
            base = self.lan_latency
            if nbytes is not None:
                stats.bytes_lan += nbytes
        else:
            base = self.lan_latency + self.backbone_latency
            if nbytes is not None:
                stats.bytes_backbone += nbytes
        if nbytes is not None:
            stats.messages += 1
        # Degraded hosts slow every message touching them (gray failure).
        base *= src.latency_mult * dst.latency_mult
        if self.jitter_frac > 0:
            base *= 1.0 + self.jitter_frac * self._jitter_rng.random()
        return base

    # ------------------------------------------------------------------
    # Stream sockets
    # ------------------------------------------------------------------
    def listen(self, host: Host, port: int) -> ListenerSocket:
        host.check_up()
        addr = Address(host.name, port)
        if addr in self._listeners and not self._listeners[addr].closed:
            raise NetworkError(f"address {addr} already bound")
        sock = ListenerSocket(self, host, addr)
        self._listeners[addr] = sock
        return sock

    def _unbind_listener(self, sock: ListenerSocket) -> None:
        if self._listeners.get(sock.address) is sock:
            del self._listeners[sock.address]

    def connect(self, src: Host, dest: Address, timeout: Optional[float] = None) -> Generator:
        """Three-message handshake; returns the client-side Connection.

        Raises :class:`ConnectionRefused` if nothing listens at ``dest``, the
        destination is down/partitioned away, or the timeout elapses.  As in
        real TCP, the client's ephemeral port is allocated when ``connect``
        is called (before the SYN leaves) and a refusal travels back as an
        RST, surfacing one full round trip after the call.
        """
        src.check_up()
        timeout = self.connect_timeout if timeout is None else timeout
        dst_host = self.hosts.get(dest.host)
        local = Address(src.name, self.ephemeral_port(src.name))
        # SYN leg.
        yield self.sim.timeout(self._path(src, dst_host) if dst_host else timeout)
        if dst_host is None or not self._reachable(src, dst_host) or not src.up:
            yield self.sim.timeout(timeout)
            raise ConnectionRefused(f"no route to {dest}")
        refusal: Optional[str] = None
        client: Optional[Connection] = None
        listener = self._listeners.get(dest)
        if listener is None or listener.closed:
            refusal = f"nothing listening at {dest}"
        else:
            client = Connection(self, src, local, dest)
            server = Connection(self, dst_host, dest, local)
            client.peer = server
            server.peer = client
            if not listener._offer(server):
                refusal = f"listener at {dest} closed during handshake"
        # SYN-ACK (or RST, when refused) leg back to the client.
        yield self.sim.timeout(self._path(dst_host, src))
        if not src.up:
            raise HostDownError(src.name)
        if refusal is not None:
            raise ConnectionRefused(refusal)
        self.trace.emit(self.sim.now, "network", "connect", src=str(local), dst=str(dest))
        return client

    def _stream_transmit(self, conn: Connection, payload: Any) -> Generator:
        """One body: fault checks run only when a fault is set."""
        src = conn.host
        nbytes = payload.wire_size if type(payload) is ACECmdLine else wire_size(payload)
        yield self.sim.timeout(nbytes / self.bandwidth_Bps * src.bandwidth_mult)
        peer = conn.peer
        assert peer is not None
        dst = peer.host
        if not dst._up or (self._partition is not None and not self._reachable(src, dst)):
            self.stats.dropped += 1
            return
        if self._link_faults and self._link_dropped(src, dst):
            return
        now = self.sim.now
        arrival = now + self._path(src, dst, nbytes)
        # Enforce per-connection FIFO despite jitter.
        arrival = max(arrival, peer._last_arrival)
        peer._last_arrival = arrival
        self.sim.timeout(arrival - now, (peer, payload)).callbacks.append(self._on_segment)

    def _land_segment(self, delivery: Any) -> None:
        """The delivery timer's one callback (as :meth:`Store.deliver`
        needs); its value is ``(peer, payload)``.  A down host or a closed
        end drops the segment; an endpoint of the host's previous life,
        closed or not, refuses it with a reset."""
        peer, payload = delivery._value
        host = peer.host
        stale = peer.epoch != host._epoch
        if not host._up or (peer._closed and not stale):
            self.stats.dropped += 1
        elif stale:
            self.stats.dropped += 1
            peer._reset()
        else:
            peer._inbox.deliver(payload)

    def _stream_close_notify(self, conn: Connection, reset: bool = False) -> None:
        peer = conn.peer
        if peer is None or peer.closed:
            return
        if not reset and conn.epoch != conn.host.epoch:
            # A dead host sends nothing: EOF when a dial to it would fail.
            self.sim.timeout(self.connect_timeout).callbacks.append(
                lambda _ev: None if conn.host.up else peer._enqueue_close())
            return
        if not self._reachable(conn.host, peer.host):
            return  # peer never learns; it will discover on its own
        lat = self._path(conn.host, peer.host)
        # Under jitter the close must not overtake data still in flight.
        now = self.sim.now
        if now + lat < peer._last_arrival:
            lat = peer._last_arrival - now
        delivery = self.sim.timeout(lat)
        delivery.callbacks.append(lambda _ev, p=peer, r=reset: p._enqueue_close(r))

    # ------------------------------------------------------------------
    # Datagram sockets
    # ------------------------------------------------------------------
    def bind_datagram(self, host: Host, port: Optional[int] = None) -> DatagramSocket:
        host.check_up()
        if port is None:
            port = self.ephemeral_port(host.name)
        addr = Address(host.name, port)
        if addr in self._datagram and not self._datagram[addr].closed:
            raise NetworkError(f"datagram address {addr} already bound")
        sock = DatagramSocket(self, host, addr)
        self._datagram[addr] = sock
        return sock

    def _unbind_datagram(self, sock: DatagramSocket) -> None:
        if self._datagram.get(sock.address) is sock:
            del self._datagram[sock.address]
        for members in self._multicast.values():
            members.discard(sock)

    def _datagram_transmit(self, sock: DatagramSocket, dest: Address, payload: Any) -> Generator:
        nbytes = wire_size(payload)
        yield self.sim.timeout(nbytes / self.bandwidth_Bps * sock.host.bandwidth_mult)
        self._datagram_route(sock, dest, payload, nbytes)

    def _datagram_route(self, sock: DatagramSocket, dest: Address, payload: Any, nbytes: int) -> None:
        dst_host = self.hosts.get(dest.host)
        if dst_host is None or not self._reachable(sock.host, dst_host):
            self.stats.dropped += 1
            return
        if self.loss_rate > 0 and self._loss_rng.random() < self.loss_rate:
            self.stats.dropped += 1
            return
        if self._link_dropped(sock.host, dst_host):
            return
        delivery = self.sim.timeout(self._path(sock.host, dst_host, nbytes))
        source = sock.address

        def arrive(_ev: Any) -> None:
            target = self._datagram.get(dest)
            if target is None or target.closed or not target.host.up:
                self.stats.dropped += 1
                return
            target._enqueue(source, payload)

        delivery.callbacks.append(arrive)

    # ------------------------------------------------------------------
    # Multicast (for the Jini-style discovery baseline)
    # ------------------------------------------------------------------
    def _multicast_join(self, group: Address, sock: DatagramSocket) -> None:
        self._multicast.setdefault(group, set()).add(sock)

    def _multicast_leave(self, group: Address, sock: DatagramSocket) -> None:
        self._multicast.get(group, set()).discard(sock)

    def _multicast_transmit(self, sock: DatagramSocket, group: Address, payload: Any) -> Generator:
        nbytes = wire_size(payload)
        yield self.sim.timeout(nbytes / self.bandwidth_Bps * sock.host.bandwidth_mult)
        members = sorted(self._multicast.get(group, ()), key=lambda s: str(s.address))
        source = sock.address
        for member in members:
            if member is sock:
                continue
            if not self._reachable(sock.host, member.host):
                self.stats.dropped += 1
                continue
            if self.loss_rate > 0 and self._loss_rng.random() < self.loss_rate:
                self.stats.dropped += 1
                continue
            if self._link_dropped(sock.host, member.host):
                continue
            delivery = self.sim.timeout(self._path(sock.host, member.host, nbytes))
            delivery.callbacks.append(
                lambda _ev, m=member, p=payload: m._enqueue(source, p) if (not m.closed and m.host.up) else None
            )
