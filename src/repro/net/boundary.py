"""Cross-shard boundary links for the sharded simulator (E29).

A sharded run (:mod:`repro.sim.parallel`) gives every shard the **full**
topology — every host exists in every shard so latency math, segment
classes, and construction-time RNG draws are identical everywhere — but
only the hosts a shard *owns* run daemons and sockets.  The remaining
hosts are **ghosts**: latency/accounting endpoints whose live halves exist
in some other kernel process.

:class:`BoundaryNetwork` subclasses the ordinary :class:`Network` and
reroutes any traffic addressed to a non-owned host onto an outbox of
picklable message tuples.  The coordinator relays those between shards at
window boundaries; :meth:`inject` turns them back into ordinary in-kernel
deliveries at their precomputed arrival time.

The conservative-sync contract every send path here must uphold: a message
posted at local time ``t`` to a host of shard ``j`` arrives no earlier than
``t + L[self][j]``, where the lookahead row
(:meth:`compute_lookahead_row`) holds the minimum path latency to each
peer shard.  That is why arrival timestamps are computed and posted *at
send-decision time*, before the sender yields for its transmit delay.

Connect refusals are *not* a deviation: the base fabric delivers a
refusal on the RST return leg and mints the client's ephemeral port at
``connect()`` call time (see :meth:`Network.connect`), which is exactly
the shape a refusing shard can reproduce — the SYN-NAK rides back one
leg after SYN arrival and the port was already allocated sender-side.

Deviations from the single-kernel fabric (all fault-path only):

* reachability/partition checks run sender-side against ghost state, so a
  remote crash is enforced at *arrival* (receiver-side), not at send;
* the server side of a cross-shard connection records the client's
  ephemeral port as 0 (routing is by connection id, the port is cosmetic);
* multicast stays shard-local (the Jini discovery baseline is not a
  sharded workload).

With ``jitter_frac``/``loss_rate`` at their 0 defaults, none of these are
reachable in a healthy run and multi-shard traces are shard-count
invariant (regression-tested).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.sim import SimulationError

from repro.net.address import Address
from repro.net.host import Host, HostDownError
from repro.net.network import Network
from repro.net.sockets import Connection, ConnectionRefused, wire_size

#: message kinds crossing shard boundaries
SYN = "syn"
SYNACK = "synack"
STREAM = "stream"
CLOSE = "close"
DGRAM = "dgram"


class BoundaryStats:
    """Counters for traffic crossing shard boundaries."""

    def __init__(self) -> None:
        self.msgs_out = 0
        self.msgs_in = 0
        self.bytes_out = 0
        self.connects = 0

    def snapshot(self) -> Dict[str, int]:
        return {
            "boundary_msgs_out": self.msgs_out,
            "boundary_msgs_in": self.msgs_in,
            "boundary_bytes_out": self.bytes_out,
            "boundary_connects": self.connects,
        }


class BoundaryConnection(Connection):
    """One endpoint of a stream whose peer lives in another shard.

    There is no ``peer`` object — payloads are routed by ``conn_id``
    through the coordinator.  FIFO ordering is enforced sender-side via
    ``_peer_last_arrival`` (the same rule the base fabric applies at the
    receiving endpoint).
    """

    def __init__(self, net: "BoundaryNetwork", host: Host,
                 local: Optional[Address], remote: Address, conn_id: str):
        super().__init__(net, host, local, remote)
        self.conn_id = conn_id
        self._peer_last_arrival = 0.0

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self.net._boundary_conns.pop(self.conn_id, None)


class BoundaryNetwork(Network):
    """A :class:`Network` that exports non-owned-destination traffic."""

    def __init__(self, sim, rng=None, trace=None, *, shard, **kwargs):
        super().__init__(sim, rng, trace, **kwargs)
        #: the :class:`~repro.sim.parallel.ShardContext` this fabric serves
        self.shard = shard
        self.boundary = BoundaryStats()
        self._outbox: List[Tuple[int, tuple]] = []
        self._link_seq = 0
        self._conn_seq = 0
        self._boundary_conns: Dict[str, BoundaryConnection] = {}
        self._pending_connects: Dict[str, Any] = {}
        self._lookahead_row: Optional[Dict[int, float]] = None

    # ------------------------------------------------------------------
    # Ownership / lookahead
    # ------------------------------------------------------------------
    def owns(self, host_name: str) -> bool:
        return self.shard.owns(host_name)

    def compute_lookahead_row(self) -> Dict[int, float]:
        """Per-destination-shard lookahead: ``{j: L[self][j]}`` (E30).

        ``L[i][j]`` is the minimum path latency from any host owned by
        this shard to any host owned by shard ``j`` — the earliest a
        message posted here *now* can arrive there.  A shard this one
        cannot reach (no owned hosts on either side, or ``j`` owns
        nothing) gets ``inf``: it never bounds ``j``'s time grants.

        Conservative under gray failure: degraded hosts only *add*
        latency (multipliers >= 1), and any multiplier below 1 is clamped
        out so the bound still holds.  Jitter multiplies by ``1 + x``
        with ``x >= 0`` and cannot shrink a path either.

        The row is computed once and cached — topology and segment
        layout are construction-time facts, and the sync protocol pins
        its safety argument to the build-time bound.
        """
        if self._lookahead_row is not None:
            return self._lookahead_row
        row: Dict[int, float] = {
            j: float("inf")
            for j in range(self.shard.n_shards) if j != self.shard.index
        }
        owned = [h for h in self.hosts.values() if self.owns(h.name)]
        for b in self.hosts.values():
            j = self.shard.shard_of(b.name)
            if j == self.shard.index:
                continue
            best = row[j]
            for a in owned:
                base = self.lan_latency
                if a.segment != b.segment:
                    base += self.backbone_latency
                base *= min(1.0, a.latency_mult * b.latency_mult)
                if base < best:
                    best = base
            row[j] = best
        self._lookahead_row = row
        return row

    def earliest_output_times(self, next_event: float) -> Dict[int, float]:
        """EOT promises: per destination shard, the earliest timestamp any
        *future* message from this shard can carry (E30).

        Given that this shard will not execute anything before
        ``next_event``, a message to shard ``j`` cannot arrive before
        ``next_event + L[self][j]`` — every send path posts arrival
        timestamps that include at least one full path latency
        (see :meth:`post`).  These promises piggyback on shard reports
        and are what lets the coordinator issue per-shard demand-driven
        grants.
        """
        return {
            j: next_event + la
            for j, la in self.compute_lookahead_row().items()
        }

    # ------------------------------------------------------------------
    # Outbox / inbox plumbing
    # ------------------------------------------------------------------
    def post(self, dst_host_name: str, kind: str, ts: float, data: tuple,
             nbytes: int = 0) -> None:
        """Queue a boundary message for the shard owning ``dst_host_name``.

        ``ts`` is the precomputed arrival time; the conservative-sync
        contract requires ``ts >= now + lookahead``, which every caller
        satisfies because ``ts`` always includes one full path latency.
        """
        self._link_seq += 1
        msg = (kind, ts, self.shard.index, self._link_seq, data)
        self._outbox.append((self.shard.shard_of(dst_host_name), msg))
        self.boundary.msgs_out += 1
        self.boundary.bytes_out += nbytes

    def drain_outbox(self) -> Dict[int, List[tuple]]:
        """Take all queued boundary messages, grouped by destination shard."""
        out: Dict[int, List[tuple]] = {}
        for dst_shard, msg in self._outbox:
            out.setdefault(dst_shard, []).append(msg)
        self._outbox = []
        return out

    def inject(self, messages: List[tuple]) -> None:
        """Schedule inbound boundary messages as in-kernel deliveries.

        Messages are sorted by ``(ts, src_shard, link_seq)`` so injection
        order — and therefore same-timestamp kernel sequence order — is
        deterministic regardless of relay batching.
        """
        now = self.sim.now
        for msg in sorted(messages, key=lambda m: (m[1], m[2], m[3])):
            ts = msg[1]
            if ts < now:
                raise SimulationError(
                    f"boundary causality violation: message {msg[0]!r} for "
                    f"t={ts} injected at t={now} (lookahead too small?)"
                )
            self.boundary.msgs_in += 1
            delivery = self.sim.timeout(ts - now)
            delivery.callbacks.append(lambda _ev, m=msg: self._arrive_boundary(m))

    def _arrive_boundary(self, msg: tuple) -> None:
        kind, ts, _src_shard, _link_seq, data = msg
        if kind == STREAM:
            self._arrive_stream_boundary(*data)
        elif kind == DGRAM:
            self._arrive_dgram_boundary(*data)
        elif kind == SYN:
            self._arrive_syn(*data)
        elif kind == SYNACK:
            self._arrive_synack(*data)
        elif kind == CLOSE:
            self._arrive_close(*data)
        else:  # pragma: no cover - protocol misuse
            raise SimulationError(f"unknown boundary message kind {kind!r}")

    # ------------------------------------------------------------------
    # Stream sockets across the boundary
    # ------------------------------------------------------------------
    def connect(self, src: Host, dest: Address,
                timeout: Optional[float] = None) -> Generator:
        if dest.host not in self.hosts or self.owns(dest.host):
            return (yield from super().connect(src, dest, timeout))
        src.check_up()
        dst_host = self.hosts[dest.host]
        lat = self._path_latency(src, dst_host)
        self._conn_seq += 1
        conn_id = f"{self.shard.index}:{self._conn_seq}"
        # The ephemeral port is minted at connect() call time — the same
        # instant the single-kernel handshake mints it — so port-assignment
        # order across concurrent connects from this host is shard-count
        # invariant even when a connect ends up refused.
        local = Address(src.name, self.ephemeral_port(src.name))
        client = BoundaryConnection(self, src, local, dest, conn_id)
        self._boundary_conns[conn_id] = client
        self.boundary.connects += 1
        self.post(dest.host, SYN, self.sim.now + lat,
                  (conn_id, src.name, dest.host, dest.port))
        wait = self.sim.event()
        self._pending_connects[conn_id] = wait
        try:
            yield wait
        except ConnectionRefused:
            self._boundary_conns.pop(conn_id, None)
            if not src.up:
                raise HostDownError(src.name)
            raise
        if not src.up:
            raise HostDownError(src.name)
        self.trace.emit(self.sim.now, "network", "connect",
                        src=str(client.local), dst=str(dest))
        return client

    def _arrive_syn(self, conn_id: str, src_host_name: str,
                    dst_host_name: str, dst_port: int) -> None:
        dest = Address(dst_host_name, dst_port)
        dst_host = self.hosts.get(dst_host_name)
        src_host = self.hosts.get(src_host_name)
        ok, reason = True, ""
        if dst_host is None or src_host is None or not self._reachable(src_host, dst_host):
            ok, reason = False, f"no route to {dest}"
        else:
            listener = self._listeners.get(dest)
            if listener is None or listener.closed:
                ok, reason = False, f"nothing listening at {dest}"
        if ok:
            server = BoundaryConnection(
                self, dst_host, dest, Address(src_host_name, 0), conn_id
            )
            if listener._offer(server):
                self._boundary_conns[conn_id] = server
            else:
                ok, reason = False, f"listener at {dest} closed during handshake"
        if dst_host is not None and src_host is not None:
            back = self._path_latency(dst_host, src_host)
        else:  # pragma: no cover - full topology makes this unreachable
            back = self.connect_timeout
        self.post(src_host_name, SYNACK, self.sim.now + back,
                  (conn_id, ok, reason))

    def _arrive_synack(self, conn_id: str, ok: bool, reason: str) -> None:
        wait = self._pending_connects.pop(conn_id, None)
        if wait is None:
            return
        if ok:
            wait.succeed(None)
        else:
            self._boundary_conns.pop(conn_id, None)
            wait.defuse()
            wait.fail(ConnectionRefused(reason))

    def _stream_transmit(self, conn: Connection, payload: Any) -> Generator:
        if not isinstance(conn, BoundaryConnection):
            yield from super()._stream_transmit(conn, payload)
            return
        nbytes = wire_size(payload)
        delay = self._transmit_delay(conn.host, nbytes)
        dst_host = self.hosts.get(conn.remote.host)
        if dst_host is None or not self._reachable(conn.host, dst_host):
            self.stats.dropped += 1
        elif not self._link_dropped(conn.host, dst_host):
            self._account(conn.host, dst_host, nbytes)
            arrival = self.sim.now + delay + self._path_latency(conn.host, dst_host)
            if arrival < conn._peer_last_arrival:
                arrival = conn._peer_last_arrival
            conn._peer_last_arrival = arrival
            self.post(conn.remote.host, STREAM, arrival,
                      (conn.conn_id, payload), nbytes=nbytes)
        yield self.sim.timeout(delay)

    def _arrive_stream_boundary(self, conn_id: str, payload: Any) -> None:
        conn = self._boundary_conns.get(conn_id)
        if conn is None or conn.closed or not conn.host.up:
            self.stats.dropped += 1
            return
        conn._enqueue(payload)

    def _stream_close_notify(self, conn: Connection) -> None:
        if not isinstance(conn, BoundaryConnection):
            super()._stream_close_notify(conn)
            return
        dst_host = self.hosts.get(conn.remote.host)
        if dst_host is None or not self._reachable(conn.host, dst_host):
            return
        lat = self._path_latency(conn.host, dst_host)
        self.post(conn.remote.host, CLOSE, self.sim.now + lat, (conn.conn_id,))

    def _arrive_close(self, conn_id: str) -> None:
        conn = self._boundary_conns.pop(conn_id, None)
        if conn is None or conn.closed or not conn.host.up:
            return
        conn._enqueue_close()

    # ------------------------------------------------------------------
    # Datagrams across the boundary
    # ------------------------------------------------------------------
    def _datagram_transmit(self, sock, dest: Address, payload: Any) -> Generator:
        if dest.host not in self.hosts or self.owns(dest.host):
            yield from super()._datagram_transmit(sock, dest, payload)
            return
        nbytes = wire_size(payload)
        delay = self._transmit_delay(sock.host, nbytes)
        dst_host = self.hosts[dest.host]
        if not self._reachable(sock.host, dst_host):
            self.stats.dropped += 1
        elif self.loss_rate > 0 and self._loss_rng.random() < self.loss_rate:
            self.stats.dropped += 1
        elif not self._link_dropped(sock.host, dst_host):
            self._account(sock.host, dst_host, nbytes)
            arrival = self.sim.now + delay + self._path_latency(sock.host, dst_host)
            self.post(dest.host, DGRAM, arrival,
                      (sock.address.host, sock.address.port,
                       dest.host, dest.port, payload),
                      nbytes=nbytes)
        yield self.sim.timeout(delay)

    def _arrive_dgram_boundary(self, src_host: str, src_port: int,
                               dst_host: str, dst_port: int, payload: Any) -> None:
        target = self._datagram.get(Address(dst_host, dst_port))
        if target is None or target.closed or not target.host.up:
            self.stats.dropped += 1
            return
        target._enqueue(Address(src_host, src_port), payload)
