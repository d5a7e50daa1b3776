"""Client-side command interface to ACE daemons (§2.3's "command interface").

A :class:`ServiceClient` is held by anything that issues commands — user
GUIs, other daemons, scenario drivers.  It opens (optionally SSL) channels,
performs the identity *attach*, and exposes a call-style API::

    conn = yield from client.connect(addr)
    reply = yield from conn.call(ACECmdLine("setPosition", x=1.0, y=2.0))

``call`` serializes the command (Fig. 5's CmdLine → string), transmits,
and parses the reply string back into an ACECmdLine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Generator, Iterable, Optional, Union

from repro.lang import ACECmdLine, parse_command
from repro.lang.command import CLIENT_ID_ARG, CLIENT_SEQ_ARG, PIPELINE_SEQ_ARG, is_error
from repro.net import Address, Connection, ConnectionClosed, ConnectionRefused, HandshakeError
from repro.net.host import Host
from repro.net.secure import SecureChannel, handshake_client
from repro.obs import CLIENT as SPAN_CLIENT
from repro.obs import inject
from repro.security.crypto import KeyPair, sha256_hex
from repro.sim import Interrupt

from repro.core.context import DaemonContext, SecurityMode
from repro.core.policy import (
    BreakerOpen,
    CallError,
    CallPolicy,
    DeadlineExceeded,
    TransportError,
)

#: nobody answered (every ``repro.net`` failure is a TransportError here) —
#: worth retrying; plain CallError (cmdFailed): the service answered — never.
RETRYABLE = (TransportError, DeadlineExceeded)

#: failures that justify moving on to the *next replica* of a replicated
#: service: everything retryable plus an already-open breaker (no point
#: waiting out the cooldown when a sibling can answer now).
FAILOVER_ERRORS = RETRYABLE + (BreakerOpen,)

#: per-replica policy for failover calls: one attempt per endpoint —
#: trying the next replica *is* the retry (same shape as the store's).
FAILOVER_POLICY = CallPolicy(
    deadline=2.0,
    attempt_timeout=1.0,
    max_attempts=1,
    backoff_base=0.05,
    backoff_max=0.2,
)

Channel = Union[Connection, SecureChannel]


@dataclass(frozen=True)
class Service:
    """A call target that names *what* is wanted, not where it runs: the
    ``lookup`` command's three query arguments (Fig. 7)."""

    name: Optional[str] = None
    cls: Optional[str] = None
    room: Optional[str] = None

    def __str__(self) -> str:
        return " ".join(f"{k}={v!r}" for k, v in vars(self).items() if v is not None)


def channel_binding(channel: Channel) -> str:
    """A string both endpoints can compute, tying an attach signature to
    this channel (thwarts replaying the attach on another connection)."""
    if isinstance(channel, SecureChannel):
        return sha256_hex(channel._mac_key)[:32]
    return f"{channel.local}|{channel.remote}"


def _cmd_failed(command: ACECmdLine, reply: ACECmdLine) -> CallError:
    """The error a checked call raises for a ``cmdFailed`` reply."""
    return CallError(f"{command.name!r} failed: {reply.get('reason', 'unknown')}", reply)


class ServiceConnection:
    """An attached, ready-to-use channel to one daemon.

    When the owning :class:`ServiceClient` has a current span (an explicit
    root started with :meth:`ServiceClient.begin_trace`, the ``rpc:`` span
    of a policy call, or the ambient per-process span), every :meth:`call`
    records a ``client`` span and injects its trace context into the
    outgoing command, so the far daemon's execution joins the same tree.
    """

    def __init__(self, channel: Channel, principal: str, client: Optional["ServiceClient"] = None):
        self.channel = channel
        self.principal = principal
        self._client = client

    @property
    def closed(self) -> bool:
        return self.channel.closed

    def call(self, command: ACECmdLine, check: bool = True) -> Generator:
        """Send a command and wait for its reply.

        With ``check`` (default) a ``cmdFailed`` reply raises
        :class:`CallError`; otherwise the reply is returned either way.
        """
        span = None
        if self._client is not None and command.name != "attach":
            span, command = self._client._open_span("call", self.principal, command)
        status = "interrupted"  # overwritten on any non-interrupt exit
        try:
            try:
                yield from self.channel.send(command.to_string())
                reply_text = yield from self.channel.recv()
            except (ConnectionClosed, HandshakeError) as exc:
                status = "transport-error"
                raise TransportError(f"connection lost during {command.name!r}: {exc}") from exc
            reply = parse_command(reply_text)
            status = "cmdFailed" if is_error(reply) else "ok"
        finally:
            if span is not None:
                self._client.ctx.obs.tracer.finish(span, status=status)
        if check and status == "cmdFailed":
            raise _cmd_failed(command, reply)
        return reply

    def close(self) -> None:
        self.channel.close()


class PipelinedConnection:
    """One attached channel carrying up to ``max_inflight`` tagged commands.

    Plain :meth:`ServiceConnection.call` is strictly request/reply: every
    command pays a full round trip before the next may start.  A pipelined
    connection tags each outgoing command with a ``o_seq`` sequence number
    (echoed by the daemon on the matching reply) and runs a single reader
    process that routes replies back to their callers, so several commands
    — even from *different* simulation processes sharing this object — can
    be in flight on one channel at once.

    Failure semantics (regression-tested): when the channel dies, only the
    calls currently in flight fail (with :class:`TransportError`); calls
    already answered keep their replies, and a fresh pipeline to the same
    address works immediately.  A reply whose tag was forgotten (the caller
    timed out) is discarded, never mis-paired.
    """

    def __init__(
        self,
        client: "ServiceClient",
        connection: ServiceConnection,
        max_inflight: int = 8,
    ):
        if max_inflight <= 0:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        self._client = client
        self._conn = connection
        self.max_inflight = max_inflight
        self._next_seq = 0
        self._pending: dict = {}          # seq -> Event awaiting the reply
        self._slot_waiters: list = []     # Events of calls queued for a slot
        self._reader = None
        self._dead: Optional[BaseException] = None
        metrics = client.ctx.obs.metrics
        self._m_sent = metrics.counter("rpc.pipeline.sent")
        self._m_matched = metrics.counter("rpc.pipeline.matched")
        self._m_discarded = metrics.counter("rpc.pipeline.discarded")
        self._m_depth = metrics.histogram(
            "rpc.pipeline.depth", bounds=(1, 2, 4, 8, 16, 32)
        )

    @property
    def closed(self) -> bool:
        return self._dead is not None or self._conn.closed

    @property
    def inflight(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    def call(
        self, command: ACECmdLine, *, check: bool = True, timeout: Optional[float] = None
    ) -> Generator:
        """Issue ``command`` without waiting for earlier calls' replies.

        Blocks only while all ``max_inflight`` slots are taken.  With
        ``timeout`` the call raises :class:`DeadlineExceeded` when the
        tagged reply has not arrived in time (a late reply is discarded).
        """
        sim = self._client.ctx.sim
        while self._dead is None and len(self._pending) >= self.max_inflight:
            slot = sim.event()
            self._slot_waiters.append(slot)
            yield slot
        if self._dead is not None:
            raise TransportError(f"pipeline to {self._conn.channel.remote} is closed: {self._dead}")
        seq = self._next_seq
        self._next_seq += 1
        span, command = self._client._open_span(
            "pipeline", self._conn.principal, command, seq=seq
        )
        tagged = command.with_args(**{PIPELINE_SEQ_ARG: seq})
        reply_ev = sim.event()
        self._pending[seq] = reply_ev
        self._m_depth.observe(len(self._pending))
        self._ensure_reader()
        status = "interrupted"
        try:
            try:
                yield from self._conn.channel.send(tagged.to_string())
            except (ConnectionClosed, HandshakeError) as exc:
                self._pending.pop(seq, None)
                reply_ev.defuse()
                self._fail_inflight(f"pipeline send failed: {exc}", exc)
                status = "transport-error"
                raise TransportError(f"connection lost during {command.name!r}: {exc}") from exc
            self._m_sent.inc()
            try:
                if timeout is None:
                    reply = yield reply_ev
                else:
                    timer = sim.timeout(timeout)
                    outcome = yield sim.any_of([reply_ev, timer])
                    if reply_ev in outcome:
                        reply = outcome[reply_ev]
                    else:
                        self._pending.pop(seq, None)
                        reply_ev.defuse()
                        self._release_slot()
                        status = "deadline"
                        raise DeadlineExceeded(
                            f"pipelined {command.name!r} reply not seen in {timeout:.3f}s"
                        )
            except TransportError:
                status = "transport-error"
                raise
            reply = reply.without_args(PIPELINE_SEQ_ARG)
            status = "cmdFailed" if is_error(reply) else "ok"
        finally:
            if span is not None:
                self._client.ctx.obs.tracer.finish(span, status=status)
        if check and status == "cmdFailed":
            raise _cmd_failed(command, reply)
        return reply

    # ------------------------------------------------------------------
    def _ensure_reader(self) -> None:
        if self._reader is None or not self._reader.is_alive:
            sim = self._client.ctx.sim
            self._reader = sim.process(
                self._reader_loop(), name=f"pipeline.{self._conn.principal}"
            )

    def _reader_loop(self) -> Generator:
        """Route each incoming reply to the call that owns its tag."""
        try:
            while True:
                text = yield from self._conn.channel.recv()
                try:
                    reply = parse_command(text)
                except Exception:
                    self._m_discarded.inc()
                    continue
                seq = reply.get(PIPELINE_SEQ_ARG)
                waiter = None
                if isinstance(seq, int) and not isinstance(seq, bool):
                    waiter = self._pending.pop(seq, None)
                elif self._pending:
                    # Untagged reply (e.g. a parse-error notice the daemon
                    # could not attribute): give it to the oldest caller
                    # rather than deadlocking every slot.
                    waiter = self._pending.pop(min(self._pending))
                if waiter is None:
                    self._m_discarded.inc()   # late reply after caller timeout
                    continue
                self._m_matched.inc()
                waiter.succeed(reply)
                self._release_slot()
        except (ConnectionClosed, HandshakeError) as exc:
            self._fail_inflight(f"pipeline channel closed: {exc}", exc)
        except Interrupt:
            self._fail_inflight("pipeline closed locally")

    def _fail_inflight(self, reason: str, cause: Optional[Exception] = None) -> None:
        """Channel death: fail the in-flight calls — and only those."""
        self._dead = exc = TransportError(reason)
        exc.__cause__ = cause   # by hand: raised later, in the callers' processes
        pending, self._pending = self._pending, {}
        for ev in pending.values():
            ev.defuse()
            ev.fail(exc)
        waiters, self._slot_waiters = self._slot_waiters, []
        for ev in waiters:
            ev.succeed()  # wake queued callers so they observe the death

    def _release_slot(self) -> None:
        while self._slot_waiters and len(self._pending) < self.max_inflight:
            self._slot_waiters.pop(0).succeed()

    def close(self) -> None:
        if self._reader is not None and self._reader.is_alive:
            self._reader.interrupt("pipeline closed")
        self._conn.close()


class ConnectionPool:
    """Attached connections reused across calls, keyed by address.

    :meth:`ServiceClient.call` dials for *every* command (connect → attach
    → call → close); at scale the dial+attach dominates, so long-lived
    callers (population sessions, the notification fan-out) go through a
    pool instead.  The pool checks idle connections out exclusively (a
    plain channel cannot interleave two request/reply exchanges), so
    concurrent callers to one address either reuse distinct pooled
    channels or dial new ones.
    """

    def __init__(self, client: "ServiceClient"):
        self._client = client
        self.max_idle_per_address = client.ctx.pool_max_idle
        # Registered (weakly) so the E28 control plane can resize every
        # live pool when it turns the pool_size knob.
        client.ctx._connection_pools.add(self)
        # Keyed by the Address itself (a frozen dataclass): hashing two
        # small fields beats formatting "host:port" on every acquire/release.
        self._idle: dict = {}   # Address -> list[ServiceConnection]
        metrics = client.ctx.obs.metrics
        self._m_reuse = metrics.counter("rpc.pool.reuse")
        self._m_dial = metrics.counter("rpc.pool.dial")
        self._m_discard = metrics.counter("rpc.pool.discard")

    def _take_idle(self, address: Address) -> Optional[ServiceConnection]:
        """Pop a reusable idle connection to ``address``, or ``None``.

        A strict request/reply channel has nothing to read while idle, so
        anything queued on it — the peer's EOF (``closed`` stays False until
        somebody reads it), a stray late reply — means the next exchange
        would fail or mis-pair: such a connection is closed and discarded.
        """
        bucket = self._idle.get(address)
        while bucket:
            conn = bucket.pop()
            if not conn.closed and not conn.channel.pending():
                self._m_reuse.inc()
                return conn
            conn.close()
            self._m_discard.inc()
        return None

    def acquire(self, address: Address, **connect_kw) -> Generator:
        """Check out an attached connection (reused when one is idle)."""
        conn = self._take_idle(address)
        if conn is None:
            conn = yield from self._client.connect(address, **connect_kw)
            self._m_dial.inc()
        return conn

    def resize(self, max_idle_per_address: int) -> None:
        """Change the idle cap in place; shrinking closes excess idles."""
        self.max_idle_per_address = max_idle_per_address
        for bucket in self._idle.values():
            while len(bucket) > max_idle_per_address:
                bucket.pop().close()
                self._m_discard.inc()

    def release(self, address: Address, connection: ServiceConnection) -> None:
        """Return a healthy connection for reuse."""
        if connection.closed:
            self._m_discard.inc()
            return
        bucket = self._idle.setdefault(address, [])
        if len(bucket) >= self.max_idle_per_address:
            self._m_discard.inc()
            connection.close()
            return
        bucket.append(connection)

    def call(
        self, address: Address, command: ACECmdLine, *, check: bool = True, **connect_kw
    ) -> Generator:
        """One command over a pooled channel: the dial+attach round trips
        are paid once per connection, not once per command.  Only a miss
        runs the ``connect`` generator; a hit goes straight to the call."""
        conn = self._take_idle(address)
        if conn is None:
            conn = yield from self._client.connect(address, **connect_kw)
            self._m_dial.inc()
        try:
            reply = yield from conn.call(command, check=check)
        except RETRYABLE:
            conn.close()   # transport is suspect: never pool it again
            raise
        except CallError:
            self.release(address, conn)   # daemon answered: channel is fine
            raise
        except Exception:
            # Interrupt, host death, a garbled reply: the exchange stopped
            # half way, so the channel's state is unknown.  Closing it also
            # lets the daemon's command thread see EOF instead of parking.
            conn.close()
            self._m_discard.inc()
            raise
        self.release(address, conn)
        return reply

    def close_all(self) -> None:
        for bucket in self._idle.values():
            for conn in bucket:
                conn.close()
        self._idle.clear()


class ServiceClient:
    """Factory of attached connections for one principal on one host."""

    def __init__(
        self,
        ctx: DaemonContext,
        host: Host,
        principal: str = "anonymous",
        keypair: Optional[KeyPair] = None,
    ):
        self.ctx = ctx
        self.host = host
        self.principal = principal
        self.keypair = keypair
        #: client-observed policy-call latency, shared env-wide; traced
        #: calls pin their trace id as the bucket exemplar
        self._m_latency = ctx.obs.metrics.histogram("rpc.latency_s")
        #: explicit span stack (roots, ``rpc:`` spans); the ambient per-process
        #: span is the fallback.  One client serves one logical flow.
        self._span_stack: list = []
        self._pool: Optional[ConnectionPool] = None
        self._pipelines: dict = {}   # Address -> PipelinedConnection
        #: idempotency stamp state (``ctx.idempotent_retries``): a unique
        #: client id minted on first use plus a per-logical-call sequence
        self._stamp_id: Optional[str] = None
        self._stamp_seq = 0

    # RNG streams are created on first draw: registry streams are keyed
    # (seed, name) so laziness never changes a sequence, and a
    # population-scale run (one client per user, plain pooled calls, no
    # security) never pays two Mersenne states per session.
    @cached_property
    def _rng(self):
        """The handshake RNG stream (``client.<host>.<principal>``)."""
        return self.ctx.rng.py(f"client.{self.host.name}.{self.principal}")

    @cached_property
    def _retry_rng(self):
        """The backoff-jitter RNG stream (``rpc.<host>.<principal>``)."""
        return self.ctx.rng.py(f"rpc.{self.host.name}.{self.principal}")

    # ------------------------------------------------------------------
    # Tracing (repro.obs)
    # ------------------------------------------------------------------
    def current_span(self):
        """The span new calls should parent under: the top of this
        client's explicit stack, else the ambient per-process span."""
        if self._span_stack:
            return self._span_stack[-1]
        return self.ctx.obs.ambient_span()

    def begin_trace(self, name: str, **annotations):
        """Start (and make current) a root span for an end-to-end request
        issued by this client; returns None when unsampled/disabled."""
        span = self.ctx.obs.tracer.start_trace(name, self.principal, **annotations)
        if span is not None:
            self._span_stack.append(span)
        return span

    def end_trace(self, span, status: str = "ok", **annotations):
        """Finish a span from :meth:`begin_trace` (None-safe)."""
        if span is None:
            return None
        if self._span_stack and self._span_stack[-1] is span:
            self._span_stack.pop()
        return self.ctx.obs.tracer.finish(span, status=status, **annotations)

    def _open_span(self, prefix: str, source: str, command: ACECmdLine, **annotations):
        """Open a ``<prefix>:<command>`` client span under the current span
        and inject its context into ``command``; ``(None, command)`` when
        nothing is being traced.  :meth:`current_span` is inlined: every
        exchange on every transport passes through here."""
        parent = self._span_stack[-1] if self._span_stack else self.ctx.obs.ambient_span()
        if parent is None:
            return None, command
        span = self.ctx.obs.tracer.start_span(
            f"{prefix}:{command.name}", source, parent, kind=SPAN_CLIENT, **annotations
        )
        if span is not None:
            command = inject(command, span.context)
        return span, command

    def connect(
        self,
        address: Address,
        expected_subject: Optional[str] = None,
        attach: bool = True,
    ) -> Generator:
        """Open a channel (secure when the context says so) and attach.

        Nobody answering (dial refused, channel lost, handshake failed) is a
        :class:`TransportError`: the socket error's text, the error as cause."""
        try:
            channel: Channel = yield from self.ctx.net.connect(self.host, address)
            if self.ctx.security.mode is not SecurityMode.NONE:
                ca = self.ctx.security.ca
                if ca is None:
                    raise CallError("security enabled but no CA configured")
                channel = yield from handshake_client(
                    channel, self._rng, ca.public_key, ca.name, expected_subject
                )
        except (ConnectionRefused, ConnectionClosed, HandshakeError) as exc:
            raise TransportError(str(exc)) from exc
        connection = ServiceConnection(channel, self.principal, client=self)
        if attach:
            yield from self._attach(connection)
        return connection

    def _attach(self, connection: ServiceConnection) -> Generator:
        attach_cmd = ACECmdLine("attach", principal=self.principal)
        if (
            self.ctx.security.mode is SecurityMode.SSL_KEYNOTE
            and self.keypair is not None
        ):
            binding = channel_binding(connection.channel)
            e, s = self.keypair.sign(f"attach:{self.principal}:{binding}")
            attach_cmd = attach_cmd.with_args(sig_e=f"{e:x}", sig_s=f"{s:x}")
        yield from connection.call(attach_cmd)

    def call(
        self,
        target: Union[Address, Iterable[Address], Service],
        command: ACECmdLine,
        policy: Optional[CallPolicy] = None,
        *,
        check: bool = True,
        **connect_kw,
    ) -> Generator:
        """Send ``command`` to an address and return the reply — the one
        way to call a daemon this client holds no channel to.

        * ``policy=None``: one plain attempt — dial, attach, exchange,
          close.  No deadline: a stalled endpoint stalls the caller.
        * a :class:`CallPolicy` hardens the call for gray failure: every
          attempt races ``attempt_timeout``; transport failures and
          timeouts are retried with jittered backoff until ``max_attempts``
          or ``deadline`` runs out; a per-address circuit breaker (shared
          through ``ctx.resilience``) sheds calls to endpoints that keep
          failing.  The logical call is stamped for exactly-once execution
          (``ctx.idempotent_retries``) and traced as one ``rpc:<cmd>`` span.
        * a sequence of replica addresses as ``target``: each is tried in
          turn under the same ``policy``; :data:`FAILOVER_ERRORS` move on.
        * a :class:`Service` as ``target``: the directory is asked first and
          the instances it lists are the replicas, one that has failed
          since it last answered going last.

        With ``check`` a ``cmdFailed`` reply raises :class:`CallError` at
        once — never retried or failed over: the service answered, and its
        siblings would refuse identically.  Otherwise raises
        :class:`BreakerOpen` (network untouched), :class:`DeadlineExceeded`
        or the last :class:`TransportError` — every failure is a
        ``CallError``.  ``connect_kw`` goes to :meth:`connect`.
        """
        if not isinstance(target, Address):
            if isinstance(target, Service):
                return self._call_service(target, command, policy, check, connect_kw)
            return self._call_replicas(target, command, policy, check, connect_kw)
        if policy is None:
            return self._dial_call_close(target, command, check, **connect_kw)
        return self._call_with_policy(target, command, policy, check, connect_kw)

    def _dial_call_close(
        self, address: Address, command: ACECmdLine, check: bool = True, **connect_kw
    ) -> Generator:
        """One attempt; closes its connection however it ends (a policy
        attempt that lost its race is interrupted in here)."""
        connection = yield from self.connect(address, **connect_kw)
        try:
            reply = yield from connection.call(command, check=check)
        finally:
            connection.close()
        return reply

    # ------------------------------------------------------------------
    # Pooled + pipelined paths (the scale-out RPC plane)
    # ------------------------------------------------------------------
    @property
    def pool(self) -> ConnectionPool:
        """This client's connection pool (created on first use)."""
        if self._pool is None:
            self._pool = ConnectionPool(self)
        return self._pool

    def pipelined(
        self, address: Address, max_inflight: int = 8, **connect_kw
    ) -> Generator:
        """The shared pipelined channel to ``address``, dialing (or
        re-dialing after a transport death) when needed."""
        pipe = self._pipelines.get(address)
        if pipe is None or pipe.closed:
            connection = yield from self.connect(address, **connect_kw)
            pipe = PipelinedConnection(self, connection, max_inflight=max_inflight)
            self._pipelines[address] = pipe
        return pipe

    def close_channels(self) -> None:
        """Drop every pooled/pipelined channel (e.g. at client shutdown)."""
        if self._pool is not None:
            self._pool.close_all()
        for pipe in self._pipelines.values():
            pipe.close()
        self._pipelines.clear()

    # ------------------------------------------------------------------
    # Idempotency stamping (the recovery plane's exactly-once half)
    # ------------------------------------------------------------------
    def _stamp(self, command: ACECmdLine) -> ACECmdLine:
        """Stamp one *logical* call with ``(client_id, seq)``.  Every retry
        and failover of that call reuses the stamp, so a daemon (or its
        reincarnation) that already executed it replays the cached reply
        instead of running it twice."""
        if not self.ctx.idempotent_retries or CLIENT_ID_ARG in command:
            return command
        if self._stamp_id is None:
            self._stamp_id = self.ctx.next_client_id(self.principal)
        seq = self._stamp_seq
        self._stamp_seq += 1
        return command.with_args(**{CLIENT_ID_ARG: self._stamp_id, CLIENT_SEQ_ARG: seq})

    # ------------------------------------------------------------------
    # The layers under call(): directory lookup → replica loop → policy
    # loop → one attempt
    # ------------------------------------------------------------------
    def _call_service(
        self, service: Service, command: ACECmdLine, policy: Optional[CallPolicy],
        check: bool, connect_kw: dict,
    ) -> Generator:
        """Fig. 7 written once: ask the ASD *what*, then call *where*."""
        from repro.services.asd import asd_lookup

        records = yield from asd_lookup(
            self, name=service.name, cls=service.cls, room=service.room
        )
        if not records:
            raise CallError(f"no service matching {service}")
        # The directory lists a corpse until its lease lapses; the breakers
        # remember who stopped answering, so later calls try it last
        # instead of paying its attempt timeout again.
        addresses = sorted(
            (record.address for record in records), key=self.ctx.resilience.suspect
        )
        reply = yield from self._call_replicas(
            addresses, command, policy, check, connect_kw
        )
        return reply

    def _call_replicas(
        self, addresses, command: ACECmdLine, policy: Optional[CallPolicy],
        check: bool, connect_kw: dict,
    ) -> Generator:
        """Try each replica until one answers (§5.3's robust-application
        client side); each endpoint gets ``policy.max_attempts`` — usually
        one, failing over *is* the retry."""
        addrs = list(addresses)
        if not addrs:
            raise CallError(f"no addresses to call {command.name!r} against")
        if policy is not None:
            command = self._stamp(command)   # one stamp for every replica
        failovers = self.ctx.obs.metrics.counter("rpc.failover")
        last_exc: Optional[Exception] = None
        for i, address in enumerate(addrs):
            if i:
                failovers.inc()
                self.ctx.trace.emit(
                    self.ctx.sim.now, "rpc", "failover",
                    command=command.name, address=str(address),
                )
            try:
                reply = yield from self.call(
                    address, command, policy, check=check, **connect_kw
                )
                return reply
            except FAILOVER_ERRORS as exc:
                last_exc = exc
        raise last_exc

    def _call_with_policy(
        self, address: Address, command: ACECmdLine, policy: CallPolicy,
        check: bool, connect_kw: dict,
    ) -> Generator:
        """Deadline + retry + circuit breaker around :meth:`_dial_call_close`."""
        registry = self.ctx.resilience
        stats = registry.stats
        breaker = registry.breaker(address, policy)
        command = self._stamp(command)
        sim = self.ctx.sim
        span = self.ctx.obs.tracer.start_span(
            f"rpc:{command.name}", self.principal, self.current_span(),
            kind=SPAN_CLIENT, address=str(address),
        )
        if span is not None:
            self._span_stack.append(span)
        status = "interrupted"
        started = sim.now
        deadline_at = sim.now + policy.deadline
        stats.calls += 1
        attempt = 0
        try:
            while True:
                now = sim.now
                if not breaker.allow(now):
                    stats.breaker_rejected += 1
                    status = "breaker-open"
                    raise BreakerOpen(f"circuit open for {address} ({command.name!r})")
                budget = min(policy.attempt_timeout, deadline_at - now)
                if budget <= 0:
                    stats.deadline_expired += 1
                    stats.failures += 1
                    status = "deadline"
                    raise DeadlineExceeded(
                        f"{command.name!r} to {address} exceeded {policy.deadline:.3f}s deadline"
                    )
                # its own process, so the attempt can race its budget
                proc = sim.process(
                    self._dial_call_close(address, command, check, **connect_kw),
                    name=f"rpc.{self.principal}",
                )
                try:
                    outcome = yield sim.any_of([proc, sim.timeout(budget)])
                    if proc not in outcome:
                        proc.interrupt("rpc attempt deadline")
                        raise DeadlineExceeded(
                            f"{command.name!r} to {address} exceeded {budget:.3f}s attempt budget"
                        )
                    reply = outcome[proc]
                except RETRYABLE as exc:
                    if isinstance(exc, DeadlineExceeded):
                        stats.deadline_expired += 1
                    if breaker.record_failure(sim.now):
                        stats.breaker_trips += 1
                        if span is not None:
                            span.annotate(breaker_tripped=1)
                        self.ctx.trace.emit(
                            sim.now, "rpc", "breaker-open", address=str(address)
                        )
                    attempt += 1
                    if attempt >= policy.max_attempts or sim.now >= deadline_at:
                        stats.failures += 1
                        status = "deadline" if isinstance(exc, DeadlineExceeded) else "transport-error"
                        raise
                    stats.retries += 1
                    delay = policy.backoff_delay(attempt, self._retry_rng)
                    yield sim.timeout(min(delay, max(deadline_at - sim.now, 0.0)))
                    continue
                except CallError:
                    # The service answered (cmdFailed): healthy transport.
                    if breaker.record_success():
                        stats.breaker_resets += 1
                    stats.successes += 1
                    status = "cmdFailed"
                    raise
                if breaker.record_success():
                    stats.breaker_resets += 1
                    self.ctx.trace.emit(
                        sim.now, "rpc", "breaker-closed", address=str(address)
                    )
                stats.successes += 1
                status = "ok"
                return reply
        finally:
            if span is not None:
                self._m_latency.observe_ex(sim.now - started, span.trace_id)
                # ``attempt`` counts failed attempts; cmdFailed/ok add one
                # more (the attempt that reached the service and returned).
                total = attempt + (1 if status in ("ok", "cmdFailed") else 0)
                self.end_trace(
                    span, status=status, attempts=total,
                    retries=max(total - 1, 0), breaker=breaker.state,
                )
            else:
                self._m_latency.observe(sim.now - started)
