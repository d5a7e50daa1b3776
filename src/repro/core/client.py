"""Client-side command interface to ACE daemons (§2.3's "command interface").

A :class:`ServiceClient` is held by anything that issues commands — user
GUIs, other daemons, scenario drivers.  It opens (optionally SSL) channels,
performs the identity *attach*, and exposes a call-style API::

    reply = yield from client.call(addr, ACECmdLine("setPosition", x=1.0, y=2.0))

Every call rides a pooled channel under a deadline; a held session opens
its own with ``connect``.  ``call`` sends the immutable command itself,
charged its wire size; only an SSL record turns it into text (a shard pipe
pickles its name and arguments).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Generator, Iterable, Optional, Union

from repro.lang import ACECmdLine, ACELanguageError, parse_command
from repro.lang.command import CLIENT_ID_ARG, CLIENT_SEQ_ARG, is_error
from repro.net import (
    Address, Connection, ConnectionClosed, ConnectionRefused, ConnectionReset, HandshakeError,
)
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

#: a call that names no policy: one attempt, breaker off, and a deadline
#: over ten times the longest answered call in the test and benchmark
#: suites (8.0 s, E6's ``launch`` on a loaded host)
PLAIN_POLICY = CallPolicy(deadline=90.0, attempt_timeout=90.0, max_attempts=1, breaker_threshold=0)

#: idle connections a :class:`ConnectionPool` keeps per address
POOL_MAX_IDLE = 4

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


def received_command(payload) -> ACECmdLine:
    """What a channel delivered, as a command: a command object as is,
    text (an SSL record, a hand-written notice) parsed."""
    if isinstance(payload, ACECmdLine):
        return payload
    if not isinstance(payload, str):
        raise ACELanguageError(f"expected a command, got {type(payload).__name__}")
    return parse_command(payload)


def _cmd_failed(command: ACECmdLine, reply: ACECmdLine) -> CallError:
    """The error a checked call raises for a ``cmdFailed`` reply."""
    return CallError(f"{command.name!r} failed: {reply.get('reason', 'unknown')}", reply)


class ServiceConnection:
    """An attached, ready-to-use channel to one daemon.

    When the calling process has an ambient span (a root started with
    :meth:`ServiceClient.begin_trace`, the ``rpc:`` span of a policy call,
    or the request a daemon is serving), every :meth:`call` records a
    ``client`` span and injects its trace context into the outgoing
    command, so the far daemon's execution joins the same tree.
    """

    def __init__(self, channel: Channel, principal: str, client: "ServiceClient"):
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
        obs = self._client.ctx.obs
        span = None
        parent = obs.ambient_span()
        if parent is not None and command.name != "attach":
            span = obs.tracer.start_span(
                f"call:{command.name}", self.principal, parent, kind=SPAN_CLIENT
            )
            if span is not None:
                command = inject(command, span.context)
        status = "interrupted"  # overwritten on any non-interrupt exit
        try:
            try:
                yield from self.channel.send(command)
                payload = yield from self.channel.recv()
            except (ConnectionClosed, HandshakeError) as exc:
                status = "transport-error"
                raise TransportError(f"connection lost during {command.name!r}: {exc}") from exc
            reply = received_command(payload)
            status = "cmdFailed" if is_error(reply) else "ok"
        finally:
            if span is not None:
                obs.tracer.finish(span, status=status)
        if check and status == "cmdFailed":
            raise _cmd_failed(command, reply)
        return reply

    def close(self) -> None:
        self.channel.close()


class _AttemptBudget:
    """The budget timer's callback for one policy attempt, and the token
    it interrupts the attempt's caller with.

    ``disarm`` (the attempt's ``finally``) lets go of the caller, cancels
    the timer if it has not fired (:meth:`~repro.sim.Simulator.cancel`),
    and revokes a kick not yet delivered.  So a finished attempt leaves no
    live timer behind: the kernel sweeps cancelled ones out of its heap
    instead of carrying them for the policy's whole budget (1.5 s for the
    store's, 90 s for ``PLAIN_POLICY``), and a reply landing at the
    timer's instant is never followed by a stray
    :class:`~repro.sim.Interrupt`."""

    __slots__ = ("proc", "kick", "timer")

    def __init__(self, proc, timer=None):
        self.proc = proc
        self.kick = None
        self.timer = timer
        if timer is not None:
            timer.callbacks.append(self)

    def __call__(self, _timer) -> None:
        if self.proc is not None:
            self.kick = self.proc.interrupt(self)

    def disarm(self) -> None:
        self.proc = None
        if self.timer is not None:
            self.timer.sim.cancel(self.timer)
            self.timer = None
        if self.kick is not None:
            self.kick.cancelled = True
            self.kick = None


def _pool_key(address: Address, attach: bool = True, expected_subject: Optional[str] = None):
    """What a pooled channel was opened with: an attached channel with no
    pinned subject — nearly every one — is keyed by its address alone; any
    other is keyed with its ``connect`` options, so (say) a channel dialled
    with ``attach=False`` never serves a caller that needs its principal."""
    if attach and expected_subject is None:
        return address
    return (address, attach, expected_subject)


class ConnectionPool:
    """Attached connections reused across calls, keyed by address and by
    the ``connect`` options they were opened with.

    Every :meth:`ServiceClient.call` to an address and every long-lived
    caller (population sessions, the notification fan-out) goes through
    the pool, so the dial+attach round trips are paid once per connection,
    not once per command.  The pool checks idle connections out
    exclusively (a plain channel cannot interleave two request/reply
    exchanges), so concurrent callers to one address either reuse distinct
    pooled channels or dial new ones.
    """

    def __init__(self, client: "ServiceClient"):
        self._client = client
        self.max_idle_per_address = POOL_MAX_IDLE
        # Keyed by the Address itself (a frozen dataclass) for the common
        # attached channel: hashing two small fields beats formatting
        # "host:port" on every acquire/release (see _pool_key).
        self._idle: dict = {}   # key -> list[ServiceConnection]
        metrics = client.ctx.obs.metrics
        self._m_reuse = metrics.counter("rpc.pool.reuse")
        self._m_dial = metrics.counter("rpc.pool.dial")
        self._m_discard = metrics.counter("rpc.pool.discard")

    def _take_idle(self, key) -> Optional[ServiceConnection]:
        """Pop a reusable idle connection under ``key``, or ``None``.

        A strict request/reply channel has nothing to read while idle, so
        anything queued on it — the peer's EOF (``closed`` stays False until
        somebody reads it), a stray late reply — means the next exchange
        would fail or mis-pair: such a connection is closed and discarded.
        """
        bucket = self._idle.get(key)
        while bucket:
            conn = bucket.pop()
            channel = conn.channel
            if not channel.closed and not channel.pending():
                self._m_reuse.inc()
                return conn
            self._discard(conn)
        return None

    def _discard(self, connection: ServiceConnection) -> None:
        connection.close()
        self._m_discard.inc()

    def acquire(self, address: Address, **connect_kw) -> Generator:
        """Check out an attached connection (reused when one is idle)."""
        conn = self._take_idle(_pool_key(address, **connect_kw))
        if conn is None:
            conn = yield from self._client.connect(address, **connect_kw)
            self._m_dial.inc()
        return conn

    def release(self, address: Address, connection: ServiceConnection, **connect_kw) -> None:
        """Return a healthy connection for reuse (``connect_kw`` as it was
        acquired with)."""
        self._release(_pool_key(address, **connect_kw), connection)

    def _release(self, key, connection: ServiceConnection) -> None:
        if connection.channel.closed:
            self._m_discard.inc()
            return
        bucket = self._idle.setdefault(key, [])
        if len(bucket) >= self.max_idle_per_address:
            self._discard(connection)
            return
        bucket.append(connection)

    def call(
        self, address: Address, command: ACECmdLine, *, check: bool = True, **connect_kw
    ) -> Generator:
        """One command over a pooled channel: the dial+attach round trips
        are paid once per connection, not once per command.  Only a miss
        runs the ``connect`` generator; a hit goes straight to the call.

        A reused channel whose far end was reset — its host crashed and came
        back since the channel went idle, so the command reached nobody — is
        redialled once, to the host's new incarnation.  Any other failure
        closes and discards the channel and is raised."""
        key = _pool_key(address, **connect_kw)
        conn = self._take_idle(key)
        reused = conn is not None
        while True:
            if conn is None:
                conn = yield from self._client.connect(address, **connect_kw)
                self._m_dial.inc()
            try:
                reply = yield from conn.call(command, check=check)
            except RETRYABLE as exc:
                self._discard(conn)   # transport is suspect: never pool it again
                if reused and isinstance(exc.__cause__, ConnectionReset):
                    conn, reused = None, False
                    continue
                raise
            except CallError:
                self._release(key, conn)   # daemon answered: channel is fine
                raise
            except Exception:
                # Interrupt (a policy attempt whose budget ran out, or whose
                # caller was stopped), host death, a garbled reply: the
                # exchange stopped half way, so the channel's state is
                # unknown.  Closing it also lets the daemon's command
                # thread see EOF instead of parking.
                self._discard(conn)
                raise
            self._release(key, conn)
            return reply

    def close_all(self) -> None:
        for bucket in self._idle.values():
            for conn in bucket:
                conn.close()
        self._idle.clear()


class ServiceClient:
    """Attached connections for one principal on one host.

    A client holds no per-flow state: its pooled channels are checked
    out exclusively, and the span a call parents under is the calling
    process's ambient span.  So one client serves any number of
    concurrent flows — a daemon holds one for its incarnation
    (:attr:`~repro.core.daemon.ACEDaemon.client`)."""

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
        """The span new calls parent under: the calling process's ambient
        span."""
        return self.ctx.obs.ambient_span()

    def begin_trace(self, name: str, **annotations):
        """Start a root span for an end-to-end request and make it the
        calling process's ambient span, so every call the process makes
        until :meth:`end_trace` (and every process it spawns) parents under
        it; returns None when unsampled/disabled."""
        span = self.ctx.obs.tracer.start_trace(name, self.principal, **annotations)
        if span is not None:
            span.outer = self.ctx.obs.set_ambient(span)
        return span

    def end_trace(self, span, status: str = "ok", **annotations):
        """Finish a span from :meth:`begin_trace` (None-safe) and give the
        process back the ambient span it displaced."""
        if span is None:
            return None
        obs = self.ctx.obs
        if obs.ambient_span() is span:
            obs.set_ambient(span.outer)
        return obs.tracer.finish(span, status=status, **annotations)

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

        Every attempt is a :meth:`ConnectionPool.call` on this client's
        :attr:`pool`, cut off at ``attempt_timeout``; transport failures and
        timeouts are retried with jittered backoff until ``max_attempts``
        or ``deadline`` runs out; a per-address circuit breaker (shared
        through ``ctx.resilience``) sheds calls to endpoints that keep
        failing.  ``policy`` defaults to :data:`PLAIN_POLICY`.  The logical
        call is stamped for exactly-once execution
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
        policy = policy or PLAIN_POLICY
        if isinstance(target, Address):
            return self._call_with_policy(target, command, policy, check, connect_kw)
        if isinstance(target, Service):
            return self._call_service(target, command, policy, check, connect_kw)
        return self._call_replicas(target, command, policy, check, connect_kw)

    # ------------------------------------------------------------------
    # The pool (the scale-out RPC plane)
    # ------------------------------------------------------------------
    @cached_property
    def pool(self) -> ConnectionPool:
        """This client's connection pool: every call to an address rides it."""
        return ConnectionPool(self)

    def close_channels(self) -> None:
        """Drop every pooled channel (e.g. at client shutdown)."""
        self.pool.close_all()

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
        self, service: Service, command: ACECmdLine, policy: CallPolicy,
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
        self, addresses, command: ACECmdLine, policy: CallPolicy,
        check: bool, connect_kw: dict,
    ) -> Generator:
        """Try each replica until one answers (§5.3's robust-application
        client side); each endpoint gets ``policy.max_attempts`` — usually
        one, failing over *is* the retry."""
        addrs = list(addresses)
        if not addrs:
            raise CallError(f"no addresses to call {command.name!r} against")
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
        """Deadline + retry + circuit breaker around pooled attempts.

        Each attempt is :meth:`ConnectionPool.call` run inline in the
        caller's process under one budget timer (:class:`_AttemptBudget`).
        A timer that fires first interrupts the caller with its own token,
        which becomes :class:`DeadlineExceeded`; any other interrupt is
        re-raised unchanged.  Either way the pool closes and discards the
        connection the attempt held, so a late reply can never reach a
        later call."""
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
            # the attempts below run in this process, under this span
            span.outer = self.ctx.obs.set_ambient(span)
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
                timer = _AttemptBudget(sim.active_process, sim.timeout(budget))
                try:
                    try:
                        reply = yield from self.pool.call(
                            address, command, check=check, **connect_kw
                        )
                    except Interrupt as exc:
                        if exc.cause is not timer:
                            raise   # the caller stopped, and so did its attempt
                        raise DeadlineExceeded(
                            f"{command.name!r} to {address} exceeded {budget:.3f}s attempt budget"
                        ) from None
                    finally:
                        timer.disarm()
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
