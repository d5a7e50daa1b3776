"""The base ACE service daemon (§2.1, §2.1.1).

Thread structure (all scheduled on the DES kernel, mirroring the paper's
four Java threads):

* **main thread** — initialization (Fig. 9: RoomDB → ASD → NetLogger),
  then the lease-renewal loop.
* **command threads** — one per client connection: read a command string,
  parse + validate it against this daemon's semantics, authorize it
  (Fig. 10), then hand it to the control thread over a message queue and
  relay the reply.
* **control thread** — executes commands serially via ``cmd_<name>``
  handler methods and dispatches notifications (§2.5) after success.
* **data thread** — drains the daemon's UDP socket and hands datagrams to
  ``on_datagram`` (stream services override this; §2.1.1's "data stream
  operations over a UDP channel").

Per request the two threads swap the ambient span inline, probe the dedup
key once, fan out only for a watched verb and send every reply from one
place (``tests/core/test_round_trip_budget.py`` pins the calls).

Subclassing recipe::

    class PTZCameraDaemon(DeviceDaemon):
        service_type = "PTZCamera"

        def build_semantics(self, sem):
            sem.define("setPosition", ArgSpec("x", ArgType.FLOAT), ...)

        def cmd_setPosition(self, request):
            ...                # plain method, or a generator that yields
            return {"x": ...}  # merged into the cmdOk reply
"""

from __future__ import annotations

import inspect
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.lang import ACECmdLine, ACELanguageError, ArgSpec, ArgType, CommandSemantics
from repro.lang.command import (
    CLIENT_ID_ARG,
    CLIENT_SEQ_ARG,
    RESERVED_ARGS,
    error_reply,
    ok_reply,
)
from repro.lang.semantics import reply_semantics
from repro.obs import SERVER as SPAN_SERVER
from repro.obs import extract as extract_trace
from repro.net import Address, Connection, ConnectionClosed, HandshakeError
from repro.net.host import Host, HostDownError
from repro.net.secure import handshake_server
from repro.security.crypto import verify_signature
from repro.security.keynote import ComplianceChecker, parse_assertion
from repro.sim import Interrupt, Process, QueueClosed, Store

from repro.core.client import (
    FAILOVER_POLICY, CallError, Channel, ServiceClient, channel_binding, received_command,
)
from repro.core.context import DaemonContext, SecurityMode
from repro.core.notifications import NotificationMixin, NotificationTable
from repro.core.policy import CallPolicy

#: retry shape for boot-time ASD registration: daemons launched at boot may
#: beat the ASD onto the network (§2.6), so back off ~0.5 s → 4 s across five
#: attempts.  The breaker is disabled — every daemon in the environment races
#: the same ASD address at boot, and one daemon's early failures must not
#: shed its siblings' registrations.
STARTUP_REGISTRATION_POLICY = CallPolicy(
    deadline=60.0,
    attempt_timeout=5.0,
    max_attempts=5,
    backoff_base=0.5,
    backoff_max=4.0,
    breaker_threshold=0,
)


#: memo of command verb -> "cmd_<verb>" so the dispatch path never
#: allocates the attribute name per request (bounded by the vocabulary)
_HANDLER_ATTRS: Dict[str, str] = {}

#: how many ``(client_id, seq) -> reply`` pairs the idempotency window
#: holds before the oldest is evicted.  Sized for "a retry burst across a
#: restart", not for history: a client re-sends within its call deadline,
#: so the window only needs to outlive the in-flight population.
DEDUP_WINDOW = 512


class ServiceError(Exception):
    """Raised by handlers to produce a cmdFailed reply with a reason."""


@dataclass
class Request:
    """An inbound command plus the identity it arrived under."""

    command: ACECmdLine
    principal: str
    received_at: float
    remote: Optional[Address] = None
    #: server span for this request (None when untraced/unsampled)
    span: Optional[Any] = None
    #: when the command thread queued this request for the control thread
    queued_at: float = 0.0


class ACEDaemon(NotificationMixin):
    """Base class of every ACE service (root of the Fig. 6 hierarchy)."""

    #: this class's segment of the service-class path (subclasses override)
    service_type = "ACEService"

    def __new__(cls, *args, **kwargs):
        # Whatever the subclass, remember the keyword arguments of the
        # outermost constructor call: respawn() rebuilds from them.
        daemon = super().__new__(cls)
        daemon._init_kwargs = kwargs
        return daemon

    def __init__(
        self,
        ctx: DaemonContext,
        name: str,
        host: Host,
        *,
        port: Optional[int] = None,
        room: str = "",
        authorize_commands: Optional[bool] = None,
        register_with_asd: bool = True,
        incarnation: int = 0,
    ):
        self.ctx = ctx
        self.name = name
        self.host = host
        self.port = port if port is not None else ctx.net.ephemeral_port(host.name)
        self.room = room or host.room
        self.register_with_asd = register_with_asd
        #: how many times this (name, host, port) has been reincarnated by
        #: a supervisor; registrations carry it so the ASD can fence a
        #: stale incarnation that resurfaces after a partition heals
        self.incarnation = incarnation
        #: idempotency window: ``(client_id, seq) -> reply`` in LRU order;
        #: checkpointed and restored across restarts so a retry that spans
        #: a crash replays the old reply instead of re-executing
        self._dedup_cache: "OrderedDict[Tuple[str, int], ACECmdLine]" = OrderedDict()
        if authorize_commands is None:
            authorize_commands = ctx.security.mode is SecurityMode.SSL_KEYNOTE
        self.authorize_commands = authorize_commands

        self.semantics = self._base_semantics()
        self.build_semantics(self.semantics)
        self.reply_semantics = reply_semantics()
        # Handler dispatch table, built once: the control thread serves every
        # request through this, so it must not pay getattr + f-string per
        # command.  Handlers are bound methods keyed by verb.
        self._dispatch = {
            attr[4:]: getattr(self, attr)
            for attr in dir(type(self))
            if attr.startswith("cmd_")
        }
        self.notifications = NotificationTable()
        self.running = False
        self._listener = None
        self._datagram = None
        self._control_queue: Optional[Store] = None
        self._main_proc: Optional[Process] = None
        self._child_procs: Dict[Process, None] = {}   # the live ones
        self._credential_cache: Dict[str, tuple[float, list]] = {}
        self._credential_sweep_at = 0.0
        self._commands_served = 0

        # Per-daemon instruments (cached so the dispatch path is dict-free).
        metrics = ctx.obs.metrics
        self._m_queue_wait = metrics.histogram(f"daemon.{name}.queue_wait_s")
        self._m_service_time = metrics.histogram(f"daemon.{name}.service_time_s")
        self._m_queue_depth = metrics.gauge(f"daemon.{name}.queue_depth")
        self._m_auth_cache_hits = metrics.counter(f"daemon.{name}.auth_cache.hits")
        self._m_auth_cache_misses = metrics.counter(f"daemon.{name}.auth_cache.misses")
        self._m_lease_renewals = metrics.counter(f"daemon.{name}.lease_renewals")
        self._m_dedup_hits = metrics.counter(f"daemon.{name}.dedup.hits")
        self._m_dedup_evicted = metrics.counter(f"daemon.{name}.dedup.evicted")
        self._m_notify_sent = metrics.counter(f"daemon.{name}.notifications.delivered")
        self._m_notify_failed = metrics.counter(f"daemon.{name}.notifications.failed")
        self._m_notify_batched = metrics.counter(f"daemon.{name}.notifications.batched")
        self._m_cmd_counters: Dict[str, Any] = {}
        metrics.register_view(f"daemon.{name}.watchers", self.notifications.counts)
        # Telemetry identity: everything under ``daemon.<name>.*`` belongs
        # to this (service, address, incarnation).  A reincarnation re-runs
        # this with its bumped incarnation, starting a fresh series in the
        # E27 telemetry plane instead of splicing into the corpse's.
        ctx.obs.register_scope(
            name, f"{host.name}:{self.port}", host.name,
            incarnation=incarnation, prefix=f"daemon.{name}.",
        )

        # Identity for SSL server handshakes and signed actions.
        if ctx.security.mode is not SecurityMode.NONE and ctx.security.ca is not None:
            self.keypair, self.certificate = ctx.issue_identity(name)
        else:
            self.keypair, self.certificate = None, None
        self._hs_rng = ctx.rng.py(f"daemon.{name}.handshake")

    # ------------------------------------------------------------------
    # Hierarchy (Fig. 6)
    # ------------------------------------------------------------------
    @classmethod
    def class_path(cls) -> str:
        """Slash-joined service types from the root, e.g.
        ``ACEService/Device/PTZCamera/VCC3``."""
        parts: List[str] = []
        for klass in reversed(cls.__mro__):
            stype = klass.__dict__.get("service_type")
            if stype and (not parts or parts[-1] != stype):
                parts.append(stype)
        return "/".join(parts)

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------
    def _base_semantics(self) -> CommandSemantics:
        sem = CommandSemantics()
        sem.define("ping", description="liveness probe")
        sem.define("listCommands", description="enumerate this daemon's vocabulary")
        sem.define("getInfo", description="name/host/port/class/room of this daemon")
        sem.define(
            "attach",
            ArgSpec("principal", ArgType.STRING),
            ArgSpec("sig_e", ArgType.STRING, required=False),
            ArgSpec("sig_s", ArgType.STRING, required=False),
            description="bind a client identity to this connection",
        )
        sem.define(
            "addNotification",
            ArgSpec("cmd", ArgType.WORD),
            ArgSpec("listener", ArgType.STRING),
            ArgSpec("host", ArgType.STRING),
            ArgSpec("port", ArgType.INTEGER),
            ArgSpec("callback", ArgType.WORD),
            description="notify listener when cmd executes (§2.5)",
        )
        sem.define(
            "removeNotification",
            ArgSpec("cmd", ArgType.WORD),
            ArgSpec("listener", ArgType.STRING),
            ArgSpec("callback", ArgType.WORD, required=False),
        )
        return sem

    def build_semantics(self, sem: CommandSemantics) -> None:
        """Subclass hook: define this service's command vocabulary."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Address:
        return Address(self.host.name, self.port)

    def start(self) -> Process:
        """Launch the daemon; returns the main-thread process."""
        if self.running:
            raise ServiceError(f"daemon {self.name!r} already running")
        self.running = True
        self.host.residents[self] = None
        self._main_proc = self.ctx.sim.process(self._main_thread(), name=f"{self.name}.main")
        return self._main_proc

    def stop(self) -> Process:
        """Graceful shutdown: deregister from the ASD, close sockets (a
        child thread, so a crash of the host ends it too).  The metrics
        registry stops reading this daemon's watcher counts at once."""
        self.ctx.obs.metrics.unregister_view(f"daemon.{self.name}.watchers")
        return self._spawn(self._shutdown(), "stop")

    def kill(self) -> None:
        """Abrupt process death (fault injection, or its host's crash): no
        deregistration, no lease release — exactly the wreckage a real
        crash leaves behind.  The ASD lease lapses on its own; a supervisor
        notices the missed heartbeats.  It also cuts a graceful stop short."""
        if self not in self.host.residents:
            return
        self.running = False
        self._teardown()
        if self._main_proc is not None:
            self._main_proc.interrupt("killed")

    def respawn(self, incarnation: int) -> "ACEDaemon":
        """A fresh instance of this daemon on the same host and port under
        a higher incarnation number (the supervisor restart path), built
        from the keyword arguments this instance was built with.  The
        port is kept so addresses clients already hold stay valid."""
        kwargs = {**self._init_kwargs, **self._respawn_kwargs(),
                  "port": self.port, "incarnation": incarnation}
        return type(self)(self.ctx, self.name, self.host, **kwargs)

    def _respawn_kwargs(self) -> Dict[str, Any]:
        """Constructor kwargs whose value has changed since construction
        (the store's peers and shard map); :meth:`respawn` remembers the
        rest."""
        return {}

    def _beat(self) -> None:
        """Tell this host's supervisor (when one is watching) that we are
        alive — piggybacked on successful lease renewals, so detection
        needs no wire traffic of its own."""
        supervisor = self.ctx.supervisors.get(self.host.name)
        if supervisor is not None:
            supervisor.beat(self.name)

    def _shutdown(self) -> Generator:
        if not self.running:
            return
        self.running = False
        if self.register_with_asd and self.ctx.directory_addresses():
            try:
                yield from self.client.call(
                    self.ctx.directory_addresses(),
                    ACECmdLine("deregister", name=self.name),
                    policy=FAILOVER_POLICY,
                )
            except Exception:   # whatever it was: _teardown() must still run
                pass  # best effort; the lease will expire anyway
        self._teardown()

    def _teardown(self) -> None:
        self.host.residents.pop(self, None)
        self.client.close_channels()
        if self._listener is not None:
            self._listener.close()
        if self._datagram is not None:
            self._datagram.close()
        if self._control_queue is not None:
            self._control_queue.close()
        for proc in self._child_procs:
            proc.interrupt("daemon stopped")

    @cached_property
    def client(self) -> ServiceClient:
        """The one client this incarnation calls other services through:
        every flow shares its pooled channels, and :meth:`_teardown` hangs
        them up."""
        # Under SSL_KEYNOTE the daemon's identity is its key principal (the
        # one POLICY assertions license); elsewhere the service name reads
        # better in traces.
        principal = self.keypair.principal() if self.keypair is not None else self.name
        return ServiceClient(self.ctx, self.host, principal=principal, keypair=self.keypair)

    # ------------------------------------------------------------------
    # Main thread (startup sequence + lease renewal)
    # ------------------------------------------------------------------
    def _main_thread(self) -> Generator:
        sim, net = self.ctx.sim, self.ctx.net
        try:
            self._listener = net.listen(self.host, self.port)
            self._datagram = net.bind_datagram(self.host, self.port)
            self._control_queue = Store(sim, name=f"{self.name}.control")
            self._spawn(self._accept_loop(), "accept")
            self._spawn(self._control_thread(), "control")
            self._spawn(self._data_thread(), "data")
            yield from self._startup_sequence()
            self.on_started()
            self._beat()
            yield from self._lease_loop()
        except (HostDownError, Interrupt):
            self.running = False
            self._teardown()
        except QueueClosed:
            pass

    def _spawn(self, gen: Generator, tag: str) -> Process:
        proc = self.ctx.sim.process(self._guard(gen), name=f"{self.name}.{tag}")
        self._child_procs[proc] = None
        return proc

    def _guard(self, gen: Generator) -> Generator:
        """Child threads die quietly on shutdown interrupts / host death /
        closed queues, and leave ``_child_procs``; real bugs crash loudly."""
        try:
            result = yield from gen
            return result
        except (Interrupt, HostDownError, QueueClosed):
            return None
        finally:
            self._child_procs.pop(self.ctx.sim.active_process, None)

    def on_started(self) -> None:
        """Subclass hook: called once initialization completes."""

    def _startup_sequence(self) -> Generator:
        """Fig. 9: RoomDB (2) → ASD register (3) → NetLogger (5)."""
        trace = self.ctx.trace
        trace.emit(self.ctx.sim.now, self.name, "daemon-launch", host=self.host.name)
        if self.ctx.roomdb_address is not None and self.room:
            try:
                yield from self.client.call(
                    self.ctx.roomdb_address,
                    ACECmdLine(
                        "registerService",
                        service=self.name,
                        room=self.room,
                        host=self.host.name,
                        port=self.port,
                    ),
                )
                trace.emit(self.ctx.sim.now, self.name, "roomdb-registered", room=self.room)
            except CallError as exc:
                trace.emit(self.ctx.sim.now, self.name, "roomdb-unavailable", error=str(exc))
        if self.register_with_asd and self.ctx.directory_addresses():
            yield from self.client.call(
                self.ctx.directory_addresses(),
                self._registration_command(),
                policy=STARTUP_REGISTRATION_POLICY,
            )
            trace.emit(self.ctx.sim.now, self.name, "asd-registered", cls=self.class_path())
        if self.ctx.netlogger_address is not None:
            try:
                yield from self.client.call(
                    self.ctx.netlogger_address,
                    ACECmdLine(
                        "logEvent",
                        source=self.name,
                        event="service_started",
                        detail=f"host={self.host.name} port={self.port}",
                    ),
                )
                trace.emit(self.ctx.sim.now, self.name, "netlogger-logged")
            except CallError as exc:
                trace.emit(self.ctx.sim.now, self.name, "netlogger-unavailable", error=str(exc))
        trace.emit(self.ctx.sim.now, self.name, "daemon-ready")

    def _registration_command(self) -> ACECmdLine:
        command = ACECmdLine(
            "register",
            name=self.name,
            host=self.host.name,
            port=self.port,
            room=self.room or "unassigned",
            cls=self.class_path(),
        )
        if self.incarnation:
            # Only reincarnations carry the fencing number, so first-life
            # wire traffic stays byte-identical to the pre-recovery plane.
            command = command.with_args(inc=self.incarnation)
        return command

    def _lease_loop(self) -> Generator:
        """Renew the ASD lease at the configured fraction of its duration."""
        interval = self.ctx.lease_duration * self.ctx.lease_renew_fraction
        while self.running:
            yield self.ctx.sim.timeout(interval)
            if not self.running:
                return
            addresses = self.ctx.directory_addresses()
            if not (self.register_with_asd and addresses):
                # Nothing to renew against; the liveness signal is local.
                self._beat()
                continue
            try:
                yield from self.client.call(
                    addresses,
                    ACECmdLine("renewLease", name=self.name),
                    policy=FAILOVER_POLICY,
                    attach=False,
                )
                self._m_lease_renewals.inc()
                self._beat()
            except CallError:
                # Lease lapsed or ASD restarted: re-register from scratch.
                try:
                    yield from self._reregister()
                except CallError:
                    self.ctx.trace.emit(self.ctx.sim.now, self.name, "asd-unreachable")

    def _reregister(self) -> Generator:
        """Push our registration at the directory group again."""
        yield from self.client.call(
            self.ctx.directory_addresses(), self._registration_command(),
            policy=FAILOVER_POLICY,
        )
        self.ctx.trace.emit(self.ctx.sim.now, self.name, "asd-reregistered")

    # ------------------------------------------------------------------
    # Command threads
    # ------------------------------------------------------------------
    def _accept_loop(self) -> Generator:
        while self.running:
            try:
                conn = yield from self._listener.accept()
            except (ConnectionClosed, QueueClosed):
                return
            self._spawn(self._command_thread(conn), f"cmd:{conn.remote}")

    def _command_thread(self, conn: Connection) -> Generator:
        channel: Channel = conn
        if self.ctx.security.mode is not SecurityMode.NONE:
            if self.keypair is None or self.certificate is None:
                conn.close()
                return
            try:
                channel = yield from handshake_server(
                    conn, self._hs_rng, self.keypair, self.certificate
                )
            except (HandshakeError, ConnectionClosed):
                conn.close()
                return
        sim, obs = self.ctx.sim, self.ctx.obs
        # This thread's process carries the ambient span: swapped inline.
        proc = sim.active_process
        principal = "anonymous"
        attached = False
        while self.running:
            try:
                payload = yield from channel.recv()
            except (ConnectionClosed, HandshakeError):
                return
            except Interrupt:
                channel.close()
                return
            try:
                command = self.semantics.validate(received_command(payload))
            except ACELanguageError as exc:
                reply = f'cmdFailed cmd=parse reason="{_clean(exc)}";'
            else:
                reply = None
                if command.name == "attach":
                    principal, attached, problem = self._handle_attach(command, channel)
                    reply = (
                        ok_reply(command, principal=principal)
                        if problem is None
                        else error_reply(command, problem)
                    )
                else:
                    now = sim.now
                    request = Request(
                        command=command,
                        principal=principal if attached else "anonymous",
                        received_at=now,
                        remote=channel.remote,
                        queued_at=now,
                    )
                    inbound = extract_trace(command)
                    if inbound is not None:
                        request.span = obs.tracer.start_span(
                            f"serve:{command.name}", self.name, inbound,
                            kind=SPAN_SERVER, principal=request.principal,
                        )
                    # The request span is ambient while this thread works on
                    # the request, so e.g. the authorization path's AuthDB
                    # fetch joins the trace as a child.
                    outer, proc.obs_context = proc.obs_context, request.span
                    try:
                        if self.authorize_commands and command.name != "ping":
                            allowed, reason = yield from self._authorize(request)
                            request.queued_at = sim.now
                            if not allowed:
                                obs.tracer.finish(request.span, status="denied")
                                reply = error_reply(command, f"permission denied: {reason}")
                        if reply is None:
                            reply_slot = sim.event()
                            # Unbounded queue: the put cannot block, only find it closed.
                            if not self._control_queue.try_put((request, reply_slot)):
                                return
                            self._m_queue_depth.set(len(self._control_queue))
                            reply = yield reply_slot
                    finally:
                        proc.obs_context = outer
            # Every reply leaves from here: a parse failure, attach or denial too.
            try:
                yield from channel.send(reply)
            except (ConnectionClosed, HostDownError):
                pass

    def _handle_attach(self, command: ACECmdLine, channel: Channel):
        principal = command.str("principal")
        # Identity proof only matters where commands are authorized; the
        # bootstrap services (ASD/AuthDB/...) accept claimed identities.
        if self.ctx.security.mode is SecurityMode.SSL_KEYNOTE and self.authorize_commands:
            sig_e, sig_s = command.get("sig_e"), command.get("sig_s")
            public = self.ctx.security.principal_keys.get(principal)
            if sig_e is None or sig_s is None:
                return principal, False, "attach requires a signature"
            if public is None:
                return principal, False, f"unknown principal {principal}"
            message = f"attach:{principal}:{channel_binding(channel)}"
            try:
                signature = (int(sig_e, 16), int(sig_s, 16))
            except ValueError:
                return principal, False, "malformed attach signature"
            if not verify_signature(public, message, signature):
                return principal, False, "attach signature invalid"
        return principal, True, None

    # ------------------------------------------------------------------
    # Authorization (Fig. 10)
    # ------------------------------------------------------------------
    def _authorize(self, request: Request) -> Generator:
        attrs: Dict[str, Any] = {
            "app_domain": "ace",
            "service": self.name,
            "service_class": self.service_type,
            "command": request.command.name,
        }
        for key, value in request.command:
            if key in RESERVED_ARGS:
                continue
            if isinstance(value, (int, float, str)) and key not in attrs:
                attrs[key] = value if isinstance(value, str) else str(value)
        credentials = yield from self._fetch_credentials(request.principal)
        checker = ComplianceChecker(
            list(self.ctx.security.policies) + credentials,
            principal_keys=self.ctx.security.principal_keys,
        )
        if checker.authorized([request.principal], attrs):
            return True, ""
        return False, f"{request.principal} may not {request.command.name} on {self.name}"

    def _fetch_credentials(self, principal: str) -> Generator:
        """Fig. 10 steps 2–4: ask the Authorization DB for the principal's
        credentials (with a small cache so E5 can sweep the cost)."""
        cfg = self.ctx.security
        if self.ctx.asd_address is None:
            return []
        now = self.ctx.sim.now
        self._evict_stale_credentials(now)
        cached = self._credential_cache.get(principal)
        if cached is not None and now - cached[0] <= cfg.credential_cache_ttl:
            self._m_auth_cache_hits.inc()
            return cached[1]
        self._m_auth_cache_misses.inc()
        authdb_addr = getattr(self.ctx, "authdb_address", None)
        if authdb_addr is None:
            return []
        try:
            reply = yield from self.client.call(
                authdb_addr,
                ACECmdLine("getCredentials", principal=principal),
                attach=False,
            )
        except CallError:
            return []
        from repro.services.authdb import decode_credential

        texts = reply.get("credentials", ())
        credentials = []
        for text in texts if isinstance(texts, tuple) else ():
            try:
                credentials.append(parse_assertion(decode_credential(text)))
            except Exception:
                continue
        self._credential_cache[principal] = (now, credentials)
        return credentials

    def _evict_stale_credentials(self, now: float) -> None:
        """Drop cache entries past their TTL so long-lived daemons don't
        accumulate one entry per principal ever seen.  Sweeps are rate
        limited to one per lease duration — the natural "a principal that
        went away has been purged elsewhere too" horizon."""
        if now - self._credential_sweep_at < self.ctx.lease_duration:
            return
        self._credential_sweep_at = now
        ttl = max(self.ctx.security.credential_cache_ttl, 0.0)
        stale = [p for p, (t, _) in self._credential_cache.items() if now - t > ttl]
        for principal in stale:
            del self._credential_cache[principal]

    # ------------------------------------------------------------------
    # Control thread
    # ------------------------------------------------------------------
    def _control_thread(self) -> Generator:
        sim, obs = self.ctx.sim, self.ctx.obs
        # This thread's process carries the ambient span: swapped inline.
        proc = sim.active_process
        while self.running:
            try:
                request, reply_slot = yield self._control_queue.get()
            except QueueClosed:
                return
            now = sim.now
            command, span = request.command, request.span
            self._m_queue_depth.set(len(self._control_queue))
            queue_wait = now - (request.queued_at or request.received_at)
            self._m_queue_wait.observe(queue_wait)
            if span is not None:
                span.annotate(queue_wait_ms=round(queue_wait * 1e3, 3))
            stamp = self._dedup_key(command)
            if stamp is not None:
                cached = self._dedup_cache.get(stamp)
                if cached is not None:
                    # A retry of a command we already executed (possibly in
                    # a previous incarnation): replay the reply verbatim.
                    self._dedup_cache.move_to_end(stamp)
                    self._m_dedup_hits.inc()
                    obs.tracer.finish(span, status="dedup-replay")
                    if not reply_slot.triggered:
                        reply_slot.succeed(cached)
                    continue
            # Make the request span ambient for the handler (and for any
            # work it spawns: replication pushes, notifications, ...).
            outer, proc.obs_context = proc.obs_context, span
            try:
                yield from self.host.execute(self.ctx.dispatch_work)
                reply = yield from self._execute(request)
            except (ServiceError, CallError) as exc:
                # CallError: a service this handler called did not answer it
                # (or answered cmdFailed) — this command's failure, not the daemon's
                reply = error_reply(command, str(exc))
            except HostDownError:
                obs.tracer.finish(span, status="host-down")
                return
            except Interrupt:
                obs.tracer.finish(span, status="interrupted")
                return
            except ACELanguageError as exc:
                reply = error_reply(command, _clean(exc))
            finally:
                proc.obs_context = outer
            self._commands_served += 1
            verb = command.name
            self._count_command(verb)
            ok = reply.name == "cmdOk"
            if span is not None:
                # Traced request: pin its trace id to the service-time
                # bucket as an exemplar (memory-only; no wire impact).
                self._m_service_time.observe_ex(sim.now - now, span.trace_id)
                obs.tracer.finish(span, status="ok" if ok else "cmdFailed")
            else:
                self._m_service_time.observe(sim.now - now)
            if stamp is not None:
                self._dedup_remember(stamp, reply)
            if not reply_slot.triggered:
                reply_slot.succeed(reply)
            if ok and verb in self.notifications.watched:
                outer, proc.obs_context = proc.obs_context, span
                try:
                    self._spawn_notifications(request)
                finally:
                    proc.obs_context = outer

    # -- idempotency window ------------------------------------------------
    @staticmethod
    def _dedup_key(command: ACECmdLine) -> Optional[Tuple[str, int]]:
        # An unstamped command costs one probe of its argument dict.
        args = command._args
        cid = args.get(CLIENT_ID_ARG)
        if cid is None:
            return None
        seq = args.get(CLIENT_SEQ_ARG)
        return (str(cid), seq if isinstance(seq, int) else 0)

    def _dedup_remember(self, key: Tuple[str, int], reply: ACECmdLine) -> None:
        cache = self._dedup_cache
        cache[key] = reply
        cache.move_to_end(key)
        while len(cache) > DEDUP_WINDOW:
            cache.popitem(last=False)
            self._m_dedup_evicted.inc()

    def export_dedup(self) -> Tuple[str, ...]:
        """The idempotency window as wire-safe lines (oldest first) for
        inclusion in a checkpoint."""
        from repro.lang.wire import join_wire

        return tuple(
            join_wire((cid, seq, reply.to_string()))
            for (cid, seq), reply in self._dedup_cache.items()
        )

    def import_dedup(self, lines) -> int:
        """Rebuild the idempotency window from a checkpoint (restore path)."""
        from repro.lang import parse_command
        from repro.lang.wire import split_wire

        restored = 0
        for line in lines:
            try:
                cid, seq, text = split_wire(line)
                reply = parse_command(text)
            except (ValueError, ACELanguageError):
                continue
            self._dedup_remember((cid, int(seq)), reply)
            restored += 1
        return restored

    def _count_command(self, verb: str) -> None:
        counter = self._m_cmd_counters.get(verb)
        if counter is None:
            counter = self._m_cmd_counters[verb] = self.ctx.obs.metrics.counter(
                f"daemon.{self.name}.cmd.{verb}"
            )
        counter.inc()

    def _execute(self, request: Request) -> Generator:
        name = request.command.name
        if name == "addNotification":
            return self._builtin_add_notification(request)
        if name == "removeNotification":
            return self._builtin_remove_notification(request)
        if name == "ping":
            return ok_reply(request.command, time=float(self.ctx.sim.now))
        if name == "listCommands":
            return ok_reply(request.command, commands=tuple(self.semantics.commands()))
        if name == "getInfo":
            return ok_reply(
                request.command,
                name=self.name,
                host=self.host.name,
                port=self.port,
                room=self.room or "unassigned",
                cls=self.class_path(),
            )
        # Instance-level overrides (tests stub handlers onto live daemons)
        # win over the init-time dispatch table.
        attr = _HANDLER_ATTRS.get(name)
        if attr is None:
            attr = _HANDLER_ATTRS[name] = "cmd_" + name
        handler = self.__dict__.get(attr)
        if handler is None:
            handler = self._dispatch.get(name)
        if handler is None:
            return error_reply(request.command, f"no handler for {name!r}")
        result = handler(request)
        if inspect.isgenerator(result):
            result = yield from result
        if isinstance(result, ACECmdLine):
            return result
        return ok_reply(request.command, **(result or {}))

    def self_execute(self, command: ACECmdLine) -> Generator:
        """Run one of our own commands through the normal execute path
        (inline, so it is safe from inside a handler) and fire its
        notifications.  Used by device daemons that emit event commands
        (e.g. the FIU's ``identified``)."""
        command = self.semantics.validate(command)
        request = Request(command=command, principal=self.name, received_at=self.ctx.sim.now)
        reply = yield from self._execute(request)
        if reply.name == "cmdOk":
            self._commands_served += 1
            self._spawn_notifications(request)
        return reply

    # ------------------------------------------------------------------
    # Data thread
    # ------------------------------------------------------------------
    def _data_thread(self) -> Generator:
        while self.running:
            try:
                source, payload = yield from self._datagram.recv()
            except (ConnectionClosed, QueueClosed):
                return
            except Interrupt:
                return
            result = self.on_datagram(source, payload)
            if inspect.isgenerator(result):
                yield from result

    def on_datagram(self, source: Address, payload: Any):
        """Subclass hook for stream data (may be a plain method or generator)."""

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def commands_served(self) -> int:
        return self._commands_served

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "running" if self.running else "stopped"
        return f"<{type(self).__name__} {self.name} @{self.address} {state}>"


def _clean(exc: Exception) -> str:
    """Exception text safe to embed in a quoted ACE string."""
    return str(exc).replace('"', "'").replace("\n", " ")[:200]
