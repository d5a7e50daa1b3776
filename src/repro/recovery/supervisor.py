"""Per-host daemon supervisor: suspicion, checkpoints, restarts."""

from __future__ import annotations

from typing import Callable, Dict, Generator, Optional

from repro.core.client import CallError
from repro.core.leases import LeaseTable
from repro.services.asd import DirectoryWatcherDaemon, ServiceDirectoryDaemon
from repro.services.base import Checkpointable

#: store path prefix for durable daemon checkpoints
CHECKPOINT_PREFIX = "/recovery/checkpoints"

#: (service, address) of the plane's one telemetry scope
RECOVERY_SCOPE = ("recovery", "recovery:0")

#: MTTR histogram bounds, milliseconds
_MTTR_BOUNDS = (100.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0, 8000.0, 16000.0)


class SupervisorDaemon:
    """One per host: watches the host's daemons, restarts the dead ones.

    Not an :class:`~repro.core.daemon.ACEDaemon` — it owns no port and
    speaks no wire protocol of its own (the ISSUE's "no new wire verbs"
    constraint).  Heartbeats are in-process calls piggybacked on the
    existing ASD lease-renewal traffic; the only wire the supervisor
    touches is the persistent store, for durable checkpoints.

    Constructing one registers it in ``ctx.supervisors[host.name]`` so
    daemons and lease batchers on the host find it with one dict lookup.
    """

    def __init__(self, ctx, host, *, adopt: Callable,
                 suspicion_window: Optional[float] = None,
                 check_interval: float = 0.5, checkpoint_interval: float = 2.0):
        self.ctx = ctx
        self.host = host
        self.name = f"supervisor.{host.name}"
        #: seconds without a confirmed-alive beat before a daemon is
        #: suspected dead.  Default = the full ASD lease duration: a
        #: daemon that cannot renew for a whole lease is exactly as dead
        #: as the directory itself would consider it.
        self.suspicion_window = suspicion_window or ctx.lease_duration
        self.check_interval = check_interval
        self.checkpoint_interval = checkpoint_interval
        self.running = False
        #: daemon name -> current (latest incarnation) instance
        self.watched: Dict[str, object] = {}
        #: daemon name -> highest incarnation number seen
        self.incarnations: Dict[str, int] = {}
        self.leases = LeaseTable(self.suspicion_window)
        self.restarts = 0
        self.suspicions = 0
        self.false_suspicions = 0
        #: ``adopt(old_daemon, new_daemon)`` after each restart
        self.adopt = adopt
        self._last_beat: Dict[str, float] = {}
        self._checkpoints: Dict[str, Dict[str, str]] = {}
        self._store = None
        metrics = ctx.obs.metrics
        self._m_restarts = metrics.counter("recovery.restarts")
        self._m_suspicions = metrics.counter("recovery.suspicions")
        self._m_false = metrics.counter("recovery.false_suspicions")
        self._m_checkpoints = metrics.counter("recovery.checkpoints")
        self._m_persisted = metrics.counter("recovery.checkpoints_persisted")
        self._m_mttr = metrics.histogram("recovery.mttr_ms", _MTTR_BOUNDS)
        metrics.register_view(f"recovery.{host.name}", self.snapshot)
        self.export_scope()
        ctx.supervisors[host.name] = self

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "SupervisorDaemon":
        if self.running:
            return self
        self.running = True
        self.host.residents[self] = None
        self._loops = [
            self.ctx.sim.process(self._watch_loop(), name=f"{self.name}.watch"),
            self.ctx.sim.process(self._checkpoint_loop(), name=f"{self.name}.checkpoint"),
        ]
        return self

    def export_scope(self) -> None:
        """Publish the plane's one telemetry scope, feeding the MTTR-budget
        SLO, from this host.  ``recovery.*`` instruments are shared across
        all supervisors, so the last registration wins with the same
        numbers."""
        self.ctx.obs.register_scope(
            *RECOVERY_SCOPE, self.host.name, prefix="recovery.",
        )

    def kill(self) -> None:
        """It dies with its wards' host (a ward's ``add_daemon`` restarts
        it) or when the plane takes its last ward away."""
        self.running = False
        self.host.residents.pop(self, None)
        for proc in self._loops:
            proc.defuse()   # the Interrupt is its death, not a bug
            proc.interrupt("host down")

    # ------------------------------------------------------------------
    # Watching & heartbeats
    # ------------------------------------------------------------------
    def watch(self, daemon) -> object:
        """Supervise ``daemon``: grant its suspicion lease, track its
        incarnation."""
        name = daemon.name
        now = self.ctx.sim.now
        self.watched[name] = daemon
        self.incarnations.setdefault(name, daemon.incarnation)
        self._last_beat[name] = now
        self.leases.grant(name, now)
        self.ctx.obs.metrics.gauge(f"recovery.{name}.incarnation").set(
            daemon.incarnation
        )
        return daemon

    def unwatch(self, name: str) -> None:
        self.watched.pop(name, None)
        self._last_beat.pop(name, None)
        self.leases.release(name)

    def beat(self, name: str) -> None:
        """``name`` was just confirmed alive (a lease renewal succeeded)."""
        if name not in self.watched:
            return
        now = self.ctx.sim.now
        self._last_beat[name] = now
        if self.leases.renew(name, now) is None:
            self.leases.grant(name, now)

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def store_checkpoint(self, name: str, payload: Dict[str, str]) -> None:
        """Adopt a fresh checkpoint payload (the in-memory copy)."""
        self._checkpoints[name] = payload
        self._m_checkpoints.inc()

    def persist_checkpoint(self, name: str, payload: Dict[str, str]) -> Generator:
        """Best-effort durable copy in the persistent store."""
        store = self._store_client()
        if store is None:
            return
        try:
            yield from store.put(f"{CHECKPOINT_PREFIX}/{name}", payload)
            self._m_persisted.inc()
        except CallError:
            pass

    def load_checkpoint(self, name: str) -> Generator:
        """The durable checkpoint for ``name``, or None."""
        store = self._store_client()
        if store is None:
            return None
        try:
            attrs = yield from store.get(f"{CHECKPOINT_PREFIX}/{name}")
        except CallError:
            return None
        return dict(attrs) if attrs else None

    def _store_client(self):
        if self.ctx.store_route is None:
            return None
        if self._store is None:
            from repro.store.client import StoreClient

            self._store = StoreClient(self.ctx, self.host, principal=self.name)
        return self._store

    def _checkpoint_loop(self) -> Generator:
        sim = self.ctx.sim
        while self.running:
            yield sim.timeout(self.checkpoint_interval)
            for name in sorted(self.watched):
                daemon = self.watched[name]
                if not isinstance(daemon, Checkpointable) or not daemon.running:
                    continue
                payload = daemon.compose_checkpoint()
                self.store_checkpoint(name, payload)
                if daemon.checkpoint_to_store:
                    yield from self.persist_checkpoint(name, payload)

    # ------------------------------------------------------------------
    # Suspicion & restart
    # ------------------------------------------------------------------
    def _watch_loop(self) -> Generator:
        sim = self.ctx.sim
        while self.running:
            yield sim.timeout(self.check_interval)
            for name in self.leases.expire(sim.now):
                yield from self._handle_suspicion(name)

    def _handle_suspicion(self, name: str) -> Generator:
        daemon = self.watched.get(name)
        if daemon is None:
            return
        self.suspicions += 1
        self._m_suspicions.inc()
        now = self.ctx.sim.now
        if daemon.running:
            # False positive: the daemon is demonstrably alive locally but
            # could not renew (e.g. partitioned from the directory).  The
            # fence: never spawn a second incarnation of a live daemon —
            # re-arm the suspicion lease and keep watching.
            self.false_suspicions += 1
            self._m_false.inc()
            self.leases.grant(name, now)
            self.ctx.trace.emit(
                now, self.name, "false-suspicion", service=name
            )
            return
        yield from self._restart(name, daemon)

    def _restart(self, name: str, daemon) -> Generator:
        ctx = self.ctx
        down_since = self._last_beat.get(name, ctx.sim.now)
        incarnation = max(self.incarnations.get(name, 0), daemon.incarnation) + 1
        replacement = daemon.respawn(incarnation)
        restored = 0
        if isinstance(replacement, Checkpointable):
            payload = self._checkpoints.get(name)
            if payload is None and replacement.checkpoint_to_store:
                payload = yield from self.load_checkpoint(name)
            if payload:
                # Restore BEFORE start: the reincarnation must never serve
                # a command from a blank slate.
                restored = replacement.restore_checkpoint(payload)
        self.incarnations[name] = incarnation
        self.watched[name] = replacement
        now = ctx.sim.now
        self._last_beat[name] = now
        self.leases.grant(name, now)
        replacement.start()
        # Redirect the world at the reincarnation instead of letting it
        # time out against stale state: force-close the address's breaker
        # (and tell peers), purge cached lookups for the name.
        ctx.resilience.notify_restart(replacement.address)
        if ctx.lookup_cache is not None:
            ctx.lookup_cache.invalidate_service(name)
        self.restarts += 1
        self._m_restarts.inc()
        mttr_ms = (now - down_since) * 1000.0
        self._m_mttr.observe(mttr_ms)
        ctx.obs.metrics.gauge(f"recovery.{name}.incarnation").set(incarnation)
        ctx.trace.emit(
            now, self.name, "daemon-restarted", service=name,
            incarnation=incarnation, restored=restored,
            mttr_ms=round(mttr_ms, 3),
        )
        self.adopt(daemon, replacement)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        return {
            "watched": len(self.watched),
            "restarts": self.restarts,
            "suspicions": self.suspicions,
            "false_suspicions": self.false_suspicions,
            "checkpoints": len(self._checkpoints),
        }


class SupervisionPlane:
    """The supervision plane as the environment's lifecycle sees it: a
    daemon that joins goes on its host's :class:`SupervisorDaemon`, minted
    and started on the host's first ward, and one that leaves comes off
    it.  The directory replicas and watcher are exempt — they *are* the
    heartbeat substrate.

    Turning the plane on switches clients to idempotent retry stamping and
    negative lookup caching, so a client chasing a dead name backs off
    during the recovery window.  ``adopt(old, new)`` runs after each
    restart; ``settings`` go to every supervisor."""

    def __init__(self, ctx, adopt: Callable, **settings):
        self.ctx = ctx
        self.adopt = adopt
        self.settings = settings
        ctx.idempotent_retries = True
        if ctx.lookup_cache is not None:
            ctx.lookup_cache.negative_ttl = 0.5

    def attach(self, daemon) -> None:
        if isinstance(daemon, (ServiceDirectoryDaemon, DirectoryWatcherDaemon)):
            return
        supervisor = self.ctx.supervisors.get(daemon.host.name)
        if supervisor is None:
            supervisor = SupervisorDaemon(
                self.ctx, daemon.host, adopt=self.adopt, **self.settings
            )
        supervisor.watch(daemon)
        supervisor.start()

    def detach(self, daemon) -> None:
        """Unwatch ``daemon``; a supervisor left with no ward is killed and
        forgotten, and a survivor takes over the plane's scope if the
        emptied host published it."""
        supervisors = self.ctx.supervisors
        supervisor = supervisors.get(daemon.host.name)
        if supervisor is None:
            return
        supervisor.unwatch(daemon.name)
        if supervisor.watched:
            return
        if supervisor.running:
            supervisor.kill()
        del supervisors[daemon.host.name]
        self.ctx.obs.metrics.unregister_view(f"recovery.{daemon.host.name}")
        scope = self.ctx.obs.telemetry_scopes[RECOVERY_SCOPE]
        if supervisors and scope.host == daemon.host.name:
            list(supervisors.values())[-1].export_scope()
