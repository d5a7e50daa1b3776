"""The ACE environment builder.

Composes everything the scenarios, examples, and benchmarks need::

    env = ACEEnvironment(seed=1)
    env.add_infrastructure()                       # ASD/RoomDB/... on "infra"
    env.add_room("hawk", building="nichols", dims=(10, 8, 3))
    bar = env.add_workstation("bar", room="hawk")  # host + HRM + HAL
    env.add_device(VCC4CameraDaemon, "camera.hawk", bar, room="hawk")
    env.boot()                                     # start in dependency order

Daemon start order follows the boot dependencies of Fig. 9: the ASD,
RoomDB, and NetLogger come up first, then databases, then monitors and
launchers, then everything else.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Generator, List, Optional, Tuple, Type

from repro.net import Address, Host, Network
from repro.net.address import WellKnownPorts
from repro.security.crypto import CertificateAuthority, KeyPair
from repro.security.keynote import Assertion
from repro.sim import RngRegistry, Simulator, TraceRecorder

from repro.apps.factories import build_registry
from repro.apps.runner import AppRegistry
from repro.control import Actuator, AutoscalerDaemon, SignalReader, default_rules
from repro.core.client import ServiceClient
from repro.core.context import DaemonContext, SecurityMode
from repro.core.daemon import ACEDaemon
from repro.env.users import UserIdentity
from repro.obs.cluster import TelemetryPlane
from repro.recovery import SupervisionPlane, SupervisorDaemon
from repro.services.asd import DirectoryWatcherDaemon, ServiceDirectoryDaemon
from repro.services.aud import UserDatabaseDaemon
from repro.services.authdb import AuthorizationDatabaseDaemon
from repro.services.fiu import FingerprintUnitDaemon, make_template
from repro.services.hal import HostApplicationLauncherDaemon
from repro.services.hrm import HostResourceMonitorDaemon
from repro.services.ibutton import IButtonReaderDaemon
from repro.services.idmon import IDMonitorDaemon
from repro.services.netlogger import NetworkLoggerDaemon
from repro.services.roomdb import RoomDatabaseDaemon
from repro.services.sal import SystemApplicationLauncherDaemon
from repro.services.srm import SystemResourceMonitorDaemon
from repro.services.wss import WorkspaceServerDaemon
from repro.store.client import StoreClient
from repro.store.server import PersistentStoreDaemon
from repro.store.sharding import ShardMap, StoreRoute

#: boot tiers: daemons start tier by tier (Fig. 9 dependencies)
_TIER_BOOTSTRAP = 0   # ASD, RoomDB, NetLogger
_TIER_DATABASE = 1    # AuthDB, AUD
_TIER_MONITOR = 2     # HRMs, HALs
_TIER_SYSTEM = 3      # SRM, SAL, WSS, IDMon
_TIER_SERVICE = 4     # devices and everything else


class ACEEnvironment:
    """One complete simulated ACE installation."""

    def __init__(
        self,
        seed: int = 0,
        *,
        security: SecurityMode = SecurityMode.NONE,
        lease_duration: float = 30.0,
        trace: bool = True,
        net_kwargs: Optional[dict] = None,
        shard=None,
    ):
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.trace = TraceRecorder(enabled=trace)
        #: :class:`~repro.sim.parallel.ShardContext` when this environment
        #: is one shard of a sharded run (None = ordinary single kernel)
        self.shard = shard
        if shard is not None and shard.n_shards > 1:
            from repro.net.boundary import BoundaryNetwork

            self.net = BoundaryNetwork(
                self.sim, self.rng, self.trace, shard=shard,
                **(net_kwargs or {}),
            )
        else:
            self.net = Network(self.sim, self.rng, self.trace, **(net_kwargs or {}))
        self.ctx = DaemonContext(
            sim=self.sim, net=self.net, rng=self.rng, trace=self.trace,
            lease_duration=lease_duration,
        )
        self.ctx.security.mode = security
        if security is not SecurityMode.NONE:
            self.ctx.security.ca = CertificateAuthority(self.rng.py("env.ca"))
        self.registry: AppRegistry = build_registry(self.ctx)
        self.daemons: Dict[str, ACEDaemon] = {}
        self._tiers: Dict[str, int] = {}
        self.users: Dict[str, UserIdentity] = {}
        self.rooms: List[Tuple[str, str, Tuple[float, float, float]]] = []
        self._booted = False
        self._admin_keypair: Optional[KeyPair] = None
        #: persistent-store replica-groups; ``ctx.store_route`` is their
        #: addresses and shard map, republished whenever they change
        self._store_groups: List[List[ACEDaemon]] = []
        #: monotonic naming serial for store groups — hosts outlive a
        #: drained group, so re-added groups need fresh host names
        self._store_group_serial = 0
        #: the planes that are on, in the order they were enabled; each
        #: has ``attach(daemon)`` and ``detach(daemon)``
        self._planes: list = []

    @property
    def obs(self):
        """The environment's observability hub (tracer + metrics)."""
        return self.ctx.obs

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_host(self, name: str, **kwargs) -> Host:
        return self.net.make_host(name, **kwargs)

    def add_workstation(
        self, name: str, *, room: str = "", segment: str = "lan",
        bogomips: float = 800.0, cores: int = 1, monitors: bool = True, **kwargs,
    ) -> Host:
        """A host with the per-host services (HRM + HAL) pre-attached."""
        host = self.net.make_host(
            name, room=room, segment=segment, bogomips=bogomips, cores=cores, **kwargs
        )
        if monitors:
            self.add_daemon(
                HostResourceMonitorDaemon(self.ctx, f"hrm.{name}", host, room=room),
                tier=_TIER_MONITOR,
            )
            self.add_daemon(
                HostApplicationLauncherDaemon(
                    self.ctx, f"hal.{name}", host, room=room, registry=self.registry
                ),
                tier=_TIER_MONITOR,
            )
        return host

    def add_room(self, name: str, building: str = "", dims: Tuple[float, float, float] = (0, 0, 0)) -> None:
        self.rooms.append((name, building, tuple(float(v) for v in dims)))

    # ------------------------------------------------------------------
    # Daemons
    # ------------------------------------------------------------------
    def add_daemon(self, daemon: ACEDaemon, tier: int = _TIER_SERVICE) -> ACEDaemon:
        """The one way a daemon joins: the registry, ``start()`` once the
        environment is booted, and the planes that are on — whether it
        arrives before they are enabled or long after."""
        if self.shard is not None and not self.shard.owns(daemon.host.name):
            # Ghost daemon: constructed (so construction-time RNG draws and
            # host state match every shard) but never registered or started
            # — its live twin runs in the shard owning this host.
            return daemon
        if daemon.name in self.daemons:
            raise ValueError(f"duplicate daemon name {daemon.name!r}")
        self.daemons[daemon.name] = daemon
        self._tiers[daemon.name] = tier
        if self._booted:
            daemon.start()
        for plane in self._planes:
            plane.attach(daemon)
        return daemon

    def remove_daemon(self, daemon: ACEDaemon):
        """The one way a daemon leaves (the mirror of :meth:`add_daemon`):
        off the planes, newest first, then stopped and out of the
        registry.  Returns the stop process."""
        for plane in reversed(self._planes):
            plane.detach(daemon)
        self.daemons.pop(daemon.name, None)
        self._tiers.pop(daemon.name, None)
        return daemon.stop()

    def add_device(self, daemon_class: Type[ACEDaemon], name: str, host: Host,
                   room: str = "", **kwargs) -> ACEDaemon:
        return self.add_daemon(
            daemon_class(self.ctx, name, host, room=room or host.room, **kwargs)
        )

    def add_infrastructure(
        self,
        host_name: str = "infra",
        *,
        room: str = "machineroom",
        bogomips: float = 1600.0,
        cores: int = 2,
        with_wss: bool = True,
        with_idmon: bool = True,
        sal_placement: str = "srm",
        srm_poll_interval: float = 5.0,
        asd_replicas: int = 1,
        asd_sync_interval: float = 5.0,
    ) -> Host:
        """The standard service stack on one (beefier) machine.

        With ``asd_replicas > 1`` the directory becomes a replica group
        (§5.3): extra ``ServiceDirectoryDaemon``\\ s on their own hosts,
        leader-forwarded writes, anti-entropy sync, and every client
        failing over across ``ctx.asd_addresses``.
        """
        host = self.add_workstation(
            host_name, room=room, bogomips=bogomips, cores=cores
        )
        self.ctx.default_bootstrap(host_name)
        directory = [
            self.add_daemon(
                ServiceDirectoryDaemon(
                    self.ctx, "asd", host, port=WellKnownPorts.ASD, room=room,
                    sync_interval=asd_sync_interval,
                ),
                tier=_TIER_BOOTSTRAP,
            )
        ]
        for i in range(1, asd_replicas):
            replica_host = self.add_workstation(
                f"{host_name}-asd{i + 1}", room=room,
                bogomips=bogomips, cores=cores, monitors=False,
            )
            directory.append(
                self.add_daemon(
                    ServiceDirectoryDaemon(
                        self.ctx, f"asd{i + 1}", replica_host,
                        port=WellKnownPorts.ASD, room=room,
                        sync_interval=asd_sync_interval,
                    ),
                    tier=_TIER_BOOTSTRAP,
                )
            )
        if len(directory) > 1:
            addresses = [d.address for d in directory]
            self.ctx.asd_addresses = addresses
            for daemon in directory:
                daemon.set_group(addresses)
        self.add_daemon(
            RoomDatabaseDaemon(self.ctx, "roomdb", host, port=WellKnownPorts.ROOM_DB, room=room),
            tier=_TIER_BOOTSTRAP,
        )
        self.add_daemon(
            NetworkLoggerDaemon(self.ctx, "netlogger", host, port=WellKnownPorts.NET_LOGGER, room=room),
            tier=_TIER_BOOTSTRAP,
        )
        self.add_daemon(
            AuthorizationDatabaseDaemon(self.ctx, "authdb", host, port=WellKnownPorts.AUTH_DB, room=room),
            tier=_TIER_DATABASE,
        )
        self.add_daemon(
            UserDatabaseDaemon(self.ctx, "aud", host, port=WellKnownPorts.USER_DB, room=room),
            tier=_TIER_DATABASE,
        )
        self.add_daemon(
            SystemResourceMonitorDaemon(self.ctx, "srm", host, room=room,
                                        poll_interval=srm_poll_interval),
            tier=_TIER_SYSTEM,
        )
        self.add_daemon(
            SystemApplicationLauncherDaemon(self.ctx, "sal", host, room=room,
                                            placement=sal_placement),
            tier=_TIER_SYSTEM,
        )
        if with_wss:
            self.add_daemon(
                WorkspaceServerDaemon(self.ctx, "wss", host, room=room),
                tier=_TIER_SYSTEM,
            )
        if with_idmon:
            self.add_daemon(
                IDMonitorDaemon(self.ctx, "idmon", host, room=room),
                tier=_TIER_SYSTEM,
            )
        return host

    def enable_supervision(
        self,
        *,
        suspicion_window: Optional[float] = None,
        check_interval: float = 0.5,
        checkpoint_interval: float = 2.0,
    ) -> Dict[str, SupervisorDaemon]:
        """Turn on the self-healing supervision plane (E26,
        :class:`~repro.recovery.SupervisionPlane`) for the daemons here
        and those still to come.  Returns host name -> supervisor (the
        live ``ctx.supervisors``)."""
        self._enable(
            SupervisionPlane(
                self.ctx, self._adopt_restart,
                suspicion_window=suspicion_window, check_interval=check_interval,
                checkpoint_interval=checkpoint_interval,
            ),
            list(self.daemons.values()),
        )
        return self.ctx.supervisors

    def enable_telemetry(self, *, interval: float = 1.0) -> ACEDaemon:
        """Turn on the E27 cluster telemetry plane
        (:class:`~repro.obs.cluster.TelemetryPlane`), pushing every
        ``interval`` seconds, for the hosts that run daemons now and those
        that will.  Returns the aggregator.  When telemetry stays off,
        none of it exists and the wire is byte-identical to pre-E27
        traffic."""
        if "telemetry" in self.daemons:
            return self.daemons["telemetry"]
        plane = TelemetryPlane(self, interval=interval, tier=_TIER_DATABASE)
        # publishers start in host-name order, whatever order hosts joined in
        self._enable(plane, sorted(self.daemons.values(), key=lambda d: d.host.name))
        return plane.aggregator

    def _enable(self, plane, present: List[ACEDaemon]) -> None:
        """Put ``plane`` on the list and attach the daemons ``present``."""
        self._planes.append(plane)
        for daemon in present:
            plane.attach(daemon)

    def _adopt_restart(self, old: ACEDaemon, new: ACEDaemon) -> None:
        """Supervisor restart hook: swap the reincarnation into every
        environment-level index that held the corpse."""
        if self.daemons.get(old.name) is old:
            self.daemons[old.name] = new
        for group in self._store_groups:
            for i, daemon in enumerate(group):
                if daemon is old:
                    group[i] = new

    def add_directory_watcher(self, host: Optional[Host] = None) -> ACEDaemon:
        """The cache-invalidation listener: subscribes to the directory
        group's register/deregister notifications and purges the shared
        :class:`~repro.core.lookup_cache.LookupCache` entries they touch."""
        if host is None:
            host = self.net.host(self.ctx.asd_address.host)
        return self.add_daemon(
            DirectoryWatcherDaemon(self.ctx, "dirwatch", host, room=host.room),
            tier=_TIER_DATABASE,
        )

    def add_persistent_store(
        self, replicas: int = 3, *, groups: int = 1, **store_kwargs,
    ) -> List[ACEDaemon]:
        """Fig. 17: a cluster of redundant store servers on separate hosts.

        With ``groups > 1`` the namespace is consistent-hash sharded across
        that many replica-groups of ``replicas`` servers each; every daemon
        and every :meth:`store_client` routes on the one
        :class:`~repro.store.sharding.StoreRoute` published as
        ``ctx.store_route``, so keys route locally.
        ``store_kwargs`` (``sync_interval``, ``batch_replication``, ...)
        go to every :class:`~repro.store.server.PersistentStoreDaemon`."""
        self._store_groups = []
        self._store_group_serial = 0
        daemons: List[ACEDaemon] = []
        for _ in range(groups):
            daemons += self._build_store_group(replicas, groups > 1, **store_kwargs)
        self._publish_store_route(ShardMap(groups) if groups > 1 else None)
        return daemons

    def _build_store_group(
        self, replicas: int, sharded: bool, **store_kwargs,
    ) -> List[ACEDaemon]:
        """The next replica-group: a host and a store daemon per replica,
        peered with each other and appended to the topology.

        Named and ported by serial, not group index: a drained group's
        hosts stay in the network, so index-based names would collide on
        re-add.  With no drains the serial equals the index."""
        g = len(self._store_groups)
        serial = self._store_group_serial
        self._store_group_serial += 1
        group: List[ACEDaemon] = []
        for i in range(replicas):
            # an unsharded store is its one group: store1.., ps1..
            tag = f"{serial + 1}-{i + 1}" if sharded else f"{i + 1}"
            host = self.add_workstation(
                f"store{tag}", room="machineroom", bogomips=1200.0,
                monitors=False,
            )
            group.append(self.add_daemon(
                PersistentStoreDaemon(
                    self.ctx, f"ps{tag}", host,
                    port=WellKnownPorts.PERSISTENT_STORE + serial * replicas + i,
                    room="machineroom", group_index=g, **store_kwargs,
                ),
                tier=_TIER_DATABASE,
            ))
        addresses = [d.address for d in group]
        for daemon in group:
            daemon.set_peers(addresses)
        self._store_groups.append(group)
        return group

    def _publish_store_route(self, shard_map: Optional[ShardMap]) -> StoreRoute:
        """The one place the store's route changes: ``shard_map`` over
        today's groups, published as ``ctx.store_route`` for every store
        client and daemon to read on their next use."""
        self.ctx.store_route = StoreRoute(shard_map, [
            [d.address for d in grp] for grp in self._store_groups
        ])
        return self.ctx.store_route

    def add_store_group(
        self, replicas: Optional[int] = None, **store_kwargs,
    ) -> List[ACEDaemon]:
        """Grow the sharded store by one replica-group: a route with the
        next ShardMap epoch is published and existing groups stream the
        objects they no longer own to the new group (the rebalance path)."""
        if not self._store_groups:
            raise RuntimeError("add_persistent_store() first")
        shard_map = self.ctx.store_route.shard_map or ShardMap(1)
        if replicas is None:
            replicas = len(self._store_groups[0])
        group = self._build_store_group(replicas, True, **store_kwargs)
        self._publish_store_route(shard_map.grown())
        for grp in self._store_groups[:-1]:
            for daemon in grp:
                daemon.rebalance()
        return group

    def drain_store_group(self, *, grace: float = 5.0):
        """Shrink the sharded store by its newest replica-group (the E28
        scale-down path, the mirror of :meth:`add_store_group`).

        The route with the shrunk map is published, the surviving groups
        rebalance on it, and the departing group — which owns no path
        from then on — streams *everything* it holds to the new owners,
        while writes that still land on it (pinned-list clients,
        in-flight commands) ride the misroute-forward path and never
        apply locally.  After the handoff the departing daemons stay up
        for ``grace`` seconds as pure forwarders, so straggler commands
        drain off before the sockets close.  Returns the drain process,
        which completes after the grace window when the drained daemons
        are stopped and removed from the environment."""
        if len(self._store_groups) <= 1:
            raise RuntimeError("cannot drain the last store group")
        drained = self._store_groups.pop()
        route = self._publish_store_route(self.ctx.store_route.shard_map.shrunk())
        for grp in self._store_groups:
            for daemon in grp:
                daemon.rebalance()
        handoffs = []
        for daemon in drained:
            daemon.group_index = -1    # owns nothing, whatever groups come next
            handoffs.append(daemon.rebalance())

        def _finish() -> Generator:
            yield self.sim.all_of(handoffs)
            if grace > 0:
                yield self.sim.timeout(grace)
            for daemon in drained:
                yield self.remove_daemon(daemon)
            self.trace.emit(
                self.sim.now, "env", "store-group-drained",
                groups=route.shard_map.groups, epoch=route.shard_map.epoch,
            )

        return self.sim.process(_finish(), name="store-drain")

    def store_client(self, host: Host, principal: str = "store-client", **kwargs):
        """A :class:`~repro.store.client.StoreClient` routing on
        ``ctx.store_route``."""
        return StoreClient(self.ctx, host, principal=principal, **kwargs)

    # ------------------------------------------------------------------
    # Directory scale knobs (E28)
    # ------------------------------------------------------------------
    def _directory_daemons(self) -> List[ServiceDirectoryDaemon]:
        return [
            d for d in self.daemons.values()
            if isinstance(d, ServiceDirectoryDaemon)
        ]

    def add_asd_replica(self) -> ACEDaemon:
        """Grow the directory group by one replica on its own host.

        The newcomer is constructed *with* the group, so its anti-entropy
        loop spawns at start and pulls the primary's records; existing
        members learn the widened group and start pushing dirReplicate
        to it on every write."""
        primary = self.daemons.get("asd")
        if primary is None:
            raise RuntimeError("add_infrastructure() first")
        existing = self._directory_daemons()
        index = 1 + max(
            (int(d.name[3:]) for d in existing if d.name[3:].isdigit()),
            default=1,
        )
        host_name = f"{primary.host.name}-asd{index}"
        if host_name in self.net.hosts:
            # A previously-retired replica's machine: re-add the daemon to
            # it instead of minting a colliding host.
            host = self.net.host(host_name)
        else:
            host = self.add_workstation(
                host_name, room=primary.room,
                bogomips=primary.host.bogomips, cores=primary.host.cores,
                monitors=False,
            )
        addresses = self.ctx.directory_addresses() or [primary.address]
        new_group = addresses + [Address(host.name, WellKnownPorts.ASD)]
        replica = ServiceDirectoryDaemon(
            self.ctx, f"asd{index}", host, port=WellKnownPorts.ASD,
            room=primary.room, sync_interval=primary.sync_interval,
            group=new_group,
        )
        self.ctx.asd_addresses = list(new_group)
        for daemon in existing:
            daemon.set_group(new_group)
        self.add_daemon(replica, tier=_TIER_BOOTSTRAP)
        self.trace.emit(
            self.sim.now, "env", "asd-replica-added",
            name=replica.name, replicas=len(new_group),
        )
        return replica

    def retire_asd_replica(self, name: Optional[str] = None) -> ACEDaemon:
        """Shrink the directory group by one follower (never the leader).

        The survivors drop the retiree from their group first — writes
        stop replicating to it — then it deregisters and stops.  Clients
        fail over across ``ctx.asd_addresses``, so shrinking the list is
        all they need."""
        addresses = self.ctx.directory_addresses()
        if len(addresses) <= 1:
            raise RuntimeError("no follower replica to retire")
        by_address = {d.address: d for d in self._directory_daemons()}
        if name is None:
            victim = by_address[addresses[-1]]
        else:
            victim = self.daemons[name]
        if victim.address == addresses[0]:
            raise ValueError("cannot retire the directory leader")
        new_group = [a for a in addresses if a != victim.address]
        self.ctx.asd_addresses = list(new_group)
        for daemon in self._directory_daemons():
            if daemon is not victim:
                daemon.set_group(new_group)
        self.remove_daemon(victim)
        self.trace.emit(
            self.sim.now, "env", "asd-replica-retired",
            name=victim.name, replicas=len(new_group),
        )
        return victim

    # ------------------------------------------------------------------
    # Closed-loop autoscaling (E28)
    # ------------------------------------------------------------------
    def enable_autoscaling(
        self,
        *,
        interval: float = 1.0,
        rules=None,
        latency_service: str = "",
    ) -> ACEDaemon:
        """Turn on the E28 closed-loop control plane.

        Requires telemetry (enabled on demand).  Builds one
        :class:`~repro.control.AutoscalerDaemon` wired to this
        environment's scale knobs — store groups
        (:meth:`add_store_group` / :meth:`drain_store_group`) and directory
        replicas (:meth:`add_asd_replica` / :meth:`retire_asd_replica`) —
        and registers it like any daemon: ASD-discoverable, traced, and
        supervised when the recovery plane is on.  ``rules`` defaults to
        :func:`~repro.control.default_rules` scaled to the interval."""
        if "autoscaler" in self.daemons:
            return self.daemons["autoscaler"]
        aggregator = self.enable_telemetry(interval=interval)

        actuators: Dict[str, Actuator] = {}
        if self._store_groups:
            actuators["store_groups"] = Actuator(
                "store_groups",
                level=lambda: len(self._store_groups),
                scale=lambda decision: (
                    self.add_store_group() if decision.direction > 0
                    else self.drain_store_group()
                ),
            )
        if self.ctx.asd_address is not None:
            actuators["asd_replicas"] = Actuator(
                "asd_replicas",
                level=lambda: max(1, len(self.ctx.directory_addresses())),
                scale=lambda decision: (
                    self.add_asd_replica() if decision.direction > 0
                    else self.retire_asd_replica()
                ),
            )
        if rules is None:
            rules = default_rules(interval=interval)
        rules = tuple(r for r in rules if r.resource in actuators)
        reader = SignalReader(
            lambda: self.daemons["telemetry"],
            lambda: {
                resource: actuator.level()
                for resource, actuator in actuators.items()
            },
            latency_service=latency_service,
        )
        return self.add_daemon(
            AutoscalerDaemon(
                self.ctx, "autoscaler", aggregator.host, interval=interval,
                rules=rules, reader=reader.read, actuators=actuators,
            ),
            tier=_TIER_DATABASE,
        )

    def add_id_devices(self, host: Host, room: str = "") -> Tuple[ACEDaemon, ACEDaemon]:
        """A fingerprint scanner + iButton reader at an access point."""
        room = room or host.room
        fiu = self.add_device(FingerprintUnitDaemon, f"fiu.{host.name}", host, room=room)
        reader = self.add_device(IButtonReaderDaemon, f"ibutton.{host.name}", host, room=room)
        return fiu, reader

    # ------------------------------------------------------------------
    # Users & policy
    # ------------------------------------------------------------------
    def create_identity(self, username: str, fullname: str = "", password: str = "secret") -> UserIdentity:
        """Mint enrollment material (not yet registered with the AUD)."""
        template = make_template(self.rng.np(f"user.{username}.fingerprint"))
        serial = "ib-%010x" % self.rng.py(f"user.{username}.ibutton").getrandbits(40)
        keypair = None
        if self.ctx.security.mode is not SecurityMode.NONE:
            keypair = KeyPair.generate(self.rng.py(f"user.{username}.key"))
            self.ctx.security.register_principal(keypair.principal(), keypair.public)
        identity = UserIdentity(
            username=username, fullname=fullname, password=password,
            fingerprint_template=template, ibutton_serial=serial, keypair=keypair,
        )
        self.users[username] = identity
        return identity

    def register_user_direct(self, identity: UserIdentity) -> None:
        """Fast path: insert into the AUD without the wire (boot-time setup).
        Scenario 1 shows the over-the-wire admin flow instead."""
        from repro.services.aud import UserRecord

        aud = self.daemons.get("aud")
        if aud is None:
            raise RuntimeError("add_infrastructure() first")
        aud.users[identity.username] = UserRecord(
            username=identity.username,
            fullname=identity.fullname,
            password_hash=aud.hash_password(identity.password),
            ibutton_serial=identity.ibutton_serial,
            fingerprint_template=identity.fingerprint_template,
            public_key=identity.keypair.public if identity.keypair else 0,
        )

    def admin_keypair(self) -> KeyPair:
        """The installation administrator's signing key (lazy, with a
        POLICY assertion trusting it)."""
        if self._admin_keypair is None:
            self._admin_keypair = KeyPair.generate(self.rng.py("env.admin"))
            self.ctx.security.register_principal(
                self._admin_keypair.principal(), self._admin_keypair.public
            )
            self.ctx.security.policies.append(
                Assertion("POLICY", f'"{self._admin_keypair.principal()}"',
                          'app_domain == "ace"')
            )
        return self._admin_keypair

    def trust_all_services(self) -> None:
        """Policy: every service principal may command every service.

        Installed automatically at boot in SSL_KEYNOTE mode — inter-daemon
        calls (notifications, SAL→HAL, ...) must flow."""
        principals = [
            d.keypair.principal() for d in self.daemons.values() if d.keypair is not None
        ]
        if principals:
            licensees = " || ".join(f'"{p}"' for p in principals)
            self.ctx.security.policies.append(
                Assertion("POLICY", licensees, 'app_domain == "ace"')
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def boot(self, settle: float = 2.0) -> "ACEEnvironment":
        """Start all daemons tier by tier and let registrations settle."""
        if self._booted:
            raise RuntimeError("environment already booted")
        self._booted = True
        if self.ctx.security.mode is SecurityMode.SSL_KEYNOTE:
            self.trust_all_services()
        for tier in range(_TIER_SERVICE + 1):
            for name, daemon in self.daemons.items():
                if self._tiers[name] == tier:
                    daemon.start()
            self.sim.run(until=self.sim.now + settle / 4)
            if tier == _TIER_BOOTSTRAP and self.rooms and "roomdb" in self.daemons:
                # Administrative room setup happens right after the RoomDB
                # is up, before any room-aware daemon starts.
                self.sim.run_process(self._register_rooms(), timeout=30.0)
        self.sim.run(until=self.sim.now + settle)
        return self

    def boot_async(self, settle: float = 2.0) -> Generator:
        """Generator-form boot, for sharded runs (E29).

        Same tiered sequence as :meth:`boot`, expressed as a kernel
        process because a shard may not free-run its own clock — the
        :class:`~repro.sim.parallel.ShardedSimulator` coordinator owns
        time.  Two deliberate differences from :meth:`boot`:

        * daemon starts within a tier are staggered by a deterministic
          per-name sub-millisecond offset (:func:`_boot_stagger`), which
          breaks same-instant registration ties so the merged trace is
          shard-count invariant;
        * room registration runs inline in this process instead of via
          ``run_process``.

        The whole sequence spans ``2.25 * settle`` plus the staggers, so
        callers should run the simulation at least that far.
        """
        if self._booted:
            raise RuntimeError("environment already booted")
        self._booted = True
        if self.ctx.security.mode is SecurityMode.SSL_KEYNOTE:
            self.trust_all_services()
        for tier in range(_TIER_SERVICE + 1):
            for name, daemon in self.daemons.items():
                if self._tiers[name] == tier:
                    self.sim.process(self._staggered_start(daemon),
                                     name=f"boot:{name}")
            yield self.sim.timeout(settle / 4)
            if tier == _TIER_BOOTSTRAP and self.rooms and "roomdb" in self.daemons:
                yield from self._register_rooms()
        yield self.sim.timeout(settle)

    def _staggered_start(self, daemon: ACEDaemon) -> Generator:
        yield self.sim.timeout(_boot_stagger(daemon.name))
        daemon.start()

    def _register_rooms(self) -> Generator:
        from repro.lang import ACECmdLine

        client = self.client(self.daemons["roomdb"].host, principal="env-admin")
        for name, building, dims in self.rooms:
            yield from client.call(
                self.ctx.roomdb_address,
                ACECmdLine("registerRoom", room=name, building=building,
                           dims=tuple(dims) if any(dims) else (1.0, 1.0, 1.0)),
            )
        client.close_channels()

    def client(self, host: Host, principal: str = "anonymous",
               keypair: Optional[KeyPair] = None) -> ServiceClient:
        return ServiceClient(self.ctx, host, principal=principal, keypair=keypair)

    def authorized_client(self, host: Host, name: str,
                          conditions: str = 'app_domain == "ace"') -> ServiceClient:
        """A client with a fresh keypair that POLICY trusts directly.

        The SSL_KEYNOTE convenience for tools/GUIs: mints a keypair,
        registers the principal, installs a POLICY assertion with the given
        conditions, and returns a signing ServiceClient."""
        keypair = KeyPair.generate(self.rng.py(f"authorized.{name}"))
        self.ctx.security.register_principal(keypair.principal(), keypair.public)
        self.ctx.security.policies.append(
            Assertion("POLICY", f'"{keypair.principal()}"', conditions)
        )
        return ServiceClient(self.ctx, host, principal=keypair.principal(),
                             keypair=keypair)

    def run(self, generator: Generator, timeout: float = 300.0):
        """Run a scenario coroutine to completion; returns its value."""
        return self.sim.run_process(generator, timeout=timeout)

    def run_for(self, seconds: float) -> None:
        self.sim.run(until=self.sim.now + seconds)

    def daemon(self, name: str) -> ACEDaemon:
        return self.daemons[name]

    @property
    def asd_address(self) -> Address:
        assert self.ctx.asd_address is not None
        return self.ctx.asd_address


def _boot_stagger(name: str) -> float:
    """Deterministic sub-millisecond start offset for a daemon name.

    Depends only on the name, never on shard layout, so the offset — and
    therefore same-tier start order — is identical at every shard count.
    The large prime modulus (nanosecond steps below 1 ms) makes two
    daemons colliding on the same offset vanishingly rare, which is what
    keeps registration traffic tie-free.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return (int.from_bytes(digest, "big") % 999983) * 1e-9
