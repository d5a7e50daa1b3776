"""ASD — the ACE Service Directory (§2.4, Fig. 7), now a replica group.

The central listing of active services.  Services ``register`` at startup
(Fig. 9 step 3), ``renewLease`` periodically, ``deregister`` at shutdown;
clients ``lookup`` by name, class path, or room.  Leases purge crashed
services: a registration that stops renewing disappears after
``ctx.lease_duration`` seconds, so "other services don't waste time and
resources attempting to connect to a defunct ACE service".

Because registration is an ordinary ACE command, other daemons can watch
it with ``addNotification cmd=register ...`` and learn about new services
the moment they come up (Fig. 9 step 4) — no ASD-specific mechanism needed.
:class:`DirectoryWatcherDaemon` uses exactly that hook to invalidate the
client-side :class:`~repro.core.lookup_cache.LookupCache`.

Scale-out (§5.3 "robust applications", same pattern as ``repro.store``):

* **Replica group** — 2–3 directories share one logical registry, a
  :mod:`repro.core.replication` map like the store's.  Client writes
  hitting a follower are forwarded to the leader (``group[0]``); the
  coordinator stamps each mutation with a ``(seq, site)`` version, writes
  it to its table, and pushes it to its peers asynchronously
  (``dirReplicate``).  When the leader is unreachable the follower
  coordinates the write itself — availability beats strict ordering, and
  last-writer-wins on ``(seq, site)`` keeps replicas convergent.
* **Anti-entropy** — replicas periodically exchange ``dirDigest`` listings
  and ``dirFetch`` anything newer, so a crashed-and-restarted replica
  converges without operator help.
* **Chunked replies** — ``lookup``/``listServices`` page large result sets
  in bounded chunks (``next`` carries the continuation offset), replacing
  the E2 jumbo reply.  Replies carry ``ttl`` — the minimum remaining lease
  of the returned records — which clients use as the cache horizon.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Generator, List, Optional, Tuple

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.lang.wire import join_wire, split_wire
from repro.net import Address
from repro.core.client import CallError, ServiceClient
from repro.core.daemon import ACEDaemon, Request, ServiceError
from repro.core.leases import LeaseTable
from repro.core.lookup_cache import query_key
from repro.core.notifications import notification_event
from repro.core.policy import CallPolicy
from repro.core.replication import ReplicaMixin, ReplicatedMap, wanted


@dataclass(frozen=True)
class ServiceRecord:
    """One directory entry."""

    name: str
    host: str
    port: int
    room: str
    cls: str
    #: supervisor reincarnation number (0 = first life).  Registrations
    #: carrying a lower ``inc`` than the live entry are fenced — a stale
    #: incarnation resurfacing after a partition heal cannot clobber its
    #: replacement.
    inc: int = 0

    @property
    def address(self) -> Address:
        return Address(self.host, self.port)

    def to_wire(self) -> str:
        parts = [self.name, self.host, self.port, self.room, self.cls]
        if self.inc:
            # First-life records keep the legacy 5-field form so the wire
            # stays byte-identical when the recovery plane is off.
            parts.append(self.inc)
        return join_wire(parts)

    @classmethod
    def from_wire(cls, text: str) -> "ServiceRecord":
        fields = split_wire(text)
        if len(fields) == 5:
            name, host, port, room, klass = fields
            return cls(name, host, int(port), room, klass)
        name, host, port, room, klass, inc = fields
        return cls(name, host, int(port), room, klass, int(inc))

    def matches_class(self, cls_query: str) -> bool:
        """True when ``cls_query`` is a segment (or suffix path) of this
        record's class path, so ``PTZCamera`` matches ``.../PTZCamera/VCC3``."""
        return _class_matches(self.cls, cls_query)


@lru_cache(maxsize=4096)
def _class_matches(cls_path: str, cls_query: str) -> bool:
    segments = cls_path.split("/")
    query = cls_query.split("/")
    for start in range(len(segments) - len(query) + 1):
        if segments[start : start + len(query)] == query:
            return True
    return False


@dataclass
class DirEntry:
    """One replicated directory mutation: a record (or its tombstone) plus
    the lease horizon and a last-writer-wins ``(seq, site)`` version."""

    record: ServiceRecord
    expires_at: float
    seq: int
    site: str
    deleted: bool = False
    renewals: int = field(default=0, compare=False)

    @property
    def key(self) -> str:
        return self.record.name

    @property
    def version(self) -> Tuple[int, str]:
        return (self.seq, self.site)

    def to_wire(self) -> str:
        return join_wire((
            self.record.to_wire(), repr(self.expires_at), self.seq, self.site,
            int(self.deleted), self.renewals,
        ))

    @classmethod
    def from_wire(cls, text: str) -> "DirEntry":
        record, expires, seq, site, deleted, renewals = split_wire(text)
        return cls(
            record=ServiceRecord.from_wire(record),
            expires_at=float(expires),
            seq=int(seq),
            site=site,
            deleted=deleted == "1",
            renewals=int(renewals),
        )


class ServiceDirectoryDaemon(ReplicaMixin, ACEDaemon):
    """One replica of the directory group (a 'robust application', §5.3)."""

    service_type = "ServiceDirectory"

    #: bounded reply size: at most this many records per lookup/listServices
    #: reply (and per dirFetch batch) — the E2 jumbo-reply fix.
    LOOKUP_CHUNK = 32
    REPLICATE = "dirReplicate"
    FETCH = ("dirFetch", "names", "entries")
    CHUNK = LOOKUP_CHUNK
    _encode = staticmethod(DirEntry.to_wire)
    _decode = staticmethod(DirEntry.from_wire)

    def __init__(self, ctx, name, host, *, group: Optional[List[Address]] = None,
                 sync_interval: float = 5.0, **kwargs):
        kwargs.setdefault("authorize_commands", False)  # bootstrap service
        kwargs.setdefault("register_with_asd", False)   # it IS the ASD
        super().__init__(ctx, name, host, **kwargs)
        self.records: Dict[str, ServiceRecord] = {}
        self.leases = LeaseTable(ctx.lease_duration, on_expire=self._lease_expired)
        #: every group member's address, leader first; empty = standalone
        self.group: List[Address] = list(group or [])
        self.sync_interval = sync_interval
        #: name -> newest DirEntry, tombstones included; ``records``,
        #: ``_names`` and ``leases`` are derived from it in _entry_changed
        self.table = ReplicatedMap(name, on_change=self._entry_changed)
        self._names: List[str] = []   # sorted index of ``records``
        #: forward cooldown: until this time, writes bypass the leader
        self._leader_down_until = 0.0
        self.forwarded_writes = 0
        self.coordinated_writes = 0
        self.fenced_registers = 0
        metrics = ctx.obs.metrics
        self._m_repl_sent = metrics.counter(f"asd.{name}.replications_sent")
        self._m_repl_applied = metrics.counter(f"asd.{name}.replications_applied")
        self._m_repl_failed = metrics.counter(f"asd.{name}.replications_failed")
        self._m_syncs = metrics.counter(f"asd.{name}.syncs")
        self._m_forwarded = metrics.counter(f"asd.{name}.writes_forwarded")
        self._m_fenced = metrics.counter(f"asd.{name}.registers_fenced")

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "register",
            ArgSpec("name", ArgType.STRING),
            ArgSpec("host", ArgType.STRING),
            ArgSpec("port", ArgType.INTEGER),
            ArgSpec("room", ArgType.STRING, required=False, default="unassigned"),
            ArgSpec("cls", ArgType.STRING, required=False, default="ACEService"),
            ArgSpec("inc", ArgType.INTEGER, required=False, default=0),
            ArgSpec("fwd", ArgType.INTEGER, required=False, default=0),
            description="enter the directory and receive a lease",
        )
        sem.define(
            "deregister",
            ArgSpec("name", ArgType.STRING),
            ArgSpec("fwd", ArgType.INTEGER, required=False, default=0),
        )
        sem.define(
            "renewLease",
            ArgSpec("name", ArgType.STRING),
            ArgSpec("fwd", ArgType.INTEGER, required=False, default=0),
        )
        sem.define(
            "lookup",
            ArgSpec("name", ArgType.STRING, required=False),
            ArgSpec("cls", ArgType.STRING, required=False),
            ArgSpec("room", ArgType.STRING, required=False),
            ArgSpec("offset", ArgType.INTEGER, required=False, default=0),
            description="find services by name, class path segment, and/or room",
        )
        sem.define("listServices", ArgSpec("offset", ArgType.INTEGER, required=False, default=0))
        sem.define(
            "dirReplicate",
            ArgSpec("entries", ArgType.VECTOR),
            description="peer-to-peer versioned mutation propagation",
        )
        sem.define("dirDigest", description="name|version listing for anti-entropy")
        sem.define("dirFetch", ArgSpec("names", ArgType.VECTOR))
        sem.define("dirStats")

    def set_group(self, group: List[Address]) -> None:
        """Install the replica group (every member, leader first)."""
        self.group = list(group)

    @property
    def peers(self) -> List[Address]:
        return [a for a in self.group if a != self.address]

    @property
    def is_leader(self) -> bool:
        return not self.group or self.group[0] == self.address

    def on_started(self) -> None:
        self._spawn(self._sweep_loop(), "lease-sweep")
        if self.peers:
            self._spawn(self._anti_entropy_loop(), "anti-entropy")

    # ------------------------------------------------------------------
    # Registry state (sorted index + lease bookkeeping)
    # ------------------------------------------------------------------
    def _entry_changed(self, old: Optional[DirEntry], new: Optional[DirEntry]) -> None:
        """The one place the table's derived state moves: a live entry
        holds a record, an index slot and a lease on its replicated
        horizon; a tombstone, a lapsed or a forgotten entry holds none."""
        name = (new or old).key
        if new is None or new.deleted or not new.expires_at > self.ctx.sim.now:
            if self.records.pop(name, None) is not None:
                del self._names[bisect.bisect_left(self._names, name)]
            self.leases.release(name)
        else:
            if name not in self.records:
                bisect.insort(self._names, name)
            self.records[name] = new.record
            self.leases.grant_until(name, new.expires_at, renewals=new.renewals)

    def _lease_expired(self, name: str) -> None:
        # Expiry is deterministic across replicas: ``expires_at`` is part
        # of the replicated entry, so every replica purges on its own sweep
        # without any cross-replica message.
        self.table.forget(name)
        self.ctx.trace.emit(self.ctx.sim.now, self.name, "lease-expired", service=name)

    def _sweep_loop(self) -> Generator:
        """Purge lapsed leases even when no queries arrive."""
        interval = max(self.ctx.lease_duration * 0.25, 0.05)
        while self.running:
            yield self.ctx.sim.timeout(interval)
            now = self.ctx.sim.now
            self.leases.expire(now)
            self._prune_tombstones(now)

    def _prune_tombstones(self, now: float) -> None:
        """Drop what holds no record — a tombstone, or an entry that had
        already lapsed when it arrived — once every replica has had three
        lease durations to learn of it."""
        horizon = 3 * self.ctx.lease_duration
        stale = [
            name
            for name, entry in self.table.entries.items()
            if name not in self.records and now - entry.expires_at > horizon
        ]
        for name in stale:
            self.table.forget(name)

    def _fresh_names(self) -> List[str]:
        """The sorted live-service index, after a lazy lease sweep.  No
        per-query re-sort: ``_names`` is maintained on every mutation."""
        self.leases.expire(self.ctx.sim.now)
        return self._names

    def _fresh_records(self) -> List[ServiceRecord]:
        return [self.records[name] for name in self._fresh_names()]

    # ------------------------------------------------------------------
    # Mutations (coordinator side)
    # ------------------------------------------------------------------
    def _forward_to_leader(self, command: ACECmdLine) -> Generator:
        """Send a client write to the leader; None when it is unreachable
        (the caller then coordinates locally — availability first).

        A failed forward starts a cooldown during which further writes
        bypass the leader without probing it: every probe of a dead leader
        costs the full connect timeout, and a follower that stalls on one
        looks dead to *its* clients (their attempt timers keep running
        while we wait)."""
        from repro.lang.command import RESERVED_ARGS

        now = self.ctx.sim.now
        if now < self._leader_down_until:
            return None
        leader = self.group[0]
        forward = command.without_args(*RESERVED_ARGS).with_args(fwd=1)
        try:
            reply = yield from self.client.call(
                leader, forward, policy=FORWARD_POLICY, check=False, attach=False
            )
            self.forwarded_writes += 1
            self._m_forwarded.inc()
            self._leader_down_until = 0.0
            return reply
        except CallError:
            self._leader_down_until = self.ctx.sim.now + max(self.sync_interval, 1.0)
            self.ctx.trace.emit(
                self.ctx.sim.now, self.name, "leader-bypass", cmd=command.name
            )
            return None

    def _coordinate(self, entry: DirEntry) -> None:
        """Commit a mutation this replica coordinates and push it to every
        peer asynchronously (best effort; the anti-entropy loop repairs
        whatever a crashed peer misses)."""
        self.table.write(entry)
        peers = self.peers
        if peers:
            wires = (entry.to_wire(),)
            for peer in peers:
                self._spawn(self._push_to_peer(peer, wires), "replicate")

    def _wanted_from(self, conn) -> Generator:
        """The directory's digest dialect: one flat ``dirDigest`` listing."""
        reply = yield from conn.call(ACECmdLine("dirDigest"))
        listing = reply.get("entries", ())
        lines = map(split_wire, listing if isinstance(listing, tuple) else ())
        return wanted(
            self.table.digest(),
            ((name, (int(seq), site)) for name, seq, site in lines),
        )

    # ------------------------------------------------------------------
    # Handlers: writes
    # ------------------------------------------------------------------
    def cmd_register(self, request: Request) -> Generator:
        cmd = request.command
        record = ServiceRecord(
            name=cmd.str("name"),
            host=cmd.str("host"),
            port=cmd.int("port"),
            room=cmd.str("room"),
            cls=cmd.str("cls"),
            inc=cmd.int("inc", 0),
        )
        if not cmd.int("fwd", 0) and not self.is_leader:
            reply = yield from self._forward_to_leader(cmd)
            if reply is not None:
                return reply
        # Incarnation fence: a stale pre-crash incarnation resurfacing
        # after a partition heal must not clobber its live replacement.
        existing = self.table.entries.get(record.name)
        if (
            existing is not None
            and not existing.deleted
            and existing.record.inc > record.inc
        ):
            self.fenced_registers += 1
            self._m_fenced.inc()
            self.ctx.trace.emit(
                self.ctx.sim.now, self.name, "register-fenced",
                service=record.name, inc=record.inc, live=existing.record.inc,
            )
            raise ServiceError(
                f"stale incarnation {record.inc} for {record.name!r}: "
                f"incarnation {existing.record.inc} is live"
            )
        self.coordinated_writes += 1
        seq, site = self.table.next_version()
        self._coordinate(DirEntry(
            record=record, expires_at=self.ctx.sim.now + self.leases.duration,
            seq=seq, site=site,
        ))
        self.ctx.trace.emit(
            self.ctx.sim.now, self.name, "service-registered",
            service=record.name, cls=record.cls,
        )
        return {"lease": float(self.leases.duration)}

    def cmd_deregister(self, request: Request) -> Generator:
        cmd = request.command
        name = cmd.str("name")
        if not cmd.int("fwd", 0) and not self.is_leader:
            reply = yield from self._forward_to_leader(cmd)
            if reply is not None:
                return reply
        self.coordinated_writes += 1
        existed = name in self.leases  # read before the tombstone releases it
        previous = self.table.entries.get(name)
        if previous is not None:
            seq, site = self.table.next_version()
            self._coordinate(DirEntry(
                record=previous.record, expires_at=self.ctx.sim.now,
                seq=seq, site=site, deleted=True,
            ))
        if existed:
            self.ctx.trace.emit(self.ctx.sim.now, self.name, "service-deregistered", service=name)
        return {"removed": 1 if existed else 0}

    def cmd_renewLease(self, request: Request) -> Generator:
        cmd = request.command
        if not cmd.int("fwd", 0) and not self.is_leader:
            reply = yield from self._forward_to_leader(cmd)
            if reply is not None:
                return reply
        self.coordinated_writes += 1
        now = self.ctx.sim.now
        self.leases.expire(now)
        name = cmd.str("name")
        entry = self.table.entries.get(name)
        if name not in self.leases or entry is None or entry.deleted:
            raise ServiceError(f"no active lease for {name!r}; re-register")
        seq, site = self.table.next_version()
        renewed = DirEntry(
            record=entry.record, expires_at=now + self.leases.duration,
            seq=seq, site=site, renewals=entry.renewals + 1,
        )
        self._coordinate(renewed)
        return {"lease": float(self.leases.duration), "renewals": renewed.renewals}

    # ------------------------------------------------------------------
    # Handlers: queries (paged)
    # ------------------------------------------------------------------
    def _paged_reply(self, matches: List[ServiceRecord], offset: int) -> dict:
        """Bound every reply to ``LOOKUP_CHUNK`` records; ``next`` carries
        the continuation offset and ``ttl`` the chunk's cache horizon."""
        total = len(matches)
        offset = max(offset, 0)
        chunk = matches[offset : offset + self.LOOKUP_CHUNK]
        result: dict = {"count": total}
        if chunk:
            now = self.ctx.sim.now
            result["services"] = tuple(r.to_wire() for r in chunk)
            entries = self.table.entries
            horizons = [
                entries[r.name].expires_at for r in chunk if r.name in entries
            ]
            if horizons:
                result["ttl"] = float(max(min(horizons) - now, 0.0))
        if offset + self.LOOKUP_CHUNK < total:
            result["next"] = offset + self.LOOKUP_CHUNK
        return result

    def cmd_lookup(self, request: Request) -> dict:
        cmd = request.command
        name = cmd.get("name")
        cls_query = cmd.get("cls")
        room = cmd.get("room")
        names = self._fresh_names()
        if name is not None:
            # Point query: O(1) on the primary key, no scan at all.
            record = self.records.get(name)
            candidates = [record] if record is not None else []
        else:
            candidates = [self.records[n] for n in names]
        matches = [
            r
            for r in candidates
            if (name is None or r.name == name)
            and (cls_query is None or r.matches_class(cls_query))
            and (room is None or r.room == room)
        ]
        return self._paged_reply(matches, cmd.int("offset", 0))

    def cmd_listServices(self, request: Request) -> dict:
        return self._paged_reply(self._fresh_records(), request.command.int("offset", 0))

    # ------------------------------------------------------------------
    # Handlers: replication protocol
    # ------------------------------------------------------------------
    def cmd_dirReplicate(self, request: Request) -> dict:
        return {"applied": self._take(request.command.vector("entries"))}

    def cmd_dirDigest(self, request: Request) -> dict:
        now = self.ctx.sim.now
        self.leases.expire(now)
        self._prune_tombstones(now)
        listing = tuple(
            join_wire((name, entry.seq, entry.site))
            for name, entry in sorted(self.table.entries.items())
        )
        result: dict = {"count": len(listing)}
        if listing:
            result["entries"] = listing
        return result

    def cmd_dirFetch(self, request: Request) -> dict:
        return self._fetch_reply(request.command.vector("names"))

    def cmd_dirStats(self, request: Request) -> dict:
        return {
            "services": len(self.records),
            "entries": len(self.table.entries),
            "leader": 1 if self.is_leader else 0,
            "forwarded": self.forwarded_writes,
            "coordinated": self.coordinated_writes,
            "replications_sent": self.replications_sent,
            "replications_applied": self.replications_applied,
            "syncs": self.syncs_completed,
        }


class DirectoryWatcherDaemon(ACEDaemon):
    """Subscribes ``addNotification cmd=register/deregister`` on every
    directory replica and turns the callbacks into targeted
    :class:`~repro.core.lookup_cache.LookupCache` invalidations — the
    push half of the client cache's coherence story (the pull half is the
    lease-TTL expiry)."""

    service_type = "DirectoryWatcher"

    def __init__(self, ctx, name, host, **kwargs):
        kwargs.setdefault("authorize_commands", False)
        kwargs.setdefault("register_with_asd", False)
        super().__init__(ctx, name, host, **kwargs)
        self.invalidations = 0
        self.subscribed = 0

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "dirChanged",
            ArgSpec("source", ArgType.STRING),
            ArgSpec("trigger", ArgType.WORD),
            ArgSpec("principal", ArgType.STRING),
            ArgSpec("args", ArgType.STRING, required=False, default=""),
            description="directory mutation callback (Fig. 8 step 3)",
        )

    def on_started(self) -> None:
        self.ctx.lookup_cache.enabled = True
        self._spawn(self._subscribe(), "subscribe")

    def _subscribe(self) -> Generator:
        for address in self.ctx.directory_addresses():
            for watched in ("register", "deregister"):
                if (yield from self.watch(address, watched, "dirChanged")):
                    self.subscribed += 1
                else:
                    self.ctx.trace.emit(
                        self.ctx.sim.now, self.name, "watch-failed", asd=str(address)
                    )

    def cmd_dirChanged(self, request: Request) -> dict:
        trigger = request.command.str("trigger")
        cache = self.ctx.lookup_cache
        original = notification_event(request)
        if original is None or "name" not in original:
            raise ServiceError("no directory event in the callback")
        if trigger == "register":
            record = ServiceRecord(
                name=original.str("name"),
                host=original.str("host", ""),
                port=original.int("port", 0),
                room=original.str("room", "unassigned"),
                cls=original.str("cls", "ACEService"),
            )
            purged = cache.invalidate_record(record)
        else:
            purged = cache.invalidate_service(original.str("name"))
        self.invalidations += purged
        return {"purged": purged}


#: Lookups are latency-sensitive but easy to retry: short attempts, tight
#: deadline, and the shared per-address breaker sheds load from a dead ASD
#: (a policy with its breaker off, as boot registration's is, never shapes it).
LOOKUP_POLICY = CallPolicy(
    deadline=3.0,
    attempt_timeout=1.0,
    max_attempts=3,
    backoff_base=0.05,
    backoff_max=0.5,
)

#: Per-replica shape when failing over across the directory group: one
#: quick attempt per replica — the next replica *is* the retry.
LOOKUP_FAILOVER_POLICY = CallPolicy(
    deadline=2.0,
    attempt_timeout=1.0,
    max_attempts=1,
    backoff_base=0.05,
    backoff_max=0.2,
)

#: Follower → leader write forwarding: a single bounded attempt; on
#: failure the follower coordinates the write itself.  The budget must
#: stay well under the *client's* per-replica attempt timeout (1.0s in
#: the failover policies): a follower stalling on a dead leader would
#: otherwise time the client out and open its breaker on the one healthy
#: replica.  (A SYN to a crashed host burns the whole connect timeout in
#: this network model, so "try the leader" is never cheap when it's dead —
#: see also the forward cooldown in ``_forward_to_leader``.)
FORWARD_POLICY = CallPolicy(
    deadline=0.4,
    attempt_timeout=0.4,
    max_attempts=1,
    backoff_base=0.05,
    backoff_max=0.2,
    breaker_threshold=0,
)


def _directory_targets(client: ServiceClient, asd_address: Optional[Address]) -> List[Address]:
    """The replica addresses a lookup should try: the context's group when
    the explicit address belongs to it (or none was given), else just the
    explicitly named directory (tests point clients at bespoke ASDs)."""
    group = client.ctx.directory_addresses()
    if asd_address is None:
        return group
    if any(a == asd_address for a in group):
        return group
    return [asd_address]


def asd_lookup(
    client: ServiceClient,
    asd_address: Optional[Address] = None,
    *,
    name: Optional[str] = None,
    cls: Optional[str] = None,
    room: Optional[str] = None,
    use_cache: bool = True,
) -> Generator:
    """Convenience: query the directory, return :class:`ServiceRecord`\\ s.

    This is the Fig. 7 client flow — with three scale-out layers on top:

    1. the shared :class:`~repro.core.lookup_cache.LookupCache` answers
       steady-state queries without touching the wire (TTL = the minimum
       remaining lease the directory reported, so the cache can never be
       staler than the lease mechanism already tolerates);
    2. wire queries fail over across every directory replica, so lookups
       survive 1–2 replica crashes;
    3. chunked replies are paged transparently (``next``/``offset``).

    When every replica is unreachable and ``use_cache`` is set, the last
    known-good result for the same query is returned instead of raising —
    stale addresses beat no addresses, and a dead endpoint in the cached
    list is caught by the caller's own connect failure.
    """
    args = {}
    if name is not None:
        args["name"] = name
    if cls is not None:
        args["cls"] = cls
    if room is not None:
        args["room"] = room
    ctx = client.ctx
    registry = ctx.resilience
    key = query_key(name, cls, room)
    # The TTL cache is only coherent with its invalidation watcher running
    # (``LookupCache.enabled``); the last-known-good fallback below needs
    # no coherence — it only answers when every replica is unreachable.
    ttl_cache = use_cache and ctx.lookup_cache.enabled
    if ttl_cache:
        cached = ctx.lookup_cache.get(key, ctx.sim.now)
        if cached is not None:
            return list(cached)
    targets = _directory_targets(client, asd_address)
    if not targets:
        raise CallError("no directory address configured")
    per_replica = LOOKUP_FAILOVER_POLICY if len(targets) > 1 else LOOKUP_POLICY
    records: List[ServiceRecord] = []
    ttl: Optional[float] = None
    offset = 0
    try:
        while True:
            page_args = dict(args)
            if offset:
                page_args["offset"] = offset
            reply = yield from client.call(
                targets, ACECmdLine("lookup", page_args), policy=per_replica
            )
            wires = reply.get("services", ())
            records.extend(
                ServiceRecord.from_wire(w)
                for w in (wires if isinstance(wires, tuple) else ())
            )
            page_ttl = reply.get("ttl")
            if isinstance(page_ttl, (int, float)):
                ttl = page_ttl if ttl is None else min(ttl, page_ttl)
            nxt = reply.get("next")
            if not isinstance(nxt, int) or nxt <= offset:
                break
            offset = nxt
    except CallError:
        cached = registry.recall_lookup(key) if use_cache else None
        if cached is None:
            raise
        registry.stats.lookup_fallbacks += 1
        ctx.trace.emit(
            ctx.sim.now, client.principal, "lookup-fallback",
            asd=str(targets[0]), records=len(cached),
        )
        return list(cached)
    if offset:
        # Pages may have come from different replicas after a failover;
        # keep the first copy of any record seen twice.
        seen: set = set()
        records = [r for r in records if not (r.name in seen or seen.add(r.name))]
    if use_cache and records:
        registry.remember_lookup(key, records)
        if ttl_cache and ttl is not None:
            ctx.lookup_cache.put(key, records, ctx.sim.now, ttl)
    elif ttl_cache and not records:
        # Cache the *absence* too (only effective when ``negative_ttl`` is
        # configured): during a daemon's recovery window every client would
        # otherwise re-ask each replica on every retry.  The watcher's
        # register push purges this entry as soon as the name reappears.
        ctx.lookup_cache.put(key, (), ctx.sim.now, 0.0)
    return records
