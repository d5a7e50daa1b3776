"""Persistent store server daemon.

Each replica:

* serves ``psPut``/``psGet``/``psDelete``/``psList`` to clients;
* on a client write, applies locally then replicates the versioned object
  to every peer in its replica-group (the paper's "constant data
  synchronization") — by default coalesced into per-peer buffers flushed
  as one ``psReplicateBatch`` (many objects per RPC, pipelined); with
  ``batch_replication=False`` the write awaits its own one-entry batch
  to every peer (the paper's synchronous push; ``replicas`` counts acks);
* runs the anti-entropy loop of :mod:`repro.core.replication`: compares
  per-bucket namespace hashes with a peer and pulls only the buckets that
  differ, so a crashed-and-restarted replica converges back to "the same
  exact data ... within each of their individual storage areas" at a cost
  proportional to what changed, not to the whole namespace;
* when a :class:`~repro.store.sharding.ShardMap` is installed, owns only
  its shard of the path space — misrouted commands are forwarded to the
  owning group, and :meth:`install_shard_map` streams misplaced objects
  out when the map grows.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.lang.command import RESERVED_ARGS, error_reply
from repro.net import Address
from repro.net.host import HostDownError
from repro.core.client import CallError
from repro.core.daemon import ACEDaemon, Request, ServiceError
from repro.core.replication import ReplicaMixin, wanted
from repro.store.namespace import (
    NamespaceError,
    ObjectNamespace,
    StoredObject,
    Version,
    decode_attrs,
    decode_object,
    encode_attrs,
    encode_object,
)
from repro.store.sharding import ShardMap
from repro.services.base import Checkpointable

#: bounded reply size for psList/psDigest pages and psFetch batches —
#: the store-side analogue of the ASD's LOOKUP_CHUNK.
STORE_CHUNK = 32


def _digest_line(line: str) -> Tuple[str, Version]:
    """One ``path|version`` element of a ``psDigest`` page."""
    path, _, version = line.rpartition("|")
    return path, Version.from_wire(version)


class PersistentStoreDaemon(Checkpointable, ReplicaMixin, ACEDaemon):
    """One replica of the Fig. 17 persistent-store cluster."""

    service_type = "PersistentStore"
    REPLICATE = "psReplicateBatch"
    FETCH = ("psFetch", "paths", "objects")
    CHUNK = STORE_CHUNK
    _encode = staticmethod(encode_object)
    _decode = staticmethod(decode_object)
    #: the store's checkpoint *is* its namespace; writing it back into the
    #: store would re-capture itself on every round (supervisor memory is
    #: the checkpoint medium — anti-entropy from peers covers durability)
    checkpoint_to_store = False

    def __init__(self, ctx, name, host, *, peers: Optional[List[Address]] = None,
                 sync_interval: float = 5.0,
                 batch_replication: bool = True, repl_batch_size: int = 16,
                 repl_flush_age: float = 0.05, repl_buffer_cap: int = 512,
                 shard_map: Optional[ShardMap] = None, group_index: int = 0,
                 group_addresses: Optional[Dict[int, List[Address]]] = None,
                 **kwargs):
        kwargs.setdefault("authorize_commands", False)  # robust core service
        super().__init__(ctx, name, host, **kwargs)
        self.namespace = self.table = ObjectNamespace(site=name)
        self.peers: List[Address] = list(peers or [])
        self.sync_interval = sync_interval
        self.batch_replication = batch_replication
        self.repl_batch_size = repl_batch_size
        self.repl_flush_age = repl_flush_age
        self.repl_buffer_cap = repl_buffer_cap
        self.shard_map = shard_map
        self.group_index = group_index
        self.group_addresses: Dict[int, List[Address]] = dict(group_addresses or {})
        self.writes = 0
        self.reads = 0
        # Per-peer replication buffers: path -> newest StoredObject, in
        # insertion order so the cap drops the oldest entry first.
        self._repl_buffers: Dict[Address, Dict[str, StoredObject]] = {}
        self._flushing: Dict[Address, bool] = {}
        self._peer_down_until: Dict[Address, float] = {}
        self._repl_client = None
        metrics = ctx.obs.metrics
        self._m_repl_sent = metrics.counter(f"store.{name}.replications_sent")
        self._m_repl_applied = metrics.counter(f"store.{name}.replications_applied")
        self._m_repl_failed = metrics.counter(f"store.{name}.replications_failed")
        self._m_repl_batches = metrics.counter(f"store.{name}.replication_batches")
        self._m_repl_dropped = metrics.counter(f"store.{name}.replication_lag_dropped")
        self._m_syncs = metrics.counter(f"store.{name}.syncs")
        self._m_ae_checked = metrics.counter(f"store.{name}.ae_buckets_checked")
        self._m_ae_changed = metrics.counter(f"store.{name}.ae_buckets_changed")
        self._m_forwards = metrics.counter(f"store.{name}.forwards")
        self._m_rebalanced = metrics.counter(f"store.{name}.rebalanced")
        # The data plane's own telemetry scope: ``store.<name>.*`` feeds
        # the cluster replication-lag SLO, tagged with this incarnation.
        ctx.obs.register_scope(
            f"store.{name}", f"{host.name}:{self.port}", host.name,
            incarnation=self.incarnation, prefix=f"store.{name}.",
        )

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "psPut",
            ArgSpec("path", ArgType.STRING),
            ArgSpec("value", ArgType.STRING, required=False, default=""),
            ArgSpec("fwd", ArgType.INTEGER, required=False, default=0),
            description="store an object (coordinator write)",
        )
        sem.define(
            "psGet",
            ArgSpec("path", ArgType.STRING),
            ArgSpec("fwd", ArgType.INTEGER, required=False, default=0),
        )
        sem.define(
            "psDelete",
            ArgSpec("path", ArgType.STRING),
            ArgSpec("fwd", ArgType.INTEGER, required=False, default=0),
        )
        sem.define(
            "psList",
            ArgSpec("prefix", ArgType.STRING, required=False, default="/"),
            ArgSpec("offset", ArgType.INTEGER, required=False, default=0),
        )
        sem.define(
            "psReplicateBatch",
            ArgSpec("entries", ArgType.VECTOR),
            description="versioned write propagation (one RPC, many objects)",
        )
        sem.define(
            "psDigest",
            ArgSpec("bucket", ArgType.INTEGER, required=False, default=-1),
            ArgSpec("offset", ArgType.INTEGER, required=False, default=0),
            description="paged path|version listing for anti-entropy",
        )
        sem.define(
            "psDigestBuckets",
            description="per-bucket namespace hashes (incremental anti-entropy)",
        )
        sem.define("psFetch", ArgSpec("paths", ArgType.VECTOR))
        sem.define("psStats")

    def set_peers(self, peers: List[Address]) -> None:
        self.peers = [p for p in peers if p != self.address]

    def on_started(self) -> None:
        self._spawn(self._anti_entropy_loop(), "anti-entropy")
        if self.batch_replication:
            self._spawn(self._flush_loop(), "repl-flush-loop")
        # A reincarnated peer is reachable again: drop its replication
        # cooldown immediately instead of waiting it out.
        self.ctx.resilience.on_restart(self._peer_restarted)

    def _peer_restarted(self, address: Address) -> None:
        if self.running and self._peer_down_until.pop(address, None) is not None:
            self.ctx.trace.emit(
                self.ctx.sim.now, self.name, "peer-cooldown-cleared",
                peer=str(address),
            )

    # ------------------------------------------------------------------
    # Recovery-plane checkpointing: the whole namespace, one encoded
    # object (tombstones included) per line.  LWW versions make restore +
    # anti-entropy convergent even against a checkpoint taken mid-write.
    # ------------------------------------------------------------------
    def checkpoint_state(self):
        return tuple(encode_object(obj) for obj in self.namespace.all_objects())

    def restore_state(self, lines) -> None:
        for line in lines:
            try:
                obj = decode_object(line)
            except ValueError:
                continue
            self.namespace.apply(obj)

    def _respawn_kwargs(self) -> dict:
        # The topology a store was built into moves under it (set_peers,
        # install_shard_map): a reincarnation joins today's, not that one.
        return {
            "peers": list(self.peers),
            "shard_map": self.shard_map,
            "group_addresses": dict(self.group_addresses),
        }

    # ------------------------------------------------------------------
    # Sharding
    # ------------------------------------------------------------------
    def install_shard_map(self, shard_map: ShardMap,
                          group_addresses: Dict[int, List[Address]]):
        """Adopt a (grown) map and stream misplaced objects to their new
        owner groups; returns the rebalance process."""
        self.shard_map = shard_map
        self.group_addresses = dict(group_addresses)
        return self._spawn(self._rebalance(), "rebalance")

    def _rebalance(self) -> Generator:
        """Hand off every object this group no longer owns, then drop it."""
        if self.shard_map is None:
            return 0
        by_owner: Dict[int, List[StoredObject]] = {}
        for obj in self.namespace.all_objects():
            owner = self.shard_map.shard_for(obj.path)
            if owner != self.group_index:
                by_owner.setdefault(owner, []).append(obj)
        moved = 0
        client = self._replication_client()
        for owner in sorted(by_owner):
            addresses = self.group_addresses.get(owner, ())
            if not addresses:
                continue
            objs = by_owner[owner]
            for start in range(0, len(objs), self.repl_batch_size):
                batch = objs[start:start + self.repl_batch_size]
                command = ACECmdLine(
                    self.REPLICATE,
                    entries=tuple(encode_object(o) for o in batch),
                )
                delivered = False
                for address in addresses:
                    try:
                        pipe = yield from client.pipelined(address, attach=False)
                        yield from pipe.call(command, timeout=self.sync_interval)
                        delivered = True
                    except CallError:
                        continue
                if delivered:
                    for obj in batch:
                        self.namespace.forget(obj.path)
                    moved += len(batch)
                    self._m_rebalanced.inc(len(batch))
        return moved

    def _misroute_owner(self, path: str) -> Optional[int]:
        if self.shard_map is None:
            return None
        if self.shard_map.groups == 1 and self.group_index == 0:
            # Unsharded fast path.  A *draining* daemon (group_index
            # beyond the map, e.g. shrunk back to one group) must still
            # fall through and forward — it owns nothing anymore.
            return None
        owner = self.shard_map.shard_for(path)
        return None if owner == self.group_index else owner

    def _forward(self, request: Request, owner: int) -> Generator:
        """Relay a misrouted command to the owning group (stale-map client)."""
        if request.command.int("fwd", 0):
            raise ServiceError(
                f"shard loop: group {self.group_index} does not own this path "
                f"(owner group {owner})"
            )
        addresses = self.group_addresses.get(owner, ())
        if not addresses:
            raise ServiceError(f"no known addresses for owner group {owner}")
        command = request.command.without_args(*RESERVED_ARGS).with_args(fwd=1)
        client = self._service_client()
        last: Optional[Exception] = None
        for address in addresses:
            conn = None
            try:
                conn = yield from client.connect(address, attach=False)
                reply = yield from conn.call(command, check=False)
            except CallError as exc:
                last = exc
                continue
            finally:
                if conn is not None:
                    conn.close()
            self._m_forwards.inc()
            return reply.without_args(*RESERVED_ARGS)
        raise ServiceError(f"owner group {owner} unreachable: {last}")

    # ------------------------------------------------------------------
    # Replication
    # ------------------------------------------------------------------
    def _replication_client(self):
        """One long-lived client whose pipelined channels carry batches."""
        if self._repl_client is None:
            self._repl_client = self._service_client()
        return self._repl_client

    def _replicate(self, obj: StoredObject) -> Generator:
        """Propagate one committed write: enqueue for a batched flush, or
        await its own one-entry batch to every peer in parallel; returns
        the number of acks."""
        if not self.peers:
            return 0
        if self.batch_replication:
            self._enqueue_replication(obj)
            return 0
        wires = (encode_object(obj),)
        procs = [
            self._spawn(self._push_to_peer(peer, wires), "replicate")
            for peer in self.peers
        ]
        results = yield self.ctx.sim.all_of(procs)
        return sum(1 for v in results.values() if v)

    def _enqueue_replication(self, obj: StoredObject) -> None:
        for peer in self.peers:
            buf = self._repl_buffers.setdefault(peer, {})
            if obj.path not in buf and len(buf) >= self.repl_buffer_cap:
                # Bounded lag: shed the oldest buffered write; anti-entropy
                # repairs the gap once the peer is reachable again.
                buf.pop(next(iter(buf)))
                self._m_repl_dropped.inc()
            buf[obj.path] = obj
            if (
                len(buf) >= self.repl_batch_size
                and not self._flushing.get(peer)
                and self.ctx.sim.now >= self._peer_down_until.get(peer, 0.0)
            ):
                self._spawn(self._flush_peer(peer), "repl-flush")

    def _flush_loop(self) -> Generator:
        """Age-based flush: no buffered write waits longer than
        ``repl_flush_age`` while its peer is believed up."""
        while self.running:
            yield self.ctx.sim.timeout(self.repl_flush_age)
            if not self.running:
                return
            for peer in list(self._repl_buffers):
                if self._repl_buffers.get(peer) and not self._flushing.get(peer):
                    self._spawn(self._flush_peer(peer), "repl-flush")

    def _flush_peer(self, peer: Address) -> Generator:
        if self._flushing.get(peer):
            return
        self._flushing[peer] = True
        try:
            client = self._replication_client()
            while True:
                buf = self._repl_buffers.get(peer)
                if not buf:
                    return
                if self.ctx.sim.now < self._peer_down_until.get(peer, 0.0):
                    return
                batch = [buf.pop(path) for path in list(buf)[: self.repl_batch_size]]
                command = ACECmdLine(
                    self.REPLICATE,
                    entries=tuple(encode_object(o) for o in batch),
                )
                try:
                    pipe = yield from client.pipelined(peer, attach=False)
                    yield from pipe.call(command, timeout=self.sync_interval)
                except CallError:
                    self._m_repl_failed.inc()
                    self._peer_down_until[peer] = self.ctx.sim.now + self.sync_interval
                    # Re-buffer the failed batch (newest version wins) and
                    # re-apply the cap so a dead peer's lag stays bounded.
                    for obj in batch:
                        cur = buf.get(obj.path)
                        if cur is None or cur.version < obj.version:
                            buf[obj.path] = obj
                    while len(buf) > self.repl_buffer_cap:
                        buf.pop(next(iter(buf)))
                        self._m_repl_dropped.inc()
                    return
                self.replications_sent += len(batch)
                self._m_repl_sent.inc(len(batch))
                self._m_repl_batches.inc()
        finally:
            self._flushing[peer] = False

    def _flush_all_pending(self) -> Generator:
        """Drain every peer buffer inline (shutdown path)."""
        for peer in list(self._repl_buffers):
            if self._repl_buffers.get(peer) and not self._flushing.get(peer):
                yield from self._flush_peer(peer)

    def _shutdown(self) -> Generator:
        if self.running and self.batch_replication and self.host.up:
            try:
                yield from self._flush_all_pending()
            except HostDownError:
                pass
        yield from super()._shutdown()

    def _teardown(self) -> None:
        if self._repl_client is not None:
            self._repl_client.close_channels()
        super()._teardown()

    # ------------------------------------------------------------------
    # Anti-entropy: the store's digest dialect
    # ------------------------------------------------------------------
    def _wanted_from(self, conn) -> Generator:
        """Compare bucket hashes, then page ``psDigest`` for only the
        buckets whose summaries differ."""
        reply = yield from conn.call(ACECmdLine("psDigestBuckets"))
        hashes = reply.get("hashes", ())
        remote = [int(h, 16) for h in hashes] if isinstance(hashes, tuple) else []
        mine = self.namespace.bucket_hashes()
        if len(remote) == len(mine):
            changed = [i for i, (a, b) in enumerate(zip(mine, remote)) if a != b]
        else:
            # Bucket-scheme mismatch (the peer's reply is not ours to
            # trust): a full walk rather than silently skipping divergence.
            changed = list(range(self.namespace.buckets))
        self._m_ae_checked.inc(len(mine))
        self._m_ae_changed.inc(len(changed))
        if not changed:
            return []
        # Every page is compared against the table as it stood before the
        # first one: an object a push delivers while we page is fetched
        # anyway (the ledger's store_mix hashes pin that traffic).
        local = self.namespace.digest()
        keys: List[str] = []
        for bucket in changed:
            offset = 0
            while True:
                dreply = yield from conn.call(
                    ACECmdLine("psDigest", bucket=bucket, offset=offset)
                )
                entries = dreply.get("entries", ())
                keys += wanted(local, map(
                    _digest_line, entries if isinstance(entries, tuple) else ()
                ))
                nxt = dreply.get("next")
                if not isinstance(nxt, int) or nxt <= offset:
                    break
                offset = nxt
        return keys

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def cmd_psPut(self, request: Request) -> Generator:
        cmd = request.command
        path = cmd.str("path")
        owner = self._misroute_owner(path)
        if owner is not None:
            reply = yield from self._forward(request, owner)
            return reply
        try:
            attrs = decode_attrs(cmd.str("value", ""))
            obj = self.namespace.put(path, attrs)
        except NamespaceError as exc:
            raise ServiceError(str(exc))
        self.writes += 1
        acks = yield from self._replicate(obj)
        return {"path": obj.path, "version": obj.version.to_wire(),
                "replicas": (acks or 0) + 1}

    def cmd_psGet(self, request: Request) -> Generator:
        path = request.command.str("path")
        owner = self._misroute_owner(path)
        if owner is not None:
            reply = yield from self._forward(request, owner)
            return reply
        self.reads += 1
        obj = self.namespace.get(path)
        if obj is None:
            raw = self.namespace.raw(path)
            if raw is not None and raw.deleted:
                # Report the tombstone so anti-entropy can replicate deletes.
                return error_reply(request.command, f"object {path!r} deleted",
                                   deleted=1, version=raw.version.to_wire())
            raise ServiceError(f"no object at {path!r}")
        return {"path": path, "value": encode_attrs(obj.attrs),
                "version": obj.version.to_wire()}

    def cmd_psDelete(self, request: Request) -> Generator:
        path = request.command.str("path")
        owner = self._misroute_owner(path)
        if owner is not None:
            reply = yield from self._forward(request, owner)
            return reply
        try:
            tombstone = self.namespace.delete(path)
        except NamespaceError as exc:
            raise ServiceError(str(exc))
        if tombstone is None:
            raise ServiceError(f"no object at {path!r}")
        self.writes += 1
        acks = yield from self._replicate(tombstone)
        return {"path": path, "replicas": (acks or 0) + 1}

    def cmd_psList(self, request: Request) -> dict:
        paths = self.namespace.list(request.command.str("prefix", "/"))
        offset = max(request.command.int("offset", 0), 0)
        total = len(paths)
        page = paths[offset:offset + STORE_CHUNK]
        result: dict = {"count": total}
        if page:
            result["paths"] = tuple(page)
        if offset + STORE_CHUNK < total:
            result["next"] = offset + STORE_CHUNK
        return result

    def cmd_psReplicateBatch(self, request: Request) -> dict:
        entries = request.command.vector("entries")
        return {"count": len(entries), "applied": self._take(entries)}

    def cmd_psDigest(self, request: Request) -> dict:
        bucket = request.command.int("bucket", -1)
        if bucket < 0:
            digest = self.namespace.digest()
        else:
            digest = self.namespace.bucket_digest(bucket % self.namespace.buckets)
        listing = sorted(digest.items())
        offset = max(request.command.int("offset", 0), 0)
        total = len(listing)
        page = listing[offset:offset + STORE_CHUNK]
        result: dict = {"count": total}
        if page:
            result["entries"] = tuple(
                f"{path}|{version.to_wire()}" for path, version in page
            )
        if offset + STORE_CHUNK < total:
            result["next"] = offset + STORE_CHUNK
        return result

    def cmd_psDigestBuckets(self, request: Request) -> dict:
        hashes = self.namespace.bucket_hashes()
        return {
            "count": len(hashes),
            "hashes": tuple(f"{h:x}" for h in hashes),
        }

    def cmd_psFetch(self, request: Request) -> dict:
        return self._fetch_reply(request.command.vector("paths"))

    def cmd_psStats(self, request: Request) -> dict:
        return {
            "objects": len(self.namespace),
            "writes": self.writes,
            "reads": self.reads,
            "replications_sent": self.replications_sent,
            "replications_applied": self.replications_applied,
            "syncs": self.syncs_completed,
            "buffered": sum(len(b) for b in self._repl_buffers.values()),
            "group": self.group_index,
        }
