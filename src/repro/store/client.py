"""Client-side access to the persistent store cluster.

A :class:`StoreClient` routes on the environment's
:class:`~repro.store.sharding.StoreRoute` (``ctx.store_route``), read on
every call, or on a replica list pinned at construction, and:

* **writes** to the first reachable replica (which replicates onward);
* **reads** with failover — and optional round-robin balancing across
  replicas, the property that removes the single-server bottleneck;
* **routes per key** when the cluster is sharded: the route's shard map
  sends each path straight to its owning replica-group, and follows
  groups the environment adds or drains;
* optionally **caches reads**: ``psGet`` results are kept keyed by
  ``(path, version)`` with a TTL, write-through on ``put`` and
  invalidation on ``delete``, so re-reads cost ~0 RPCs (the data-plane
  analogue of the PR-3 ``LookupCache``).  Off by default — enable it
  where the staleness window (one TTL) is acceptable;
* offers the checkpoint/restore API restart/robust applications use
  (``save_state`` / ``load_state``, §5.2–5.3).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.lang import ACECmdLine
from repro.net import Address
from repro.net.host import Host, HostDownError

from repro.core.client import FAILOVER_ERRORS, ServiceClient
from repro.core.context import DaemonContext
from repro.core.policy import CallPolicy, TransportError
from repro.store.namespace import decode_attrs, encode_attrs
from repro.store.sharding import stable_hash


#: Per-replica call policy.  ``max_attempts=1`` because failover across
#: replicas *is* the retry; the deadline bounds how long a slow (degraded,
#: not dead) replica can stall a caller, and the breaker skips replicas
#: that keep failing without waiting out a connect timeout each time.
STORE_CALL_POLICY = CallPolicy(
    deadline=2.5,
    attempt_timeout=1.5,
    max_attempts=1,
    breaker_threshold=3,
    breaker_reset=5.0,
)

#: Failures that mean "try the next replica": the client's own list plus
#: this host going down under us.  A plain ``CallError`` (cmdFailed)
#: propagates: the replica answered.
_FAILOVER_ERRORS = FAILOVER_ERRORS + (HostDownError,)

#: default freshness horizon for cached reads (seconds of sim time)
READ_CACHE_TTL = 5.0


class StoreUnavailable(TransportError):
    """No replica answered."""


class StoreClient:
    """One principal's handle on the replicated (optionally sharded) store.

    Without ``replicas`` the client routes every call on
    ``ctx.store_route``, the one topology the environment publishes, so it
    sends each path to its owner group and follows grown and drained
    groups.  A ``replicas`` list pins the client to those addresses for
    every path (a directory answer, a test aiming at one replica); a
    sharded store forwards what such a client sends to the wrong group.
    """

    def __init__(
        self,
        ctx: DaemonContext,
        host: Host,
        replicas: Optional[Sequence[Address]] = None,
        principal: str = "store-client",
        balance_reads: bool = True,
        cache_reads: bool = False,
        cache_ttl: float = READ_CACHE_TTL,
    ):
        self.ctx = ctx
        #: the pinned replica list; empty = route on ``ctx.store_route``
        self.replicas: List[Address] = list(replicas or ())
        if not self.replicas and ctx.store_route is None:
            raise ValueError("need at least one replica address")
        self.balance_reads = balance_reads
        self.cache_reads = cache_reads
        self.cache_ttl = cache_ttl
        self._cache: Dict[str, Tuple[str, Dict[str, str], float]] = {}
        self._client = ServiceClient(ctx, host, principal=principal)
        # Seed the round-robin start from the principal so a fleet of cold
        # clients spreads across replicas instead of herding onto replica 0.
        self._read_index = stable_hash(principal) % len(
            self.replicas or ctx.store_route.addresses
        )
        metrics = ctx.obs.metrics
        self._m_failovers = metrics.counter("store.client.failovers")
        self._m_unavailable = metrics.counter("store.client.unavailable")
        self._m_cache_hits = metrics.counter("store.client.cache_hits")
        self._m_cache_misses = metrics.counter("store.client.cache_misses")

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _group_replicas(self, path: Optional[str]) -> Sequence[Address]:
        """The addresses that can serve ``path`` (all, when unsharded)."""
        if self.replicas:
            return self.replicas
        route = self.ctx.store_route
        return route.addresses if path is None else route.group_for(path)

    def _rotated(self, base: Sequence[Address]) -> List[Address]:
        if not self.balance_reads or len(base) < 2:
            return list(base)
        start = self._read_index % len(base)
        self._read_index += 1
        return list(base[start:]) + list(base[:start])

    def _read_order(self, path: Optional[str] = None) -> List[Address]:
        return self._rotated(self._group_replicas(path))

    # ------------------------------------------------------------------
    def _call_with_failover(
        self, command: ACECmdLine, order: Sequence[Address], absent_ok: bool = False
    ) -> Generator:
        """The first reply any replica in ``order`` gives.  A ``cmdFailed``
        reply raises ``CallError`` — or, with ``absent_ok``, means the
        object is absent and returns ``None``."""
        last_error: Optional[Exception] = None
        for replica in order:
            try:
                reply = yield from self._client.call(
                    replica, command, STORE_CALL_POLICY, check=not absent_ok, attach=False
                )
            except _FAILOVER_ERRORS as exc:
                last_error = exc
                self._m_failovers.inc()
                continue
            return None if absent_ok and reply.name != "cmdOk" else reply
        self._m_unavailable.inc()
        raise StoreUnavailable(f"all replicas failed for {command.name}: {last_error}")

    # ------------------------------------------------------------------
    # Read cache
    # ------------------------------------------------------------------
    def _cache_store(self, path: str, version: str, attrs: Dict[str, str]) -> None:
        if self.cache_reads:
            self._cache[path] = (version, dict(attrs), self.ctx.sim.now + self.cache_ttl)

    def _cache_lookup(self, path: str) -> Optional[Dict[str, str]]:
        if not self.cache_reads:
            return None
        entry = self._cache.get(path)
        if entry is None:
            return None
        version, attrs, expires_at = entry
        if self.ctx.sim.now >= expires_at:
            del self._cache[path]
            return None
        return dict(attrs)

    def invalidate(self, path: Optional[str] = None) -> None:
        """Drop one cached object (or the whole cache)."""
        if path is None:
            self._cache.clear()
        else:
            self._cache.pop(path, None)

    def cached_version(self, path: str) -> Optional[str]:
        """The version string the cache holds for ``path`` (tests/metrics)."""
        entry = self._cache.get(path)
        return entry[0] if entry is not None else None

    # ------------------------------------------------------------------
    def put(self, path: str, attrs: Dict[str, str]) -> Generator:
        reply = yield from self._call_with_failover(
            ACECmdLine("psPut", path=path, value=encode_attrs(attrs)),
            self._group_replicas(path),
        )
        version = reply.str("version")
        # Write-through: our own write is the freshest value we can know.
        self._cache_store(path, version, attrs)
        return version

    def get(self, path: str) -> Generator:
        """Returns the attribute dict, or None when the object is absent."""
        cached = self._cache_lookup(path)
        if cached is not None:
            self._m_cache_hits.inc()
            return cached
        if self.cache_reads:
            self._m_cache_misses.inc()
        reply = yield from self._call_with_failover(
            ACECmdLine("psGet", path=path), self._read_order(path), absent_ok=True
        )
        if reply is None:
            self._cache.pop(path, None)
            return None
        attrs = decode_attrs(reply.str("value", ""))
        self._cache_store(path, reply.str("version", ""), attrs)
        return attrs

    def delete(self, path: str) -> Generator:
        """False when the object was already absent."""
        self._cache.pop(path, None)
        reply = yield from self._call_with_failover(
            ACECmdLine("psDelete", path=path), self._group_replicas(path), absent_ok=True
        )
        return reply is not None

    def list(self, prefix: str = "/") -> Generator:
        """All matching paths, following ``next`` pages transparently and
        merging across shard groups."""
        route = None if self.replicas else self.ctx.store_route
        if route is None or route.shard_map is None:
            paths = yield from self._list_pages(prefix, self._read_order())
            return sorted(set(paths))
        merged: List[str] = []
        for group in route.groups:
            paths = yield from self._list_pages(prefix, self._rotated(group))
            merged.extend(paths)
        return sorted(set(merged))

    def _list_pages(self, prefix: str, order: Sequence[Address]) -> Generator:
        results: List[str] = []
        offset = 0
        while True:
            reply = yield from self._call_with_failover(
                ACECmdLine("psList", prefix=prefix, offset=offset), order
            )
            paths = reply.get("paths", ())
            if isinstance(paths, tuple):
                results.extend(paths)
            nxt = reply.get("next")
            if not isinstance(nxt, int) or nxt <= offset:
                break
            offset = nxt
        return results

    # ------------------------------------------------------------------
    # Checkpoint API for restart/robust applications
    # ------------------------------------------------------------------
    @staticmethod
    def state_path(app_id: str) -> str:
        return f"/apps/{app_id}/state"

    def save_state(self, app_id: str, state: Dict[str, str]) -> Generator:
        version = yield from self.put(self.state_path(app_id), state)
        return version

    def load_state(self, app_id: str) -> Generator:
        state = yield from self.get(self.state_path(app_id))
        return state

    def clear_state(self, app_id: str) -> Generator:
        ok = yield from self.delete(self.state_path(app_id))
        return ok
