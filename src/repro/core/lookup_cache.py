"""Client-side directory lookup cache (the scale-out discovery plane).

The paper makes the ASD the well-known rendezvous for *every* client
(§2.4, Fig. 7), which turns it into the scaling chokepoint: E2 shows
lookup latency growing with registry size and E18 shows the ASD kneeling
first under load.  The :class:`LookupCache` removes the steady-state wire
round trip entirely: query results are cached until the **lease horizon**
of the records they contain — the same staleness window the paper's lease
mechanism already accepts for a crashed service — and are purged early by
``addNotification cmd=register/deregister`` invalidations (see
:class:`~repro.services.asd.DirectoryWatcherDaemon`).

The cache is deliberately ignorant of the record type: anything with
``name``/``room`` attributes and a ``matches_class`` method works, which
keeps this module import-cycle-free (records live in ``repro.services``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

#: (name or "", cls or "", room or "") — one logical directory per
#: environment, so replica addresses are *not* part of the key.
QueryKey = Tuple[str, str, str]


def query_key(name: Optional[str], cls: Optional[str], room: Optional[str]) -> QueryKey:
    return (name or "", cls or "", room or "")


@dataclass
class CacheEntry:
    """One cached query result with its lease-derived expiry."""

    records: Tuple
    expires_at: float

    def fresh_at(self, now: float) -> bool:
        return now < self.expires_at


class LookupCache:
    """Query → records map with lease-TTL expiry and targeted invalidation.

    Correctness invariant (property-tested): a cached record is never
    served at or past its lease horizon — ``put`` receives the *minimum
    remaining lease* of the records as the TTL, so the cache can never be
    staler than the directory itself would be for a crashed holder.
    """

    def __init__(self, metrics=None, max_entries: int = 512):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        #: ``asd_lookup`` only consults/populates the cache when enabled.
        #: The cache is coherent only with the push half attached — a
        #: :class:`~repro.services.asd.DirectoryWatcherDaemon` flips this
        #: on when it starts — so plain installs keep wire-fresh lookups
        #: (a just-registered service must be visible immediately).
        self.enabled = False
        #: seconds an *empty* lookup result is cached (0 = never, the
        #: default).  The recovery plane sets this so clients chasing a
        #: dead name back off instead of hammering every ASD replica for
        #: the whole suspicion window; the watcher's register push purges
        #: the negative entry the moment the reincarnation appears.
        self.negative_ttl = 0.0
        self._entries: "OrderedDict[QueryKey, CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.expired = 0
        self.negative_hits = 0
        self.invalidations = 0
        if metrics is not None:
            metrics.register_view("directory.cache", self.snapshot)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, key: QueryKey, now: float) -> Optional[Tuple]:
        """The cached records for ``key``, or None (miss or lease-expired)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if not entry.fresh_at(now):
            del self._entries[key]
            self.expired += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if not entry.records:
            self.negative_hits += 1
        return entry.records

    def put(self, key: QueryKey, records: Sequence, now: float, ttl: float) -> None:
        """Cache ``records`` for ``ttl`` seconds.

        Empty results are only cached (as ``()``, for ``negative_ttl``
        seconds) when a negative TTL is configured — by default a negative
        answer always re-asks the wire, so a service that just registered
        is found immediately."""
        if not records:
            if self.negative_ttl <= 0:
                return
            entry = CacheEntry((), now + self.negative_ttl)
        elif ttl <= 0:
            return
        else:
            entry = CacheEntry(tuple(records), now + ttl)
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    # Invalidation (driven by register/deregister notifications)
    # ------------------------------------------------------------------
    def invalidate_service(self, name: str) -> int:
        """Purge every entry that serves a record named ``name`` (the
        deregister / lease-expiry path).  Returns purged entry count."""
        stale = [
            key
            for key, entry in self._entries.items()
            if key[0] == name or any(r.name == name for r in entry.records)
        ]
        for key in stale:
            del self._entries[key]
        self.invalidations += len(stale)
        return len(stale)

    def invalidate_record(self, record) -> int:
        """Purge every cached query the (newly registered) ``record`` could
        now match — those entries are missing it.  Returns purged count."""
        stale = []
        for key in self._entries:
            qname, qcls, qroom = key
            if qname not in ("", record.name):
                continue
            if qroom not in ("", record.room):
                continue
            if qcls and not record.matches_class(qcls):
                continue
            stale.append(key)
        for key in stale:
            del self._entries[key]
        # A re-registration may also have *moved* the service; drop entries
        # still serving its old address/room.
        purged = len(stale) + self.invalidate_service(record.name)
        self.invalidations += len(stale)
        return purged

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "expired": self.expired,
            "negative_hits": self.negative_hits,
            "invalidations": self.invalidations,
            "hit_rate": round(self.hit_rate, 4),
        }
