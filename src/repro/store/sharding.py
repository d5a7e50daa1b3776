"""Consistent-hash sharding of the store namespace (Dynamo-style).

A :class:`ShardMap` partitions object paths across N replica-groups via a
ring of virtual nodes, so routing is computed locally — no lookup service
in the hot path.  Growing the map (`grown`) adds one group's vnodes to the
ring; only keys whose ring successor is now a new vnode move, which keeps
rebalancing proportional to 1/N of the namespace.

A :class:`StoreRoute` is the map plus each group's addresses: the one
topology every store client and store daemon routes on.

All hashing goes through :func:`stable_hash` (blake2b) because Python's
builtin ``hash`` is salted per process and would give every replica a
different ring.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.net import Address


def stable_hash(text: str) -> int:
    """Deterministic 64-bit hash, identical across processes and runs."""
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


def bucket_of(path: str, buckets: int) -> int:
    """Digest bucket for a path (incremental anti-entropy)."""
    return stable_hash(path) % buckets


class ShardMap:
    """Maps object paths to shard groups via a consistent-hash vnode ring.

    ``groups`` is the number of replica-groups; each contributes ``vnodes``
    points to the ring.  ``epoch`` increments on growth so daemons can tell
    stale maps apart from current ones.
    """

    def __init__(self, groups: int, *, vnodes: int = 64, epoch: int = 1):
        if groups < 1:
            raise ValueError("ShardMap needs at least one group")
        self.groups = groups
        self.vnodes = vnodes
        self.epoch = epoch
        self._ring: List[Tuple[int, int]] = sorted(
            (stable_hash(f"shard:{g}:{v}"), g)
            for g in range(groups)
            for v in range(vnodes)
        )
        self._points = [p for p, _ in self._ring]

    def shard_for(self, path: str) -> int:
        """Group index owning ``path``."""
        if self.groups == 1:
            return 0
        idx = bisect_right(self._points, stable_hash(path)) % len(self._ring)
        return self._ring[idx][1]

    def grown(self) -> "ShardMap":
        """A new map with one more group (epoch bumped)."""
        return ShardMap(self.groups + 1, vnodes=self.vnodes, epoch=self.epoch + 1)

    def shrunk(self) -> "ShardMap":
        """A new map with the *last* group removed (epoch bumped).

        Only the highest group index can leave: its vnodes vanish from
        the ring and every key it owned falls to the next surviving
        vnode, while keys owned by remaining groups keep their owners —
        the mirror of :meth:`grown`, so a drain moves only the departing
        group's 1/N of the namespace."""
        if self.groups <= 1:
            raise ValueError("cannot shrink below one group")
        return ShardMap(self.groups - 1, vnodes=self.vnodes, epoch=self.epoch + 1)

    def __repr__(self) -> str:
        return f"ShardMap(groups={self.groups}, vnodes={self.vnodes}, epoch={self.epoch})"


class StoreRoute:
    """Where every store path lives: the shard map (``None`` when the
    store is unsharded), each replica-group's addresses in group order,
    and all of them as one list sorted by address.

    Immutable.  The environment publishes a new one as ``ctx.store_route``
    whenever a group is added, grown or drained; store clients and store
    daemons read it on every use, so a steady operation builds nothing
    and every reader follows the same topology."""

    __slots__ = ("shard_map", "groups", "addresses")

    def __init__(self, shard_map: Optional[ShardMap],
                 groups: Sequence[Sequence["Address"]]):
        self.shard_map = shard_map
        self.groups: Tuple[Tuple["Address", ...], ...] = tuple(
            tuple(group) for group in groups
        )
        self.addresses: Tuple["Address", ...] = tuple(
            sorted((a for group in self.groups for a in group), key=str)
        )

    def group_for(self, path: str) -> Tuple["Address", ...]:
        """The addresses that serve ``path``: its owner group's, or every
        replica's when the store is unsharded."""
        if self.shard_map is None:
            return self.addresses
        return self.groups[self.shard_map.shard_for(path)]
