"""One replicated map (§5.3 "robust applications", Ch. 6 / Fig. 17).

The directory group and the store cluster keep "the same exact data" the
same way: every replica holds ``key -> newest entry`` (tombstones
included), a write is stamped with a ``(counter, site)``
:class:`Version`, last writer wins, the coordinator pushes to every peer
best effort, and a round-robin anti-entropy loop repairs whatever a push
missed.  :class:`ReplicatedMap` is the table; :class:`ReplicaMixin` is the
half of the protocol that does not depend on what a digest looks like.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, Iterable, List, NamedTuple, Optional, Tuple

from repro.lang import ACECmdLine
from repro.net import Address
from repro.net.host import HostDownError
from repro.core.client import CallError


class Version(NamedTuple):
    """Monotonic (counter, site) pair; totally ordered for LWW."""

    counter: int
    site: str

    def to_wire(self) -> str:
        return f"{self.counter}@{self.site}"

    @classmethod
    def from_wire(cls, text: str) -> "Version":
        counter, _, site = text.partition("@")
        return cls(int(counter), site)


class ReplicatedMap:
    """One replica's table over any entry with ``key``, ``version`` (a
    ``(counter, site)`` tuple) and ``deleted``.  ``on_change(old, new)``
    sees every slot that moves (``None`` = no entry), so an owner keeps
    whatever it derives from the table in step in one place."""

    def __init__(self, site: str, on_change: Optional[Callable] = None):
        self.site = site
        self.entries: Dict[str, object] = {}
        self.clock = 0
        self.on_change = on_change

    def next_version(self) -> Version:
        self.clock += 1
        return Version(self.clock, self.site)

    def write(self, entry) -> None:
        """Install a coordinator's own write (stamped by ``next_version``)."""
        old = self.entries.get(entry.key)
        self.entries[entry.key] = entry
        if self.on_change is not None:
            self.on_change(old, entry)

    def apply(self, entry) -> bool:
        """Apply a remote write; returns True when it won (was newer)."""
        self.clock = max(self.clock, entry.version[0])
        existing = self.entries.get(entry.key)
        if existing is not None and existing.version >= entry.version:
            return False
        self.write(entry)
        return True

    def forget(self, key: str) -> None:
        """Drop a slot entirely — no tombstone (a lapsed lease, a pruned
        tombstone, an object handed to another shard group)."""
        old = self.entries.pop(key, None)
        if old is not None and self.on_change is not None:
            self.on_change(old, None)

    def digest(self) -> Dict[str, tuple]:
        """key → version of everything including tombstones."""
        return {key: entry.version for key, entry in self.entries.items()}


def wanted(ours: Dict[str, tuple], listing: Iterable[Tuple[str, tuple]]) -> List[str]:
    """The keys of a peer's ``(key, version)`` listing that we lack or
    hold an older version of, in listing order."""
    out = []
    for key, theirs in listing:
        mine = ours.get(key)
        if mine is None or mine < theirs:
            out.append(key)
    return out


class ReplicaMixin:
    """Push, intake and repair for a daemon holding ``self.table``.

    The daemon declares the names below and its codec (``_encode``;
    ``_decode`` raises ``ValueError`` on a malformed entry), provides
    ``peers`` and ``sync_interval``, and answers ``_wanted_from(conn)`` in
    its own digest dialect: ask the peer on ``conn`` what it holds, return
    the keys to fetch.  It creates the ``_m_*`` instruments in its own
    ``__init__`` — registry order is ``obsPush`` row order.
    """

    #: the intake command; its ``entries`` vector carries encoded entries
    REPLICATE: str
    #: (command, its key-vector argument, the reply's entry-vector field)
    FETCH: Tuple[str, str, str]
    #: at most this many entries per fetch
    CHUNK: int
    replications_sent = 0
    replications_applied = 0
    syncs_completed = 0

    def _push_to_peer(self, peer: Address, wires: tuple) -> Generator:
        """Best effort; anti-entropy repairs whatever a dead peer misses."""
        client = self._service_client()
        try:
            yield from client.call(
                peer, ACECmdLine(self.REPLICATE, entries=wires), attach=False
            )
        except CallError:
            self._m_repl_failed.inc()
            return False
        self.replications_sent += len(wires)
        self._m_repl_sent.inc(len(wires))
        return True

    def _take(self, wires) -> int:
        """LWW-apply encoded entries from a peer, skipping malformed ones;
        returns how many won."""
        applied = 0
        for wire in wires if isinstance(wires, tuple) else ():
            try:
                entry = self._decode(wire)
            except ValueError:
                continue
            if self.table.apply(entry):
                applied += 1
        self.replications_applied += applied
        self._m_repl_applied.inc(applied)
        return applied

    def _fetch_reply(self, keys: tuple) -> dict:
        entries = self.table.entries
        found = tuple(
            self._encode(entries[key]) for key in keys[: self.CHUNK] if key in entries
        )
        result: dict = {"count": len(found)}
        if found:
            result[self.FETCH[2]] = found
        return result

    def _anti_entropy_loop(self) -> Generator:
        """Round-robin digest exchange with peers (restart convergence)."""
        index = 0
        while self.running:
            yield self.ctx.sim.timeout(self.sync_interval)
            peers = self.peers
            if not peers or not self.running:
                continue
            peer = peers[index % len(peers)]
            index += 1
            try:
                yield from self._sync_with(peer)
                self.syncs_completed += 1
                self._m_syncs.inc()
            except HostDownError:
                return  # our own host died; the daemon is gone
            except CallError:
                continue

    def _sync_with(self, peer: Address) -> Generator:
        """Pull anything the peer has that is newer than our copy."""
        command, argument, field = self.FETCH
        client = self._service_client()
        conn = yield from client.connect(peer, attach=False)
        try:
            keys = yield from self._wanted_from(conn)
            for start in range(0, len(keys), self.CHUNK):
                chunk = tuple(keys[start : start + self.CHUNK])
                reply = yield from conn.call(ACECmdLine(command, {argument: chunk}))
                self._take(reply.get(field, ()))
        finally:
            conn.close()
