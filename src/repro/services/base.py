"""Shared intermediate daemon classes of the Fig. 6 hierarchy."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.daemon import ACEDaemon


class DatabaseDaemon(ACEDaemon):
    """Base of the Database subtree (AUD, RoomDB, AuthDB)."""

    service_type = "Database"


class Checkpointable:
    """Mixin: a daemon whose state can be snapshotted and restored.

    The recovery plane (``repro.recovery``) periodically asks every watched
    Checkpointable daemon for a **checkpoint** — an ordered tuple of opaque
    wire lines from :meth:`checkpoint_state`, plus the daemon's idempotency
    dedup cache and incarnation number — and keeps it on the host's
    supervisor (and, durably, in the persistent store under
    ``/recovery/checkpoints/<name>``).  After a crash the supervisor
    restores the checkpoint into the reincarnation *before* starting it, so
    the daemon never serves from a blank slate.

    Subclasses implement exactly two hooks:

    * :meth:`checkpoint_state` — state → tuple of strings (any wire
      encoding the subclass likes; :func:`repro.lang.wire.join_wire` is the
      house idiom);
    * :meth:`restore_state` — the inverse.
    """

    #: write checkpoints to the persistent store as well as the supervisor
    #: (the store daemon itself opts out — its checkpoint *contains* the
    #: namespace, so storing it back would compound on every round)
    checkpoint_to_store = True

    # -- subclass hooks -------------------------------------------------
    def checkpoint_state(self) -> Tuple[str, ...]:
        """Serialize service state as an ordered tuple of opaque lines."""
        raise NotImplementedError

    def restore_state(self, lines: Tuple[str, ...]) -> None:
        """Rebuild service state from :meth:`checkpoint_state` output."""
        raise NotImplementedError

    # -- composition (payloads are flat word-key dicts, store-safe) -----
    def compose_checkpoint(self) -> Dict[str, str]:
        """Full checkpoint payload: state + dedup cache + incarnation.

        Keys are store-attribute-safe words (``s<i>`` state lines,
        ``d<i>`` dedup lines, ``inc``); values are opaque wire lines."""
        payload: Dict[str, str] = {"inc": str(self.incarnation)}
        for i, line in enumerate(self.checkpoint_state()):
            payload[f"s{i}"] = line
        for i, line in enumerate(self.export_dedup()):
            payload[f"d{i}"] = line
        return payload

    def restore_checkpoint(self, payload: Dict[str, str]) -> int:
        """Apply a :meth:`compose_checkpoint` payload; returns the number
        of state lines restored."""
        state = _indexed_lines(payload, "s")
        dedup = _indexed_lines(payload, "d")
        if dedup:
            self.import_dedup(dedup)
        self.restore_state(tuple(state))
        return len(state)


def _indexed_lines(payload: Dict[str, str], prefix: str) -> list:
    """The ``<prefix><i>`` values of ``payload`` in index order."""
    indexed = []
    for key, value in payload.items():
        if key.startswith(prefix) and key[len(prefix):].isdigit():
            indexed.append((int(key[len(prefix):]), value))
    return [value for _, value in sorted(indexed)]
