"""The object-oriented namespace a store server holds.

Objects live at slash-separated paths (``/wss/workspaces/john-default``)
and carry a flat string→string attribute dict plus a version for
last-writer-wins replication.  Attribute dicts cross the wire as one
encoded string (:func:`encode_attrs`), since ACE argument values are flat.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.lang.wire import join_wire, split_wire
from repro.core.replication import ReplicatedMap, Version
from repro.store.sharding import bucket_of, stable_hash

_PATH_RE = re.compile(r"^(/[A-Za-z0-9_.\-]+)+$")

#: Default number of digest buckets for incremental anti-entropy.
DIGEST_BUCKETS = 32


class NamespaceError(ValueError):
    """Bad path or malformed attribute encoding."""


@dataclass
class StoredObject:
    path: str
    attrs: Dict[str, str]
    version: Version
    deleted: bool = False  # tombstone so deletes replicate

    @property
    def key(self) -> str:
        return self.path


def check_path(path: str) -> str:
    if not _PATH_RE.match(path):
        raise NamespaceError(f"bad object path {path!r}")
    return path


def encode_attrs(attrs: Dict[str, str]) -> str:
    """Flat dict → one wire string.  Keys must be words; values arbitrary
    printable strings (escaped)."""
    parts = []
    for key in sorted(attrs):
        if not re.match(r"^[A-Za-z0-9_]+$", key):
            raise NamespaceError(f"bad attribute name {key!r}")
        value = str(attrs[key]).replace("\\", "\\\\").replace("&", "\\a").replace("=", "\\e")
        parts.append(f"{key}={value}")
    return "&".join(parts)


def decode_attrs(text: str) -> Dict[str, str]:
    if not text:
        return {}
    attrs: Dict[str, str] = {}
    for pair in _split_unescaped(text, "&"):
        key, sep, value = pair.partition("=")
        if not sep:
            raise NamespaceError(f"malformed attribute pair {pair!r}")
        attrs[key] = _unescape_value(value)
    return attrs


_UNESCAPE = {"\\": "\\", "a": "&", "e": "="}


def _unescape_value(value: str) -> str:
    # One left-to-right scan: chained str.replace is order-sensitive and
    # mis-decodes values where an escaped backslash precedes a literal
    # 'a'/'e' (encode("\\a") -> "\\\\a", whose tail "\\a" a later replace
    # would wrongly turn back into "&").
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append(_UNESCAPE.get(nxt, nxt))
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def encode_object(obj: StoredObject) -> str:
    """Whole object → one ``|``-delimited wire field (batch replication)."""
    return join_wire(
        (obj.path, encode_attrs(obj.attrs), obj.version.to_wire(), int(obj.deleted))
    )


def decode_object(text: str) -> StoredObject:
    """Inverse of :func:`encode_object`; ``ValueError`` (a bad counter, or
    :class:`NamespaceError` for the rest) on anything ``psPut`` would not
    have stored."""
    fields = split_wire(text)
    if len(fields) != 4:
        raise NamespaceError(f"malformed object record {text!r}")
    path, attrs_text, version_text, deleted = fields
    return StoredObject(
        check_path(path),
        decode_attrs(attrs_text),
        Version.from_wire(version_text),
        deleted=deleted == "1",
    )


def _split_unescaped(text: str, sep: str) -> List[str]:
    out, buf, i = [], [], 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            buf.append(text[i : i + 2])
            i += 2
            continue
        if ch == sep:
            out.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
        i += 1
    out.append("".join(buf))
    return out


class ObjectNamespace(ReplicatedMap):
    """One replica's object table."""

    def __init__(self, site: str, *, buckets: int = DIGEST_BUCKETS):
        super().__init__(site, on_change=self._rehash)
        self.buckets = buckets
        # Incrementally-maintained XOR of per-object tokens, one slot per
        # hash bucket, so anti-entropy can compare O(buckets) values and
        # only walk buckets that differ.
        self._bucket_hash: List[int] = [0] * buckets

    @staticmethod
    def _token(obj: StoredObject) -> int:
        return stable_hash(f"{obj.path}|{obj.version.to_wire()}|{int(obj.deleted)}")

    def _rehash(self, old: Optional[StoredObject], new: Optional[StoredObject]) -> None:
        slot = bucket_of((new or old).path, self.buckets)
        for obj in (old, new):
            if obj is not None:
                self._bucket_hash[slot] ^= self._token(obj)

    def __len__(self) -> int:
        return sum(1 for o in self.entries.values() if not o.deleted)

    # -- local writes (coordinator side) ------------------------------------
    def put(self, path: str, attrs: Dict[str, str]) -> StoredObject:
        check_path(path)
        obj = StoredObject(path, dict(attrs), self.next_version())
        self.write(obj)
        return obj

    def delete(self, path: str) -> Optional[StoredObject]:
        check_path(path)
        existing = self.entries.get(path)
        if existing is None or existing.deleted:
            return None
        tombstone = StoredObject(path, {}, self.next_version(), deleted=True)
        self.write(tombstone)
        return tombstone

    # -- reads --------------------------------------------------------------------
    def get(self, path: str) -> Optional[StoredObject]:
        obj = self.entries.get(path)
        if obj is None or obj.deleted:
            return None
        return obj

    def list(self, prefix: str = "/") -> List[str]:
        return sorted(
            path
            for path, obj in self.entries.items()
            if not obj.deleted and path.startswith(prefix)
        )

    # -- anti-entropy -----------------------------------------------------------------
    def bucket_hashes(self) -> List[int]:
        """One XOR token per bucket; equal slots need no path-level exchange."""
        return list(self._bucket_hash)

    def bucket_digest(self, bucket: int) -> Dict[str, Version]:
        """path → version for one hash bucket only (including tombstones)."""
        return {
            path: obj.version
            for path, obj in self.entries.items()
            if bucket_of(path, self.buckets) == bucket
        }

    def namespace_hash(self) -> str:
        """Deterministic digest of full replica state for convergence checks.

        LWW guarantees equal versions imply equal attrs, so hashing
        path|version|deleted lines is enough to compare replicas.
        """
        lines = sorted(
            f"{path}|{obj.version.to_wire()}|{int(obj.deleted)}"
            for path, obj in self.entries.items()
        )
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def raw(self, path: str) -> Optional[StoredObject]:
        """Including tombstones (replication internals)."""
        return self.entries.get(path)

    def all_objects(self) -> List[StoredObject]:
        """Every record including tombstones, path-sorted (rebalance)."""
        return [self.entries[path] for path in sorted(self.entries)]
