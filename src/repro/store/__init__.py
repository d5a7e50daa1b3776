"""ACE Persistent Store (Chapter 6, Fig. 17).

A cluster of (by default three) "completely redundant and interconnected"
store servers that "perform constant data synchronization".  Writes reach
any replica, which applies them locally and synchronously pushes them to
every reachable peer; last-writer-wins versioning plus periodic
anti-entropy makes crashed-and-rejoined replicas converge.  Reads go to
any replica, which is what removes the single-server bottleneck the paper
calls out (experiment E11 measures both properties).

State is organized in the "straightforward object-oriented namespace" the
paper describes: slash-separated object paths holding attribute dicts —
the checkpoint/restore substrate for restart and robust applications
(§5.2–5.3, :mod:`repro.apps.robust`).
"""

from repro.store.namespace import (
    DIGEST_BUCKETS,
    NamespaceError,
    ObjectNamespace,
    StoredObject,
    Version,
    decode_attrs,
    decode_object,
    encode_attrs,
    encode_object,
)
from repro.store.sharding import ShardMap, StoreRoute, bucket_of, stable_hash
from repro.store.server import STORE_CHUNK, PersistentStoreDaemon
from repro.store.client import StoreClient, StoreUnavailable

__all__ = [
    "DIGEST_BUCKETS",
    "NamespaceError",
    "ObjectNamespace",
    "PersistentStoreDaemon",
    "STORE_CHUNK",
    "ShardMap",
    "StoreClient",
    "StoreRoute",
    "StoreUnavailable",
    "StoredObject",
    "Version",
    "bucket_of",
    "decode_attrs",
    "decode_object",
    "encode_attrs",
    "encode_object",
    "stable_hash",
]
