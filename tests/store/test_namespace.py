"""Unit tests for the object namespace and wire encodings."""

import pytest

from repro.core.replication import wanted
from repro.store.namespace import (
    NamespaceError,
    ObjectNamespace,
    StoredObject,
    Version,
    decode_attrs,
    encode_attrs,
)


def test_path_validation():
    ns = ObjectNamespace("s1")
    ns.put("/a/b-c/d.e", {})
    for bad in ("", "a/b", "/", "/a//b", "/a b"):
        with pytest.raises(NamespaceError):
            ns.put(bad, {})


def test_put_get_roundtrip():
    ns = ObjectNamespace("s1")
    ns.put("/x", {"k": "v", "n": "42"})
    obj = ns.get("/x")
    assert obj.attrs == {"k": "v", "n": "42"}


def test_versions_monotonic():
    ns = ObjectNamespace("s1")
    v1 = ns.put("/x", {}).version
    v2 = ns.put("/x", {}).version
    assert v2 > v1


def test_delete_leaves_tombstone():
    ns = ObjectNamespace("s1")
    ns.put("/x", {"a": "1"})
    tomb = ns.delete("/x")
    assert tomb.deleted
    assert ns.get("/x") is None
    assert ns.raw("/x").deleted
    assert ns.delete("/x") is None  # double delete


def test_list_prefix():
    ns = ObjectNamespace("s1")
    ns.put("/apps/a/state", {})
    ns.put("/apps/b/state", {})
    ns.put("/users/john", {})
    assert ns.list("/apps") == ["/apps/a/state", "/apps/b/state"]
    assert len(ns.list("/")) == 3


def test_apply_lww_newer_wins():
    ns = ObjectNamespace("s1")
    ns.put("/x", {"v": "old"})
    newer = StoredObject("/x", {"v": "new"}, Version(100, "s2"))
    assert ns.apply(newer) is True
    assert ns.get("/x").attrs == {"v": "new"}


def test_apply_lww_older_loses():
    ns = ObjectNamespace("s1")
    ns.put("/x", {"v": "current"})
    current_version = ns.get("/x").version
    older = StoredObject("/x", {"v": "stale"}, Version(0, "s2"))
    assert ns.apply(older) is False
    assert ns.get("/x").attrs == {"v": "current"}
    assert ns.get("/x").version == current_version


def test_apply_advances_clock():
    ns = ObjectNamespace("s1")
    ns.apply(StoredObject("/x", {}, Version(50, "s2")))
    assert ns.put("/y", {}).version.counter > 50


def test_version_tiebreak_by_site():
    assert Version(5, "s2") > Version(5, "s1")
    assert Version(6, "s1") > Version(5, "s2")


def test_version_wire_roundtrip():
    v = Version(17, "ps2")
    assert Version.from_wire(v.to_wire()) == v


def test_digest_and_newer_than():
    a, b = ObjectNamespace("a"), ObjectNamespace("b")
    a.put("/x", {"v": "1"})
    a.put("/y", {"v": "2"})
    b.apply(a.raw("/x"))
    assert wanted(b.digest(), sorted(a.digest().items())) == ["/y"]
    assert wanted(a.digest(), a.digest().items()) == []


def test_encode_decode_attrs_roundtrip():
    attrs = {"plain": "value", "weird": "a=b&c\\d", "empty": "", "num": "3.14"}
    assert decode_attrs(encode_attrs(attrs)) == attrs


def test_encode_attrs_rejects_bad_keys():
    with pytest.raises(NamespaceError):
        encode_attrs({"bad key": "v"})


def test_decode_empty():
    assert decode_attrs("") == {}


def test_decode_malformed():
    with pytest.raises(NamespaceError):
        decode_attrs("noequalsign")


def test_bucket_digest_hashes_no_path_again(monkeypatch):
    """A path's digest bucket is hashed once, when the table first sees the
    path: a ``psDigest`` page hashes nothing, and still equals the
    brute-force filter over every entry (tombstones and forgotten paths
    included)."""
    import repro.store.namespace as namespace
    from repro.store.sharding import bucket_of

    ns = ObjectNamespace("s1", buckets=8)
    for i in range(40):
        ns.put(f"/p/{i % 25}", {"v": str(i)})
    ns.delete("/p/3")
    ns.forget("/p/4")
    ns.apply(StoredObject("/remote/x", {}, Version(99, "s2")))
    calls = []
    real = namespace.stable_hash
    monkeypatch.setattr(namespace, "stable_hash", lambda text: calls.append(text) or real(text))
    monkeypatch.setattr(namespace, "bucket_of", lambda *a: calls.append(a) or bucket_of(*a))
    digests = [ns.bucket_digest(b) for b in range(ns.buckets)]
    assert calls == []
    for bucket, digest in enumerate(digests):
        assert digest == {path: obj.version for path, obj in ns.entries.items()
                          if bucket_of(path, ns.buckets) == bucket}
    assert sum(map(len, digests)) == len(ns.entries) == 25
