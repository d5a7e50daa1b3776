"""Property-based tests for the store's replication invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.replication import wanted
from repro.store.namespace import (
    ObjectNamespace,
    StoredObject,
    Version,
    decode_attrs,
    encode_attrs,
)

paths = st.from_regex(r"(/[a-z0-9]{1,6}){1,3}", fullmatch=True)
attr_keys = st.from_regex(r"[a-z_][a-z0-9_]{0,8}", fullmatch=True)
attr_values = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00"),
    max_size=20,
)
attr_dicts = st.dictionaries(attr_keys, attr_values, max_size=4)


@given(attr_dicts)
@settings(max_examples=300, deadline=None)
def test_attrs_encode_decode_roundtrip(attrs):
    assert decode_attrs(encode_attrs(attrs)) == attrs


@given(st.lists(st.tuples(paths, attr_dicts), max_size=30))
@settings(max_examples=100, deadline=None)
def test_local_puts_latest_wins(ops):
    ns = ObjectNamespace("s1")
    expected = {}
    for path, attrs in ops:
        ns.put(path, attrs)
        expected[path] = attrs
    for path, attrs in expected.items():
        assert ns.get(path).attrs == attrs


@given(
    st.lists(st.tuples(paths, attr_dicts, st.integers(0, 2)), min_size=1, max_size=40),
    st.permutations(range(3)),
)
@settings(max_examples=100, deadline=None)
def test_replica_convergence_order_independent(ops, replay_order):
    """Apply the same versioned write set to replicas in different orders:
    all replicas converge to identical state (LWW is order-independent)."""
    # Generate globally-ordered versioned objects from the op list.
    objects = []
    for counter, (path, attrs, site_idx) in enumerate(ops, start=1):
        objects.append(StoredObject(path, attrs, Version(counter, f"s{site_idx}")))

    replicas = [ObjectNamespace(f"r{i}") for i in range(3)]
    # Replica 0 sees writes in order; the others in shuffled orders.
    for obj in objects:
        replicas[0].apply(obj)
    import random as _random

    for idx, replica in enumerate(replicas[1:], start=1):
        shuffled = list(objects)
        _random.Random(replay_order[idx]).shuffle(shuffled)
        for obj in shuffled:
            replica.apply(obj)
    for replica in replicas[1:]:
        assert replica.digest() == replicas[0].digest()
        for path in replicas[0].list():
            assert replica.get(path).attrs == replicas[0].get(path).attrs


@given(st.lists(st.tuples(paths, attr_dicts), min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_anti_entropy_pull_reaches_fixpoint(ops):
    """wanted() against a digest, fetched and applied, leaves nothing wanted."""
    source = ObjectNamespace("src")
    target = ObjectNamespace("dst")
    for path, attrs in ops:
        source.put(path, attrs)
    for path in wanted(target.digest(), source.digest().items()):
        target.apply(source.raw(path))
    assert wanted(target.digest(), source.digest().items()) == []
    assert target.digest() == source.digest()


@given(st.lists(st.tuples(st.integers(1, 100), st.sampled_from("abc")), min_size=2, max_size=20))
@settings(max_examples=200, deadline=None)
def test_version_total_order(pairs):
    versions = [Version(c, s) for c, s in pairs]
    ordered = sorted(versions)
    for a, b in zip(ordered, ordered[1:]):
        assert a <= b
    # Antisymmetry at equal values.
    assert Version(5, "x") == Version(5, "x")


@given(paths, attr_dicts, attr_dicts)
@settings(max_examples=100, deadline=None)
def test_delete_then_newer_put_resurrects(path, attrs1, attrs2):
    ns = ObjectNamespace("s1")
    ns.put(path, attrs1)
    ns.delete(path)
    assert ns.get(path) is None
    ns.put(path, attrs2)
    assert ns.get(path).attrs == attrs2
