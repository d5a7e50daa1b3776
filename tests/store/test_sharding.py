"""Sharded store namespace (E25): ShardMap behaviour, per-key routing,
misroute forwarding for stale-map clients, and group-growth rebalancing."""

import pytest

from repro.core import ServiceClient
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.store import DIGEST_BUCKETS, ShardMap, bucket_of, stable_hash
from repro.store.namespace import encode_attrs


# -- ShardMap unit behaviour --------------------------------------------------

def test_stable_hash_is_deterministic():
    assert stable_hash("/users/john") == stable_hash("/users/john")
    assert stable_hash("/a") != stable_hash("/b")
    assert 0 <= bucket_of("/a", DIGEST_BUCKETS) < DIGEST_BUCKETS


def test_shard_map_balance_and_determinism():
    m1, m2 = ShardMap(4), ShardMap(4)
    paths = [f"/obj/{i}" for i in range(1000)]
    assert [m1.shard_for(p) for p in paths] == [m2.shard_for(p) for p in paths]
    counts = [0] * 4
    for p in paths:
        counts[m1.shard_for(p)] += 1
    assert min(counts) > 100  # vnode ring keeps every group loaded


def test_shard_map_growth_moves_a_minority():
    old = ShardMap(4)
    new = old.grown()
    assert new.groups == 5 and new.epoch == old.epoch + 1
    paths = [f"/obj/{i}" for i in range(1000)]
    moved = set(old.moved_paths(paths, new))
    assert 0 < len(moved) < 500  # ~1/5 expected; never a full reshuffle
    for p in paths:
        if p not in moved:
            assert old.shard_for(p) == new.shard_for(p)
        else:
            assert new.shard_for(p) == 4  # growth only hands keys to the newcomer


def test_shard_map_wire_roundtrip():
    m = ShardMap(3, vnodes=16, epoch=7)
    assert ShardMap.from_wire(m.to_wire()) == m
    assert ShardMap(1) != m
    with pytest.raises(ValueError):
        ShardMap(0)


# -- Sharded environment ------------------------------------------------------

def build_sharded_env(groups=2, replicas=2, sync_interval=1.0, **store_kwargs):
    env = ACEEnvironment(seed=11, lease_duration=10.0)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.add_persistent_store(
        replicas=replicas, groups=groups, sync_interval=sync_interval,
        **store_kwargs,
    )
    env.boot()
    return env


PATHS = [f"/shard/o{i}" for i in range(24)]


def test_sharded_put_get_list():
    env = build_sharded_env()
    client = env.store_client(env.net.host("infra"))

    def scenario():
        for i, p in enumerate(PATHS):
            yield from client.put(p, {"v": str(i)})
        yield env.sim.timeout(0.5)  # replication batches flush
        values = []
        for p in PATHS:
            values.append((yield from client.get(p)))
        listed = yield from client.list("/shard")
        return values, listed

    values, listed = env.run(scenario())
    assert values == [{"v": str(i)} for i in range(len(PATHS))]
    assert listed == sorted(PATHS)
    smap = env._store_shard_map
    assert {smap.shard_for(p) for p in PATHS} == {0, 1}
    # Every object lives in (only) its owner group.
    for p in PATHS:
        g = smap.shard_for(p)
        assert env.daemon(f"ps{g + 1}-1").namespace.get(p) is not None
        assert env.daemon(f"ps{(1 - g) + 1}-1").namespace.get(p) is None


def test_misrouted_request_is_forwarded():
    """A client with a stale (or missing) map hits the wrong group; the
    daemon relays the command to the owner and returns its reply."""
    env = build_sharded_env()
    smap = env._store_shard_map
    path = next(p for p in PATHS if smap.shard_for(p) == 1)
    wrong = env.daemon("ps1-1")  # group 0 does not own `path`

    def scenario():
        client = ServiceClient(env.ctx, env.net.host("infra"), principal="stale")
        yield from client.call(
            wrong.address,
            ACECmdLine("psPut", path=path, value=encode_attrs({"v": "1"})),
        )
        return (yield from client.call(
            wrong.address, ACECmdLine("psGet", path=path)
        ))

    reply = env.run(scenario())
    assert reply.str("value") == encode_attrs({"v": "1"})
    assert env.ctx.obs.metrics.counter("store.ps1-1.forwards").value >= 2
    env.run_for(0.5)
    assert env.daemon("ps2-1").namespace.get(path) is not None
    assert env.daemon("ps1-1").namespace.get(path) is None


def test_add_store_group_rebalances():
    """Growing the map streams misplaced objects to the new group and
    drops them from the old owners; fresh clients read everything back."""
    env = build_sharded_env()
    client = env.store_client(env.net.host("infra"))
    paths = [f"/grow/o{i}" for i in range(40)]

    def fill():
        for i, p in enumerate(paths):
            yield from client.put(p, {"v": str(i)})

    env.run(fill())
    env.run_for(1.0)
    old_map = env._store_shard_map
    env.add_store_group()
    new_map = env._store_shard_map
    assert new_map.groups == 3 and new_map.epoch == old_map.epoch + 1
    moved = set(old_map.moved_paths(paths, new_map))
    assert moved
    env.run_for(5.0)
    rebalanced = sum(
        env.ctx.obs.metrics.counter(f"store.ps{g}-{i}.rebalanced").value
        for g in (1, 2) for i in (1, 2)
    )
    assert rebalanced >= len(moved)
    for p in moved:
        assert env.daemon("ps3-1").namespace.get(p) is not None
        old_owner = old_map.shard_for(p)
        assert env.daemon(f"ps{old_owner + 1}-1").namespace.get(p) is None

    client2 = env.store_client(env.net.host("infra"), principal="after-growth")

    def readall():
        out = []
        for p in paths:
            out.append((yield from client2.get(p)))
        return out

    assert all(v is not None for v in env.run(readall()))
