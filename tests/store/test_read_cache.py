"""Versioned client read cache (E25) + psList paging contract."""

from repro.core import ServiceClient
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.store import STORE_CHUNK


def build_env(replicas=2, **store_kwargs):
    env = ACEEnvironment(seed=13, lease_duration=10.0)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.add_persistent_store(replicas=replicas, sync_interval=1.0,
                             **store_kwargs)
    env.boot()
    return env


def wire_reads(env):
    return sum(d.reads for d in env.daemons.values()
               if type(d).__name__ == "PersistentStoreDaemon")


# -- read cache ---------------------------------------------------------------

def test_write_through_serves_reads_without_wire():
    env = build_env()
    client = env.store_client(env.net.host("infra"), cache_reads=True)

    def scenario():
        yield from client.put("/c/a", {"v": "1"})
        before = wire_reads(env)
        value = yield from client.get("/c/a")
        return value, wire_reads(env) - before

    value, extra_reads = env.run(scenario())
    assert value == {"v": "1"}
    assert extra_reads == 0  # served from the write-through cache
    assert client.cached_version("/c/a") is not None


def test_miss_populates_then_hits():
    env = build_env()
    writer = env.store_client(env.net.host("infra"), principal="writer")
    reader = env.store_client(env.net.host("infra"), principal="reader",
                              cache_reads=True)
    hits = env.ctx.obs.metrics.counter("store.client.cache_hits")
    misses = env.ctx.obs.metrics.counter("store.client.cache_misses")

    def scenario():
        yield from writer.put("/c/b", {"v": "1"})
        yield env.sim.timeout(0.5)
        first = yield from reader.get("/c/b")   # miss -> wire -> populate
        before = wire_reads(env)
        second = yield from reader.get("/c/b")  # hit
        return first, second, wire_reads(env) - before

    first, second, extra = env.run(scenario())
    assert first == second == {"v": "1"}
    assert extra == 0
    assert hits.value >= 1 and misses.value >= 1


def test_cache_entry_expires_after_ttl():
    env = build_env()
    client = env.store_client(env.net.host("infra"), cache_reads=True,
                              cache_ttl=0.5)

    def scenario():
        yield from client.put("/c/ttl", {"v": "1"})
        yield env.sim.timeout(1.0)  # past the TTL
        before = wire_reads(env)
        value = yield from client.get("/c/ttl")
        return value, wire_reads(env) - before

    value, extra = env.run(scenario())
    assert value == {"v": "1"}
    assert extra == 1  # expiry forced a wire read


def test_stale_until_invalidated():
    """The cache is versioned but not coherent: another writer's update is
    invisible until TTL expiry or an explicit invalidate()."""
    env = build_env()
    a = env.store_client(env.net.host("infra"), principal="a", cache_reads=True)
    b = env.store_client(env.net.host("infra"), principal="b")

    def scenario():
        yield from a.put("/c/s", {"v": "old"})
        v1 = a.cached_version("/c/s")
        yield from b.put("/c/s", {"v": "new"})
        yield env.sim.timeout(0.5)
        stale = yield from a.get("/c/s")     # within TTL: cached value
        a.invalidate("/c/s")
        fresh = yield from a.get("/c/s")     # forced back to the wire
        v2 = a.cached_version("/c/s")
        return v1, stale, fresh, v2

    v1, stale, fresh, v2 = env.run(scenario())
    assert stale == {"v": "old"}
    assert fresh == {"v": "new"}
    assert v1 != v2  # the cached version tracked the newer write


def test_delete_invalidates_cache():
    env = build_env()
    client = env.store_client(env.net.host("infra"), cache_reads=True)

    def scenario():
        yield from client.put("/c/d", {"v": "1"})
        yield from client.delete("/c/d")
        yield env.sim.timeout(0.5)
        return (yield from client.get("/c/d"))

    assert env.run(scenario()) is None


# -- psList paging ------------------------------------------------------------

def test_pslist_pages_and_client_follows():
    env = build_env(replicas=1)
    client = env.store_client(env.net.host("infra"))
    n = STORE_CHUNK * 2 + 6
    paths = [f"/page/o{i:03d}" for i in range(n)]

    def scenario():
        for p in paths:
            yield from client.put(p, {})
        raw = ServiceClient(env.ctx, env.net.host("infra"), principal="raw")
        address = env.daemon("ps1").address
        first = yield from raw.call(
            address, ACECmdLine("psList", prefix="/page"))
        middle = yield from raw.call(
            address, ACECmdLine("psList", prefix="/page", offset=first.int("next")))
        last = yield from raw.call(
            address, ACECmdLine("psList", prefix="/page", offset=middle.int("next")))
        full = yield from client.list("/page")
        return first, middle, last, full

    first, middle, last, full = env.run(scenario())
    assert first.int("count") == n
    assert len(first.vector("paths")) == STORE_CHUNK
    assert first.int("next") == STORE_CHUNK
    assert middle.int("next") == 2 * STORE_CHUNK
    assert len(last.vector("paths")) == 6
    assert last.get("next") is None
    assert full == paths  # the client walked every page transparently


# -- read-index seeding -------------------------------------------------------

def test_read_index_seeded_from_principal():
    """A fleet of cold clients spreads its first reads across replicas
    instead of herding onto replica 0."""
    from repro.store import stable_hash

    env = build_env(replicas=3)
    starts = set()
    for i in range(8):
        client = env.store_client(env.net.host("infra"), principal=f"cl-{i}")
        assert client._read_index == stable_hash(f"cl-{i}") % 3
        starts.add(client._read_index)
    assert len(starts) > 1
