"""Integration tests: the 3-replica persistent store (Ch. 6, Fig. 17)."""

import pytest

from repro.core import CallError, TransportError
from repro.env import ACEEnvironment
from repro.store import StoreClient, StoreUnavailable


def build_store_env(replicas=3, sync_interval=2.0):
    env = ACEEnvironment(seed=5, lease_duration=10.0)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.add_persistent_store(replicas=replicas, sync_interval=sync_interval)
    env.boot()
    return env


@pytest.fixture
def store_env():
    return build_store_env()


def test_write_replicates_to_all(store_env):
    env = store_env
    client = env.store_client(env.net.host("infra"))

    def scenario():
        yield from client.put("/users/john", {"fullname": "John Doe"})

    env.run(scenario())
    env.run_for(0.5)  # batched replication flushes asynchronously
    for name in ("ps1", "ps2", "ps3"):
        obj = env.daemon(name).namespace.get("/users/john")
        assert obj is not None and obj.attrs["fullname"] == "John Doe"


def test_a_replica_holds_only_its_live_children(store_env):
    """Each replication push, command thread and notification is a child
    of its daemon; once finished it is dropped, so a replica's children
    are the ones still running, however many writes it has served."""
    env = store_env
    client = env.store_client(env.net.host("infra"))
    replicas = [env.daemon(name) for name in ("ps1", "ps2", "ps3")]

    def scenario():
        for i in range(40):
            yield from client.put(f"/k{i}", {"v": str(i)})

    env.run(scenario())
    env.run_for(0.5)
    assert sum(replica.replications_sent for replica in replicas) >= 2 * 40
    for replica in replicas:
        assert all(proc.is_alive for proc in replica._child_procs)
        assert len(replica._child_procs) < 20


def test_read_from_any_replica(store_env):
    env = store_env
    client = env.store_client(env.net.host("infra"))

    def scenario():
        yield from client.put("/x", {"v": "1"})
        yield env.sim.timeout(0.5)  # let the replication batch flush
        values = []
        for _ in range(3):  # round-robin hits each replica once
            values.append((yield from client.get("/x")))
        return values

    values = env.run(scenario())
    assert all(v == {"v": "1"} for v in values)
    reads = [env.daemon(n).reads for n in ("ps1", "ps2", "ps3")]
    assert all(r >= 1 for r in reads)


def test_survives_one_replica_crash(store_env):
    env = store_env
    client = env.store_client(env.net.host("infra"))

    def scenario():
        yield from client.put("/x", {"v": "before"})
        yield env.sim.timeout(0.5)  # flush before the coordinator dies
        env.net.crash_host("store1")
        yield from client.put("/y", {"v": "after"})
        yield env.sim.timeout(0.5)  # /y propagates to the other survivor
        x = yield from client.get("/x")
        y = yield from client.get("/y")
        return x, y

    x, y = env.run(scenario())
    assert x == {"v": "before"}
    assert y == {"v": "after"}


def test_survives_two_replica_crashes(store_env):
    env = store_env
    client = env.store_client(env.net.host("infra"))

    def scenario():
        yield from client.put("/x", {"v": "1"})
        yield env.sim.timeout(0.5)  # flush before the coordinators die
        env.net.crash_host("store1")
        env.net.crash_host("store2")
        value = yield from client.get("/x")
        yield from client.put("/z", {"v": "solo"})
        return value

    assert env.run(scenario()) == {"v": "1"}
    assert env.daemon("ps3").namespace.get("/z").attrs == {"v": "solo"}


def _store_counter(env, name):
    return env.obs.metrics.counter(f"store.client.{name}").value


def test_absent_read_fails_over_past_dead_replica(store_env):
    # cmdFailed from a live replica means "absent" (None), not "try the
    # next one"; only the dead replica in front of it counts a failover.
    env = store_env
    client = env.store_client(env.net.host("infra"), balance_reads=False)
    env.net.crash_host("store1")

    def scenario():
        value = yield from client.get("/never-written")
        return value

    assert env.run(scenario()) is None
    assert _store_counter(env, "failovers") == 1
    assert _store_counter(env, "unavailable") == 0
    assert env.daemon("ps2").reads == 1 and env.daemon("ps3").reads == 0


def test_unavailable_when_all_replicas_down(store_env):
    env = store_env
    client = env.store_client(env.net.host("infra"))

    def scenario():
        for host in ("store1", "store2", "store3"):
            env.net.crash_host(host)
        with pytest.raises(StoreUnavailable):
            yield from client.put("/x", {"v": "1"})

    env.run(scenario())
    assert _store_counter(env, "failovers") == 3
    assert _store_counter(env, "unavailable") == 1


@pytest.mark.parametrize("op", ["get", "put", "delete"])
def test_every_replica_down_is_a_call_error(store_env, op):
    """``StoreUnavailable`` is a ``TransportError``: a caller's one
    ``except CallError`` covers the store too — and ``delete`` raises it
    rather than reporting the object absent."""
    env = store_env
    client = env.store_client(env.net.host("infra"))
    for host in ("store1", "store2", "store3"):
        env.net.crash_host(host)

    def scenario():
        args = ({"v": "1"},) if op == "put" else ()
        try:
            yield from getattr(client, op)("/x", *args)
        except CallError as exc:
            return exc

    exc = env.run(scenario())
    assert type(exc) is StoreUnavailable and isinstance(exc, TransportError)
    assert exc.reply is None and "all replicas failed" in str(exc)
    assert _store_counter(env, "unavailable") == 1


def test_rejoined_replica_catches_up():
    """Crash a replica, write while it is gone, restart it: anti-entropy
    brings it back to 'the same exact data'."""
    env = build_store_env(sync_interval=1.0)
    client = env.store_client(env.net.host("infra"))

    def phase1():
        yield from client.put("/keep", {"v": "old"})

    env.run(phase1())
    env.net.crash_host("store1")
    ps1 = env.daemon("ps1")

    def phase2():
        yield from client.put("/new", {"v": "written-while-down"})
        yield from client.put("/keep", {"v": "updated"})

    env.run(phase2())
    # Restart the host and relaunch the replica daemon (empty after crash
    # would be a disk wipe; here the namespace survives but is stale).
    env.net.restart_host("store1")
    import repro.store.server as server_mod

    new_ps1 = server_mod.PersistentStoreDaemon(
        env.ctx, "ps1b", env.net.host("store1"), port=ps1.port + 100,
        room="machineroom", sync_interval=1.0,
    )
    new_ps1.set_peers([env.daemon("ps2").address, env.daemon("ps3").address])
    env.daemons["ps1b"] = new_ps1
    new_ps1.start()
    env.run_for(10.0)
    assert new_ps1.namespace.get("/new").attrs == {"v": "written-while-down"}
    assert new_ps1.namespace.get("/keep").attrs == {"v": "updated"}


def test_delete_replicates(store_env):
    env = store_env
    client = env.store_client(env.net.host("infra"))

    def scenario():
        yield from client.put("/x", {"v": "1"})
        ok = yield from client.delete("/x")
        yield env.sim.timeout(0.5)  # tombstone flush reaches every replica
        value = yield from client.get("/x")
        return ok, value

    ok, value = env.run(scenario())
    assert ok is True
    assert value is None
    for name in ("ps1", "ps2", "ps3"):
        assert env.daemon(name).namespace.get("/x") is None
    # Nothing left to delete: the replica answers cmdFailed, not an error.
    assert env.run(client.delete("/x")) is False
    assert _store_counter(env, "unavailable") == 0


def test_concurrent_writers_converge():
    """Two clients write the same path via different replicas; after
    anti-entropy all replicas agree on one winner (LWW)."""
    env = build_store_env(sync_interval=0.5)
    host = env.net.host("infra")
    c1 = StoreClient(env.ctx, host, [env.daemon("ps1").address], principal="c1")
    c2 = StoreClient(env.ctx, host, [env.daemon("ps2").address], principal="c2")
    # Cut the replicas apart so the writes genuinely conflict.
    env.net.set_partition([["store1", "infra"], ["store2"], ["store3"]])

    def write(client, value):
        yield from client.put("/conflict", {"v": value})

    env.run(write(c1, "from-c1"))
    env.net.clear_partition()
    env.net.set_partition([["store2", "infra"], ["store1"], ["store3"]])
    env.run(write(c2, "from-c2"))
    env.net.clear_partition()
    env.run_for(15.0)
    values = {
        env.daemon(n).namespace.get("/conflict").attrs["v"]
        for n in ("ps1", "ps2", "ps3")
    }
    assert len(values) == 1  # converged


def test_checkpoint_api(store_env):
    env = store_env
    client = env.store_client(env.net.host("infra"))

    def scenario():
        yield from client.save_state("wss", {"workspaces": "2", "next_id": "17"})
        yield env.sim.timeout(0.3)  # balanced reads may hit any replica
        state = yield from client.load_state("wss")
        missing = yield from client.load_state("ghost-app")
        yield from client.clear_state("wss")
        yield env.sim.timeout(0.3)
        cleared = yield from client.load_state("wss")
        return state, missing, cleared

    state, missing, cleared = env.run(scenario())
    assert state == {"workspaces": "2", "next_id": "17"}
    assert missing is None
    assert cleared is None


def test_list_across_cluster(store_env):
    env = store_env
    client = env.store_client(env.net.host("infra"))

    def scenario():
        yield from client.put("/apps/a/state", {})
        yield from client.put("/apps/b/state", {})
        yield env.sim.timeout(0.3)  # balanced list may hit any replica
        return (yield from client.list("/apps"))

    assert env.run(scenario()) == ["/apps/a/state", "/apps/b/state"]
