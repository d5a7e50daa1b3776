"""Batched-replication buffer edges (E25): shutdown flush, bounded lag
under a dead peer, a flush to a peer whose host came back, and
batched-vs-sync convergence at both shard counts."""

import pytest

from repro.env import ACEEnvironment


def build_env(replicas=3, groups=1, sync_interval=2.0, seed=7, **store_kwargs):
    env = ACEEnvironment(seed=seed, lease_duration=10.0)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.add_persistent_store(
        replicas=replicas, groups=groups, sync_interval=sync_interval,
        **store_kwargs,
    )
    env.boot()
    return env


def test_shutdown_flushes_buffered_writes():
    """A graceful stop drains the replication buffers first, so no
    acknowledged write is lost even with lazy flush settings."""
    # Flush triggers pushed out of reach: age 60s, batch 1000, AE 120s.
    env = build_env(sync_interval=120.0, repl_flush_age=60.0,
                    repl_batch_size=1000)
    client = env.store_client(env.net.host("infra"))

    def scenario():
        for i in range(5):
            yield from client.put(f"/pending/o{i}", {"v": str(i)})

    env.run(scenario())
    ps1 = env.daemon("ps1")
    assert sum(len(b) for b in ps1._repl_buffers.values()) == 10  # 5 x 2 peers
    assert env.daemon("ps2").namespace.get("/pending/o0") is None
    ps1.stop()
    env.run_for(1.0)
    for name in ("ps2", "ps3"):
        ns = env.daemon(name).namespace
        for i in range(5):
            assert ns.get(f"/pending/o{i}").attrs == {"v": str(i)}


def test_dead_peer_lag_is_bounded_and_repaired():
    """With a peer down, its buffer is capped (oldest writes shed) and the
    counter records the shedding; after the peer rejoins, anti-entropy
    repairs the gap completely."""
    env = build_env(replicas=2, sync_interval=1.0, repl_buffer_cap=8,
                    repl_batch_size=4)
    client = env.store_client(env.net.host("infra"))
    ps1, ps2 = env.daemon("ps1"), env.daemon("ps2")
    env.net.crash_host("store2")

    def scenario():
        for i in range(30):
            yield from client.put(f"/lag/o{i}", {"v": str(i)})

    env.run(scenario())
    env.run_for(2.0)
    buf = ps1._repl_buffers.get(ps2.address, {})
    assert len(buf) <= 8
    dropped = env.ctx.obs.metrics.counter("store.ps1.replication_lag_dropped")
    assert dropped.value > 0

    # Rejoin: a fresh replica process on the restarted host pulls the whole
    # namespace back via (incremental) anti-entropy.
    env.net.restart_host("store2")
    import repro.store.server as server_mod

    new_ps2 = server_mod.PersistentStoreDaemon(
        env.ctx, "ps2b", env.net.host("store2"), port=ps2.port + 100,
        room="machineroom", sync_interval=1.0,
    )
    new_ps2.set_peers([ps1.address])
    env.daemons["ps2b"] = new_ps2
    new_ps2.start()
    env.run_for(10.0)
    assert new_ps2.namespace.namespace_hash() == ps1.namespace.namespace_hash()
    for i in range(30):
        assert new_ps2.namespace.get(f"/lag/o{i}").attrs == {"v": str(i)}


def test_flush_after_a_peer_restart_reaches_the_new_incarnation():
    """The flush's pooled channel to a peer whose host crashed and came
    back was reset: the pool redials the new incarnation, and the batch
    lands there on that flush — nothing re-buffered, no cooldown."""
    # anti-entropy out of reach: only a flush can carry the writes
    env = build_env(replicas=2, sync_interval=600.0)
    client = env.store_client(env.net.host("infra"))
    ps1, ps2 = env.daemon("ps1"), env.daemon("ps2")

    def put(prefix):
        for i in range(5):
            yield from client.put(f"/{prefix}/o{i}", {"v": str(i)})

    env.run(put("before"))
    env.run_for(0.5)
    assert ps2.namespace.get("/before/o4").attrs == {"v": "4"}
    env.net.crash_host("store2")
    env.net.restart_host("store2")
    reborn = env.daemons["ps2"] = ps2.respawn(incarnation=1)
    reborn.start()
    env.run_for(1.0)
    sent = ps1.replications_sent

    env.run(put("after"))
    env.run_for(0.5)
    for i in range(5):
        assert reborn.namespace.get(f"/after/o{i}").attrs == {"v": str(i)}
    assert ps1.replications_sent == sent + 5
    assert env.ctx.obs.metrics.counter("store.ps1.replications_failed").value == 0
    assert ps1._peer_down_until == {}
    assert not ps1._repl_buffers[reborn.address]


@pytest.mark.parametrize("groups", [1, 2])
def test_batched_and_sync_paths_converge_identically(groups):
    """The same deterministic workload run under batched and per-object
    replication must converge every replica to the same namespace hash —
    batching changes the wire schedule, never the data."""
    def run_mode(batched):
        env = build_env(replicas=2, groups=groups, sync_interval=0.5,
                        batch_replication=batched)
        client = env.store_client(env.net.host("infra"))

        def workload():
            for i in range(40):
                yield from client.put(f"/conv/o{i}", {"v": str(i)})
            for i in range(0, 40, 5):
                yield from client.delete(f"/conv/o{i}")
            for i in range(0, 40, 4):
                yield from client.put(f"/conv/o{i}", {"v": f"again-{i}"})

        env.run(workload())
        env.run_for(6.0)
        hashes = {}
        for g in range(groups):
            names = (
                [f"ps{g + 1}-{i + 1}" for i in range(2)] if groups > 1
                else ["ps1", "ps2"]
            )
            group_hashes = {
                env.daemon(n).namespace.namespace_hash() for n in names
            }
            assert len(group_hashes) == 1  # replicas inside a group agree
            hashes[g] = group_hashes.pop()
        return hashes

    assert run_mode(batched=True) == run_mode(batched=False)
