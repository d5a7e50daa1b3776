"""Scale-down coverage for the sharded store: ``env.drain_store_group()``
under concurrent writes (the knob E28's controller turns that no suite
exercised before this PR), plus client topology refresh across both
scale directions."""

from repro.env import ACEEnvironment


def build(seed=23, *, groups=2, replicas=2):
    env = ACEEnvironment(seed=seed, lease_duration=4.0)
    env.add_infrastructure()
    env.add_persistent_store(replicas=replicas, groups=groups)
    env.boot()
    return env


def test_drain_moves_all_data_to_survivors():
    env = build()
    env.enable_supervision(suspicion_window=2.5, check_interval=0.25)
    env.enable_telemetry(interval=0.5)
    sc = env.store_client(env.daemons["asd"].host, principal="writer")
    for i in range(30):
        env.run(sc.put(f"/d/obj{i:02d}", {"v": str(i)}))

    drained = list(env._store_groups[-1])
    proc = env.drain_store_group()
    env.run_for(15.0)
    assert proc.triggered

    # Topology shrank everywhere: map, groups, env registry.
    assert env._store_shard_map.groups == 1
    assert len(env._store_groups) == 1
    # remove_daemon took everything with it: registry, tier, the host
    # supervisor's ward (the supervisor itself goes with its last ward),
    # and *every* telemetry scope at the address (daemon.<name> and
    # store.<name>), so no publisher reports a dead store.
    for daemon in drained:
        assert not daemon.running
        assert daemon.name not in env.daemons and daemon.name not in env._tiers
        supervisor = env.ctx.supervisors.get(daemon.host.name)
        assert supervisor is None or daemon.name not in supervisor.watched
        assert not [key for key in env.ctx.obs.telemetry_scopes
                    if key[1] == f"{daemon.host.name}:{daemon.port}"]

    # Every object is readable from the survivors alone.
    reader = env.store_client(env.daemons["asd"].host, principal="reader")
    for i in range(30):
        assert env.run(reader.get(f"/d/obj{i:02d}")) == {"v": str(i)}
    assert len(env.run(reader.list("/d"))) == 30


def test_drain_under_concurrent_writes_loses_nothing():
    """Writes keep flowing *during* the handoff and every one survives.

    Two write paths are exercised at once: a topology-provider client
    (refreshes to the survivors immediately) and a client still holding
    the **pre-drain** map, whose writes land on the draining group and
    must ride the misroute-forward path to the new owners instead of
    being applied to a namespace that is being emptied."""
    env = build(seed=29)
    stale = env.store_client(env.daemons["asd"].host, principal="stale")
    stale.topology_provider = None      # pinned to the pre-drain map
    fresh = env.store_client(env.daemons["asd"].host, principal="fresh")
    for i in range(30):
        env.run(fresh.put(f"/w/pre{i:02d}", {"v": str(i)}))

    written = []

    def fresh_writer():
        for i in range(20):
            path = f"/w/mid{i:02d}"
            yield from fresh.put(path, {"v": str(i)})
            written.append(path)
            yield env.sim.timeout(0.1)

    def stale_burst():
        # Fired right at drain start, while the draining daemons are
        # still up: the old map routes some of these at them, and the
        # shrunk map they just installed makes them forward everything.
        for i in range(8):
            path = f"/w/stale{i}"
            yield from stale.put(path, {"v": str(i)})
            written.append(path)

    writer_proc = env.sim.process(fresh_writer(), name="fresh-writer")
    env.run_for(0.35)             # a few provider writes land pre-drain
    drain = env.drain_store_group()
    burst_proc = env.sim.process(stale_burst(), name="stale-burst")
    env.run_for(25.0)
    assert drain.triggered and writer_proc.triggered and burst_proc.triggered
    assert len(written) == 28

    # Every pre-, mid-, and stale-burst write is on the survivors.
    reader = env.store_client(env.daemons["asd"].host, principal="reader")
    for i in range(30):
        assert env.run(reader.get(f"/w/pre{i:02d}")) == {"v": str(i)}
    for i in range(20):
        assert env.run(reader.get(f"/w/mid{i:02d}")) == {"v": str(i)}
    for i in range(8):
        assert env.run(reader.get(f"/w/stale{i}")) == {"v": str(i)}


def test_topology_provider_follows_grow_and_drain():
    """One long-lived client routes correctly across add -> drain."""
    env = build(seed=31)
    sc = env.store_client(env.daemons["asd"].host, principal="longlived")
    env.run(sc.put("/t/a", {"v": "1"}))
    assert len(sc.groups) == 2

    env.add_store_group()
    env.run_for(10.0)
    env.run(sc.put("/t/b", {"v": "2"}))
    assert len(sc.groups) == 3          # provider refreshed on use

    drain = env.drain_store_group()
    env.run_for(15.0)
    assert drain.triggered
    env.run(sc.put("/t/c", {"v": "3"}))
    assert len(sc.groups) == 2
    for path, v in [("/t/a", "1"), ("/t/b", "2"), ("/t/c", "3")]:
        assert env.run(sc.get(path)) == {"v": v}


def test_drain_then_regrow_reuses_no_host_names():
    env = build(seed=37)
    drain = env.drain_store_group()
    env.run_for(12.0)
    assert drain.triggered
    regrown = env.add_store_group()
    assert all(d.name not in ("ps1-1", "ps1-2") for d in regrown)
    env.run_for(8.0)
    assert env._store_shard_map.groups == 2
    sc = env.store_client(env.daemons["asd"].host)
    env.run(sc.put("/r/x", {"v": "y"}))
    assert env.run(sc.get("/r/x")) == {"v": "y"}


def test_drain_last_group_refused():
    import pytest

    env = build(seed=41, groups=1)
    with pytest.raises(RuntimeError):
        env.drain_store_group()
