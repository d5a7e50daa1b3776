"""Scale-down coverage for the sharded store: ``env.drain_store_group()``
under concurrent writes (the knob E28's controller turns), plus clients
following ``ctx.store_route`` across both scale directions."""

from repro.env import ACEEnvironment
from repro.store import StoreClient


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
    assert env.ctx.store_route.shard_map.groups == 1
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

    Two write paths are exercised at once: a route client (routes to the
    survivors from the drain's instant) and a client pinned to the
    departing group's **pre-drain** replica list, whose writes land on
    the draining group and must ride the misroute-forward path to the new
    owners instead of being applied to a namespace that is being
    emptied."""
    env = build(seed=29)
    host = env.daemons["asd"].host
    departing = [d.address for d in env._store_groups[-1]]
    stale = StoreClient(env.ctx, host, departing, principal="stale")
    fresh = env.store_client(host, principal="fresh")
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
        # still up: the pinned list sends every one of these at them,
        # and owning nothing under the shrunk route they forward them.
        for i in range(8):
            path = f"/w/stale{i}"
            yield from stale.put(path, {"v": str(i)})
            written.append(path)

    writer_proc = env.sim.process(fresh_writer(), name="fresh-writer")
    env.run_for(0.35)             # a few route writes land pre-drain
    drain = env.drain_store_group()
    burst_proc = env.sim.process(stale_burst(), name="stale-burst")
    env.run_for(25.0)
    assert drain.triggered and writer_proc.triggered and burst_proc.triggered
    assert len(written) == 28
    assert env.ctx.obs.metrics.counter("store.ps2-1.forwards").value >= 8

    # Every pre-, mid-, and stale-burst write is on the survivors.
    reader = env.store_client(env.daemons["asd"].host, principal="reader")
    for i in range(30):
        assert env.run(reader.get(f"/w/pre{i:02d}")) == {"v": str(i)}
    for i in range(20):
        assert env.run(reader.get(f"/w/mid{i:02d}")) == {"v": str(i)}
    for i in range(8):
        assert env.run(reader.get(f"/w/stale{i}")) == {"v": str(i)}


def test_topology_provider_follows_grow_and_drain():
    """One long-lived client routes on ``ctx.store_route`` across add ->
    drain: each put goes straight to its owner group, none forwarded."""
    env = build(seed=31)
    sc = env.store_client(env.daemons["asd"].host, principal="longlived")
    env.run(sc.put("/t/a", {"v": "1"}))

    env.add_store_group()
    env.run_for(10.0)
    forwards = _forwards(env)
    for i in range(12):
        env.run(sc.put(f"/t/b{i}", {"v": "2"}))
    assert len(env.ctx.store_route.groups) == 3
    assert _forwards(env) == forwards

    drain = env.drain_store_group()
    env.run_for(15.0)
    assert drain.triggered
    for i in range(12):
        env.run(sc.put(f"/t/c{i}", {"v": "3"}))
    assert len(env.ctx.store_route.groups) == 2
    assert _forwards(env) == forwards
    assert env.run(sc.get("/t/a")) == {"v": "1"}
    for i in range(12):
        assert env.run(sc.get(f"/t/b{i}")) == {"v": "2"}
        assert env.run(sc.get(f"/t/c{i}")) == {"v": "3"}


def _forwards(env):
    """Every forward any store daemon made, drained ones included."""
    return sum(value for name, value in env.ctx.obs.metrics.snapshot("store.ps").items()
               if name.endswith(".forwards"))


def test_drain_then_regrow_reuses_no_host_names():
    env = build(seed=37)
    drain = env.drain_store_group()
    env.run_for(12.0)
    assert drain.triggered
    regrown = env.add_store_group()
    assert all(d.name not in ("ps1-1", "ps1-2") for d in regrown)
    env.run_for(8.0)
    assert env.ctx.store_route.shard_map.groups == 2
    sc = env.store_client(env.daemons["asd"].host)
    env.run(sc.put("/r/x", {"v": "y"}))
    assert env.run(sc.get("/r/x")) == {"v": "y"}


def test_drain_last_group_refused():
    import pytest

    env = build(seed=41, groups=1)
    with pytest.raises(RuntimeError):
        env.drain_store_group()
