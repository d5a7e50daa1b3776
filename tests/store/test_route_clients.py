"""The clients the environment's own daemons hold — the WSS's and every
supervisor's — route on ``ctx.store_route`` like every other store
client: per key on a sharded store, over the survivors after a drain, and
across every group when they list."""

from repro.env import ACEEnvironment
from repro.services.wss import WorkspaceRecord, WorkspaceServerDaemon
from repro.store import StoreClient


def build(seed=5, *, groups=2, replicas=2):
    env = ACEEnvironment(seed=seed, lease_duration=2.0)
    env.add_infrastructure()
    env.add_persistent_store(replicas=replicas, groups=groups, sync_interval=1.0)
    env.boot()
    return env


def forwards(env):
    """Every forward any store daemon made, drained ones included."""
    return sum(value for name, value in env.ctx.obs.metrics.snapshot("store.ps").items()
               if name.endswith(".forwards"))


def plant(wss, count):
    """``count`` workspace records, each persisted by the WSS itself."""
    records = [
        WorkspaceRecord(user=f"u{i:02d}", name=f"u{i:02d}-default",
                        session=f"u{i:02d}-default", password=f"pw{i}",
                        server_service=f"vnc.u{i:02d}", server_host="infra",
                        server_port=7000 + i)
        for i in range(count)
    ]
    for record in records:
        wss.workspaces[(record.user, record.name)] = record
        wss.ctx.sim.process(wss._persist_record(record), name="plant")
    return records


def test_a_restarted_wss_restores_every_group():
    env = build()
    wss = env.daemon("wss")
    records = plant(wss, 20)
    env.run_for(2.0)
    assert env.ctx.obs.metrics.counter("wss.wss.persisted").value == 20
    assert forwards(env) == 0
    owners = {env.ctx.store_route.shard_map.shard_for(wss._ws_path(r.user, r.name))
              for r in records}
    assert owners == {0, 1}

    wss.stop()
    env.run_for(1.0)
    reborn = WorkspaceServerDaemon(
        env.ctx, "wss2", wss.host, port=wss.port + 1000, room="machineroom",
    )
    env.daemons["wss2"] = reborn
    reborn.start()
    env.run_for(2.0)
    assert reborn.restored == 20
    for record in records:
        assert reborn.workspaces[(record.user, record.name)].password == record.password


def test_supervisor_checkpoints_go_straight_to_their_owner_group():
    env = build(replicas=3)
    supervisors = env.enable_supervision(
        suspicion_window=2.5, check_interval=0.25, checkpoint_interval=1.0,
    )
    plant(env.daemon("wss"), 4)
    env.run_for(20.0)
    persisted = sum(sup._m_persisted.value for sup in supervisors.values())
    assert persisted >= 20
    assert forwards(env) == 0   # the WSS's own writes included


def test_after_a_drain_no_wss_or_supervisor_op_reaches_a_drained_replica():
    env = build(replicas=3)
    supervisors = env.enable_supervision(
        suspicion_window=2.5, check_interval=0.25, checkpoint_interval=1.0,
    )
    wss = env.daemon("wss")
    plant(wss, 10)
    env.run_for(3.0)

    addressed = []
    clients = [wss._store_client()] + [
        sup._store_client() for sup in supervisors.values()]
    for client in clients:
        call = client._client.call

        def recording(address, *args, _call=call, **kwargs):
            addressed.append(address)
            return _call(address, *args, **kwargs)

        client._client.call = recording

    drained = {d.address for d in env._store_groups[-1]}
    env.drain_store_group(grace=10.0)

    def reads():
        for _ in range(6):
            for sup in supervisors.values():
                yield from sup.load_checkpoint("wss")
            yield from wss._store_client().list("/wss/workspaces")
            yield env.sim.timeout(0.5)

    env.run(reads())
    env.run_for(5.0)   # checkpoint rounds go on, still inside the grace
    assert len(addressed) > 20
    assert not drained & set(addressed)
    assert len(env.run(wss._store_client().list("/wss/workspaces"))) == 10


def test_a_drained_group_owns_nothing_when_the_store_regrows_in_its_grace():
    """Re-grown within the grace window, the store's new last group takes
    the drained group's index; the drained replicas still own no path, so
    what reaches them is forwarded to its owner and nothing is lost when
    they leave."""
    env = build(seed=43)
    host = env.daemons["asd"].host
    departing = [d.address for d in env._store_groups[-1]]
    drain = env.drain_store_group(grace=5.0)
    env.add_store_group()
    pinned = StoreClient(env.ctx, host, departing, principal="pinned")
    fresh = env.store_client(host, principal="fresh")
    for i in range(12):
        env.run(pinned.put(f"/g/pinned{i}", {"v": str(i)}))
        env.run(fresh.put(f"/g/fresh{i}", {"v": str(i)}))
    env.run_for(10.0)
    assert drain.triggered
    assert forwards(env) >= 12
    reader = env.store_client(host, principal="reader")
    for i in range(12):
        assert env.run(reader.get(f"/g/pinned{i}")) == {"v": str(i)}
        assert env.run(reader.get(f"/g/fresh{i}")) == {"v": str(i)}
