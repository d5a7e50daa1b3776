"""Supervision-plane integration: detection, restart, fencing (E26)."""

import pytest

from repro.core import CallPolicy
from repro.env import ACEEnvironment
from repro.faults.controller import ChaosController
from repro.faults.plan import FaultPlan
from repro.lang import ACECmdLine
from repro.lang.command import CLIENT_ID_ARG, CLIENT_SEQ_ARG, is_ok


SUSPICION = 2.5


def build(seed=3, *, store_replicas=2, lease=2.0):
    env = ACEEnvironment(seed=seed, lease_duration=lease)
    env.add_infrastructure()
    env.add_directory_watcher()
    if store_replicas:
        env.add_persistent_store(replicas=store_replicas)
    env.boot()
    supervisors = env.enable_supervision(
        suspicion_window=SUSPICION, check_interval=0.25, checkpoint_interval=1.0
    )
    return env, supervisors


def test_a_crash_ends_everything_its_host_ran():
    """A host that crashes and is back within one lease runs nothing of
    its earlier epoch: its daemons, their threads, the apps they launched
    and the host's supervisor all ended at the crash, and none of them
    comes back unless something relaunches it."""
    env, supervisors = build(store_replicas=0)
    host = env.add_workstation("w1", room="lab")
    env.run_for(1.0)
    daemons = [env.daemons["hrm.w1"], env.daemons["hal.w1"]]
    app = daemons[1].launch("idle")
    supervisor = supervisors["w1"]
    hrm, hal = daemons
    assert list(host.residents) == [hrm, supervisor, hal, app]   # start order

    env.net.crash_host("w1")
    env.run_for(0.5)
    env.net.restart_host("w1")
    env.run_for(env.ctx.lease_duration + 1.0)

    assert host.residents == {}
    for daemon in daemons:
        assert not daemon.running and not daemon._main_proc.is_alive
        assert daemon._child_procs == {}
        assert env.daemons[daemon.name] is daemon
    assert (app.state.value, app.exit_reason) == ("crashed", "host down")
    assert not supervisor.running
    assert not any(proc.is_alive for proc in supervisor._loops)
    assert supervisor.restarts == 0


def test_kill_and_recover_roomdb():
    env, supervisors = build()
    client = env.client(env.daemons["asd"].host, principal="probe")
    env.run(client.call(
        env.ctx.roomdb_address,
        ACECmdLine("registerRoom", room="lab", building="b1", dims=(4.0, 5.0, 3.0)),
    ))
    env.run_for(3.0)  # at least one checkpoint lands

    corpse = env.daemons["roomdb"]
    corpse.kill()
    killed_at = env.sim.now
    env.run_for(SUSPICION + 3.0)

    reincarnation = env.daemons["roomdb"]
    assert reincarnation is not corpse
    assert reincarnation.running and reincarnation.incarnation == 1
    # Checkpointed state survived the crash.
    assert "lab" in reincarnation.rooms
    assert reincarnation.rooms["lab"].dims == (4.0, 5.0, 3.0)
    # The reincarnation serves clients again.
    reply = env.run(client.call(
        env.ctx.roomdb_address, ACECmdLine("lookupRoom", room="lab"), CallPolicy()
    ))
    assert is_ok(reply)
    sup = supervisors["infra"]
    assert sup.restarts >= 1
    assert sup.incarnations["roomdb"] == 1
    # MTTR was recorded and is bounded by suspicion window + restart cost.
    hist = env.obs.metrics.histogram("recovery.mttr_ms")
    assert hist.count >= 1
    assert hist.maximum <= (SUSPICION + lease_slack(env) + 2.0) * 1000.0
    assert env.sim.now - killed_at < 60.0


def lease_slack(env):
    """Beats ride lease renewals: detection lag adds up to one interval."""
    return env.ctx.lease_duration * env.ctx.lease_renew_fraction


def test_kill_and_recover_store_replica():
    env, _ = build(seed=5)
    sc = env.store_client(env.daemons["asd"].host)
    env.run(sc.put("/apps/demo/state", {"k": "v1"}))
    env.run_for(3.0)

    corpse = env.daemons["ps1"]
    corpse.kill()
    env.run_for(SUSPICION + 4.0)

    reincarnation = env.daemons["ps1"]
    assert reincarnation is not corpse
    assert reincarnation.running and reincarnation.incarnation == 1
    # The namespace came back from the supervisor-held checkpoint.
    assert reincarnation.namespace.get("/apps/demo/state") is not None
    attrs = env.run(sc.get("/apps/demo/state"))
    assert attrs == {"k": "v1"}
    # env store-group bookkeeping follows the reincarnation.
    assert any(reincarnation is d for grp in env._store_groups for d in grp)


def plant_workspace(wss):
    """Behind WSS's own persistence: only a checkpoint can carry it over."""
    from repro.services.wss import WorkspaceRecord

    wss.workspaces[("ada", "ada-default")] = WorkspaceRecord(
        user="ada", name="ada-default", session="ada-default",
        password="pw42", server_service="vnc.ada-default",
        server_host="infra", server_port=7001,
    )


def test_wss_state_survives_kill():
    env, _ = build(seed=7)
    wss = env.daemons["wss"]
    plant_workspace(wss)
    env.run_for(3.0)
    wss.kill()
    env.run_for(SUSPICION + 3.0)

    reincarnation = env.daemons["wss"]
    assert reincarnation is not wss
    assert reincarnation.incarnation == 1
    record = reincarnation.workspaces[("ada", "ada-default")]
    assert record.password == "pw42"
    assert record.server_port == 7001


@pytest.mark.parametrize("store_up", [True, False], ids=["store-up", "store-down"])
def test_a_supervisor_holding_no_copy_restores_from_the_store(store_up):
    """``load_checkpoint``: a supervisor that itself came back has only the
    durable copy under ``/recovery/checkpoints``.  With every store replica
    down the restart still happens, from a blank slate — the store's
    failure stays inside ``persist_checkpoint`` / ``load_checkpoint``."""
    env, supervisors = build(seed=7)
    sup = supervisors["infra"]
    wss = env.daemons["wss"]
    plant_workspace(wss)
    env.run_for(3.0)   # WSS checkpoints into the store
    stored = env.run(env.store_client(wss.host).get("/recovery/checkpoints/wss"))
    assert stored == sup._checkpoints["wss"]
    if not store_up:
        for group in env._store_groups:
            for replica in group:
                env.net.crash_host(replica.host.name)
        persisted = sup._m_persisted.value
        env.run_for(2.0)   # checkpoint rounds go on; none reaches the store
        assert sup._m_persisted.value == persisted
    wss.kill()
    sup._checkpoints.clear()   # the in-memory copies died with the old supervisor
    env.run_for(SUSPICION + 3.0)

    reincarnation = env.daemons["wss"]
    assert reincarnation is not wss
    assert reincarnation.running and reincarnation.incarnation == 1
    restarted = env.ctx.trace.last("daemon-restarted")
    assert restarted.detail["service"] == "wss"
    listing = env.run(env.client(wss.host, principal="probe").call(
        reincarnation.address, ACECmdLine("listWorkspaces", user="ada")
    ))
    if store_up:
        assert restarted.detail["restored"] == 1
        assert listing.get("workspaces") == ("ada-default",)
    else:
        assert restarted.detail["restored"] == 0
        assert listing.int("count") == 0
    # The supervisor's loops outlived the store: the next death is handled too.
    env.daemons["roomdb"].kill()
    env.run_for(SUSPICION + 3.0)
    assert env.daemons["roomdb"].incarnation == 1 and sup.restarts == 2


def test_false_suspicion_during_partition_spawns_no_second_incarnation():
    """Lease expiry caused by a partition must be fenced: the daemon is
    alive, so the supervisor re-arms instead of double-spawning."""
    env = ACEEnvironment(seed=11, lease_duration=2.0)
    env.add_infrastructure()
    ws = env.add_workstation("ws1")
    env.boot()
    supervisors = env.enable_supervision(
        suspicion_window=SUSPICION, check_interval=0.25,
    )
    sup = supervisors["ws1"]
    daemon = env.daemons["hrm.ws1"]

    plan = FaultPlan().partition([["ws1"], ["infra"]], at=1.0, heal_after=8.0)
    ChaosController(env.net, plan, daemons=env.daemons).start()
    env.run_for(1.0 + 8.0 + 4.0)

    assert sup.false_suspicions >= 1
    assert sup.restarts == 0
    assert env.daemons["hrm.ws1"] is daemon       # same instance, fenced
    assert daemon.incarnation == 0 and daemon.running
    assert ws.up


def test_asd_fences_stale_incarnation_register():
    env, _ = build(seed=13, store_replicas=0)
    client = env.client(env.daemons["asd"].host, principal="probe")
    asd = env.daemons["asd"]

    def register(inc):
        cmd = ACECmdLine(
            "register", name="svc.x", host="infra", port=9901,
            room="machineroom", cls="ACEService",
        )
        if inc:
            cmd = cmd.with_args(inc=inc)
        return env.run(client.call(env.asd_address, cmd, CallPolicy(), check=False))

    assert is_ok(register(2))
    stale = register(1)
    assert not is_ok(stale)
    assert "stale incarnation" in stale.str("reason", "")
    assert asd.fenced_registers == 1
    assert is_ok(register(2))      # same incarnation may re-register
    assert is_ok(register(3))      # and a newer one supersedes


def test_kill_fault_in_chaos_plan_triggers_recovery():
    env, supervisors = build(seed=17)
    plan = FaultPlan().kill_daemon("roomdb", at=1.0)
    ChaosController(env.net, plan, daemons=env.daemons).start()
    env.run_for(1.0 + SUSPICION + 3.0)
    assert supervisors["infra"].restarts >= 1
    assert env.daemons["roomdb"].incarnation == 1
    assert env.daemons["roomdb"].running


def test_stamped_retry_replays_across_crash():
    """Crash-between-execute-and-retry: the reincarnation answers the
    retried command from its checkpointed dedup cache (exactly-once)."""
    env, _ = build(seed=19)
    client = env.client(env.daemons["asd"].host, principal="dup")
    stamped = ACECmdLine("registerRoom", room="dup-room").with_args(
        **{CLIENT_ID_ARG: "dup.c0", CLIENT_SEQ_ARG: 7}
    )
    first = env.run(client.call(env.ctx.roomdb_address, stamped))
    assert is_ok(first)
    env.run_for(2.0)  # checkpoint captures the dedup entry
    env.daemons["roomdb"].kill()
    env.run_for(SUSPICION + 3.0)

    reincarnation = env.daemons["roomdb"]
    hits_before = reincarnation._m_dedup_hits.value
    replay = env.run(client.call(env.ctx.roomdb_address, stamped))
    assert replay.to_string() == first.to_string()
    assert reincarnation._m_dedup_hits.value == hits_before + 1


def test_negative_lookup_cache_backoff():
    env, _ = build(seed=23, store_replicas=0)
    cache = env.ctx.lookup_cache
    assert cache.negative_ttl > 0      # enable_supervision configured it
    client = env.client(env.daemons["asd"].host, principal="probe")

    from repro.services.asd import asd_lookup

    def miss():
        return (yield from asd_lookup(client, env.asd_address, name="ghost"))

    assert env.run(miss()) == []
    negative_before = cache.negative_hits
    assert env.run(miss()) == []       # served from the negative entry
    assert cache.negative_hits == negative_before + 1


def test_supervision_is_off_by_default():
    env = ACEEnvironment(seed=29, lease_duration=2.0)
    env.add_infrastructure(with_wss=False, with_idmon=False)
    env.boot()
    assert env.ctx.supervisors == {}
    assert env.ctx.idempotent_retries is False
    assert env.ctx.lookup_cache.negative_ttl == 0.0
    # Off-path registration carries no incarnation argument.
    record = env.daemons["asd"].records["roomdb"]
    assert record.inc == 0
    assert record.to_wire().count("|") == 4   # legacy 5-field wire form
