"""One life cycle: a daemon joins through ``add_daemon`` (and reaches the
planes whether it arrives before they are enabled or after), leaves
through ``remove_daemon`` (and the planes leave an emptied host with it),
and comes back through ``ACEDaemon.respawn`` built the way its corpse
was."""

import pytest

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.obs.cluster import ClusterSnapshot, TelemetryPublisherDaemon
from repro.recovery.supervisor import RECOVERY_SCOPE
from repro.services.asd import ServiceDirectoryDaemon
from repro.store.server import PersistentStoreDaemon
from tests.core.conftest import EchoDaemon

SUSPICION = 2.5

#: how a topology grows, by the five routes a daemon can arrive
GROWTH = {
    "workstation": lambda env: env.add_workstation("late1", room="lab"),
    "device": lambda env: env.add_device(
        EchoDaemon, "late.echo", env.net.host("lab1")),
    "store_group": lambda env: env.add_store_group(),
    "asd_replica": lambda env: env.add_asd_replica(),
    "hand_built": lambda env: env.add_daemon(
        EchoDaemon(env.ctx, "late.echo", env.add_host("late2"))),
}


def booted(seed=5):
    env = ACEEnvironment(seed=seed, lease_duration=4.0)
    env.add_infrastructure(srm_poll_interval=1.0)
    env.add_persistent_store(replicas=2, groups=2)
    env.add_workstation("lab1", room="lab")
    env.boot()
    return env


#: which planes are on, in the order every caller enables them
PLANES = {
    "all": ("supervision", "telemetry"),
    "supervision": ("supervision",),
    "telemetry": ("telemetry",),
}


def enable_planes(env, planes=PLANES["all"]):
    if "supervision" in planes:
        env.enable_supervision(
            suspicion_window=SUSPICION, check_interval=0.25,
            checkpoint_interval=1.0,
        )
    if "telemetry" in planes:
        env.enable_telemetry(interval=0.5)


def plane_membership(env):
    wards = {host: sorted(supervisor.watched)
             for host, supervisor in env.ctx.supervisors.items()}
    publishers = sorted(
        (d.name, d.host.name) for d in env.daemons.values()
        if isinstance(d, TelemetryPublisherDaemon)
    )
    return wards, publishers


@pytest.mark.parametrize("planes", sorted(PLANES))
@pytest.mark.parametrize("route", sorted(GROWTH))
def test_late_joiners_reach_the_planes(route, planes):
    late = booted()
    enable_planes(late, PLANES[planes])
    before = set(late.daemons)
    GROWTH[route](late)

    newcomers = [late.daemons[n] for n in late.daemons if n not in before]
    assert [d for d in newcomers
            if not isinstance(d, TelemetryPublisherDaemon)]
    for daemon in newcomers:
        supervisor = late.ctx.supervisors.get(daemon.host.name)
        exempt = (isinstance(daemon, ServiceDirectoryDaemon)
                  or "supervision" not in PLANES[planes])
        watched = supervisor is not None and daemon.name in supervisor.watched
        assert watched is not exempt, daemon.name
        if supervisor is not None:
            assert supervisor.running
    wards, publishers = plane_membership(late)
    for host in {d.host.name for d in newcomers}:
        assert publishers.count((f"telem.{host}", host)) == \
            ("telemetry" in PLANES[planes])

    # ...and that is exactly what the same topology looks like when it is
    # grown first and the planes are switched on afterwards.
    early = booted()
    GROWTH[route](early)
    enable_planes(early, PLANES[planes])
    assert (wards, publishers) == plane_membership(early)


def test_a_drained_host_is_left_empty():
    """The planes leave a host with its last daemon: once a store group is
    drained, its hosts run no publisher and no supervisor, and the
    supervision plane's scope is still published from a live host."""
    env = booted()
    enable_planes(env)
    # the group grown last hosts the newest supervisors, so the plane's
    # scope is published from one of its hosts until the drain
    hosts = [d.host for d in env.add_store_group()]
    env.run_for(5.0)
    assert env.ctx.obs.telemetry_scopes[RECOVERY_SCOPE].host == hosts[-1].name
    env.drain_store_group()
    env.run_for(15.0)

    supervisors = env.ctx.supervisors
    for host in hosts:
        assert host.residents == {}, host.name
        assert f"telem.{host.name}" not in env.daemons
        assert host.name not in supervisors or not supervisors[host.name].running
    recovery = env.ctx.obs.telemetry_scopes[RECOVERY_SCOPE]
    assert f"telem.{recovery.host}" in env.daemons


def test_a_drained_host_leaves_the_aggregator_and_the_registry():
    """A store grown to two groups at seed 5, then drained: the aggregator
    drops the departed publishers and every series they pushed, and the
    metrics registry drops the supervisor, publisher and daemon views of
    the drained hosts."""
    env = ACEEnvironment(seed=5, lease_duration=4.0)
    env.add_infrastructure(srm_poll_interval=1.0)
    env.add_persistent_store(replicas=2, groups=1)
    env.add_workstation("lab1", room="lab")
    env.boot()
    enable_planes(env)
    hosts = [d.host.name for d in env.add_store_group()]
    assert hosts == ["store2-1", "store2-2"]
    env.run_for(5.0)
    aggregator = env.daemon("telemetry")
    views = env.ctx.obs.metrics._views
    assert set(hosts) <= set(ClusterSnapshot.capture(aggregator)["publishers"])
    assert {f"recovery.{h}" for h in hosts} <= set(views)

    env.drain_store_group()
    env.run_for(15.0)

    publishers = ClusterSnapshot.capture(aggregator)["publishers"]
    assert [h for h in publishers if h.startswith("store2-")] == []
    assert set(publishers) == {"infra", "lab1", "store1", "store2"}
    departed = ("ps2-", "store.ps2-", "telem.store2-")
    assert [key for key in aggregator.series if key[0].startswith(departed)] == []
    assert any(key[0] == "ps2" for key in aggregator.series)   # a namesake stays
    for host in hosts:
        assert f"recovery.{host}" not in views
        assert f"telemetry.pub.{host}" not in views
        assert f"daemon.telem.{host}.watchers" not in views
    assert [v for v in views if v.startswith("daemon.ps2-")] == []
    assert "recovery.store2" in views and "telemetry.pub.store2" in views


def loaded():
    env = booted(seed=9)
    env.add_id_devices(env.net.host("lab1"))
    env.add_store_group()
    enable_planes(env)
    env.enable_autoscaling(interval=0.5)
    return env


def test_respawn_rebuilds_every_daemon_from_its_constructor_keywords():
    env = loaded()
    for daemon in list(env.daemons.values()):
        twin = daemon.respawn(daemon.incarnation + 1)
        expected = dict(daemon._init_kwargs, port=daemon.port,
                        incarnation=daemon.incarnation + 1)
        if isinstance(daemon, PersistentStoreDaemon):
            # ...except its peers and group, which are today's; the shard
            # map it routes on is the environment's, not a keyword
            expected.update(peers=daemon.peers, group_index=daemon.group_index)
        assert twin._init_kwargs == expected, daemon.name
        assert type(twin) is type(daemon) and twin.address == daemon.address
    assert env.daemons["hal.lab1"].respawn(1).registry is env.registry
    assert env.daemons["srm"].respawn(1).poll_interval == 1.0
    assert env.daemons["autoscaler"].respawn(1).actuators.keys() == \
        env.daemons["autoscaler"].actuators.keys()


def test_reincarnations_work_like_their_corpses():
    env = loaded()
    corpses = {name: env.daemons[name] for name in ("hal.lab1", "srm", "telemetry")}
    for corpse in corpses.values():
        corpse.kill()
    env.run_for(SUSPICION + 4.0)
    for name, corpse in corpses.items():
        assert env.daemons[name] is not corpse
        assert env.daemons[name].running and env.daemons[name].incarnation == 1

    client = env.client(env.net.host("lab1"), principal="probe")
    reply = env.run(client.call(
        env.daemons["hal.lab1"].address, ACECmdLine("launch", app="vncserver")))
    assert reply.name == "cmdOk" and reply.get("app") == "vncserver"
    assert env.daemons["srm"].poll_interval == 1.0
    topology = ClusterSnapshot.capture(env.daemons["telemetry"])["topology"]
    assert topology["store_groups"] == [
        [d.name for d in group] for group in env._store_groups]
    assert topology["supervisors"]["lab1"]["restarts"] == 1
