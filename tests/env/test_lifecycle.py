"""One life cycle: a daemon joins through ``add_daemon`` (and reaches the
planes whether it arrives before they are enabled or after), and comes
back through ``ACEDaemon.respawn`` built the way its corpse was."""

import pytest

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.obs.cluster import ClusterSnapshot, TelemetryPublisherDaemon
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


def enable_planes(env, include=None):
    env.enable_supervision(
        suspicion_window=SUSPICION, check_interval=0.25,
        checkpoint_interval=1.0, include=include,
    )
    env.enable_telemetry(interval=0.5)


def plane_membership(env):
    wards = {host: sorted(supervisor.watched)
             for host, supervisor in env.ctx.supervisors.items()}
    publishers = sorted(
        (d.name, d.host.name) for d in env.daemons.values()
        if isinstance(d, TelemetryPublisherDaemon)
    )
    return wards, publishers


@pytest.mark.parametrize("include", [None, ["roomdb", "hal.lab1"]],
                         ids=["all", "include"])
@pytest.mark.parametrize("route", sorted(GROWTH))
def test_late_joiners_reach_the_planes(route, include):
    late = booted()
    enable_planes(late, include)
    before = set(late.daemons)
    GROWTH[route](late)

    newcomers = [late.daemons[n] for n in late.daemons if n not in before]
    assert [d for d in newcomers
            if not isinstance(d, TelemetryPublisherDaemon)]
    for daemon in newcomers:
        supervisor = late.ctx.supervisors.get(daemon.host.name)
        exempt = isinstance(daemon, ServiceDirectoryDaemon) or (
            include is not None and daemon.name not in include)
        watched = supervisor is not None and daemon.name in supervisor.watched
        assert watched is not exempt, daemon.name
        if supervisor is not None:
            assert supervisor.running
    wards, publishers = plane_membership(late)
    for host in {d.host.name for d in newcomers}:
        assert publishers.count((f"telem.{host}", host)) == 1

    # ...and that is exactly what the same topology looks like when it is
    # grown first and the planes are switched on afterwards.
    early = booted()
    GROWTH[route](early)
    enable_planes(early, include)
    assert (wards, publishers) == plane_membership(early)


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
            # ...except the topology, which is today's: ps1-* and ps2-*
            # were built into a two-group map that has since grown
            expected.update(
                peers=daemon.peers, shard_map=env._store_shard_map,
                group_addresses=env._store_group_addresses(),
            )
            assert twin.shard_map.groups == 3 and len(twin.group_addresses) == 3
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
