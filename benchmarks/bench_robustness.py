"""E19 — restart & robust applications (§5.2–5.3 + Ch. 6).

* crash-detection + restart latency, notification-driven vs sweep-driven;
* state preserved across a crash (checkpoint distance);
* robust failover when the whole host dies.
"""

import pytest

from repro.apps.robust import CheckpointingCounterApp, RestartManagerDaemon
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.metrics import ResultTable


def build(seed=100, sweep_interval=8.0):
    env = ACEEnvironment(seed=seed, lease_duration=20.0)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False,
                           srm_poll_interval=2.0)
    env.add_workstation("w1", room="lab")
    env.add_workstation("w2", room="lab")
    env.add_persistent_store(replicas=3, sync_interval=1.0)
    env.registry.register(
        "counter", lambda ctx, host, args: CheckpointingCounterApp(ctx, host, args))
    env.add_daemon(RestartManagerDaemon(env.ctx, "restartmgr", env.net.host("infra"),
                                        room="machineroom",
                                        sweep_interval=sweep_interval))
    env.boot()
    env.run_for(3.0)
    return env


def manage(env, app_id, cls, host, interval=0.2):
    def go():
        client = env.client(env.net.host("infra"), principal="admin")
        return (yield from client.call(
            env.daemon("restartmgr").address,
            ACECmdLine("manageApp", app="counter", app_id=app_id, cls=cls,
                       args=f"app_id={app_id} interval={interval}", host=host),
        ))

    return env.run(go())


def test_e19_restart_latency_and_state(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E19: crash recovery (notification-driven)",
        ["metric", "value"],
    ))

    def run():
        env = build()
        reply = manage(env, "c1", "restart", "w1")
        env.run_for(4.0)
        app = env.daemon("hal.w1").apps[reply["pid"]]
        count_before = app.count
        t0 = env.sim.now
        app.crash()
        deadline = env.sim.now + 30.0
        while env.sim.now < deadline and not env.trace.filter(kind="app-recovered"):
            env.run_for(0.1)
        recovery = env.trace.filter(kind="app-recovered")[-1].time - t0
        managed = env.daemon("restartmgr").managed["c1"]
        new_app = env.daemon(f"hal.{managed.host}").apps[managed.pid]
        env.run_for(2.0)
        lost_ticks = max(0, count_before - (new_app.restored_from or 0))
        return recovery, lost_ticks, managed.host

    recovery, lost_ticks, host = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add("detection+restart latency (s)", round(recovery, 3))
    table.add("work lost (checkpoint ticks)", lost_ticks)
    table.add("restarted on", host)
    assert recovery < 2.0   # notifications beat any reasonable poll period
    assert lost_ticks <= 1  # at most one checkpoint interval of work lost
    assert host == "w1"     # restart class pins the original host


def test_e19_host_death_failover(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E19: robust app failover after host death (sweep-driven)",
        ["metric", "value"],
    ))

    def run():
        env = build(seed=101, sweep_interval=5.0)
        reply = manage(env, "c2", "robust", "w1")
        env.run_for(4.0)
        app = env.daemon("hal.w1").apps[reply["pid"]]
        count_before = app.count
        t0 = env.sim.now
        env.net.crash_host("w1")  # HAL dies too: no notification possible
        deadline = env.sim.now + 60.0
        while env.sim.now < deadline and not env.trace.filter(kind="app-recovered"):
            env.run_for(0.25)
        recovered = env.trace.filter(kind="app-recovered")
        recovery = recovered[-1].time - t0 if recovered else float("inf")
        managed = env.daemon("restartmgr").managed["c2"]
        env.run_for(3.0)
        new_app = env.daemon(f"hal.{managed.host}").apps[managed.pid]
        return recovery, managed.host, count_before, new_app.count

    recovery, new_host, before, after = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add("detection+failover latency (s)", round(recovery, 3))
    table.add("failed over to", new_host)
    table.add("count at crash / after recovery", f"{before} / {after}")
    assert new_host != "w1"
    assert recovery < 20.0  # bounded by the sweep interval + relaunch
    assert after >= before - 1  # state survived via the persistent store


def test_e19_detection_mode_comparison(benchmark, table_printer):
    """Ablation: recovery latency with fast vs slow sweeps when only the
    sweep can detect (host death), vs notification path (app crash)."""
    table = table_printer(ResultTable(
        "E19: detection path vs recovery latency",
        ["scenario", "recovery_s"],
    ))

    def run():
        rows = []
        # Notification path (app crash, HAL alive).
        env = build(seed=102, sweep_interval=30.0)  # sweep effectively off
        reply = manage(env, "c3", "restart", "w1")
        env.run_for(2.0)
        app = env.daemon("hal.w1").apps[reply["pid"]]
        t0 = env.sim.now
        app.crash()
        while not env.trace.filter(kind="app-recovered") and env.sim.now < t0 + 40:
            env.run_for(0.1)
        rows.append(("app crash via notification",
                     env.trace.filter(kind="app-recovered")[-1].time - t0))
        # Sweep path (host death) at two sweep periods.
        for sweep in (4.0, 12.0):
            env = build(seed=103, sweep_interval=sweep)
            manage(env, "c4", "robust", "w1")
            env.run_for(2.0)
            t0 = env.sim.now
            env.net.crash_host("w1")
            while not env.trace.filter(kind="app-recovered") and env.sim.now < t0 + 90:
                env.run_for(0.25)
            recovered = env.trace.filter(kind="app-recovered")
            rows.append((f"host death, sweep={sweep:.0f}s",
                         recovered[-1].time - t0 if recovered else float("inf")))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for label, recovery in rows:
        table.add(label, round(recovery, 3))
    notif, sweep_fast, sweep_slow = (r[1] for r in rows)
    assert notif < sweep_fast <= sweep_slow * 1.5
