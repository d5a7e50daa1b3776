#!/usr/bin/env python
"""Failure handling: leases, the restart manager, and the persistent store.

Crash a device daemon's host (leases purge it from the ASD), crash a
managed robust application (restart manager recovers it with its state),
and kill a store replica (the cluster keeps serving, the rejoined replica
resyncs) — §2.4, §5.2–5.3, Chapter 6.

Run:  python examples/robust_services.py
"""

from repro import ACECmdLine, ACEEnvironment
from repro.apps.robust import CheckpointingCounterApp, RestartManagerDaemon
from repro.services.devices import VCC4CameraDaemon


def main() -> None:
    env = ACEEnvironment(seed=77, lease_duration=6.0)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False,
                           srm_poll_interval=2.0)
    env.add_workstation("w1", room="lab")
    env.add_workstation("w2", room="lab")
    cam_host = env.add_workstation("cam-host", room="hawk")
    env.add_device(VCC4CameraDaemon, "camera", cam_host, room="hawk")
    env.add_persistent_store(replicas=3, sync_interval=1.0)
    env.registry.register(
        "counter", lambda ctx, host, args: CheckpointingCounterApp(ctx, host, args))
    env.add_daemon(RestartManagerDaemon(env.ctx, "restartmgr", env.net.host("infra"),
                                        room="machineroom", sweep_interval=4.0))
    env.boot()
    env.run_for(3.0)
    asd = env.daemon("asd")
    print(f"[t={env.sim.now:6.1f}] booted; directory holds: {sorted(asd.records)}")

    # ---- 1. Lease purge -------------------------------------------------
    print(f"\n[t={env.sim.now:6.1f}] crashing the camera's host ...")
    env.net.crash_host("cam-host")
    env.run_for(env.ctx.lease_duration * 1.6)
    print(f"[t={env.sim.now:6.1f}] 'camera' in directory after ~1.5 leases: "
          f"{'camera' in asd.records} (lease expiry purged it)")

    # ---- 2. Managed robust application ----------------------------------
    def manage():
        client = env.client(env.net.host("infra"), principal="admin")
        return (yield from client.call(
            env.daemon("restartmgr").address,
            ACECmdLine("manageApp", app="counter", app_id="demo", cls="robust",
                       args="app_id=demo interval=0.2", host="w1"),
        ))

    reply = env.run(manage())
    print(f"\n[t={env.sim.now:6.1f}] robust counter launched on "
          f"{reply['host']} (pid {reply['pid']})")
    env.run_for(5.0)
    app = env.daemon("hal.w1").apps[reply["pid"]]
    print(f"[t={env.sim.now:6.1f}] counter at {app.count}, "
          f"checkpointing to the store every tick")

    print(f"[t={env.sim.now:6.1f}] killing host w1 (app AND its HAL die) ...")
    env.net.crash_host("w1")
    env.run_for(20.0)
    managed = env.daemon("restartmgr").managed["demo"]
    new_app = env.daemon(f"hal.{managed.host}").apps[managed.pid]
    print(f"[t={env.sim.now:6.1f}] recovered on {managed.host!r}: "
          f"restored_from={new_app.restored_from}, now at {new_app.count} "
          f"(restarts={managed.restarts})")

    # ---- 3. Store replica failure ----------------------------------------
    client = env.store_client(env.net.host("infra"))

    def store_demo():
        yield from client.put("/demo/config", {"mode": "presentation"})
        env.net.crash_host("store2")
        value = yield from client.get("/demo/config")
        yield from client.put("/demo/written-during-outage", {"ok": "1"})
        return value

    value = env.run(store_demo())
    print(f"\n[t={env.sim.now:6.1f}] store with 1 replica down still serves: "
          f"{value}")
    env.net.restart_host("store2")
    from repro.store.server import PersistentStoreDaemon

    reborn = PersistentStoreDaemon(env.ctx, "ps2r", env.net.host("store2"),
                                   port=env.daemon("ps2").port + 50,
                                   room="machineroom", sync_interval=1.0)
    reborn.set_peers([env.daemon("ps1").address, env.daemon("ps3").address])
    env.daemons["ps2r"] = reborn
    reborn.start()
    env.run_for(8.0)
    print(f"[t={env.sim.now:6.1f}] restarted replica resynced "
          f"{len(reborn.namespace)} objects via anti-entropy")


if __name__ == "__main__":
    main()
