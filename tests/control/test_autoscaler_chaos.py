"""Deterministic chaos for the control plane (E28).

Two crash scenarios, both on the DES kernel (no wall-clock, no real
randomness — every run is identical):

* the **controller** dies mid-actuation: the supervisor restarts it from
  the synchronous pre-actuation checkpoint and the in-flight decision is
  never executed twice (PR 6 exactly-once, extended to autonomous
  actions);
* a **store group** is crashed mid-scale-up: the controller keeps
  ticking, the supervisor restarts the replica, and no data is lost.
"""

from repro.env import ACEEnvironment
from repro.control import Actuator, AutoscalerDaemon, ControlSample, ScalingRule

SUSPICION = 2.5

RULE = ScalingRule(
    "load", signal="load", resource="workers", high=10.0, low=2.0,
    min_level=1, max_level=5, up_cooldown=2.0, down_cooldown=4.0,
)


def test_controller_killed_mid_decision_is_exactly_once():
    env = ACEEnvironment(seed=13, lease_duration=2.0)
    env.add_infrastructure()
    env.boot()
    env.enable_supervision(
        suspicion_window=SUSPICION, check_interval=0.25,
        checkpoint_interval=1.0,
    )

    state = {"level": 1, "load": 50.0, "started": [], "finished": []}

    def scale(decision):
        # A slow actuation: the crash lands between "started" and
        # "finished", i.e. after the daemon checkpointed the decision
        # but before the knob finished turning.
        state["started"].append(decision.decision_id)
        yield env.sim.timeout(1.0)
        state["finished"].append(decision.decision_id)
        state["level"] = decision.to_level

    def read():
        return ControlSample(
            time=env.sim.now, signals={"load": state["load"]},
            capacity={"workers": state["level"]},
        )

    daemon = AutoscalerDaemon(
        env.ctx, "autoscaler", env.daemons["asd"].host,
        interval=0.5, rules=[RULE], reader=read,
        actuators={"workers": Actuator("workers", lambda: state["level"], scale)},
    )
    env.add_daemon(daemon)

    # Run until the first decision's actuation is in flight, then crash.
    while not state["started"]:
        env.run_for(0.25)
    assert not state["finished"]
    in_flight = state["started"][0]
    corpse = env.daemons["autoscaler"]
    corpse.kill()

    env.run_for(SUSPICION + 4.0)
    reincarnation = env.daemons["autoscaler"]
    assert reincarnation is not corpse
    assert reincarnation.running and reincarnation.incarnation == 1

    # The checkpoint restored the executed journal: the in-flight
    # decision is remembered and never re-actuated.
    assert in_flight in reincarnation._executed
    assert state["started"].count(in_flight) == 1

    # The signal is still high, so the *reincarnation* keeps scaling —
    # with fresh decision ids, each actuated exactly once.
    env.run_for(8.0)
    assert state["finished"]
    assert in_flight not in state["finished"]
    assert len(state["started"]) == len(set(state["started"]))
    for entry in reincarnation.decision_log:
        assert entry["id"] != in_flight


def test_store_group_crash_mid_scale_up_does_not_stop_controller():
    env = ACEEnvironment(seed=17, lease_duration=2.0)
    env.add_infrastructure()
    env.add_persistent_store(replicas=2, groups=2)
    env.boot()
    env.enable_supervision(
        suspicion_window=SUSPICION, check_interval=0.25,
        checkpoint_interval=1.0,
    )

    sc = env.store_client(env.daemons["asd"].host, principal="writer")
    for i in range(24):
        env.run(sc.put(f"/chaos/obj{i:02d}", {"v": str(i)}))

    state = {"load": 50.0}

    def read():
        return ControlSample(
            time=env.sim.now, signals={"load": state["load"]},
            capacity={"store_groups": len(env._store_groups)},
        )

    rule = ScalingRule(
        "store-load", signal="load", resource="store_groups",
        high=10.0, low=2.0, min_level=1, max_level=4,
        up_cooldown=5.0, down_cooldown=20.0,
    )
    daemon = AutoscalerDaemon(
        env.ctx, "autoscaler", env.daemons["asd"].host,
        interval=0.5, rules=[rule], reader=read,
        actuators={"store_groups": Actuator(
            "store_groups", lambda: len(env._store_groups),
            lambda decision: env.add_store_group(),
        )},
    )
    env.add_daemon(daemon)

    # Run until the controller has added the third group...
    while len(env._store_groups) < 3:
        env.run_for(0.25)
    # ...and crash one of its replicas mid-rebalance.
    victim = env._store_groups[-1][0]
    victim.kill()
    ticks_at_crash = len(daemon.samples)

    env.run_for(SUSPICION + 6.0)

    # The controller never stopped ticking.
    assert len(daemon.samples) > ticks_at_crash
    assert env.daemons["autoscaler"].running

    # The supervisor restarted the crashed replica.
    reincarnation = env.daemons[victim.name]
    assert reincarnation is not victim
    assert reincarnation.running

    # No object was lost across the crash-during-rebalance.
    state["load"] = 0.0  # stop further scale-ups before reading
    reader = env.store_client(env.daemons["asd"].host, principal="reader")
    for i in range(24):
        attrs = env.run(reader.get(f"/chaos/obj{i:02d}"))
        assert attrs == {"v": str(i)}, f"/chaos/obj{i:02d} lost"
