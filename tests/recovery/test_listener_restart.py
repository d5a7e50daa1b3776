"""A supervised restart must not leave the restarted daemon's listeners
deaf: its notification table is in no checkpoint, so whoever watched the
corpse has to subscribe to the reincarnation again (§2.5 meets E26)."""

from repro.env.scenarios import (
    scenario_1_new_user,
    scenario_2_identification,
    standard_environment,
)


def test_id_monitor_hears_a_restarted_fiu():
    env = standard_environment(seed=3)
    env.enable_supervision(suspicion_window=2.5, check_interval=0.25)
    env.boot()
    idmon = env.daemon("idmon")
    env.run(scenario_1_new_user(env))
    env.run(scenario_2_identification(env))
    assert idmon.identifications == 1

    corpse = env.daemon("fiu.podium")
    watchers = corpse.notifications.counts()
    assert watchers == {"identified": 1, "identifyFailed": 1}
    corpse.kill()
    env.run_for(15.0)
    fiu = env.daemon("fiu.podium")
    assert fiu is not corpse and fiu.running and fiu.incarnation == 1
    # Re-subscribed from the reincarnation's own ``register`` event — once.
    assert fiu.notifications.counts() == watchers

    env.run(scenario_2_identification(env))
    assert idmon.identifications == 2
