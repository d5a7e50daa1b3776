"""Occupancy-driven lighting automation (§9)."""

import pytest

from repro.env.scenarios import scenario_1_new_user, standard_environment
from repro.lang import ACECmdLine
from repro.services.fiu import noisy_sample
from repro.services.lighting import LightDaemon, LightingControllerDaemon


@pytest.fixture
def lit_env():
    env = standard_environment(seed=220)
    podium = env.net.host("podium")
    env.add_device(LightDaemon, "light.hawk.1", podium, room="hawk")
    env.add_device(LightDaemon, "light.hawk.2", podium, room="hawk")
    office = env.add_workstation("officebox", room="office21", monitors=False)
    env.add_id_devices(office, room="office21")
    env.add_device(LightDaemon, "light.office", office, room="office21")
    env.add_daemon(LightingControllerDaemon(
        env.ctx, "lighting", env.net.host("infra"), room="machineroom",
        idle_timeout=20.0, sweep_interval=5.0))
    env.boot()
    env.run(scenario_1_new_user(env))
    return env


def identify_at(env, device, username="john"):
    fiu = env.daemon(device)

    def go():
        driver = env.client(fiu.host, principal="driver")
        yield from driver.call(fiu.address, ACECmdLine("loadTemplates"))
        sample = noisy_sample(env.users[username].fingerprint_template,
                              env.rng.np(f"light.{device}.{env.sim.now}"))
        yield from driver.call(fiu.address, ACECmdLine("scan", sample=sample))

    env.run(go())
    env.run_for(1.5)


def test_lights_turn_on_when_user_arrives(lit_env):
    env = lit_env
    assert env.daemon("light.hawk.1").level == 0
    identify_at(env, "fiu.podium")
    assert env.daemon("light.hawk.1").level == 80
    assert env.daemon("light.hawk.2").level == 80
    assert env.daemon("light.office").level == 0  # other room untouched


def test_lights_turn_off_after_idle_timeout(lit_env):
    env = lit_env
    identify_at(env, "fiu.podium")
    assert env.daemon("light.hawk.1").level == 80
    env.run_for(30.0)  # past the 20 s idle timeout + sweep
    assert env.daemon("light.hawk.1").level == 0
    assert env.daemon("light.hawk.2").level == 0


def test_activity_refreshes_idle_timer(lit_env):
    env = lit_env
    identify_at(env, "fiu.podium")
    env.run_for(12.0)
    identify_at(env, "fiu.podium")  # fresh activity
    env.run_for(12.0)               # 12 < 20 since last activity
    assert env.daemon("light.hawk.1").level == 80


def test_room_state_query(lit_env):
    env = lit_env
    identify_at(env, "fiu.podium")

    def go():
        client = env.client(env.net.host("infra"), principal="query")
        occupied = yield from client.call(
            env.daemon("lighting").address, ACECmdLine("getRoomState", room="hawk"))
        empty = yield from client.call(
            env.daemon("lighting").address, ACECmdLine("getRoomState", room="office21"))
        return occupied, empty

    occupied, empty = env.run(go())
    assert occupied["occupied"] == 1 and occupied["idle_s"] >= 0
    assert empty["occupied"] == 0


def test_moving_between_rooms_moves_the_light(lit_env):
    env = lit_env
    identify_at(env, "fiu.podium")
    identify_at(env, "fiu.officebox")
    assert env.daemon("light.office").level == 80
    # hawk goes dark after its idle timeout; office stays lit.
    env.run_for(30.0)
    assert env.daemon("light.hawk.1").level == 0
    # office was idle >20 s too by now — unless john re-identifies.
    identify_at(env, "fiu.officebox")
    assert env.daemon("light.office").level == 80
