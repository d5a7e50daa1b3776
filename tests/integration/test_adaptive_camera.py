"""The §2.5 worked example: identification at the door turns the camera."""

import math

import pytest

from repro.env.scenarios import scenario_1_new_user, standard_environment
from repro.lang import ACECmdLine
from repro.services.adaptive import AdaptiveCameraDaemon
from repro.services.fiu import make_template, noisy_sample


@pytest.fixture
def camera_env():
    env = standard_environment(seed=190)
    podium = env.net.host("podium")
    env.add_device(AdaptiveCameraDaemon, "adaptivecam", podium, room="hawk",
                   door_position=(1.0, 6.0, 1.6))
    env.boot()
    env.run(scenario_1_new_user(env))
    return env


def press_finger(env, username="john"):
    fiu = env.daemon("fiu.podium")

    def go():
        driver = env.client(fiu.host, principal="driver")
        yield from driver.call(fiu.address, ACECmdLine("loadTemplates"))
        sample = noisy_sample(env.users[username].fingerprint_template,
                              env.rng.np(f"adaptive.{env.sim.now}"))
        return (yield from driver.call(fiu.address, ACECmdLine("scan", sample=sample)))

    reply = env.run(go())
    env.run_for(2.0)
    return reply


def test_camera_turns_to_door_on_identification(camera_env):
    env = camera_env
    cam = env.daemon("adaptivecam")
    assert cam.greeted == []
    press_finger(env)
    assert len(cam.greeted) == 1
    assert cam.greeted[0][1] == "john"
    expected_pan = math.degrees(math.atan2(6.0, 1.0))
    assert cam.pan == pytest.approx(expected_pan, abs=0.5)
    assert cam.target == (1.0, 6.0, 1.6)


def test_camera_wakes_itself(camera_env):
    env = camera_env
    cam = env.daemon("adaptivecam")
    assert cam.powered is False
    press_finger(env)
    assert cam.powered is True


def test_failed_identification_does_not_move_camera(camera_env):
    env = camera_env
    cam = env.daemon("adaptivecam")
    fiu = env.daemon("fiu.podium")

    def go():
        driver = env.client(fiu.host, principal="driver")
        yield from driver.call(fiu.address, ACECmdLine("loadTemplates"))
        stranger = make_template(env.rng.np("stranger"))
        yield from driver.call(fiu.address, ACECmdLine("scan", sample=stranger))

    env.run(go())
    env.run_for(2.0)
    assert cam.greeted == []


def test_door_position_reconfigurable(camera_env):
    env = camera_env
    cam = env.daemon("adaptivecam")

    def go():
        client = env.client(env.net.host("infra"), principal="admin")
        yield from client.call(
            cam.address, ACECmdLine("setDoorPosition", x=3.0, y=2.0, z=1.5))

    env.run(go())
    press_finger(env)
    assert cam.target == (3.0, 2.0, 1.5)


def test_multiple_identifications_each_greeted(camera_env):
    env = camera_env
    cam = env.daemon("adaptivecam")
    press_finger(env)
    press_finger(env)
    assert len(cam.greeted) == 2
