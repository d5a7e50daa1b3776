"""Tests for the device daemons (Fig. 6 subtree: PTZ cameras, projector)."""

import pytest

from repro.core import CallError
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.services.devices import (
    Epson7350ProjectorDaemon,
    PTZCameraDaemon,
    ProjectorDaemon,
    VCC3CameraDaemon,
    VCC4CameraDaemon,
)


def device_env():
    env = ACEEnvironment(seed=31)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.add_room("hawk", building="nichols", dims=(10.0, 8.0, 3.0))
    host = env.add_workstation("podium", room="hawk", monitors=False)
    cam = env.add_device(VCC4CameraDaemon, "cam", host, room="hawk")
    proj = env.add_device(Epson7350ProjectorDaemon, "proj", host, room="hawk")
    env.boot()
    return env, cam, proj


def call(env, daemon, command, **kw):
    def go():
        client = env.client(env.net.host("infra"), principal="gui")
        return (yield from client.call(daemon.address, command, **kw))

    return env.run(go())


def test_class_paths():
    assert VCC3CameraDaemon.class_path() == "ACEService/Device/PTZCamera/VCC3"
    assert VCC4CameraDaemon.class_path() == "ACEService/Device/PTZCamera/VCC4"
    assert Epson7350ProjectorDaemon.class_path() == "ACEService/Device/Projector/Epson7350"


def test_asd_lookup_by_device_class():
    env, cam, proj = device_env()

    def go():
        from repro.services.asd import asd_lookup

        client = env.client(env.net.host("infra"))
        cams = yield from asd_lookup(client, env.asd_address, cls="PTZCamera")
        projs = yield from asd_lookup(client, env.asd_address, cls="Projector")
        return cams, projs

    cams, projs = env.run(go())
    assert [r.name for r in cams] == ["cam"]
    assert [r.name for r in projs] == ["proj"]


def test_power_gating():
    env, cam, proj = device_env()
    with pytest.raises(CallError, match="powered off"):
        call(env, cam, ACECmdLine("setZoom", factor=2.0))
    call(env, cam, ACECmdLine("power", state="on"))
    assert call(env, cam, ACECmdLine("setZoom", factor=2.0))["zoom"] == 2.0
    with pytest.raises(CallError, match="on or off"):
        call(env, cam, ACECmdLine("power", state="sideways"))


def test_camera_learns_room_dims():
    env, cam, proj = device_env()
    assert cam.room_dims == (10.0, 8.0, 3.0)


def test_set_position_validates_against_room():
    env, cam, proj = device_env()
    call(env, cam, ACECmdLine("power", state="on"))
    call(env, cam, ACECmdLine("setPosition", x=2.0, y=2.0, z=1.0))
    with pytest.raises(CallError, match="outside room"):
        call(env, cam, ACECmdLine("setPosition", x=50.0, y=2.0, z=1.0))


def test_pan_tilt_envelope_by_model():
    env, cam, proj = device_env()
    call(env, cam, ACECmdLine("power", state="on"))
    # VCC4 allows pan=95; VCC3 would not.
    reply = call(env, cam, ACECmdLine("setPanTilt", pan=95.0, tilt=10.0))
    assert reply["pan"] == 95.0
    with pytest.raises(CallError, match="outside"):
        call(env, cam, ACECmdLine("setPanTilt", pan=150.0, tilt=0.0))


def test_slew_takes_time_proportional_to_angle():
    env, cam, proj = device_env()
    call(env, cam, ACECmdLine("power", state="on"))

    def timed_move(pan):
        def go():
            client = env.client(env.net.host("infra"))
            t0 = env.sim.now
            yield from client.call(cam.address, ACECmdLine("setPanTilt", pan=pan, tilt=0.0))
            return env.sim.now - t0

        return env.run(go())

    t_small = timed_move(5.0)     # 5° from 95° = 90° move... order matters
    call(env, cam, ACECmdLine("setPanTilt", pan=0.0, tilt=0.0))
    t_10 = timed_move(10.0)
    call(env, cam, ACECmdLine("setPanTilt", pan=0.0, tilt=0.0))
    t_90 = timed_move(90.0)
    assert t_90 > t_10
    del t_small


def test_capture_settings():
    env, cam, proj = device_env()
    call(env, cam, ACECmdLine("power", state="on"))
    reply = call(env, cam, ACECmdLine("setCapture", width=640, height=480, fps=30.0))
    assert reply["width"] == 640
    state = call(env, cam, ACECmdLine("getState"))
    assert state["fps"] == 30.0


def test_projector_inputs_and_pip():
    env, cam, proj = device_env()
    call(env, proj, ACECmdLine("power", state="on"))
    call(env, proj, ACECmdLine("setInput", source="svideo"))  # Epson-only input
    call(env, proj, ACECmdLine("setPictureInPicture", source="stream:cam"))
    state = call(env, proj, ACECmdLine("getState"))
    assert state["source"] == "svideo"
    assert state["pip"] == "stream:cam"
    with pytest.raises(CallError, match="unknown input"):
        call(env, proj, ACECmdLine("setInput", source="betamax"))


def test_projector_brightness_bounds():
    env, cam, proj = device_env()
    call(env, proj, ACECmdLine("power", state="on"))
    call(env, proj, ACECmdLine("setBrightness", level=85))
    assert proj.brightness == 85
    with pytest.raises(CallError, match="0..100"):
        call(env, proj, ACECmdLine("setBrightness", level=150))


def test_vcc3_vs_vcc4_slew_rates():
    assert VCC3CameraDaemon.SLEW_S_PER_DEG > VCC4CameraDaemon.SLEW_S_PER_DEG
    assert VCC4CameraDaemon.ZOOM_RANGE[1] > VCC3CameraDaemon.ZOOM_RANGE[1]
