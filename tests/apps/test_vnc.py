"""Unit tests for the VNC server daemon and viewer (§5.4, Fig. 16)."""

import numpy as np
import pytest

from repro.apps.vnc import VNCServerDaemon, VNCViewer, WorkspaceSession
from repro.core import CallError
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine


@pytest.fixture
def vnc_env():
    env = ACEEnvironment(seed=140)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    host = env.add_workstation("vnc-host", room="lab", monitors=False)
    server = VNCServerDaemon(env.ctx, "vnc", host, admin_secret="s3cret")
    env.add_daemon(server)
    env.boot()

    def create():
        client = env.client(env.net.host("infra"), principal="wss")
        yield from client.call(
            server.address,
            ACECmdLine("createSession", session="john-default", owner="john",
                       password="pw123", admin="s3cret"),
        )

    env.run(create())
    return env, server


def call(env, server, command, **kw):
    def go():
        client = env.client(env.net.host("infra"), principal="tester")
        return (yield from client.call(server.address, command, **kw))

    return env.run(go())


def test_create_requires_admin_secret(vnc_env):
    env, server = vnc_env
    with pytest.raises(CallError, match="WSS secret"):
        call(env, server, ACECmdLine("createSession", session="x", owner="u",
                                     password="p", admin="wrong"))


def test_duplicate_session_rejected(vnc_env):
    env, server = vnc_env
    with pytest.raises(CallError, match="already exists"):
        call(env, server, ACECmdLine("createSession", session="john-default",
                                     owner="john", password="p", admin="s3cret"))


def test_attach_requires_password(vnc_env):
    env, server = vnc_env
    with pytest.raises(CallError, match="bad password"):
        call(env, server, ACECmdLine("attachViewer", session="john-default",
                                     password="nope", udp_host="infra", udp_port=1))


def test_set_password_by_wss(vnc_env):
    env, server = vnc_env
    call(env, server, ACECmdLine("setPassword", session="john-default",
                                 password="newpw", admin="s3cret"))
    assert server.sessions["john-default"].password == "newpw"


def test_list_sessions_by_owner(vnc_env):
    env, server = vnc_env
    call(env, server, ACECmdLine("createSession", session="jane-ws", owner="jane",
                                 password="p", admin="s3cret"))
    mine = call(env, server, ACECmdLine("listSessions", owner="john"))
    assert mine["sessions"] == ("john-default",)
    all_sessions = call(env, server, ACECmdLine("listSessions"))
    assert all_sessions["count"] == 2


def test_input_ops_draw_type_clear(vnc_env):
    env, server = vnc_env
    session = server.sessions["john-default"]
    base = ACECmdLine("input", session="john-default", password="pw123",
                      op="draw", x=5, y=5, w=10, h=10, value=77)
    call(env, server, base)
    assert (session.framebuffer[5:15, 5:15] == 77).all()
    call(env, server, ACECmdLine("input", session="john-default", password="pw123",
                                 op="type", x=0, y=0, text="hi"))
    assert session.framebuffer[0, 0] != 0
    call(env, server, ACECmdLine("input", session="john-default", password="pw123",
                                 op="clear"))
    assert (session.framebuffer == 0).all()
    with pytest.raises(CallError, match="unknown input"):
        call(env, server, ACECmdLine("input", session="john-default",
                                     password="pw123", op="teleport"))


def test_input_clamped_to_framebuffer(vnc_env):
    env, server = vnc_env
    call(env, server, ACECmdLine("input", session="john-default", password="pw123",
                                 op="draw", x=5000, y=5000, w=50, h=50, value=9))
    # No exception, and the edit landed inside the framebuffer.
    assert server.sessions["john-default"].framebuffer.max() == 9


def test_viewer_receives_incremental_updates(vnc_env):
    env, server = vnc_env
    host = env.net.host("infra")

    def session():
        viewer = VNCViewer(env.ctx, host, server.address, "john-default", "pw123")
        client = env.client(host, principal="john")
        yield from viewer.attach(client)
        full_frame_bytes = viewer.bytes_received
        yield from viewer.send_input(op="draw", x=0, y=0, w=4, h=4, value=200)
        yield env.sim.timeout(0.1)
        yield from viewer.pump()
        incremental = viewer.bytes_received - full_frame_bytes
        fb = viewer.framebuffer.copy()
        yield from viewer.detach()
        return full_frame_bytes, incremental, fb

    full, inc, fb = env.run(session())
    assert inc < full / 100  # dirty rect ≪ full frame
    assert (fb[0:4, 0:4] == 200).all()


def test_multiple_viewers_kept_in_sync(vnc_env):
    env, server = vnc_env
    host = env.net.host("infra")

    def session():
        v1 = VNCViewer(env.ctx, host, server.address, "john-default", "pw123")
        v2 = VNCViewer(env.ctx, host, server.address, "john-default", "pw123")
        client = env.client(host, principal="john")
        yield from v1.attach(client)
        yield from v2.attach(env.client(host, principal="john2"))
        yield from v1.send_input(op="draw", x=10, y=10, w=5, h=5, value=42)
        yield env.sim.timeout(0.2)
        yield from v1.pump()
        yield from v2.pump()
        same = (v1.framebuffer == v2.framebuffer).all()
        yield from v1.detach()
        yield from v2.detach()
        return bool(same)

    assert env.run(session())


def test_destroy_session(vnc_env):
    env, server = vnc_env
    call(env, server, ACECmdLine("destroySession", session="john-default",
                                 admin="s3cret"))
    assert "john-default" not in server.sessions
    with pytest.raises(CallError, match="no such session"):
        call(env, server, ACECmdLine("attachViewer", session="john-default",
                                     password="pw123", udp_host="infra", udp_port=1))
