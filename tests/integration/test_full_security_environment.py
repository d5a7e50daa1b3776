"""A whole ACE running in SSL_KEYNOTE mode (Chapter 3, end to end).

Every inter-daemon call (notifications, SAL→HAL, SRM polls, ...) and every
client command flows over SecureChannels with per-command KeyNote checks.
"""

import pytest

from repro.core import CallError, SecurityMode
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.services.devices import VCC4CameraDaemon
from repro.security.keynote import Assertion


@pytest.fixture(scope="module")
def secure_env():
    env = ACEEnvironment(seed=230, security=SecurityMode.SSL_KEYNOTE)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False,
                           srm_poll_interval=3.0)
    env.add_room("hawk", dims=(10.0, 8.0, 3.0))
    podium = env.add_workstation("podium", room="hawk")
    env.add_device(VCC4CameraDaemon, "camera", podium, room="hawk")
    env.boot(settle=4.0)
    return env


def test_infrastructure_boots_under_full_security(secure_env):
    env = secure_env
    # Everything registered despite SSL+KeyNote on every hop.
    assert "camera" in env.daemon("asd").records
    assert "hal.podium" in env.daemon("asd").records


def test_inter_daemon_traffic_flows(secure_env):
    """The SRM's polling of HRMs crosses SSL+KeyNote successfully."""
    env = secure_env
    env.run_for(8.0)
    assert "podium" in env.daemon("srm").reports


def test_authorized_tool_can_drive_devices(secure_env):
    env = secure_env
    client = env.authorized_client(env.net.host("podium"), "ops-gui")

    def go():
        conn = yield from client.connect(env.daemon("camera").address)
        yield from conn.call(ACECmdLine("power", state="on"))
        reply = yield from conn.call(ACECmdLine("setZoom", factor=3.0))
        conn.close()
        return reply

    assert env.run(go())["zoom"] == 3.0


def test_scoped_authorization_enforced(secure_env):
    """A client trusted only for getState cannot zoom."""
    env = secure_env
    viewer = env.authorized_client(
        env.net.host("podium"), "viewer-tool",
        conditions='command == "getState" -> "permit";',
    )

    def go():
        conn = yield from viewer.connect(env.daemon("camera").address)
        state = yield from conn.call(ACECmdLine("getState"))
        with pytest.raises(CallError, match="permission denied"):
            yield from conn.call(ACECmdLine("setZoom", factor=2.0))
        conn.close()
        return state

    assert env.run(go()).name == "cmdOk"


def test_unauthenticated_client_denied(secure_env):
    env = secure_env
    nobody = env.client(env.net.host("podium"), principal="random-walkin")

    def go():
        with pytest.raises(CallError, match="signature"):
            yield from nobody.connect(env.daemon("camera").address)

    env.run(go())


def test_sal_launch_chain_under_security(secure_env):
    """SAL → SRM → HAL delegation, all hops secured and authorized."""
    env = secure_env
    admin = env.authorized_client(env.net.host("infra"), "launch-admin")

    def go():
        reply = yield from admin.call(
            env.daemon("sal").address, ACECmdLine("launchApp", app="idle"))
        return reply

    reply = env.run(go(), timeout=120.0)
    assert reply["pid"] > 0
    hal = env.daemon(f"hal.{reply['host']}")
    assert reply["pid"] in hal.apps


def test_notifications_flow_under_security(secure_env):
    """addNotification + delivery across SecureChannels."""
    env = secure_env
    from tests.core.conftest import EchoDaemon

    host = env.add_workstation("listenerhost", room="hawk", monitors=False)
    listener = EchoDaemon(env.ctx, "sec-listener", host, room="hawk")
    env.add_daemon(listener)
    env.run_for(3.0)
    # The listener daemon's own principal must be trusted for the callback.
    env.ctx.security.policies.append(
        Assertion("POLICY", f'"{listener.keypair.principal()}"', 'app_domain == "ace"')
    )
    admin = env.authorized_client(env.net.host("podium"), "notify-admin")
    camera = env.daemon("camera")

    def go():
        yield from admin.call(
            camera.address,
            ACECmdLine("addNotification", cmd="power", listener="sec-listener",
                       host=host.name, port=listener.port, callback="onEchoSeen"))
        yield from admin.call(camera.address, ACECmdLine("power", state="off"))

    env.run(go())
    env.run_for(3.0)
    assert len(listener.seen_notifications) == 1
    assert listener.seen_notifications[0]["trigger"] == "power"
