"""Edge coverage for the Workspace Server (§4.5)."""

import pytest

from repro.core import CallError
from repro.env.scenarios import scenario_1_new_user, standard_environment
from repro.lang import ACECmdLine


@pytest.fixture
def wss_env():
    env = standard_environment(seed=260).boot()
    env.run(scenario_1_new_user(env))
    return env


def call(env, command, **kw):
    def go():
        client = env.client(env.net.host("infra"), principal="admin-gui")
        return (yield from client.call(env.daemon("wss").address, command, **kw))

    return env.run(go())


def test_duplicate_workspace_rejected(wss_env):
    env = wss_env
    with pytest.raises(CallError, match="already exists"):
        call(env, ACECmdLine("createWorkspace", user="john", name="john-default"))


def test_ensure_default_is_idempotent(wss_env):
    env = wss_env
    reply = call(env, ACECmdLine("ensureDefaultWorkspace", user="john"))
    assert reply["created"] == 0
    assert reply["workspace"] == "john-default"


def test_open_unknown_workspace(wss_env):
    env = wss_env
    with pytest.raises(CallError, match="no workspace"):
        call(env, ACECmdLine("openWorkspace", user="john", name="ghost",
                             display="podium"))


def test_open_for_unknown_user(wss_env):
    env = wss_env
    with pytest.raises(CallError, match="no workspaces"):
        call(env, ACECmdLine("openWorkspace", user="nobody", display="podium"))


def test_open_on_host_without_hal(wss_env):
    env = wss_env
    with pytest.raises(CallError, match="no HAL"):
        call(env, ACECmdLine("openWorkspace", user="john", display="mars"))


def test_create_with_the_sal_dead_is_cmd_failed_and_the_wss_serves_on(wss_env):
    """The handler calls the SAL unguarded: nobody answering it is this
    command's ``cmdFailed``, not the end of the control thread (or the run)."""
    env = wss_env
    env.daemon("sal").kill()
    with pytest.raises(CallError, match="nothing listening at") as err:
        call(env, ACECmdLine("createWorkspace", user="john", name="second"))
    assert type(err.value) is CallError and err.value.reply.name == "cmdFailed"
    assert call(env, ACECmdLine("ping")).name == "cmdOk"


def test_destroy_workspace_removes_session(wss_env):
    env = wss_env
    wss = env.daemon("wss")
    record = wss.workspaces[("john", "john-default")]
    # The VNC server daemon lives inside the app the HAL launched.
    hal = env.daemon(f"hal.{record.server_host}")
    vnc_app = next(a for a in hal.apps.values() if a.name == "vncserver")
    vnc = vnc_app.daemon
    assert record.session in vnc.sessions
    reply = call(env, ACECmdLine("destroyWorkspace", user="john", name="john-default"))
    assert reply["removed"] == 1
    assert ("john", "john-default") not in wss.workspaces
    assert record.session not in vnc.sessions
    with pytest.raises(CallError):
        call(env, ACECmdLine("destroyWorkspace", user="john", name="john-default"))


def test_workspace_password_never_returned_to_users(wss_env):
    """The WSS handles passwords invisibly (§5.4): no reply ever carries
    one."""
    env = wss_env
    listing = call(env, ACECmdLine("listWorkspaces", user="john"))
    record = env.daemon("wss").workspaces[("john", "john-default")]
    for reply in (listing,):
        for _key, value in reply:
            assert record.password not in str(value)


def test_second_user_gets_independent_workspace(wss_env):
    env = wss_env
    env.run(scenario_1_new_user(env, username="jane", fullname="Jane Roe"))
    wss = env.daemon("wss")
    assert ("jane", "jane-default") in wss.workspaces
    john = wss.workspaces[("john", "john-default")]
    jane = wss.workspaces[("jane", "jane-default")]
    assert john.password != jane.password
    assert john.session != jane.session
