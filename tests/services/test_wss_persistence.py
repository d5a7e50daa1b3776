"""WSS workspace checkpointing to the persistent store (E25 satellite):
records survive a WSS restart via /wss/workspaces/... objects."""

import pytest

from repro.env.scenarios import scenario_1_new_user, standard_environment
from repro.lang import ACECmdLine
from repro.services.wss import WorkspaceServerDaemon


@pytest.fixture
def wss_store_env():
    env = standard_environment(seed=260)
    env.add_persistent_store(replicas=2, sync_interval=1.0)
    env.boot()
    env.run(scenario_1_new_user(env))
    env.run_for(1.0)  # replication + checkpoint writes settle
    return env


def test_workspace_checkpointed_to_store(wss_store_env):
    env = wss_store_env
    assert env.ctx.obs.metrics.counter("wss.wss.persisted").value >= 1

    def check():
        client = env.store_client(env.net.host("infra"))
        return (yield from client.get("/wss/workspaces/john/john-default"))

    attrs = env.run(check())
    record = env.daemon("wss").workspaces[("john", "john-default")]
    assert attrs["user"] == "john"
    assert attrs["host"] == record.server_host
    assert int(attrs["port"]) == record.server_port


def test_restarted_wss_restores_workspaces(wss_store_env):
    env = wss_store_env
    wss = env.daemon("wss")
    record = wss.workspaces[("john", "john-default")]
    wss.stop()
    env.run_for(1.0)

    new_wss = WorkspaceServerDaemon(
        env.ctx, "wss2", wss.host, port=wss.port + 1000, room="machineroom",
    )
    env.daemons["wss2"] = new_wss
    new_wss.start()
    env.run_for(2.0)
    assert new_wss.restored == 1
    again = new_wss.workspaces[("john", "john-default")]
    assert again.password == record.password
    assert again.server_host == record.server_host
    assert again.server_port == record.server_port


def test_destroy_removes_checkpoint(wss_store_env):
    env = wss_store_env

    def go():
        client = env.client(env.net.host("infra"), principal="admin-gui")
        yield from client.call(
            env.daemon("wss").address,
            ACECmdLine("destroyWorkspace", user="john", name="john-default"),
        )
        yield env.sim.timeout(1.0)
        store = env.store_client(env.net.host("infra"))
        return (yield from store.get("/wss/workspaces/john/john-default"))

    assert env.run(go()) is None
