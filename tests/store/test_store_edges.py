"""Wire-level and configuration edges of the persistent store."""

import pytest

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.store.server import PersistentStoreDaemon


def build(replicas=3, **kw):
    env = ACEEnvironment(seed=270)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.add_persistent_store(replicas=replicas, **kw)
    env.boot()
    return env


def call(env, daemon_name, command, **kw):
    def go():
        client = env.client(env.net.host("infra"), principal="probe")
        return (yield from client.call(env.daemon(daemon_name).address,
                                            command, **kw))

    return env.run(go())


def test_ps_stats_over_wire():
    env = build()
    client = env.store_client(env.net.host("infra"))

    def work():
        yield from client.put("/a", {"v": "1"})
        yield from client.get("/a")

    env.run(work())
    stats = call(env, "ps1", ACECmdLine("psStats"))
    assert stats["objects"] == 1
    assert stats["writes"] + stats["replications_applied"] >= 1


def test_ps_list_prefix_over_wire():
    env = build()
    client = env.store_client(env.net.host("infra"))

    def work():
        yield from client.put("/apps/x/state", {})
        yield from client.put("/users/y", {})

    env.run(work())
    reply = call(env, "ps1", ACECmdLine("psList", prefix="/apps"))
    assert reply["paths"] == ("/apps/x/state",)


def test_ps_get_missing_is_cmdfailed():
    env = build()

    def go():
        from repro.core import CallError

        client = env.client(env.net.host("infra"), principal="probe")
        with pytest.raises(CallError, match="no object"):
            yield from client.call(env.daemon("ps1").address,
                                        ACECmdLine("psGet", path="/nope"))

    env.run(go())


def test_ps_bad_path_rejected():
    env = build()

    def go():
        from repro.core import CallError

        client = env.client(env.net.host("infra"), principal="probe")
        with pytest.raises(CallError, match="bad object path"):
            yield from client.call(env.daemon("ps1").address,
                                        ACECmdLine("psPut", path="not/absolute"))

    env.run(go())


def test_replication_disabled_keeps_writes_local():
    env = ACEEnvironment(seed=271)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    host1 = env.add_workstation("s1", room="dc", monitors=False)
    host2 = env.add_workstation("s2", room="dc", monitors=False)
    a = PersistentStoreDaemon(env.ctx, "psa", host1, room="dc",
                              replicate_writes=False, sync_interval=1000.0)
    b = PersistentStoreDaemon(env.ctx, "psb", host2, room="dc",
                              replicate_writes=False, sync_interval=1000.0)
    env.add_daemon(a)
    env.add_daemon(b)
    a.set_peers([b.address])
    b.set_peers([a.address])
    env.boot()

    def go():
        client = env.client(env.net.host("infra"), principal="probe")
        reply = yield from client.call(a.address,
                                       ACECmdLine("psPut", path="/solo", value="v=1"))
        return reply

    reply = env.run(go())
    assert reply["replicas"] == 1  # nothing pushed
    env.run_for(2.0)
    assert b.namespace.get("/solo") is None


def test_anti_entropy_alone_converges_lazy_replication():
    """With synchronous replication off, the digest exchange still brings
    replicas together (eventual consistency mode)."""
    env = ACEEnvironment(seed=272)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    host1 = env.add_workstation("s1", room="dc", monitors=False)
    host2 = env.add_workstation("s2", room="dc", monitors=False)
    a = PersistentStoreDaemon(env.ctx, "psa", host1, room="dc",
                              replicate_writes=False, sync_interval=1.0)
    b = PersistentStoreDaemon(env.ctx, "psb", host2, room="dc",
                              replicate_writes=False, sync_interval=1.0)
    env.add_daemon(a)
    env.add_daemon(b)
    a.set_peers([b.address])
    b.set_peers([a.address])
    env.boot()

    def go():
        client = env.client(env.net.host("infra"), principal="probe")
        yield from client.call(a.address,
                               ACECmdLine("psPut", path="/lazy", value="v=1"))

    env.run(go())
    env.run_for(5.0)
    assert b.namespace.get("/lazy") is not None
