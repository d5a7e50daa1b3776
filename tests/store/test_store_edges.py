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


def test_anti_entropy_alone_converges_lazy_replication():
    """A write no push carried still reaches the peer: the digest exchange
    alone brings replicas together (eventual consistency mode)."""
    env = ACEEnvironment(seed=272)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    host1 = env.add_workstation("s1", room="dc", monitors=False)
    host2 = env.add_workstation("s2", room="dc", monitors=False)
    a = PersistentStoreDaemon(env.ctx, "psa", host1, room="dc", sync_interval=1.0)
    b = PersistentStoreDaemon(env.ctx, "psb", host2, room="dc", sync_interval=1.0)
    env.add_daemon(a)
    env.add_daemon(b)
    a.set_peers([b.address])
    b.set_peers([a.address])
    env.boot()

    a.namespace.put("/lazy", {"v": "1"})
    env.run_for(5.0)
    assert b.namespace.get("/lazy") is not None
    assert a.replications_sent == 0


# -- replication intake says no one way ---------------------------------------

MALFORMED_OBJECTS = {
    "bad-counter": "/x|v=1|notanint@s|0",
    "bad-attrs-pair": "/x|novalue|5@s|0",
    "wrong-field-count": "/x|v=1|5@s",
    "bad-path": "not a path|v=1|5@s|0",
}


def assert_still_serving(env, daemon_name):
    ps = env.daemon(daemon_name)
    assert ps.namespace.entries == {}
    assert ps.replications_applied == 0
    assert call(env, daemon_name, ACECmdLine("ping")).name == "cmdOk"


@pytest.mark.parametrize("wire", MALFORMED_OBJECTS.values(), ids=MALFORMED_OBJECTS)
def test_malformed_batch_entry_is_skipped(wire):
    env = build(replicas=1)
    reply = call(env, "ps1", ACECmdLine("psReplicateBatch", entries=(wire,)))
    assert (reply["count"], reply["applied"]) == (1, 0)
    assert_still_serving(env, "ps1")


def test_per_object_replicate_command_is_gone():
    """``psReplicate`` built its object from unchecked arguments; the batch
    intake is the only way in."""
    from repro.core import CallError

    env = build(replicas=1)
    probe = ACECmdLine("psReplicate", path="/x", value="novalue", version="abc")
    with pytest.raises(CallError, match="unknown command 'psReplicate'"):
        call(env, "ps1", probe)
    assert_still_serving(env, "ps1")


@pytest.mark.parametrize("wire", MALFORMED_OBJECTS.values(), ids=MALFORMED_OBJECTS)
def test_malformed_fetched_or_checkpointed_object_is_skipped(wire):
    """The repair's fetch reply and a checkpoint line go through the same
    decode as a push."""
    env = build(replicas=1)
    ps = env.daemon("ps1")
    assert ps._take((wire,)) == 0
    ps.restore_state([wire])
    assert_still_serving(env, "ps1")
