"""Runtime directory scaling: ``env.add_asd_replica()`` (late addition —
the replica must anti-entropy-pull existing records) and
``env.retire_asd_replica()`` (the knob no suite covered before E28)."""

import pytest

from repro.core import CallPolicy
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.services.asd import asd_lookup


def build(seed=19, *, asd_replicas=1):
    env = ACEEnvironment(seed=seed, lease_duration=4.0)
    env.add_infrastructure(asd_replicas=asd_replicas)
    host = env.add_workstation("svc1", room="lab", monitors=False)
    env.boot()
    return env, host


def lookup_names(env, address, cls="HRM"):
    client = env.client(env.daemons["asd"].host, principal="probe")

    def scenario():
        return (yield from asd_lookup(client, address, cls=cls))

    return sorted(r.name for r in env.run(scenario()))


def test_late_replica_pulls_existing_records():
    env, _ = build()
    baseline = lookup_names(env, env.ctx.asd_address)
    assert baseline  # infra HRM is registered

    replica = env.add_asd_replica()
    assert env.ctx.directory_addresses()[-1] == replica.address
    # Anti-entropy interval is 5s by default: give it two rounds.
    env.run_for(12.0)

    # Pre-addition registrations are visible on the new replica itself.
    assert lookup_names(env, replica.address) == baseline

    # Post-addition registrations replicate to it too.
    from tests.core.conftest import EchoDaemon

    host = env.net.host("svc1")
    env.add_daemon(EchoDaemon(env.ctx, "echo1", host, room="lab"))
    env.run_for(2.0)
    assert lookup_names(env, replica.address, cls="Echo") == ["echo1"]


def test_retire_follower_shrinks_group_and_stops_daemon():
    env, _ = build(asd_replicas=3)
    before = env.ctx.directory_addresses()
    assert len(before) == 3

    victim = env.retire_asd_replica()
    env.run_for(2.0)
    after = env.ctx.directory_addresses()
    assert len(after) == 2
    assert victim.address not in after
    assert victim.name not in env.daemons and victim.name not in env._tiers
    assert not victim.running
    assert not [key for key in env.ctx.obs.telemetry_scopes
                if key[1] == f"{victim.host.name}:{victim.port}"]
    # Survivors dropped it from their replication group.
    for name in ("asd", "asd2"):
        assert victim.address not in env.daemons[name].group

    # The directory still answers and still replicates.
    assert lookup_names(env, after[-1])


def test_retire_leader_refused():
    env, _ = build(asd_replicas=2)
    with pytest.raises(ValueError):
        env.retire_asd_replica("asd")


def test_retire_last_replica_refused():
    env, _ = build(asd_replicas=1)
    with pytest.raises(RuntimeError):
        env.retire_asd_replica()


def test_retire_then_readd_reuses_host():
    env, _ = build(asd_replicas=2)
    hosts_before = set(env.net.hosts)
    env.retire_asd_replica()
    replica = env.add_asd_replica()
    assert set(env.net.hosts) == hosts_before   # no duplicate host minted
    env.run_for(12.0)
    assert len(env.ctx.directory_addresses()) == 2
    assert lookup_names(env, replica.address)


def test_writes_replicate_to_late_replica():
    """A service registered through the leader after a late addition is
    pushed (dirReplicate) to the newcomer, not just pulled."""
    env, _ = build()
    replica = env.add_asd_replica()
    env.run_for(1.0)
    client = env.client(env.daemons["asd"].host, principal="svc")
    env.run(client.call(
        env.ctx.asd_address,
        ACECmdLine("register", name="late.svc", host="svc1",
                   port=7777, room="lab", cls="ACEService/Late"),
        CallPolicy(),
    ))
    env.run_for(2.0)
    assert lookup_names(env, replica.address, cls="Late") == ["late.svc"]
