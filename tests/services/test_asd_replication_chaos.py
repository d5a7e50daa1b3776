"""Deterministic chaos: the directory replica group under crashes.

The §5.3 robust-application claim, applied to the ASD itself: with three
replicas, killing one and then a second mid-workload never fails a
lookup (clients fail over), lease expiry still purges crashed services
on the lone survivor, and a restarted replica re-converges through
anti-entropy — all bit-for-bit reproducible from the seed.
"""

import pytest

from repro.core import ACEDaemon
from repro.env import ACEEnvironment
from repro.lang import ACECmdLine, ArgSpec, ArgType
from repro.services.asd import (
    DirEntry,
    ServiceDirectoryDaemon,
    ServiceRecord,
    asd_lookup,
)
from repro.sim import canonical_trace_hash

from tests.core.conftest import EchoDaemon

N_SERVICES = 6
LEASE = 6.0
SYNC = 1.0


def build_env(seed=3):
    env = ACEEnvironment(seed=seed, lease_duration=LEASE)
    env.add_infrastructure(
        "infra", with_wss=False, with_idmon=False,
        asd_replicas=3, asd_sync_interval=SYNC,
    )
    farm = env.add_workstation("farm", room="lab", monitors=False)
    spare = env.add_workstation("spare", room="lab", monitors=False)
    for i in range(N_SERVICES):
        env.add_daemon(EchoDaemon(env.ctx, f"svc{i}", farm, room="lab"))
    env.add_daemon(EchoDaemon(env.ctx, "victim", spare, room="lab"))
    env.boot(settle=2.0)
    return env


def run_crash_workload(env):
    """30 lookups at 0.4s spacing; replica 2 dies after 10, the leader
    after 20.  Returns (results, t_marks) — every lookup's (sim_now,
    sorted names)."""
    results = []

    def workload():
        client = env.client(env.net.host("farm"), principal="prober")
        for i in range(30):
            if i == 10:
                env.net.crash_host("infra-asd2")
            if i == 20:
                env.net.crash_host("infra")       # the leader's host
            records = yield from asd_lookup(client, cls="Echo")
            results.append((round(env.sim.now, 6), sorted(r.name for r in records)))
            yield env.sim.timeout(0.4)

    env.run(workload(), timeout=600.0)
    return results


def test_replicas_converge_after_boot():
    env = build_env()
    env.run_for(3 * SYNC)
    expected = {f"svc{i}" for i in range(N_SERVICES)} | {"victim"}
    for name in ("asd", "asd2", "asd3"):
        replica = env.daemon(name)
        assert expected <= set(replica.records), name
    # Convergence came from actual replication traffic, not coincidence.
    assert env.daemon("asd").replications_sent > 0
    total_applied = sum(
        env.daemon(n).replications_applied for n in ("asd2", "asd3")
    )
    assert total_applied >= 2 * (N_SERVICES + 1) - 5  # push or anti-entropy


def test_lookups_survive_two_replica_crashes():
    env = build_env()
    results = run_crash_workload(env)
    # Zero failed lookups: every one of the 30 found every echo service
    # (the victim included — its host never crashes here).
    assert len(results) == 30
    expected = sorted([f"svc{i}" for i in range(N_SERVICES)] + ["victim"])
    for now, names in results:
        assert names == expected, f"lookup at t={now} lost services"
    # The survivor answered because clients actually failed over.
    assert env.ctx.obs.metrics.counter("rpc.failover").value > 0
    # With the leader dead, the surviving follower coordinated writes
    # itself (lease renewals kept flowing via the leader-bypass path).
    env.run_for(2 * LEASE)
    survivor = env.daemon("asd3")
    assert survivor.coordinated_writes > 0
    still_expected = {f"svc{i}" for i in range(N_SERVICES)} | {"victim"}
    assert still_expected <= set(survivor.records)


def test_lease_expiry_purges_on_survivor():
    env = build_env()
    run_crash_workload(env)                      # leaves only asd3 alive
    env.net.crash_host("spare")                  # victim dies silently
    env.run_for(LEASE + 2.0)                     # one lease + sweep slack
    survivor = env.daemon("asd3")
    assert "victim" not in survivor.records      # purged by expiry alone
    assert {f"svc{i}" for i in range(N_SERVICES)} <= set(survivor.records)

    def check():
        client = env.client(env.net.host("farm"), principal="after")
        records = yield from asd_lookup(client, cls="Echo")
        return sorted(r.name for r in records)

    assert env.run(check()) == sorted(f"svc{i}" for i in range(N_SERVICES))


def test_restarted_replica_resyncs_via_anti_entropy():
    env = build_env()
    env.run_for(2 * SYNC)
    asd2 = env.daemon("asd2")
    env.net.crash_host("infra-asd2")
    env.run_for(1.0)

    # A write the dead replica never saw.
    def register_late():
        client = env.client(env.net.host("farm"), principal="late")
        yield from client.call(
            env.asd_address,
            ACECmdLine("register", name="latecomer", host="farm", port=7,
                       room="lab", cls="Echo"),
        )

    env.run(register_late())
    assert "latecomer" not in asd2.records

    env.net.restart_host("infra-asd2")
    reborn = ServiceDirectoryDaemon(
        env.ctx, "asd2b", env.net.host("infra-asd2"),
        port=asd2.address.port, room="machineroom", sync_interval=SYNC,
    )
    reborn.set_group(list(env.ctx.asd_addresses))
    reborn.start()
    env.run_for(3 * SYNC + 1.0)

    # Anti-entropy pulled the whole registry, including the late write.
    assert reborn.syncs_completed > 0
    assert reborn.replications_applied > 0
    expected = {f"svc{i}" for i in range(N_SERVICES)} | {"victim", "latecomer"}
    assert expected <= set(reborn.records)
    # Adopted horizons, not restarted clocks: the reborn replica's lease
    # for a synced service matches the leader's, so expiry stays aligned.
    name = "svc0"
    assert abs(
        reborn.leases.get(name).expires_at
        - env.daemon("asd").leases.get(name).expires_at
    ) < 1e-9


def test_crash_workload_is_deterministic():
    first = run_crash_workload(build_env(seed=17))
    second = run_crash_workload(build_env(seed=17))
    assert first == second


def test_directory_group_wire_is_pinned():
    """The replica group's wire is on no ``bench/`` workload; this is its
    ledger entry (taken at a54542c, before the group moved onto
    ``core/replication.py``)."""
    env = build_env(seed=3)
    run_crash_workload(env)
    env.net.crash_host("spare")
    env.run_for(LEASE + 2.0)
    records = env.ctx.trace.records
    assert len(records) == 544
    assert canonical_trace_hash(records) == (
        "c81c514f0416e5a5e17f457470121ce487201f760b0f8b5ea2a46bf0338c4a08"
    )


def ask(env, replica, command):
    def go():
        client = env.client(env.net.host("farm"), principal="prober")
        return (yield from client.call(env.daemon(replica).address, command))

    return env.run(go())


def test_lapsed_entry_does_not_outlive_three_lease_durations():
    """An entry already past its horizon when it arrives (a late push over
    a degraded link) holds no record and no lease; it must still leave the
    table, or every digest lists it and every peer fetches it back."""
    env = build_env()
    env.run_for(2 * SYNC)
    ghost = DirEntry(
        record=ServiceRecord("ghost", "farm", 9, "lab", "Echo"),
        expires_at=env.sim.now - 0.001, seq=1, site="late",
    )
    reply = ask(env, "asd2", ACECmdLine("dirReplicate", entries=(ghost.to_wire(),)))
    assert reply["applied"] == 1
    env.run_for(SYNC * 3)
    assert "ghost" in env.daemon("asd3").table.entries   # it did spread

    env.run_for(4 * LEASE)
    live = {f"svc{i}" for i in range(N_SERVICES)} | {"victim"}
    for name in ("asd", "asd2", "asd3"):
        replica = env.daemon(name)
        assert "ghost" not in replica.table.entries, name
        listing = ask(env, name, ACECmdLine("dirDigest"))["entries"]
        assert not [line for line in listing if line.startswith("ghost|")], name
        stats = ask(env, name, ACECmdLine("dirStats"))
        assert stats["entries"] == stats["services"], name
        assert live <= set(replica.records), name          # live entries untouched


class GarbledPeer(ACEDaemon):
    """A group member whose ``dirFetch`` reply carries ``self.wire``."""

    service_type = "GarbledPeer"
    wire = ""

    def build_semantics(self, sem):
        sem.define("dirDigest")
        sem.define("dirFetch", ArgSpec("names", ArgType.VECTOR))

    def cmd_dirDigest(self, request):
        return {"count": 1, "entries": ("ghost|7|peer",)}

    def cmd_dirFetch(self, request):
        return {"count": 1, "entries": (self.wire,)}


GHOST = "ghost\\|farm\\|9\\|lab\\|Echo"     # a record, escaped as a field
MALFORMED_ENTRIES = {
    "wrong-field-count": f"{GHOST}|1.0|7",
    "bad-seq": f"{GHOST}|1e9|notanint|peer|0|0",
    "bad-horizon": f"{GHOST}|soon|7|peer|0|0",
    "bad-record": "ghost\\|farm\\|9|1e9|7|peer|0|0",
}


@pytest.mark.parametrize("wire", MALFORMED_ENTRIES.values(), ids=MALFORMED_ENTRIES)
def test_malformed_fetched_entry_is_skipped_by_the_repair(wire):
    env = ACEEnvironment(seed=3, lease_duration=LEASE)
    infra = env.add_infrastructure(
        "infra", with_wss=False, with_idmon=False, asd_sync_interval=SYNC,
    )
    peer = GarbledPeer(env.ctx, "garbled", infra, room="machineroom",
                       authorize_commands=False, register_with_asd=False)
    peer.wire = wire
    env.add_daemon(peer)
    asd = env.daemon("asd")
    asd.set_group([asd.address, peer.address])
    env.boot()
    env.run_for(3 * SYNC)
    assert asd.syncs_completed >= 2            # asked, fetched, kept going
    assert asd.replications_applied == 0
    assert "ghost" not in asd.table.entries
    assert asd.running
