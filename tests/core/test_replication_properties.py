"""One property suite over both replicated tables (core/replication.py).

The store's ``ObjectNamespace`` and the directory's table are the same
``ReplicatedMap``; what differs is what each derives from it — XOR bucket
hashes there, ``records`` / ``_names`` / ``leases`` here.  Every property
runs against both, on entries that include tombstones and horizons that
had already lapsed when the entry arrived.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import DaemonContext
from repro.core.replication import wanted
from repro.net import Network
from repro.services.asd import DirEntry, ServiceDirectoryDaemon, ServiceRecord
from repro.sim import RngRegistry, Simulator
from repro.store.namespace import ObjectNamespace, StoredObject, Version
from repro.store.sharding import bucket_of

SETTINGS = dict(max_examples=40, deadline=None, derandomize=True)
SITES = ("s0", "s1", "s2")
#: unstarted daemons sit at sim time 0: the first two horizons have lapsed
HORIZONS = (-5.0, 0.0, 10.0, 20.0)


class StoreFlavour:
    def replicas(self, n):
        return [ObjectNamespace(f"r{i}") for i in range(n)]

    def entry(self, key, version, deleted, horizon):
        attrs = {} if deleted else {"horizon": str(horizon)}
        return StoredObject(f"/k{key}", attrs, Version(*version), deleted)

    def live(self, table, key):
        return table.get(key) is not None

    def check_derived(self, table):
        hashes = [0] * table.buckets
        for path, obj in table.entries.items():
            hashes[bucket_of(path, table.buckets)] ^= table._token(obj)
        assert table.bucket_hashes() == hashes
        assert len(table) == len(table.list())


class DirectoryFlavour:
    def replicas(self, n):
        sim = Simulator()
        rng = RngRegistry(0)
        net = Network(sim, rng)
        ctx = DaemonContext(sim=sim, net=net, rng=rng, lease_duration=5.0)
        host = net.make_host("infra", room="machineroom")
        self.daemons = {}
        for i in range(n):
            daemon = ServiceDirectoryDaemon(ctx, f"r{i}", host, port=4000 + i)
            self.daemons[id(daemon.table)] = daemon
        return [daemon.table for daemon in self.daemons.values()]

    def entry(self, key, version, deleted, horizon):
        record = ServiceRecord(f"k{key}", "farm", 7, "lab", "Echo")
        seq, site = version
        return DirEntry(record=record, expires_at=horizon, seq=seq, site=site,
                        deleted=deleted)

    def live(self, table, key):
        return key in self.daemons[id(table)].records

    def check_derived(self, table):
        daemon = self.daemons[id(table)]
        now = daemon.ctx.sim.now
        live = {
            name: entry.record for name, entry in table.entries.items()
            if not entry.deleted and entry.expires_at > now
        }
        assert daemon.records == live
        assert daemon._names == sorted(live)
        assert set(daemon.leases.holders()) == set(live)
        for name in live:
            assert daemon.leases.get(name).expires_at == table.entries[name].expires_at


FLAVOURS = {"store": StoreFlavour, "directory": DirectoryFlavour}
flavours = pytest.mark.parametrize("flavour", FLAVOURS.values(), ids=FLAVOURS)

#: (key, site, deleted, horizon); the position in the list is the counter,
#: so every version is unique (LWW: equal versions imply equal entries)
ops = st.lists(
    st.tuples(st.integers(0, 5), st.sampled_from(SITES), st.booleans(),
              st.sampled_from(HORIZONS)),
    min_size=1, max_size=40,
)


def build(flavour, ops):
    return [
        flavour.entry(key, (counter, site), deleted, horizon)
        for counter, (key, site, deleted, horizon) in enumerate(ops, start=1)
    ]


@flavours
@given(ops, st.integers(0, 2**16))
@settings(**SETTINGS)
def test_replicas_converge_in_any_order(flavour, ops, seed):
    """The same write set applied in three orders leaves one digest, one
    clock and one set of live keys."""
    flavour = flavour()
    entries = build(flavour, ops)
    replicas = flavour.replicas(3)
    for i, replica in enumerate(replicas):
        shuffled = list(entries)
        if i:
            random.Random(seed + i).shuffle(shuffled)
        for entry in shuffled:
            replica.apply(entry)
        flavour.check_derived(replica)
    first = replicas[0]
    assert first.clock == len(entries)
    for replica in replicas[1:]:
        assert replica.digest() == first.digest()
        assert replica.clock == first.clock
        for key in first.entries:
            assert flavour.live(replica, key) == flavour.live(first, key)


@flavours
@given(ops, st.integers(0, 2**16))
@settings(**SETTINGS)
def test_repair_reaches_a_fixed_point_and_tombstones_win(flavour, ops, seed):
    """Deal each write to one of three replicas, then pull with wanted() +
    apply: r0 from both peers, both peers from r0 — nothing is wanted
    afterwards, and a key whose newest write is a tombstone is live
    nowhere."""
    flavour = flavour()
    entries = build(flavour, ops)
    replicas = flavour.replicas(3)
    dealer = random.Random(seed)
    for entry in entries:
        dealer.choice(replicas).apply(entry)

    def pull(mine, peer):
        for key in wanted(mine.digest(), peer.digest().items()):
            assert mine.apply(peer.entries[key])

    r0, r1, r2 = replicas
    for mine, peer in ((r0, r1), (r0, r2), (r1, r0), (r2, r0)):
        pull(mine, peer)
    for mine in replicas:
        flavour.check_derived(mine)
        for peer in replicas:
            assert wanted(mine.digest(), peer.digest().items()) == []
    newest = {entry.key: entry for entry in entries}      # counters ascend
    assert r0.digest() == {key: entry.version for key, entry in newest.items()}
    for key, entry in newest.items():
        if entry.deleted:
            assert not any(flavour.live(replica, key) for replica in replicas)


@flavours
@given(ops, st.lists(st.integers(0, 5), max_size=10), st.integers(0, 2**16))
@settings(**SETTINGS)
def test_derived_state_follows_every_slot(flavour, ops, forgotten, seed):
    """Whatever moves a slot — a remote apply, a coordinator's own write, a
    forget — what the owner derives from the table is right after every
    step, not just at the end."""
    flavour = flavour()
    (table,) = flavour.replicas(1)
    rng = random.Random(seed)
    steps = [(rng.choice(("apply", "write")), op) for op in enumerate(ops, start=1)]
    steps += [("forget", key) for key in forgotten]
    rng.shuffle(steps)
    for verb, what in steps:
        if verb == "forget":
            key = flavour.entry(what, (0, ""), False, 0.0).key
            table.forget(key)
            assert key not in table.entries
        else:
            counter, (key, site, deleted, horizon) = what
            if verb == "write":
                entry = flavour.entry(key, table.next_version(), deleted, horizon)
                table.write(entry)
            else:
                entry = flavour.entry(key, (counter, site), deleted, horizon)
                won = table.apply(entry)
            if verb == "write" or won:
                assert table.entries[entry.key] is entry
            else:
                assert table.entries[entry.key].version >= entry.version
            assert table.clock >= entry.version[0]
        flavour.check_derived(table)
