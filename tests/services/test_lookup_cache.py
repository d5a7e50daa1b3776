"""Cache-coherence invariants for the client-side :class:`LookupCache`.

Three angles:

* a hypothesis **refinement check** of the pure cache against an
  obviously-correct model: whatever the cache serves must be exactly what
  an unbounded, spec-following model would serve, and never past the
  lease horizon the ``put`` declared;
* a hypothesis **interleaving test against a live directory**: random
  register / deregister / lease-expiry / lookup schedules, asserting the
  cached ``asd_lookup`` view equals directory ground truth once the
  (one-tick) invalidation notification has landed;
* deterministic end-to-end checks of the two coherence halves — push
  (watcher invalidation within a tick) and pull (TTL expiry at the lease
  horizon after a silent crash).

``derandomize=True`` keeps CI deterministic; failures replay exactly.
"""

from hypothesis import given, settings, strategies as st

from repro.lang import ACECmdLine
from repro.core.lookup_cache import LookupCache, query_key
from repro.services.asd import ServiceRecord, asd_lookup
from repro.services.asd import DirectoryWatcherDaemon

from tests.core.conftest import AceFixture, EchoDaemon

SETTINGS = dict(deadline=None, derandomize=True)

NAMES = ["alpha", "beta", "gamma", "delta"]
KEYS = (
    [query_key(n, None, None) for n in NAMES[:2]]
    + [query_key(None, "Echo", None), query_key(None, "Echo", "lab"),
       query_key(None, None, "lab"), query_key(None, None, None)]
)


def _record(name, room="lab"):
    return ServiceRecord(name=name, host="h", port=1, room=room, cls="Echo")


ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, len(KEYS) - 1),
                  st.sets(st.sampled_from(NAMES), min_size=0, max_size=3),
                  st.floats(min_value=-1.0, max_value=8.0, allow_nan=False)),
        st.tuples(st.just("advance"),
                  st.floats(min_value=0.0, max_value=6.0, allow_nan=False)),
        st.tuples(st.just("get"), st.integers(0, len(KEYS) - 1)),
        st.tuples(st.just("dereg"), st.sampled_from(NAMES)),
        st.tuples(st.just("reg"), st.sampled_from(NAMES)),
        st.tuples(st.just("crash"),),   # silent failure: NO invalidation
    ),
    min_size=1, max_size=30,
)


@given(ops)
@settings(max_examples=300, **SETTINGS)
def test_cache_refines_the_model(op_list):
    """The cache never serves anything a spec-following model would not:
    entries appear on ``put``, vanish at their horizon, and vanish
    immediately on invalidation.  (The cache may serve *less* — LRU
    eviction — so this is containment of served data, equality of
    content.)"""
    cache = LookupCache(max_entries=4)     # small: exercises eviction
    model = {}                             # key -> (frozenset names, expires)
    now = 0.0
    for op in op_list:
        kind = op[0]
        if kind == "put":
            _, ki, names, ttl = op
            records = tuple(_record(n) for n in sorted(names))
            cache.put(KEYS[ki], records, now, ttl)
            if records and ttl > 0:        # the put contract: else ignored
                model[KEYS[ki]] = (frozenset(names), now + ttl)
        elif kind == "advance":
            now += op[1]
        elif kind == "get":
            key = KEYS[op[1]]
            served = cache.get(key, now)
            if served is not None:
                assert key in model, "cache served a key the model dropped"
                names, expires = model[key]
                assert now < expires, "served past the lease horizon"
                assert {r.name for r in served} == names
        elif kind == "dereg":
            name = op[1]
            cache.invalidate_service(name)
            model = {
                k: v for k, v in model.items()
                if k[0] != name and name not in v[0]
            }
        elif kind == "reg":
            record = _record(op[1])
            cache.invalidate_record(record)
            # A new registration purges every query it could match (the
            # entry is missing it) and every entry naming the service
            # (it may have moved).
            model = {
                k: v for k, v in model.items()
                if not (
                    k[0] in ("", record.name)
                    and k[2] in ("", record.room)
                    and (not k[1] or record.matches_class(k[1]))
                )
                and record.name not in v[0] and k[0] != record.name
            }
        elif kind == "crash":
            pass  # no invalidation arrives: only the TTL protects readers


# ----------------------------------------------------------------------
# Interleavings against a live directory (shared booted fixture; each
# example uses a unique class namespace so examples stay independent).
# ----------------------------------------------------------------------
LEASE = 5.0
_shared = {}


def _fixture():
    if "ace" not in _shared:
        ace = AceFixture(seed=13, lease_duration=LEASE).boot()
        watcher = DirectoryWatcherDaemon(
            ace.ctx, "dirwatch", ace.infra_host, room="machineroom"
        )
        ace.add_daemon(watcher)
        watcher.start()
        ace.sim.run(until=ace.sim.now + 1.0)
        _shared["ace"] = ace
        _shared["n"] = 0
    return _shared["ace"]


live_ops = st.lists(
    st.one_of(
        st.tuples(st.just("reg"), st.integers(0, 3)),
        st.tuples(st.just("dereg"), st.integers(0, 3)),
        st.tuples(st.just("expire"),),     # wait a full lease: all purge
        st.tuples(st.just("lookup"),),
    ),
    min_size=2, max_size=8,
)


@given(live_ops)
@settings(max_examples=25, **SETTINGS)
def test_cached_lookup_tracks_directory_ground_truth(op_list):
    ace = _fixture()
    _shared["n"] += 1
    tag = _shared["n"]
    cls = f"PropCls{tag}"          # unique per example: no cross-pollution
    live = set()

    def scenario():
        client = ace.client(principal=f"coherence{tag}")
        for op in op_list:
            if op[0] == "reg":
                name = f"p{tag}.s{op[1]}"
                yield from client.call(
                    ace.asd.address,
                    ACECmdLine("register", name=name, host="h", port=1,
                               room="lab", cls=cls),
                )
                live.add(name)
            elif op[0] == "dereg":
                name = f"p{tag}.s{op[1]}"
                if name not in live:
                    continue
                yield from client.call(
                    ace.asd.address, ACECmdLine("deregister", name=name)
                )
                live.discard(name)
            elif op[0] == "expire":
                # Nothing renews these raw registrations: one full lease
                # (plus sweep slack) purges every live one.
                yield ace.sim.timeout(LEASE + 1.5)
                live.clear()
            else:
                # One tick for the in-flight invalidation notification,
                # then the cached view must equal ground truth exactly.
                yield ace.sim.timeout(0.3)
                records = yield from asd_lookup(client, cls=cls)
                assert {r.name for r in records} == live
        # Leave no live leases behind (hygiene between examples).
        for name in sorted(live):
            yield from client.call(
                ace.asd.address, ACECmdLine("deregister", name=name)
            )

    ace.run(scenario(), timeout=600.0)
    assert ace.ctx.lookup_cache.enabled    # the watcher switched it on


# ----------------------------------------------------------------------
# Deterministic end-to-end: the two coherence halves
# ----------------------------------------------------------------------
def _booted_with_watcher(lease_duration=5.0):
    ace = AceFixture(seed=21, lease_duration=lease_duration).boot()
    watcher = DirectoryWatcherDaemon(
        ace.ctx, "dirwatch", ace.infra_host, room="machineroom"
    )
    ace.add_daemon(watcher)
    watcher.start()
    host = ace.net.make_host("bar", room="hawk")
    echo = EchoDaemon(ace.ctx, "echo1", host, room="hawk")
    ace.add_daemon(echo)
    echo.start()
    ace.sim.run(until=ace.sim.now + 1.0)
    return ace, watcher, host, echo


def _lookup(ace, **query):
    def scenario():
        client = ace.client(principal="reader")
        records = yield from asd_lookup(client, **query)
        return records

    return ace.run(scenario())


def test_watcher_invalidates_within_one_tick():
    ace, watcher, host, echo = _booted_with_watcher()
    cache = ace.ctx.lookup_cache
    assert cache.enabled                       # flipped by the watcher

    assert {r.name for r in _lookup(ace, cls="Echo")} == {"echo1"}
    hits_before = cache.hits
    assert {r.name for r in _lookup(ace, cls="Echo")} == {"echo1"}
    assert cache.hits == hits_before + 1       # steady state: no wire trip

    # Push half: a *new* registration purges the stale negative-ish entry
    # within a tick, so the next lookup sees it immediately.
    echo2 = EchoDaemon(ace.ctx, "echo2", host, room="hawk")
    ace.add_daemon(echo2)
    echo2.start()
    ace.sim.run(until=ace.sim.now + 0.5)       # registration + notification
    assert watcher.invalidations >= 1
    assert {r.name for r in _lookup(ace, cls="Echo")} == {"echo1", "echo2"}

    # ...and a deregistration purges within a tick too.
    echo2.stop()
    ace.sim.run(until=ace.sim.now + 0.5)
    assert {r.name for r in _lookup(ace, cls="Echo")} == {"echo1"}


def test_crashed_service_never_served_past_lease_horizon():
    ace, watcher, host, echo = _booted_with_watcher(lease_duration=4.0)
    cache = ace.ctx.lookup_cache

    assert {r.name for r in _lookup(ace, cls="Echo")} == {"echo1"}
    # Silent crash: no deregister command, no notification — only leases.
    ace.net.crash_host("bar")
    # Within the horizon the cache may (correctly) serve the stale record:
    # that staleness window is exactly what the paper's leases grant.
    stale = _lookup(ace, cls="Echo")
    assert {r.name for r in stale} <= {"echo1"}
    # Past the horizon the TTL entry is dead and the directory has purged
    # the lease, so the crashed service is gone — from cache AND wire.
    ace.sim.run(until=ace.sim.now + 4.0 + 2.0)
    expired_before = cache.expired
    assert _lookup(ace, cls="Echo") == []
    assert cache.expired >= expired_before     # TTL did the purging
    assert "echo1" not in ace.asd.records
