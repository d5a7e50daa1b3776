"""E23 — the scale-out discovery plane (replicated ASD + client lookup
caches + pooled/pipelined RPC).

Four claims:

* **sweep** — users x replicas: uncached lookup latency climbs with the
  user population (every wire lookup queues at the primary's single
  command thread, §2.1.1) while the cached path stays flat — the client
  cache, not extra replicas, is what absorbs read load;
* **cache** — steady-state cached lookup p50 is >=10x faster than the
  uncached wire path (a cache hit never touches the wire at all);
* **availability** — with 3 replicas, crashing the primary mid-sweep
  fails zero lookups: clients fail over to a surviving replica;
* **rpc** — connection pooling and pipelining raise cross-segment
  lookup-style ops/s by a measured factor over dial-per-call.

Set ``ACE_BENCH_SHORT=1`` for a CI-sized run.  The scaling table is
written as ``e23_directory_scale.txt`` to ``ACE_BENCH_ARTIFACT_DIR`` (CI
uploads it as a build artifact).
"""

import os

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.metrics import ResultTable, summarize
from repro.services.asd import asd_lookup
from benchmarks.conftest import write_artifact
from tests.core.conftest import EchoDaemon

SHORT = bool(os.environ.get("ACE_BENCH_SHORT"))
USERS = (1, 4) if SHORT else (1, 4, 16)
LOOKUPS_PER_USER = 6 if SHORT else 12
N_SERVICES = 8 if SHORT else 24


def build_env(replicas, *, seed=23, with_watcher=True, n_services=N_SERVICES):
    env = ACEEnvironment(seed=seed, lease_duration=30.0)
    env.add_infrastructure(
        "infra", with_wss=False, with_idmon=False,
        asd_replicas=replicas, asd_sync_interval=2.0,
    )
    if with_watcher:
        env.add_directory_watcher()
    farm = env.add_workstation("farm", room="lab", bogomips=3200.0, cores=4,
                               monitors=False)
    for i in range(n_services):
        env.add_daemon(EchoDaemon(env.ctx, f"svc{i:03d}", farm, room="lab"))
    env.boot(settle=3.0)
    return env


def run_lookup_burst(env, users, *, use_cache, lookups=LOOKUPS_PER_USER):
    """``users`` closed-loop clients, each doing ``lookups`` directory
    queries; returns (latencies, failures)."""
    latencies = []
    failures = []

    def user(i):
        client = env.client(env.net.host("farm"), principal=f"user{i}")
        for _ in range(lookups):
            t0 = env.sim.now
            try:
                records = yield from asd_lookup(client, cls="Echo",
                                                use_cache=use_cache)
            except Exception as exc:              # count, never raise: the
                failures.append(repr(exc))        # claim is zero of these
            else:
                if len(records) < N_SERVICES:
                    failures.append(f"short reply: {len(records)}")
                latencies.append(env.sim.now - t0)
            # Near-zero think time: concurrent users genuinely contend for
            # the primary's single command thread instead of destaggering.
            yield env.sim.timeout(0.002)

    def burst():
        yield env.sim.all_of([env.sim.process(user(i)) for i in range(users)])

    env.run(burst(), timeout=600.0)
    return latencies, failures


def test_e23_users_x_replicas_sweep(benchmark, table_printer):
    table = table_printer(ResultTable(
        f"E23: lookup latency, users x replicas ({N_SERVICES} services)",
        ["replicas", "users", "uncached_p50_ms", "cached_p50_ms", "failures"],
    ))

    def run():
        rows = []
        for replicas in (1, 3):
            env = build_env(replicas)
            for users in USERS:
                lat_wire, fail_wire = run_lookup_burst(env, users,
                                                       use_cache=False)
                lat_hit, fail_hit = run_lookup_burst(env, users,
                                                     use_cache=True)
                rows.append((
                    replicas, users,
                    summarize(lat_wire).p50 * 1e3,
                    summarize(lat_hit).p50 * 1e3,
                    len(fail_wire) + len(fail_hit),
                ))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for replicas, users, wire_p50, hit_p50, failures in rows:
        table.add(replicas, users, round(wire_p50, 4), round(hit_p50, 4),
                  failures)
        assert failures == 0
        # The cache, not the replica count, is what flattens read latency.
        assert hit_p50 * 10 <= wire_p50
    # Uncached latency climbs with users (primary's single command thread
    # queues); the cached path must NOT climb along with it.
    one_replica = [r for r in rows if r[0] == 1]
    assert one_replica[-1][2] > one_replica[0][2]
    assert one_replica[-1][3] <= one_replica[0][2]

    write_artifact("e23_directory_scale.txt", table.render() + "\n")


def test_e23_cached_lookup_is_10x(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E23: cached vs uncached lookup p50",
        ["path", "p50_ms", "p95_ms", "cache_hits"],
    ))

    def run():
        env = build_env(1)
        lat_wire, fail_wire = run_lookup_burst(env, 2, use_cache=False,
                                               lookups=20)
        lat_hit, fail_hit = run_lookup_burst(env, 2, use_cache=True,
                                             lookups=20)
        assert not fail_wire and not fail_hit
        return summarize(lat_wire), summarize(lat_hit), env.ctx.lookup_cache.hits

    wire, hit, hits = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add("uncached (wire)", round(wire.p50 * 1e3, 4),
              round(wire.p95 * 1e3, 4), "")
    table.add("cached", round(hit.p50 * 1e3, 4), round(hit.p95 * 1e3, 4), hits)
    # The acceptance bar: cached p50 at least 10x faster.
    assert hit.p50 * 10 <= wire.p50
    assert hits > 0


def test_e23_replica_crash_zero_failed_lookups(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E23: primary replica crash mid-sweep (3 replicas)",
        ["phase", "lookups", "failed", "p50_ms", "failovers"],
    ))

    def run():
        # No watcher: every lookup goes to the wire, so the crash actually
        # exercises the failover path rather than the cache hiding it.
        env = build_env(3, with_watcher=False)
        before = run_lookup_burst(env, 4, use_cache=False, lookups=5)
        env.net.crash_host("infra")               # the primary's host
        after = run_lookup_burst(env, 4, use_cache=False, lookups=5)
        failovers = env.ctx.obs.metrics.counter("rpc.failover").value
        return before, after, failovers

    (lat_b, fail_b), (lat_a, fail_a), failovers = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    table.add("before crash", len(lat_b), len(fail_b),
              round(summarize(lat_b).p50 * 1e3, 4), 0)
    table.add("after crash", len(lat_a), len(fail_a),
              round(summarize(lat_a).p50 * 1e3, 4), failovers)
    # The availability claim: zero failed lookups across the crash.
    assert fail_b == [] and fail_a == []
    assert len(lat_b) == 20 and len(lat_a) == 20
    assert failovers > 0                          # survivors really answered


def test_e23_pooled_pipelined_ops_factor(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E23: RPC plane ops/s, cross-segment client (16 echo calls)",
        ["mode", "sim_s", "ops_per_s", "factor_vs_dial"],
    ))
    k = 16

    def run():
        env = build_env(1, with_watcher=False, n_services=1)
        echo = env.daemon("svc000")
        far = env.net.make_host("far", room="away", segment="wan")
        client = env.client(far, principal="rpc")

        def dial_per_call():
            t0 = env.sim.now
            for i in range(k):
                reply = yield from client.call(
                    echo.address, ACECmdLine("echo", text=f"d{i}")
                )
                assert reply.get("text") == f"d{i}"
            return env.sim.now - t0

        def pooled():
            t0 = env.sim.now
            for i in range(k):
                reply = yield from client.pool.call(
                    echo.address, ACECmdLine("echo", text=f"q{i}")
                )
                assert reply.get("text") == f"q{i}"
            return env.sim.now - t0

        def pipelined():
            pipe = yield from client.pipelined(echo.address, max_inflight=8)

            def one(i):
                reply = yield from pipe.call(ACECmdLine("echo", text=f"p{i}"))
                assert reply.get("text") == f"p{i}"

            t0 = env.sim.now
            yield env.sim.all_of([env.sim.process(one(i)) for i in range(k)])
            return env.sim.now - t0

        return {
            "dial-per-call": env.run(dial_per_call()),
            "pooled": env.run(pooled()),
            "pooled+pipelined": env.run(pipelined()),
        }

    times = benchmark.pedantic(run, rounds=1, iterations=1)
    t_dial = times["dial-per-call"]
    for mode, t in times.items():
        table.add(mode, round(t, 4), round(k / t, 1), round(t_dial / t, 2))
    # The measured, documented factors: pooling drops the per-call
    # dial+attach round trips; pipelining overlaps the remaining ones.
    assert times["pooled"] < t_dial / 1.5
    assert times["pooled+pipelined"] < t_dial / 3.0
    assert times["pooled+pipelined"] < times["pooled"]
