"""E11/A2 — the persistent store (Fig. 17, Chapter 6).

* write latency vs replication factor (A2: 1 vs 2 vs 3 replicas);
* read throughput scaling with balanced reads (the bottleneck-removal
  claim: "by having three separate storage servers it is possible to
  remove potential bottlenecks");
* availability under 1 and 2 replica crashes;
* resync traffic/time after a replica rejoins.
"""

import pytest

from repro.env import ACEEnvironment
from repro.metrics import ResultTable, summarize
from repro.store.client import StoreClient


def build_env(replicas, seed=50, sync_interval=2.0):
    env = ACEEnvironment(seed=seed)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    # A2's write-latency-vs-replicas shape (and E11's read-your-write
    # phases) assume the paper's synchronous push: the write awaits its
    # own one-entry batch to every peer.  E25 (bench_store_scale)
    # measures the batched default.
    env.add_persistent_store(replicas=replicas, sync_interval=sync_interval,
                             batch_replication=False)
    env.boot()
    return env


def test_a2_write_latency_vs_replication(benchmark, table_printer):
    table = table_printer(ResultTable(
        "A2: write latency vs replication factor",
        ["replicas", "put_p50_ms", "put_p95_ms"],
    ))

    def run():
        rows = []
        for n in (1, 2, 3):
            env = build_env(n)
            client = env.store_client(env.net.host("infra"))
            latencies = []

            def writes():
                for i in range(40):
                    t0 = env.sim.now
                    yield from client.put(f"/bench/obj{i}", {"v": str(i)})
                    latencies.append(env.sim.now - t0)

            env.run(writes(), timeout=300.0)
            summary = summarize(latencies)
            rows.append((n, summary.p50 * 1e3, summary.p95 * 1e3))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for n, p50, p95 in rows:
        table.add(n, round(p50, 4), round(p95, 4))
    # Shape: more replicas cost more per write (synchronous push), but
    # the overhead stays within one order of magnitude.
    assert rows[0][1] <= rows[2][1]
    assert rows[2][1] < rows[0][1] * 10


def test_e11_read_throughput_scaling(benchmark, table_printer):
    """Balanced reads across 3 replicas vs all reads on one server."""
    table = table_printer(ResultTable(
        "E11: read throughput, single server vs balanced cluster (5 s window)",
        ["mode", "reads_completed", "read_p95_ms"],
    ))

    def run():
        rows = []
        for balanced, label in ((False, "single-server"), (True, "balanced-3")):
            env = build_env(3, seed=51)
            seed_client = env.store_client(env.net.host("infra"))

            def seed_data():
                yield from seed_client.put("/hot", {"v": "x" * 200})

            env.run(seed_data())
            replicas = sorted(
                (d.address for d in env.daemons.values()
                 if type(d).__name__ == "PersistentStoreDaemon"), key=str)
            if not balanced:
                replicas = replicas[:1]
            done = []
            latencies = []
            stop_at = env.sim.now + 5.0

            def reader(idx):
                client = StoreClient(env.ctx, env.net.host("infra"), replicas,
                                     principal=f"r{idx}", balance_reads=balanced)
                while env.sim.now < stop_at:
                    t0 = env.sim.now
                    yield from client.get("/hot")
                    latencies.append(env.sim.now - t0)
                    done.append(1)

            for i in range(12):
                env.sim.process(reader(i), name=f"reader{i}")
            env.sim.run(until=stop_at + 2.0)
            rows.append((label, len(done), summarize(latencies).p95 * 1e3))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for label, reads, p95 in rows:
        table.add(label, reads, round(p95, 3))
    single, balanced = rows
    # Shape: the cluster serves substantially more reads at lower tail.
    assert balanced[1] > 1.5 * single[1]
    assert balanced[2] < single[2]


def test_e11_availability_under_crashes(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E11: availability under replica crashes (Fig. 17 claim)",
        ["crashed", "reads_ok", "writes_ok"],
    ))

    def run():
        env = build_env(3, seed=52)
        client = env.store_client(env.net.host("infra"))

        def phase(label):
            ok_r = ok_w = True
            def go():
                nonlocal ok_r, ok_w
                from repro.store.client import StoreUnavailable

                try:
                    yield from client.put(f"/avail/{label}", {"v": label})
                except StoreUnavailable:
                    ok_w = False
                try:
                    value = yield from client.get("/avail/base")
                    ok_r = value is not None
                except StoreUnavailable:
                    ok_r = False

            env.run(go())
            return ok_r, ok_w

        def seed():
            yield from client.put("/avail/base", {"v": "base"})

        env.run(seed())
        rows = [(0, *phase("zero"))]
        env.net.crash_host("store1")
        rows.append((1, *phase("one")))
        env.net.crash_host("store2")
        rows.append((2, *phase("two")))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    for crashed, ok_r, ok_w in rows:
        table.add(crashed, "yes" if ok_r else "NO", "yes" if ok_w else "NO")
        assert ok_r and ok_w  # "ACE services may still access the stored information"


def test_e11_rejoin_resync(benchmark, table_printer):
    table = table_printer(ResultTable(
        "E11: replica rejoin and anti-entropy resync",
        ["metric", "value"],
    ))

    def run():
        env = build_env(3, seed=53, sync_interval=1.0)
        client = env.store_client(env.net.host("infra"))

        def writes(prefix, n):
            for i in range(n):
                yield from client.put(f"/{prefix}/{i}", {"v": str(i)})

        env.run(writes("pre", 10))
        env.net.crash_host("store1")
        env.run(writes("during", 25))
        env.net.restart_host("store1")
        from repro.store.server import PersistentStoreDaemon

        ps1 = env.daemon("ps1")
        reborn = PersistentStoreDaemon(
            env.ctx, "ps1r", env.net.host("store1"), port=ps1.port + 50,
            room="machineroom", sync_interval=1.0,
        )
        reborn.set_peers([env.daemon("ps2").address, env.daemon("ps3").address])
        env.daemons["ps1r"] = reborn
        reborn.start()
        t0 = env.sim.now
        deadline = t0 + 60.0
        while env.sim.now < deadline:
            if len(reborn.namespace) >= 35:
                break
            env.run_for(0.5)
        return env.sim.now - t0, len(reborn.namespace), reborn.replications_applied

    resync_time, objects, applied = benchmark.pedantic(run, rounds=1, iterations=1)
    table.add("objects recovered", objects)
    table.add("resync time (s)", round(resync_time, 2))
    table.add("anti-entropy applies", applied)
    assert objects == 35
    assert resync_time < 30.0
