"""E25 — store data-plane scale-out (tracked).

Four measurements, all in deterministic sim time (ratios are exact and
machine-independent):

* **shard sweep** — the E25 workload (`store_workload`) against 1, 2, and
  4 replica-groups.  Each group's coordinator executes commands serially
  at ``dispatch_work / bogomips`` per request, so aggregate put/get
  throughput grows with the number of groups the consistent-hash map
  spreads keys over.
* **batched vs per-object replication** — write-only workload on one
  3-replica group.  ``batch_replication=False`` holds the coordinator's
  control thread for a full peer round trip per write; the batched
  default acknowledges immediately and ships `psReplicateBatch` RPCs in
  the background.
* **cached vs wire re-reads** — one hot path read K times through the
  versioned client cache (one miss, K-1 hits) vs K wire reads.
* **post-crash convergence** — a replica dies mid-workload, a fresh
  process rejoins, and incremental anti-entropy must bring every replica
  to the *identical* ``namespace_hash()`` — checked on both replication
  modes.

The report is ``BENCH_E25.json``; its guard
(``benchmarks/conftest.py:record``) flags a >20% drop of any speedup ratio
vs the committed baseline.  ``ACE_BENCH_SHORT=1`` shrinks the workloads.
"""

import os

from repro.env import ACEEnvironment
from repro.metrics import ResultTable
from repro.workloads import store_workload

from benchmarks.conftest import record

SHORT = bool(os.environ.get("ACE_BENCH_SHORT"))
DURATION = 5.0 if SHORT else 12.0
N_CLIENTS = 16 if SHORT else 24
RE_READS = 50 if SHORT else 100
CONV_OBJECTS = 15 if SHORT else 30

#: acceptance targets (ISSUE E25); the committed baseline must clear these
SHARD_SPEEDUP_MIN = 2.0      # 4 groups vs 1 group, aggregate ops/s
BATCH_SPEEDUP_MIN = 2.0      # batched vs per-object write throughput
CACHE_SPEEDUP_MIN = 10.0     # cached re-reads vs wire re-reads


def build_env(groups=1, replicas=2, seed=55, sync_interval=2.0, **store_kwargs):
    env = ACEEnvironment(seed=seed)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    env.add_persistent_store(
        replicas=replicas, groups=groups, sync_interval=sync_interval,
        **store_kwargs,
    )
    env.boot()
    return env


# ---------------------------------------------------------------------------
# 1. Shard sweep
# ---------------------------------------------------------------------------

def run_shard_sweep() -> dict:
    results: dict = {"groups": {}}
    for groups in (1, 2, 4):
        env = build_env(groups=groups)
        recorder = store_workload(
            env, n_clients=N_CLIENTS, duration=DURATION,
            write_fraction=0.5, think_time=0.005,
        )
        results["groups"][str(groups)] = {
            "ops": len(recorder),
            "ops_per_s": round(len(recorder) / DURATION, 1),
            "p95_ms": round(recorder.summary().p95 * 1e3, 3),
        }
    one = results["groups"]["1"]["ops_per_s"]
    four = results["groups"]["4"]["ops_per_s"]
    results["speedup_4_vs_1"] = round(four / one, 3)
    return results


# ---------------------------------------------------------------------------
# 2. Batched vs per-object replication
# ---------------------------------------------------------------------------

def run_replication_ab() -> dict:
    results = {}
    for label, batched in (("batched", True), ("sync", False)):
        env = build_env(replicas=3, batch_replication=batched)
        recorder = store_workload(
            env, n_clients=N_CLIENTS, duration=DURATION,
            write_fraction=1.0, think_time=0.005,
        )
        results[label] = {
            "writes": len(recorder),
            "writes_per_s": round(len(recorder) / DURATION, 1),
            "put_p95_ms": round(recorder.summary().p95 * 1e3, 3),
        }
    results["speedup"] = round(
        results["batched"]["writes_per_s"] / results["sync"]["writes_per_s"], 3
    )
    return results


# ---------------------------------------------------------------------------
# 3. Cached vs wire re-reads
# ---------------------------------------------------------------------------

def run_read_cache() -> dict:
    env = build_env(replicas=2)
    wire = env.store_client(env.net.host("infra"), principal="wire")
    cached = env.store_client(env.net.host("infra"), principal="cached",
                              cache_reads=True, cache_ttl=1e9)

    def measure(client):
        def go():
            yield from wire.put("/hot/object", {"v": "1"})
            yield env.sim.timeout(1.0)
            t0 = env.sim.now
            for _ in range(RE_READS):
                value = yield from client.get("/hot/object")
                assert value == {"v": "1"}
            return env.sim.now - t0

        return env.run(go())

    wire_s = measure(wire)
    cached_s = measure(cached)  # one miss populates, the rest hit
    return {
        "re_reads": RE_READS,
        "wire_s": round(wire_s, 6),
        "cached_s": round(cached_s, 6),
        "speedup": round(wire_s / cached_s, 3),
    }


# ---------------------------------------------------------------------------
# 4. Post-crash convergence (both replication modes)
# ---------------------------------------------------------------------------

def run_convergence() -> dict:
    results = {}
    for label, batched in (("batched", True), ("sync", False)):
        env = build_env(replicas=3, sync_interval=0.5,
                        batch_replication=batched)
        client = env.store_client(env.net.host("infra"))

        def writes(prefix, n):
            for i in range(n):
                yield from client.put(f"/{prefix}/o{i}", {"v": str(i)})

        env.run(writes("pre", CONV_OBJECTS))
        env.net.crash_host("store2")
        env.run(writes("during", CONV_OBJECTS))
        env.net.restart_host("store2")
        from repro.store.server import PersistentStoreDaemon

        ps2 = env.daemon("ps2")
        reborn = PersistentStoreDaemon(
            env.ctx, "ps2r", env.net.host("store2"), port=ps2.port + 77,
            room="machineroom", sync_interval=0.5,
            batch_replication=batched,
        )
        reborn.set_peers([env.daemon("ps1").address, env.daemon("ps3").address])
        env.daemons["ps2r"] = reborn
        reborn.start()
        t0 = env.sim.now
        deadline = t0 + 60.0
        daemons = [env.daemon("ps1"), reborn, env.daemon("ps3")]
        converged = False
        while env.sim.now < deadline:
            hashes = {d.namespace.namespace_hash() for d in daemons}
            if len(hashes) == 1 and len(daemons[0].namespace) >= 2 * CONV_OBJECTS:
                converged = True
                break
            env.run_for(0.5)
        results[label] = {
            "converged": converged,
            "time_s": round(env.sim.now - t0, 2),
            "objects": len(daemons[0].namespace),
            "hash": daemons[0].namespace.namespace_hash()[:16],
        }
    return results


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------

def test_e25_store_scale(benchmark, table_printer):
    def run():
        return {
            "experiment": "E25",
            "short": SHORT,
            "targets": {
                "shard_speedup_min": SHARD_SPEEDUP_MIN,
                "batch_speedup_min": BATCH_SPEEDUP_MIN,
                "cache_speedup_min": CACHE_SPEEDUP_MIN,
            },
            "shards": run_shard_sweep(),
            "replication": run_replication_ab(),
            "read_cache": run_read_cache(),
            "convergence": run_convergence(),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    st = table_printer(ResultTable(
        f"E25: put/get throughput vs shard count "
        f"({N_CLIENTS} clients, {DURATION:.0f} sim-s)",
        ["groups", "ops", "ops_per_s", "p95_ms"],
    ))
    for groups, row in report["shards"]["groups"].items():
        st.add(groups, row["ops"], row["ops_per_s"], row["p95_ms"])
    st.add("4 vs 1", "", f'{report["shards"]["speedup_4_vs_1"]:.2f}x', "")

    rt = table_printer(ResultTable(
        "E25: write throughput, batched vs per-object replication",
        ["mode", "writes_per_s", "put_p95_ms"],
    ))
    for mode in ("batched", "sync"):
        row = report["replication"][mode]
        rt.add(mode, row["writes_per_s"], row["put_p95_ms"])
    rt.add("speedup", f'{report["replication"]["speedup"]:.2f}x', "")

    rc = report["read_cache"]
    ct = table_printer(ResultTable(
        f"E25: {RE_READS} re-reads of one hot object (sim-s)",
        ["path", "total_s", "speedup"],
    ))
    ct.add("wire", rc["wire_s"], "")
    ct.add("cached", rc["cached_s"], f'{rc["speedup"]:.0f}x')

    cv = table_printer(ResultTable(
        "E25: namespace convergence after replica crash + rejoin",
        ["mode", "converged", "time_s", "objects"],
    ))
    for mode in ("batched", "sync"):
        row = report["convergence"][mode]
        cv.add(mode, "yes" if row["converged"] else "NO",
               row["time_s"], row["objects"])

    # Shape assertions — sim-time ratios are deterministic, so the ISSUE
    # targets are asserted directly.
    shards = report["shards"]["speedup_4_vs_1"]
    assert shards >= SHARD_SPEEDUP_MIN, (
        f"4 shard groups only {shards:.2f}x one group "
        f"(target {SHARD_SPEEDUP_MIN}x)")
    batch = report["replication"]["speedup"]
    assert batch >= BATCH_SPEEDUP_MIN, (
        f"batched replication only {batch:.2f}x per-object "
        f"(target {BATCH_SPEEDUP_MIN}x)")
    cache = rc["speedup"]
    assert cache >= CACHE_SPEEDUP_MIN, (
        f"cached re-reads only {cache:.2f}x wire (target {CACHE_SPEEDUP_MIN}x)")
    for mode in ("batched", "sync"):
        row = report["convergence"][mode]
        assert row["converged"], f"{mode} replicas never converged: {row}"
    assert (report["convergence"]["batched"]["hash"]
            == report["convergence"]["sync"]["hash"]), (
        "batched and sync runs of the same workload disagree on the data")

    # The shard and cache ratios scale with the run size (warmup fraction,
    # number of re-reads), so only a run of the committed length compares.
    record(report, drops=["replication.speedup", "shards.speedup_4_vs_1",
                          "read_cache.speedup"])
