"""E29/E30 — the sharded kernel at population scale (tracked).

The four-region campus (:mod:`repro.env.campus`) under the population
workload (:mod:`repro.workloads.population`: MMPP arrivals, a flash crowd,
per-user session FSMs), swept across 1, 2, 4 and 8 kernel shards
(:class:`repro.sim.parallel.ShardedSimulator`, one OS process per shard,
demand-driven conservative sync).  At 8 shards the region-contiguous map
leaves four shards empty.

Pinned in ``BENCH_E30.json``:

* **determinism** — the merged trace is shard-count invariant: one
  canonical hash at 1, 2, 4 and 8 shards, both on a fixed-scale
  invariance profile (hash committed and CI-guarded; E29's profile,
  re-pinned once when sessions began holding their connections —
  EXPERIMENTS.md E30) and on the full population sweep.
* **no sync overhead messages** — every grant delivers at least one
  event: ``sync.null_messages`` and ``sync.lookahead_stalls`` are 0 at
  every shard count, and an empty shard receives the boot grant only.
* **the 100k rung** — a 100k-user campus run
  (:func:`repro.env.campus_100k_profile`) completes a timed 4-shard run
  with zero errors and < 600 bytes/user of population bookkeeping; wall
  seconds, per-shard maxrss and served ops are recorded.

Critical-path CPU (max per-shard CPU + coordinator CPU) is reported as a
diagnostic only; host-speed claims are ``python3 -m bench``'s job.

The report is ``BENCH_E30.json``; its guard
(``benchmarks/conftest.py:record``) flags an invariance-hash change.
``ACE_BENCH_SHORT=1`` runs CI-sized populations (the invariance profile
is deliberately SHORT-independent).
"""

import functools
import os
import time
import tracemalloc

from repro.env import build_campus, campus_100k_profile, campus_shard_map
from repro.metrics import ResultTable, cores_available
from repro.sim.parallel import ShardedSimulator
from repro.sim.trace import diff_traces
from repro.workloads import (
    PopulationProfile,
    collect_population,
    start_population,
)

from benchmarks.conftest import record

SHORT = bool(os.environ.get("ACE_BENCH_SHORT"))
REGIONS = 4
SEED = 29
SHARD_COUNTS = (1, 2, 4, 8)

#: the population under test: 10k users full-size, CI-sized when SHORT
SWEEP_PROFILE = PopulationProfile(
    n_users=1_500 if SHORT else 10_000,
    duration=20.0 if SHORT else 30.0,
    process="mmpp",
    flash_at=12.0 if SHORT else 18.0,
    flash_duration=4.0 if SHORT else 6.0,
)

#: fixed-scale run whose merged-trace hash is pinned in BENCH_E30.json —
#: deliberately independent of SHORT so CI checks the committed hash
INVARIANCE_PROFILE = PopulationProfile(
    n_users=120, duration=8.0, process="poisson",
    flash_at=4.0, flash_duration=2.0,
)

#: the 100k-user rung (SHORT: 20k)
N_USERS_100K = 20_000 if SHORT else 100_000
CAMPUS_100K_SHARDS = 4
#: population bookkeeping the rung may hold per user, summed over shards
#: (the budget tests/env/test_population_memory.py gates on one kernel)
BOOKKEEPING_BYTES_PER_USER = 600

BUILDER = functools.partial(build_campus, regions=REGIONS, seed=SEED)
#: tracing off for the 100k rung: the claim is capacity, not the trace
BUILDER_100K = functools.partial(
    build_campus, regions=REGIONS, seed=SEED, trace=False
)


def start_population_measured(env, shard, *, profile) -> int:
    """``start_population`` under tracemalloc; returns the bytes it kept."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        start_population(env, shard, profile=profile)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return after - before


def run_one(n_shards: int, profile: PopulationProfile, *,
            mode: str = "process", builder=BUILDER, spawn=start_population,
            with_trace: bool = True) -> dict:
    """One boot + population run; returns a report row (plus the merged
    trace under ``_trace``, which callers strip before writing)."""
    shard_map = campus_shard_map(REGIONS, n_shards) if n_shards > 1 else None
    sim = ShardedSimulator(builder, n_shards=n_shards,
                           host_to_shard=shard_map, mode=mode, seed=SEED)
    with sim:
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        sim.boot(settle=2.0)
        boot_grants = [s["grants"] for s in sim.sync_report()["per_shard"]]
        spawned = sim.spawn(spawn, profile=profile)
        sim.run(sim.now + profile.duration + 3.0)
        coordinator_cpu = time.process_time() - cpu0
        wall_s = time.perf_counter() - wall0
        results = sim.collect(collect_population)
        counters = sim.counters()
        reports = sim.shard_reports()
        sync_report = sim.sync_report()
        trace = sim.merged_trace() if with_trace else None
    shard_cpus = [r["cpu_s"] for r in reports]
    critical_cpu = max(shard_cpus) + coordinator_cpu
    events = counters["events_delivered"]
    return {
        "n_shards": n_shards,
        "mode": mode,
        "ops": sum(r["ops"] for r in results),
        "sessions": sum(r["sessions_spawned"] for r in results),
        "errors": sum(r["errors"] for r in results),
        "events_delivered": int(events),
        "rounds": int(counters["sync.rounds"]),
        "grants": int(counters["sync.grants"]),
        "null_messages": int(counters["sync.null_messages"]),
        "payload_free_grants": int(counters["sync.payload_free_grants"]),
        "lookahead_stalls": int(counters["sync.lookahead_stalls"]),
        "boundary_msgs": int(counters["boundary.msgs_out"]),
        "shard_cpu_s": [round(c, 3) for c in shard_cpus],
        "coordinator_cpu_s": round(coordinator_cpu, 3),
        "critical_cpu_s": round(critical_cpu, 3),
        "wall_s": round(wall_s, 3),
        "maxrss_kb": [int(r.get("maxrss_kb", 0)) for r in reports],
        "grants_per_shard": [s["grants"] for s in sync_report["per_shard"]],
        "boot_grants_per_shard": boot_grants,
        "window_width_p95": [
            round(s["window_width"]["p95"], 6)
            for s in sync_report["per_shard"]
        ],
        "merged_trace_sha256": trace.hash() if trace is not None else None,
        "spawn_results": spawned,  # what ``spawn`` returned in each shard
        "_trace": trace,
    }


def _assert_same_run(base: dict, row: dict, context: str) -> None:
    """``row`` served the same ops and merged to the same trace as ``base``."""
    assert row["ops"] == base["ops"], (context, base["ops"], row["ops"])
    if row["merged_trace_sha256"] == base["merged_trace_sha256"]:
        return
    delta = ""
    if base.get("_trace") and row.get("_trace"):
        lines = diff_traces(base["_trace"].records, row["_trace"].records)
        delta = "\nfirst diverging records:\n  " + "\n  ".join(lines)
    raise AssertionError(
        f"merged trace diverges ({context}): "
        f"{base['n_shards']} shard(s) {base['merged_trace_sha256'][:16]}… vs "
        f"{row['n_shards']} shard(s) {row['merged_trace_sha256'][:16]}…"
        + delta)


def _assert_no_sync_overhead(row: dict, context: str) -> None:
    """Every grant moved work, and empty shards drew the boot grant only."""
    n = row["n_shards"]
    assert row["null_messages"] == 0, (context, n, row["null_messages"])
    assert row["lookahead_stalls"] == 0, (context, n, row["lookahead_stalls"])
    if n == 1:
        assert row["grants"] == 2, "one shard degenerates to boot + run"
    shard_of = campus_shard_map(REGIONS, n)
    owners = {shard_of(f"r{region}-any") for region in range(REGIONS)}
    for i, grants in enumerate(row["grants_per_shard"]):
        booted = row["boot_grants_per_shard"][i]
        if i in owners:
            assert grants > booted, f"shard {i} of {n} never ran"
        else:
            assert grants == booted == 1, (
                f"empty shard {i} of {n} drew {grants} grants, "
                f"{booted} of them to boot")


def run_invariance() -> dict:
    """Fixed-scale runs at 1/2/4/8 shards, one hash."""
    rows = [run_one(n, INVARIANCE_PROFILE, mode="local")
            for n in SHARD_COUNTS]
    for row in rows:
        _assert_same_run(rows[0], row, "invariance")
        _assert_no_sync_overhead(row, "invariance")
    return {
        "profile": {"n_users": INVARIANCE_PROFILE.n_users,
                    "duration": INVARIANCE_PROFILE.duration,
                    "process": INVARIANCE_PROFILE.process},
        "shard_counts": list(SHARD_COUNTS),
        "ops": rows[0]["ops"],
        "runs": [{k: row[k] for k in ("n_shards", "rounds", "grants")}
                 for row in rows],
        "merged_trace_sha256": rows[0]["merged_trace_sha256"],
    }


def run_sweep() -> dict:
    """Population sweep: same ops and merged trace at every shard count."""
    shards = {}
    for n in SHARD_COUNTS:
        row = run_one(n, SWEEP_PROFILE)
        del row["_trace"]  # a 10k-user trace per row is not worth holding
        _assert_same_run(shards.get("1", row), row, "sweep")
        _assert_no_sync_overhead(row, "sweep")
        shards[str(n)] = row
    assert shards["4"]["boundary_msgs"] > 0, "nothing crossed shards"
    return {
        "profile": {"n_users": SWEEP_PROFILE.n_users,
                    "duration": SWEEP_PROFILE.duration,
                    "process": SWEEP_PROFILE.process,
                    "flash_at": SWEEP_PROFILE.flash_at,
                    "flash_duration": SWEEP_PROFILE.flash_duration},
        "regions": REGIONS,
        "cores_available": cores_available(),
        "shards": shards,
    }


def run_100k() -> dict:
    """The capacity rung: a timed 100k-user run on the trimmed profile."""
    profile = campus_100k_profile(n_users=N_USERS_100K)
    row = run_one(CAMPUS_100K_SHARDS, profile, builder=BUILDER_100K,
                  spawn=start_population_measured, with_trace=False)
    del row["_trace"]
    row["n_users"] = profile.n_users
    row["bookkeeping_bytes_per_user"] = round(
        sum(row.pop("spawn_results")) / profile.n_users, 1)
    # The thinned arrival process targets n_users in expectation and is
    # capped there, so a realization can fall short of the cap by a few
    # Poisson standard deviations (sigma = sqrt(n)).
    floor = profile.n_users - 5 * int(profile.n_users ** 0.5)
    assert row["sessions"] >= floor, (
        f"population pump spawned {row['sessions']} of {profile.n_users} "
        f"sessions (floor {floor})")
    assert row["ops"] > 0
    assert row["errors"] == 0
    assert row["bookkeeping_bytes_per_user"] < BOOKKEEPING_BYTES_PER_USER
    _assert_no_sync_overhead(row, "100k")
    return row


def test_e30_demand_sync(benchmark, table_printer):
    def run():
        return {
            "experiment": "E30",
            "short": SHORT,
            "invariance": run_invariance(),
            "sweep": run_sweep(),
            "campus_100k": run_100k(),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    sweep = report["sweep"]
    table = table_printer(ResultTable(
        f"E30: {sweep['profile']['n_users']} users / {REGIONS} regions, "
        f"1-8 kernel shards ({sweep['cores_available']} cores visible)",
        ["shards", "rounds", "grants", "nulls", "stalls", "boundary_msgs",
         "crit_cpu_s", "wall_s"],
    ))
    for key in sorted(sweep["shards"], key=int):
        row = sweep["shards"][key]
        table.add(key, row["rounds"], row["grants"], row["null_messages"],
                  row["lookahead_stalls"], row["boundary_msgs"],
                  row["critical_cpu_s"], row["wall_s"])
    big = report["campus_100k"]
    table100k = table_printer(ResultTable(
        f"E30: {big['n_users']} users on {big['n_shards']} shards "
        f"(compact sessions, tracing off)",
        ["ops", "events", "wall_s", "crit_cpu_s", "max_rss_mb", "B/user"],
    ))
    table100k.add(big["ops"], big["events_delivered"], big["wall_s"],
                  big["critical_cpu_s"],
                  round(max(big["maxrss_kb"]) / 1024, 1),
                  big["bookkeeping_bytes_per_user"])

    record(report, equal=["invariance.merged_trace_sha256"])
