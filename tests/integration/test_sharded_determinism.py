"""2-shard process-mode campus smoke (E29).

The CI determinism gate: a real multi-process sharded run of the campus
topology must reproduce the single-kernel run exactly — same served ops,
same merged-trace hash — while actually exercising the boundary (cross
shard messages, sync windows).  Also checks that the observability
surface (ProfileScope) consumes a ShardedSimulator like a plain kernel.
"""

import functools

import pytest

from repro.env import build_campus, campus_shard_map
from repro.obs import ProfileScope
from repro.sim.parallel import ShardedSimulator
from repro.workloads import (
    PopulationProfile,
    collect_population,
    start_population,
)

REGIONS = 4
SEED = 29
PROFILE = PopulationProfile(n_users=60, duration=5.0, process="poisson",
                            flash_at=2.0, flash_duration=1.0)
BUILDER = functools.partial(build_campus, regions=REGIONS, seed=SEED)


def run_campus(n_shards, mode):
    shard_map = campus_shard_map(REGIONS, n_shards) if n_shards > 1 else None
    sim = ShardedSimulator(BUILDER, n_shards=n_shards,
                           host_to_shard=shard_map, mode=mode, seed=SEED)
    with sim:
        sim.boot(settle=2.0)
        sim.spawn(start_population, profile=PROFILE)
        sim.run(sim.now + PROFILE.duration + 3.0)
        results = sim.collect(collect_population)
        counters = sim.counters()
        trace_hash = sim.merged_trace().hash()
    ops = sum(r["ops"] for r in results)
    samples = sorted(s for r in results for s in r["samples"])
    return ops, samples, counters, trace_hash


@pytest.fixture(scope="module")
def single_kernel():
    return run_campus(1, "local")


def test_two_shard_process_run_matches_single_kernel(single_kernel):
    ops1, samples1, counters1, hash1 = single_kernel
    ops2, samples2, counters2, hash2 = run_campus(2, "process")
    assert ops1 > 0
    assert ops2 == ops1
    assert samples2 == samples1
    assert hash2 == hash1
    # the split run really crossed the boundary, conservatively
    assert counters1["boundary.msgs_out"] == 0
    assert counters2["boundary.msgs_out"] > 0
    assert counters2["sync.rounds"] > 0
    assert counters2["sync.grants"] > 0
    # demand-driven sync: every grant moves work, so there are fewer
    # grants than one per shard per pass, and no null messages
    assert counters2["sync.grants"] < 2 * counters2["sync.rounds"]
    assert counters2["sync.null_messages"] == 0
    # same total kernel work, just spread over two processes
    assert counters2["events_delivered"] >= counters1["events_delivered"]


def test_profile_scope_reads_sharded_counters():
    shard_map = campus_shard_map(REGIONS, 2)
    sim = ShardedSimulator(BUILDER, n_shards=2, host_to_shard=shard_map,
                           mode="local", seed=SEED)
    with sim:
        sim.boot(settle=2.0)
        with ProfileScope("sharded-campus", sim=sim, profile=False) as scope:
            sim.spawn(start_population, profile=PROFILE)
            sim.run(sim.now + PROFILE.duration + 3.0)
    assert scope.sim_s == pytest.approx(PROFILE.duration + 3.0)
    assert scope.counters["events_delivered"] > 0
    assert scope.counters["boundary.msgs_out"] > 0
    assert scope.counters["sync.rounds"] > 0
    assert scope.events_per_s > 0
