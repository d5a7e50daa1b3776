"""Campus topology + population workload (E29).

The workload generator's contract with the sharded kernel: the arrival
schedule and every per-user random draw must be computable identically in
every shard, so a sharded run spawns exactly the sessions the single
kernel would — no more, no fewer, with the same RNG draw sequences.
"""

import functools

import pytest

from repro.env import ACEEnvironment, build_campus, campus_shard_map
from repro.sim import RngRegistry
from repro.sim.parallel import ShardContext, ShardedSimulator
from repro.workloads import (
    PopulationProfile,
    collect_population,
    generate_arrivals,
    start_population,
)
from repro.workloads.population import home_region


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

class TestCampusTopology:
    def test_regions_and_hosts(self):
        env = build_campus(regions=3)
        assert len(env.campus_regions) == 3
        for region in env.campus_regions:
            assert region.client_host in env.net.hosts
            assert region.asd.host in env.net.hosts
        # central services live on r0-infra; satellites get their own ASD
        assert env.campus_regions[0].asd.host == "r0-infra"
        assert env.campus_regions[2].asd.host == "r2-infra"
        assert "asd.r2" in env.daemons

    def test_satellites_on_distinct_segments(self):
        env = build_campus(regions=3)
        segs = {env.net.host(r.client_host).segment for r in env.campus_regions}
        assert len(segs) == 3

    def test_single_region_campus(self):
        env = build_campus(regions=1)
        assert [r.index for r in env.campus_regions] == [0]

    def test_zero_regions_rejected(self):
        with pytest.raises(ValueError, match="at least one region"):
            build_campus(regions=0)

    def test_boots_and_serves(self):
        env = build_campus(regions=2, trace=False)
        env.boot()
        assert env.daemons["aud.r1"].running


class TestCampusShardMap:
    def test_regions_map_contiguously(self):
        shard_of = campus_shard_map(4, 2)
        assert [shard_of(f"r{r}-infra") for r in range(4)] == [0, 0, 1, 1]
        assert shard_of("r3-clients") == 1

    def test_identity_when_shards_equal_regions(self):
        shard_of = campus_shard_map(4, 4)
        assert [shard_of(f"r{r}-clients") for r in range(4)] == [0, 1, 2, 3]

    def test_non_campus_host_rejected(self):
        with pytest.raises(ValueError, match="not a campus host"):
            campus_shard_map(4, 2)("lab1")


# ---------------------------------------------------------------------------
# Arrival schedules
# ---------------------------------------------------------------------------

def _profile(**kw):
    base = dict(n_users=200, duration=10.0)
    base.update(kw)
    return PopulationProfile(**base)


class TestArrivals:
    def test_deterministic_per_seed(self):
        p = _profile()
        a = generate_arrivals(RngRegistry(3), p)
        b = generate_arrivals(RngRegistry(3), p)
        c = generate_arrivals(RngRegistry(4), p)
        assert a == b
        assert a != c

    def test_inside_window_sorted_unique_uids(self):
        p = _profile(arrival_window=4.0)
        schedule = generate_arrivals(RngRegistry(0), p)
        assert schedule
        times = [t for t, _ in schedule]
        assert times == sorted(times)
        assert all(0.0 <= t < 4.0 for t in times)
        uids = [uid for _, uid in schedule]
        assert uids == list(range(len(uids)))

    def test_poisson_hits_target_count_roughly(self):
        p = _profile(n_users=500)
        n = len(generate_arrivals(RngRegistry(1), p))
        assert 400 <= n <= 500

    @pytest.mark.parametrize("process", ["mmpp", "diurnal"])
    def test_modulated_processes_generate(self, process):
        p = _profile(process=process)
        assert len(generate_arrivals(RngRegistry(2), p)) > 50

    def test_unknown_process_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            generate_arrivals(RngRegistry(0), _profile(process="bursty"))

    def test_flash_crowd_densifies_window(self):
        p = _profile(n_users=2000, duration=20.0, flash_at=4.0,
                     flash_duration=2.0)
        schedule = generate_arrivals(RngRegistry(5), p)
        in_flash = sum(1 for t, _ in schedule if 4.0 <= t < 6.0)
        before = sum(1 for t, _ in schedule if 2.0 <= t < 4.0)
        # flash multiplies the rate 7x; allow generous slack
        assert in_flash > 3 * max(1, before)

    def test_degenerate_profiles_empty(self):
        assert generate_arrivals(RngRegistry(0), _profile(n_users=0)) == []
        assert generate_arrivals(
            RngRegistry(0), _profile(arrival_window=0.0)) == []


class TestHomeRegions:
    def test_machine_room_gets_half_share(self):
        counts = [0, 0, 0, 0]
        for uid in range(7000):
            counts[home_region(uid, 4)] += 1
        assert counts[0] == 1000
        assert counts[1] == counts[2] == counts[3] == 2000

    def test_single_region(self):
        assert home_region(123, 1) == 0


# ---------------------------------------------------------------------------
# Sharding contract: schedule splits exactly, RNG streams invariant
# ---------------------------------------------------------------------------

PROFILE = PopulationProfile(n_users=40, duration=4.0)


def collect_user_draws(env, shard=None):
    """Next draw of every locally-spawned user's stream (picklable)."""
    state = getattr(env, "population", None)
    if state is None:
        return {}
    return {
        uid: env.rng.py(f"population.user.{uid}").random()
        for uid in getattr(env, "_pop_uids", [])
    }


class TestPopulationSharding:
    def test_shard_slices_partition_the_population(self):
        spawned = []
        for shard in (None, ShardContext(0, 2, campus_shard_map(4, 2), seed=1),
                      ShardContext(1, 2, campus_shard_map(4, 2), seed=1)):
            env = build_campus(regions=4, trace=False)
            env.boot()
            spawned.append(start_population(env, shard, profile=PROFILE))
        assert spawned[0] == spawned[1] + spawned[2]
        assert spawned[1] > 0 and spawned[2] > 0

    def test_schedule_identical_across_shards(self):
        ctx0 = ShardContext(0, 2, campus_shard_map(4, 2), seed=1)
        env0 = build_campus(shard=ctx0, regions=4, trace=False)
        env1 = build_campus(regions=4, trace=False)
        assert generate_arrivals(env0.rng, PROFILE) == \
            generate_arrivals(env1.rng, PROFILE)

    def test_user_streams_identical_across_shard_counts(self):
        """Satellite regression: per-user draw sequences are invariant.

        After identical sharded runs at 1, 2, and 4 shards, the *next*
        draw from every user's ``population.user.<uid>`` stream must be
        the same number — i.e. every stream consumed exactly the same
        draws regardless of which shard hosted the session.
        """
        draws = {}
        for n in (1, 2, 4):
            sim = ShardedSimulator(
                functools.partial(build_campus, regions=4, seed=11),
                n_shards=n,
                host_to_shard=campus_shard_map(4, n) if n > 1 else None,
                mode="local", seed=11,
            )
            with sim:
                sim.boot(settle=1.0)
                sim.spawn(_start_tracked, profile=PROFILE)
                sim.run(sim.now + PROFILE.duration + 2.0)
                merged = {}
                for part in sim.collect(collect_user_draws):
                    merged.update(part)
            draws[n] = merged
        assert draws[1]
        assert draws[1] == draws[2] == draws[4]

    def test_requires_campus(self):
        env = ACEEnvironment(seed=0)
        with pytest.raises(ValueError, match="campus_regions"):
            start_population(env, None, profile=PROFILE)

    def test_collect_on_plain_env(self):
        env = build_campus(regions=2, trace=False)
        env.boot()
        start_population(env, None, profile=PROFILE)
        env.run_for(PROFILE.duration + 2.0)
        report = collect_population(env)
        assert report["ops"] > 0
        assert report["sessions_spawned"] == report["schedule_len"]
        assert len(report["samples"]) == report["ops"]


# ---------------------------------------------------------------------------
# Sessions hold pooled connections
# ---------------------------------------------------------------------------

HELD_PROFILE = PopulationProfile(n_users=120, duration=6.0, process="mmpp",
                                 flash_at=3.0, flash_duration=1.0,
                                 roam_fraction=0.2)


def _pool_counts(env, shard=None):
    """Pool counters, plus the open client-side cross-shard connections."""
    metrics = env.ctx.obs.metrics
    held = [conn for conn in getattr(env.net, "_boundary_conns", {}).values()
            if not conn.closed and conn.host.name.endswith("-clients")]
    return {"dial": metrics.counter("rpc.pool.dial").value,
            "reuse": metrics.counter("rpc.pool.reuse").value,
            "cross_shard_held": len(held)}


def _run_held(n_shards):
    sim = ShardedSimulator(
        functools.partial(build_campus, regions=4, seed=29),
        n_shards=n_shards,
        host_to_shard=campus_shard_map(4, n_shards) if n_shards > 1 else None,
        mode="local", seed=29,
    )
    with sim:
        sim.boot(settle=2.0)
        booted = sim.counters()["events_delivered"]
        sim.spawn(start_population, profile=HELD_PROFILE)
        sim.run(sim.now + HELD_PROFILE.duration / 2)
        mid = sim.collect(_pool_counts)
        sim.run(sim.now + HELD_PROFILE.duration / 2 + 3.0)
        reports = sim.collect(collect_population)
        pools = sim.collect(_pool_counts)
        events = sim.counters()["events_delivered"] - booted
        trace_hash = sim.merged_trace().hash()
    return {
        "events": events,
        "trace_hash": trace_hash,
        "samples": sorted(s for r in reports for s in r["samples"]),
        "cross_shard_held": sum(m["cross_shard_held"] for m in mid),
        **{key: sum(r[key] for r in reports)
           for key in ("ops", "errors", "roams", "sessions_started")},
        **{key: sum(p[key] for p in pools) for key in ("dial", "reuse")},
    }


class TestSessionsHoldConnections:
    """Counts that repeat exactly per seed, so connect-per-call cannot
    creep back unnoticed (it costs ~49 events and 2 dials per op)."""

    @pytest.fixture(scope="class")
    def single(self):
        return _run_held(1)

    def test_an_op_costs_few_events_and_almost_no_dials(self, single):
        assert single["errors"] == 0 and single["ops"] > 500
        assert single["events"] / single["ops"] <= 30
        # at worst a session dials its AUD and each region's directory once
        sessions, regions = single["sessions_started"], 4
        assert single["dial"] <= sessions * regions + sessions
        assert single["reuse"] > single["dial"]
        assert single["dial"] + single["reuse"] == 2 * single["ops"]

    def test_two_shards_match_with_cross_shard_connections_held(self, single):
        split = _run_held(2)
        assert single["cross_shard_held"] == 0
        # mid-run, roamers park connections whose far end is another kernel
        assert split["cross_shard_held"] > 0 and split["roams"] > 0
        for key in ("ops", "errors", "roams", "samples", "trace_hash",
                    "dial", "reuse"):
            assert split[key] == single[key], key

    def test_sessions_outlive_a_directory_restart(self):
        """A regional ASD dies and comes back mid-population: sessions
        holding a channel to it record errors, back off, re-dial and carry
        on — none is left wedged on the dead connection."""
        env = build_campus(regions=2, trace=False)
        env.boot()
        profile = PopulationProfile(n_users=60, duration=8.0, think_time=0.3)
        start_population(env, None, profile=profile)
        state = env.population
        dial = env.ctx.obs.metrics.counter("rpc.pool.dial")
        env.run_for(3.0)
        assert state.errors == 0 and len(state.ops) > 0
        old = env.daemons["asd.r1"]
        old.kill()
        env.run_for(1.5)
        down_errors, down_ops, down_dials = state.errors, len(state.ops), dial.value
        assert down_errors > 0
        reborn = old.respawn(incarnation=1)
        reborn.start()
        env.run_for(profile.duration + 10.0)
        report = collect_population(env)
        assert dial.value > down_dials            # re-dialled the new ASD
        assert report["ops"] > down_ops
        assert state.errors < down_errors + 60    # back-off ends once it is up
        assert report["sessions_finished"] == report["sessions_started"] \
            == report["sessions_spawned"] == report["schedule_len"]


def _start_tracked(env, shard, *, profile):
    """start_population + remember which uids this shard spawned.

    The schedule is recomputed from a fresh same-seed registry so the
    environment's own ``population.arrivals`` stream (which
    ``start_population`` consumes) is not advanced twice.
    """
    schedule = generate_arrivals(RngRegistry(11), profile)
    n = start_population(env, shard, profile=profile)
    regions = env.campus_regions
    env._pop_uids = [
        uid for _, uid in schedule
        if shard is None
        or shard.owns(regions[home_region(uid, len(regions))].client_host)
    ]
    return n
