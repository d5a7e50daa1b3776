"""Memory-footprint regression tests gating the 100k-user rung (E30).

The 100k campus profile only fits because per-user state was trimmed:
``CompactUserRng`` (one 64-bit word) instead of a registry-cached
``random.Random`` (~2.5 KB of Mersenne state — a quarter gigabyte at
100k users), a histogram latency digest instead of unbounded raw
samples, and a session pump instead of 100k pre-created generator
frames.  Sessions also hold their pooled connections while they think,
so an idle attached connection has a byte budget too.  These tests pin
each trim with tracemalloc so a future refactor cannot silently
reintroduce per-user kilobytes.
"""

import gc
import sys
import tracemalloc

import pytest

from repro.core import ServiceClient
from repro.env import build_campus, campus_100k_profile
from repro.sim import RngRegistry
from repro.workloads import (
    CompactUserRng,
    HistogramRecorder,
    PopulationProfile,
    collect_population,
    start_population,
)

#: bound on coordinator-side bookkeeping (arrival schedule + owned list +
#: state) per user under the trimmed profile.  Measured ~250 B/user; the
#: headroom absorbs allocator noise, not a design change.
BOOKKEEPING_BYTES_PER_USER = 600

#: bound on one idle attached connection: the client's ServiceConnection,
#: both Connection endpoints and the daemon's parked command thread.
#: Measured ~4.5 KB (7.4 KB while every Store built three deques up front).
HELD_CONNECTION_BYTES = 6144


class TestCompactUserRng:
    def test_deterministic_per_seed(self):
        a = [CompactUserRng(42).random() for _ in range(5)]
        b = [CompactUserRng(42).random() for _ in range(5)]
        c = [CompactUserRng(43).random() for _ in range(5)]
        assert a == b
        assert a != c

    def test_uniform_in_unit_interval(self):
        rng = CompactUserRng(7)
        draws = [rng.random() for _ in range(4000)]
        assert all(0.0 <= x < 1.0 for x in draws)
        assert 0.45 < sum(draws) / len(draws) < 0.55

    def test_expovariate_mean(self):
        rng = CompactUserRng(9)
        draws = [rng.expovariate(2.0) for _ in range(4000)]
        assert all(x >= 0.0 for x in draws)
        assert 0.45 < sum(draws) / len(draws) < 0.55  # mean 1/lambda

    def test_randrange_bounds(self):
        rng = CompactUserRng(3)
        draws = [rng.randrange(4) for _ in range(400)]
        assert set(draws) == {0, 1, 2, 3}

    def test_zero_seed_still_generates(self):
        rng = CompactUserRng(0)
        assert rng.random() != rng.random()

    def test_orders_of_magnitude_smaller_than_random_random(self):
        import random

        compact = sys.getsizeof(CompactUserRng(1))
        mersenne = sys.getsizeof(random.Random())
        assert compact < 100
        assert mersenne > 2000
        assert mersenne / compact > 20

    def test_registry_derivation_matches_py_stream_seed(self):
        reg = RngRegistry(5)
        assert reg.derive_seed("population.user.9") == \
            reg._derive("population.user.9")


class TestMemoryFootprint:
    def test_bookkeeping_bytes_per_user(self):
        """Arrival schedule + owned list + state for N users must stay
        within a fixed per-user byte budget under the trimmed profile."""
        n_users = 4000
        env = build_campus(regions=2, trace=False)
        profile = PopulationProfile(
            n_users=n_users, duration=8.0, process="mmpp",
            compact_sessions=True,
        )
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            start_population(env, None, profile=profile)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_user = (after - before) / n_users
        assert per_user < BOOKKEEPING_BYTES_PER_USER, (
            f"{per_user:.0f} B/user of population bookkeeping "
            f"(budget {BOOKKEEPING_BYTES_PER_USER})")

    def test_bytes_per_held_connection(self):
        """Every live session parks a few of these for its whole life."""
        n = 200
        env = build_campus(regions=1, trace=False)
        env.boot()
        region = env.campus_regions[0]
        host = env.net.host(region.client_host)

        def hold(pool, count):
            held = []
            for _ in range(count):
                held.append((yield from pool.acquire(region.asd)))
            for conn in held:
                pool.release(region.asd, conn)

        warm = ServiceClient(env.ctx, host, principal="warm")
        env.run(hold(warm.pool, 4))     # codec caches, lazily-built state
        warm.close_channels()
        env.run_for(0.5)
        pool = ServiceClient(env.ctx, host, principal="holder").pool
        pool.resize(n)
        gc.collect()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            env.run(hold(pool, n))
            gc.collect()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pool._idle[region.asd]) == n
        per_connection = (after - before) / n
        assert per_connection <= HELD_CONNECTION_BYTES, (
            f"{per_connection:.0f} B per held attached connection "
            f"(budget {HELD_CONNECTION_BYTES})")

    def test_finished_sessions_leave_no_command_threads(self):
        """A session hangs up when its loop ends, so the daemons' per-
        connection command threads end with it instead of parking forever
        on channels nobody will use again."""
        env = build_campus(regions=2, trace=False)
        env.boot()

        def serving():
            return [proc.name for daemon in env.daemons.values()
                    for proc in daemon._child_procs
                    if proc.is_alive and ".cmd:" in proc.name
                    and "-clients:" in proc.name]

        profile = PopulationProfile(n_users=40, duration=4.0, think_time=0.5)
        start_population(env, None, profile=profile)
        env.run_for(profile.duration / 2)
        assert serving()                  # mid-run: sessions hold channels
        env.run_for(profile.duration / 2 + 20.0)
        report = collect_population(env)
        assert report["sessions_finished"] == report["sessions_spawned"] == \
            report["schedule_len"]
        assert serving() == []

    @pytest.mark.parametrize("make_profile",
                             [PopulationProfile, campus_100k_profile],
                             ids=["default", "100k"])
    def test_sessions_spawn_through_one_pump(self, make_profile):
        """One pump process, not ``n_users`` parked generators: what
        ``start_population`` schedules does not grow with the population."""
        scheduled = []
        for n_users in (10, 1000):
            env = build_campus(regions=2, trace=False)
            spawned = []
            process = env.sim.process

            def recording_process(generator, name=""):
                spawned.append(name)
                return process(generator, name=name)

            env.sim.process = recording_process
            before = env.sim.counters()["events_scheduled"]
            start_population(env, None, profile=make_profile(
                n_users=n_users, duration=4.0))
            scheduled.append(env.sim.counters()["events_scheduled"] - before)
            assert spawned == ["pop-pump"]
        assert scheduled[0] == scheduled[1]

    def test_compact_rngs_bypass_the_registry_cache(self):
        """A compact session's RNG must not leave a cached random.Random
        in the registry — that cache is exactly the 2.5 KB/user the 100k
        profile cannot afford."""
        reg = RngRegistry(1)
        n = 500
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            compact = [CompactUserRng(reg.derive_seed(f"population.user.{u}"))
                       for u in range(n)]
            mid, _ = tracemalloc.get_traced_memory()
            cached = [reg.py(f"population.user.{u}") for u in range(n)]
            end, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        compact_bytes = (mid - base) / n
        cached_bytes = (end - mid) / n
        assert not reg._py or len(reg._py) == n  # derive_seed cached nothing
        assert cached_bytes / max(compact_bytes, 1.0) > 10, (
            f"compact {compact_bytes:.0f} B/user vs "
            f"cached {cached_bytes:.0f} B/user")
        assert compact and cached  # keep both alive through measurement

    def test_histogram_recorder_is_bounded(self):
        rec = HistogramRecorder()
        for i in range(50_000):
            rec.record(i * 1e-5)
        assert len(rec) == 50_000
        assert rec.samples == []
        snap = rec.snapshot()
        assert snap["count"] == 50_000
        assert snap["p95"] > snap["p50"] > 0


class TestProfileGating:
    def test_campus_100k_profile_sets_both_trims(self):
        profile = campus_100k_profile()
        assert profile.n_users == 100_000
        assert profile.compact_sessions
        assert profile.think_time == 2.0
        assert profile.process == "mmpp"

    def test_default_profiles_stay_untrimmed(self):
        # the pinned E29 trace hashes depend on the standard generators
        profile = PopulationProfile(n_users=10, duration=1.0)
        assert not profile.compact_sessions

    def test_compact_lazy_run_end_to_end(self):
        env = build_campus(regions=2, trace=False)
        env.boot()
        profile = campus_100k_profile(n_users=60, duration=4.0)
        spawned = start_population(env, None, profile=profile)
        env.run_for(profile.duration + 2.0)
        report = collect_population(env)
        assert spawned == report["sessions_spawned"] == report["schedule_len"]
        assert report["sessions_started"] > 0
        assert report["ops"] > 0
        assert report["samples"] == []  # raw samples traded for the digest
        assert report["latency"]["count"] == report["ops"]
        assert report["latency"]["p95"] > 0
        # no per-user Mersenne state leaked into the registry
        assert not any(name.startswith("population.user.")
                       for name in env.rng._py)
