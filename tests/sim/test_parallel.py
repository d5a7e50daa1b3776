"""Sharded-kernel tests: conservative sync, ownership, failure paths.

The heart of E29's correctness story: a sharded run must be externally
indistinguishable from the single-kernel run — same served ops, same
latencies, same canonical trace — and must fail *cleanly* (a
``SimulationError``, not a hang) when a shard dies or the topology gives
the synchronizer nothing to work with (zero lookahead).
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.env import ACEEnvironment
from repro.lang import ACECmdLine
from repro.net.address import Address, WellKnownPorts
from repro.services.asd import ServiceDirectoryDaemon
from repro.services.aud import UserDatabaseDaemon
from repro.sim import SimulationError
from repro.sim.parallel import ShardContext, ShardedSimulator, sharded


# ---------------------------------------------------------------------------
# Module-level topology/workload pieces (picklable for process mode)
# ---------------------------------------------------------------------------

def pair_shard_map(host_name):
    """alpha* -> shard 0, everything else -> shard 1."""
    return 0 if host_name.startswith("alpha") else 1


def build_pair(shard=None, lan_latency=None, same_segment=False):
    """Two workstations, ASD on alpha, AUD on beta (registers cross-host)."""
    net_kwargs = {"lan_latency": lan_latency} if lan_latency is not None else None
    env = ACEEnvironment(seed=7, shard=shard, net_kwargs=net_kwargs)
    alpha = env.add_workstation("alpha", monitors=False)
    beta = env.add_workstation(
        "beta", segment="lan" if same_segment else "beta", monitors=False
    )
    env.ctx.default_bootstrap("alpha")
    env.add_daemon(
        ServiceDirectoryDaemon(env.ctx, "asd", alpha, port=WellKnownPorts.ASD),
        tier=0,
    )
    env.add_daemon(
        UserDatabaseDaemon(env.ctx, "aud", beta, port=WellKnownPorts.USER_DB),
        tier=1,
    )
    return env


#: the UDP port of the beta -> alpha datagram probe
PROBE_PORT = 7000


def spawn_beta_lookups(env, shard, n_ops=5):
    """Client on beta calling the ASD on alpha, plus one UDP datagram from
    beta to alpha — both cross-shard when split."""
    env._test_arrivals = []
    if shard is None or shard.owns("alpha"):
        inbox = env.net.bind_datagram(env.net.host("alpha"), PROBE_PORT)

        def receive():
            source, payload = yield from inbox.recv()
            env._test_arrivals.append(env.sim.now)
            env.trace.emit(env.sim.now, "alpha", "probe-arrived",
                           sender=str(source), payload=payload)

        env.sim.process(receive(), name="probe-receiver")
    if shard is not None and not shard.owns("beta"):
        return 0

    def send_probe():
        sock = env.net.bind_datagram(env.net.host("beta"), PROBE_PORT)
        yield env.sim.timeout(0.1)
        yield from sock.send(Address("alpha", PROBE_PORT), "probe")

    env.sim.process(send_probe(), name="probe-sender")
    latencies = []

    def proc():
        client = env.client(env.net.host("beta"), principal="tester")
        for _ in range(n_ops):
            t0 = env.sim.now
            yield from client.call(
                env.ctx.asd_address, ACECmdLine("lookup", cls="AUD")
            )
            latencies.append(env.sim.now - t0)
            yield env.sim.timeout(0.2)

    env.sim.process(proc(), name="beta-lookups")
    env._test_latencies = latencies
    return n_ops


def collect_latencies(env, shard):
    return list(getattr(env, "_test_latencies", []))


def collect_arrivals(env, shard):
    return list(getattr(env, "_test_arrivals", []))


def spawn_crasher(env, shard, at=0.5):
    """Arrange for this shard's kernel to blow up at sim time ``at``."""
    if shard is not None and shard.index != shard.n_shards - 1:
        return False
    env.sim.timeout(at).callbacks.append(_boom)
    return True


def _boom(_event):
    raise RuntimeError("boom in shard")


def spawn_spinner(env, shard, at=0.5):
    """From sim time ``at`` on, this shard's kernel spins at zero delay."""
    if shard is not None and shard.index != shard.n_shards - 1:
        return False

    def spin():
        yield env.sim.timeout(at)
        while True:
            yield env.sim.timeout(0)

    env.sim.process(spin(), name="spinner")
    return True


def spawn_unpicklable_datagram(env, shard):
    """beta sends alpha one datagram whose payload is a generator, which
    cannot cross a process boundary."""
    if shard is not None and not shard.owns("beta"):
        return False

    def send():
        sock = env.net.bind_datagram(env.net.host("beta"), PROBE_PORT)
        yield env.sim.timeout(0.1)
        yield from sock.send(Address("alpha", PROBE_PORT), (i for i in ()))

    env.sim.process(send(), name="unpicklable-sender")
    return True


def _run_pair(n_shards, mode="local"):
    sim = ShardedSimulator(
        build_pair, n_shards=n_shards,
        host_to_shard=pair_shard_map if n_shards > 1 else None,
        mode=mode, seed=7,
    )
    with sim:
        sim.boot(settle=1.0)
        sim.spawn(spawn_beta_lookups, n_ops=5)
        sim.run(sim.now + 4.0)
        latencies = [s for r in sim.collect(collect_latencies) for s in r]
        arrivals = [t for r in sim.collect(collect_arrivals) for t in r]
        counters = sim.counters()
        trace_hash = sim.merged_trace().hash()
    return sorted(latencies), counters, trace_hash, arrivals


# ---------------------------------------------------------------------------
# Equivalence: sharded == single kernel
# ---------------------------------------------------------------------------

class TestEquivalence:
    def test_two_shards_match_single_kernel(self):
        lat1, c1, h1, dgram1 = _run_pair(1)
        lat2, c2, h2, dgram2 = _run_pair(2)
        assert lat1 and lat1 == lat2
        # the datagram crossed the boundary and landed when it did on one kernel
        assert len(dgram1) == 1 and dgram1 == dgram2
        assert h1 == h2
        # the split run really did cross the boundary
        assert c1["boundary.msgs_out"] == 0
        assert c2["boundary.msgs_out"] > 0
        assert c2["sync.rounds"] > 0

    def test_cross_shard_latency_includes_backbone(self):
        lat, *_ = _run_pair(2)
        # alpha and beta sit on different segments: every lookup pays at
        # least two backbone+lan crossings (connect reuse aside).
        assert min(lat) >= 2 * (250e-6 + 2e-3)

    def test_intra_shard_zero_latency_with_positive_boundary(self):
        # zero lan latency but distinct segments: the boundary lookahead
        # is the backbone hop, intra-shard messages may be instantaneous.
        def builder(shard=None):
            return build_pair(shard, lan_latency=0.0, same_segment=False)

        sim = ShardedSimulator(builder, n_shards=2,
                               host_to_shard=pair_shard_map, mode="local",
                               seed=7)
        with sim:
            assert sim.lookahead == pytest.approx(2e-3)
            sim.boot(settle=1.0)
            sim.spawn(spawn_beta_lookups, n_ops=2)
            sim.run(sim.now + 2.0)
            latencies = [s for r in sim.collect(collect_latencies) for s in r]
        assert len(latencies) == 2


# ---------------------------------------------------------------------------
# Failure paths
# ---------------------------------------------------------------------------

class TestFailures:
    def test_zero_lookahead_raises(self):
        def builder(shard=None):
            return build_pair(shard, lan_latency=0.0, same_segment=True)

        sim = ShardedSimulator(builder, n_shards=2,
                               host_to_shard=pair_shard_map, mode="local")
        with pytest.raises(SimulationError, match="zero inter-shard lookahead"):
            sim.start()

    def test_multi_shard_requires_map(self):
        with pytest.raises(SimulationError, match="host_to_shard"):
            ShardedSimulator(build_pair, n_shards=2)

    def test_bad_shard_count(self):
        with pytest.raises(SimulationError):
            ShardedSimulator(build_pair, n_shards=0)

    def test_unstarted_run_raises(self):
        sim = ShardedSimulator(build_pair)
        with pytest.raises(SimulationError, match="not started"):
            sim.run(1.0)

    def test_backwards_run_raises(self):
        with ShardedSimulator(build_pair, mode="local") as sim:
            sim.run(1.0)
            with pytest.raises(SimulationError, match="backwards"):
                sim.run(0.5)

    @pytest.mark.parametrize("mode", ["local", "process"])
    def test_shard_crash_is_clean(self, mode):
        sim = ShardedSimulator(build_pair, n_shards=2,
                               host_to_shard=pair_shard_map, mode=mode, seed=7)
        with sim:
            sim.boot(settle=1.0)
            sim.spawn(spawn_crasher, at=0.5)
            with pytest.raises(SimulationError, match="shard 1"):
                sim.run(sim.now + 2.0)
        # after the failure the coordinator is closed, not wedged
        with pytest.raises(SimulationError, match="closed"):
            sim.run(10.0)

    def test_livelocked_shard_is_named_and_reaped(self, monkeypatch):
        monkeypatch.setattr(sharded, "SHARD_REPLY_TIMEOUT_S", 0.5)
        sim = ShardedSimulator(build_pair, n_shards=2,
                               host_to_shard=pair_shard_map, mode="process",
                               seed=7)
        with sim:
            sim.boot(settle=1.0)
            sim.spawn(spawn_spinner, at=0.5)
            started = time.monotonic()
            with pytest.raises(SimulationError) as err:
                sim.run(sim.now + 2.0)
            assert time.monotonic() - started < 30.0
        # names the silent shard, its granted window and the wall wait
        assert "shard 1 granted [" in str(err.value)
        assert "shard 0" not in str(err.value)
        assert "in 0.5 wall seconds" in str(err.value)
        assert not any(h.proc.is_alive() for h in sim._handles)
        with pytest.raises(SimulationError, match="closed"):
            sim.run(10.0)

    def test_unpicklable_boundary_message_is_named(self):
        sim = ShardedSimulator(build_pair, n_shards=2,
                               host_to_shard=pair_shard_map, mode="process",
                               seed=7)
        with sim:
            sim.boot(settle=1.0)
            sim.spawn(spawn_unpicklable_datagram)
            started = time.monotonic()
            with pytest.raises(SimulationError) as err:
                sim.run(sim.now + 2.0)
            assert time.monotonic() - started < 30.0
        # names the message: its kind, where it goes and what it carries
        assert "shard 1 failed" in str(err.value)
        assert "'dgram' message from shard 1" in str(err.value)
        assert "to shard 0 carries a generator payload" in str(err.value)
        assert not any(h.proc.is_alive() for h in sim._handles)
        with pytest.raises(SimulationError, match="closed"):
            sim.run(10.0)

    def test_use_after_close_raises(self):
        sim = ShardedSimulator(build_pair, mode="local")
        sim.start()
        sim.close()
        with pytest.raises(SimulationError, match="closed"):
            sim.counters()


# ---------------------------------------------------------------------------
# Grant polling: process shards with a core each do not sleep between windows
# ---------------------------------------------------------------------------

class TestGrantPolling:
    @pytest.mark.parametrize("cores", [1, 2])
    def test_shards_poll_only_with_a_core_each(self, monkeypatch, cores):
        monkeypatch.setattr(sharded, "cores_available", lambda: cores)
        sim = ShardedSimulator(build_pair, n_shards=2,
                               host_to_shard=pair_shard_map, mode="process",
                               seed=7)
        with sim:
            sim.boot(settle=1.0)
            sim.spawn(spawn_beta_lookups, n_ops=5)
            sim.run(sim.now + 4.0)
            reports = sim.shard_reports()
            trace_hash = sim.merged_trace().hash()
        # host-side waiting only: the simulation is the single kernel's
        assert trace_hash == _run_pair(1)[2]
        polled = [r["poll_cpu_s"] for r in reports]
        if cores >= 2:
            assert all(p > 0.0 for p in polled)
        else:
            assert polled == [0.0, 0.0]
        # cpu_s is simulation work: polling is not in it
        assert all(r["cpu_s"] > 0.0 for r in reports)

    def test_poll_returns_on_data_or_when_the_budget_is_spent(self):
        import multiprocessing
        import select

        from repro.sim.parallel.runtime import _poll_for_request

        ours, theirs = multiprocessing.Pipe()
        poller = select.poll()
        poller.register(ours.fileno(), select.POLLIN)
        try:
            started = time.perf_counter()
            _poll_for_request(poller, 0.05)
            assert 0.05 <= time.perf_counter() - started < 2.0
            theirs.send(("window", 1.0, []))
            started = time.perf_counter()
            _poll_for_request(poller, 30.0)
            assert time.perf_counter() - started < 2.0
            assert ours.recv() == ("window", 1.0, [])
        finally:
            ours.close()
            theirs.close()


# ---------------------------------------------------------------------------
# Shard context / RNG forks
# ---------------------------------------------------------------------------

class TestShardContext:
    def test_ownership_partition(self):
        ctx0 = ShardContext(0, 2, pair_shard_map)
        ctx1 = ShardContext(1, 2, pair_shard_map)
        assert ctx0.owns("alpha") and not ctx0.owns("beta")
        assert ctx1.owns("beta") and not ctx1.owns("alpha")

    def test_single_shard_owns_everything(self):
        ctx = ShardContext(0, 1)
        assert ctx.owns("anything-at-all")

    def test_index_out_of_range(self):
        with pytest.raises(SimulationError):
            ShardContext(2, 2, pair_shard_map)

    def test_bad_mapping_detected(self):
        ctx = ShardContext(0, 2, lambda name: 7)
        with pytest.raises(SimulationError, match="mapped to shard 7"):
            ctx.owns("alpha")

    def test_shard_rng_forks_are_distinct_and_stable(self):
        a = ShardContext(0, 2, pair_shard_map, seed=5).shard_rng.py("x").random()
        b = ShardContext(1, 2, pair_shard_map, seed=5).shard_rng.py("x").random()
        a2 = ShardContext(0, 2, pair_shard_map, seed=5).shard_rng.py("x").random()
        assert a != b          # shards draw from independent forks
        assert a == a2         # ...deterministically

    def test_shard_fork_does_not_disturb_root_streams(self):
        from repro.sim import RngRegistry

        root = RngRegistry(5)
        before = root.py("client.host.user").random()
        root2 = RngRegistry(5)
        root2.fork("shard:0").py("anything").random()
        after = root2.py("client.host.user").random()
        assert before == after


# ---------------------------------------------------------------------------
# Property: random small topologies, 1 shard vs 2 shards
# ---------------------------------------------------------------------------

@given(data=st.data())
@settings(deadline=None, derandomize=True, max_examples=6)
def test_random_topologies_shard_invariant(data):
    n_hosts = data.draw(st.integers(min_value=2, max_value=4), label="n_hosts")
    seed = data.draw(st.integers(min_value=0, max_value=3), label="seed")
    assign = data.draw(
        st.lists(st.integers(0, 1), min_size=n_hosts, max_size=n_hosts)
        .filter(lambda a: len(set(a)) == 2),
        label="shard_assignment",
    )
    segments = data.draw(
        st.lists(st.sampled_from(["lan", "annex"]),
                 min_size=n_hosts, max_size=n_hosts),
        label="segments",
    )
    aud_hosts = data.draw(
        st.sets(st.integers(1, n_hosts - 1), min_size=1),
        label="aud_hosts",
    )

    def builder(shard=None):
        env = ACEEnvironment(seed=seed, shard=shard)
        hosts = [
            env.add_workstation(f"h{i}", segment=segments[i], monitors=False)
            for i in range(n_hosts)
        ]
        env.ctx.default_bootstrap("h0")
        env.add_daemon(
            ServiceDirectoryDaemon(env.ctx, "asd", hosts[0],
                                   port=WellKnownPorts.ASD),
            tier=0,
        )
        for i in sorted(aud_hosts):
            env.add_daemon(
                UserDatabaseDaemon(env.ctx, f"aud{i}", hosts[i],
                                   port=WellKnownPorts.USER_DB),
                tier=1,
            )
        return env

    def host_shard(name):
        return assign[int(name[1:])]

    hashes = []
    for n_shards in (1, 2):
        sim = ShardedSimulator(
            builder, n_shards=n_shards,
            host_to_shard=host_shard if n_shards > 1 else None,
            mode="local", seed=seed,
        )
        with sim:
            sim.boot(settle=1.0)
            sim.run(sim.now + 2.0)
            hashes.append(sim.merged_trace().hash())
    assert hashes[0] == hashes[1]
