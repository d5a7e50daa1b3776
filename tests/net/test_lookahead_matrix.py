"""Property suite for the per-pair lookahead matrix (E30).

``BoundaryNetwork.compute_lookahead_row()`` is the foundation the
demand-driven sync protocol's safety argument rests on: ``L[i][j]`` must
lower-bound the latency of *every* message shard ``i`` can ever send to
shard ``j``.  The suite checks the row against a brute-force oracle on
random topologies (asymmetric shard sizes, empty shards, degraded
hosts), plus the coordinator-level contract that a zero cross-shard
lookahead is rejected at start.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.env import ACEEnvironment
from repro.net.boundary import BoundaryNetwork
from repro.sim import SimulationError, Simulator
from repro.sim.parallel import ShardContext, ShardedSimulator

INF = float("inf")

#: latency multipliers degrade() accepts: >= 1 slows a host down (the
#: gray-failure case), < 1 speeds it up (must *shrink* the bound)
MULTS = st.sampled_from([0.5, 1.0, 1.0, 1.0, 2.0, 10.0])


@st.composite
def topologies(draw):
    n_shards = draw(st.integers(min_value=2, max_value=5))
    n_hosts = draw(st.integers(min_value=1, max_value=10))
    hosts = [
        (
            f"h{k}",
            draw(st.integers(min_value=0, max_value=n_shards - 1)),
            f"seg{draw(st.integers(min_value=0, max_value=3))}",
            draw(MULTS),
        )
        for k in range(n_hosts)
    ]
    lan = draw(st.floats(min_value=1e-6, max_value=1e-2,
                         allow_nan=False, allow_infinity=False))
    backbone = draw(st.floats(min_value=1e-5, max_value=5e-2,
                              allow_nan=False, allow_infinity=False))
    return n_shards, hosts, lan, backbone


def build_networks(n_shards, hosts, lan, backbone):
    """One BoundaryNetwork per shard over the same full topology."""
    shard_by_name = {name: s for name, s, _, _ in hosts}
    nets = []
    for i in range(n_shards):
        ctx = ShardContext(i, n_shards, shard_by_name.__getitem__)
        net = BoundaryNetwork(Simulator(), shard=ctx,
                              lan_latency=lan, backbone_latency=backbone)
        for name, _, segment, mult in hosts:
            host = net.make_host(name, segment=segment)
            if mult != 1.0:
                host.degrade(latency_mult=mult)
        nets.append(net)
    return nets


def oracle_row(hosts, i, n_shards, lan, backbone):
    """Brute force over every owned -> foreign host pair."""
    row = {}
    for j in range(n_shards):
        if j == i:
            continue
        best = INF
        for _, sa, sega, ma in hosts:
            if sa != i:
                continue
            for _, sb, segb, mb in hosts:
                if sb != j:
                    continue
                base = lan + (backbone if sega != segb else 0.0)
                base *= min(1.0, ma * mb)
                best = min(best, base)
        row[j] = best
    return row


class TestLookaheadRow:
    @given(topologies())
    @settings(max_examples=60, deadline=None)
    def test_row_matches_bruteforce_oracle(self, topo):
        n_shards, hosts, lan, backbone = topo
        for i, net in enumerate(build_networks(n_shards, hosts, lan, backbone)):
            row = net.compute_lookahead_row()
            expected = oracle_row(hosts, i, n_shards, lan, backbone)
            assert set(row) == set(expected)
            for j, value in expected.items():
                if value == INF:
                    assert row[j] == INF
                else:
                    assert row[j] == pytest.approx(value)

    @given(topologies())
    @settings(max_examples=40, deadline=None)
    def test_unreachable_and_empty_shards_are_inf(self, topo):
        n_shards, hosts, lan, backbone = topo
        populated = {s for _, s, _, _ in hosts}
        nets = build_networks(n_shards, hosts, lan, backbone)
        for i, net in enumerate(nets):
            row = net.compute_lookahead_row()
            # a shard owning no hosts can neither send nor receive
            for j in range(n_shards):
                if j != i and j not in populated:
                    assert row[j] == INF
            if i not in populated:
                assert all(v == INF for v in row.values())

    @given(topologies())
    @settings(max_examples=40, deadline=None)
    def test_symmetric_without_degradation(self, topo):
        n_shards, hosts, lan, backbone = topo
        hosts = [(n, s, seg, 1.0) for n, s, seg, _ in hosts]
        nets = build_networks(n_shards, hosts, lan, backbone)
        rows = [net.compute_lookahead_row() for net in nets]
        # the path formula is symmetric in (segment, segment)
        for i in range(n_shards):
            for j in range(n_shards):
                if i != j:
                    assert rows[i][j] == rows[j][i]

    @given(topologies(),
           st.floats(min_value=0.0, max_value=1e3,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=40, deadline=None)
    def test_scalar_lookahead_and_eot_derive_from_row(self, topo, next_event):
        n_shards, hosts, lan, backbone = topo
        for net in build_networks(n_shards, hosts, lan, backbone):
            row = net.compute_lookahead_row()
            eot = net.earliest_output_times(next_event)
            assert set(eot) == set(row)
            for j, la in row.items():
                if la == INF:
                    assert eot[j] == INF
                else:
                    assert eot[j] == pytest.approx(next_event + la)

    @given(topologies())
    @settings(max_examples=20, deadline=None)
    def test_row_is_a_build_time_bound(self, topo):
        """The cached row never moves, even when hosts degrade later —
        the sync protocol pins its safety argument to the build-time
        value, and degradation (mult >= 1) only adds latency."""
        n_shards, hosts, lan, backbone = topo
        for net in build_networks(n_shards, hosts, lan, backbone):
            before = dict(net.compute_lookahead_row())
            for host in net.hosts.values():
                host.degrade(latency_mult=50.0)
            assert net.compute_lookahead_row() == before


# ---------------------------------------------------------------------------
# Coordinator contract: zero cross-shard lookahead is rejected at start
# ---------------------------------------------------------------------------

@st.composite
def zero_lan_pairs(draw):
    """Two hosts split across two shards; the LAN hop costs nothing, so
    the cross-shard lookahead is zero exactly when they share a segment."""
    same_segment = draw(st.booleans())
    backbone = draw(st.floats(min_value=1e-4, max_value=1e-2,
                              allow_nan=False, allow_infinity=False))
    return same_segment, backbone


def _pair_map(host_name):
    return 0 if host_name == "alpha" else 1


class TestZeroLookaheadRejected:
    @given(zero_lan_pairs())
    @settings(max_examples=10, deadline=None)
    def test_zero_latency_cross_shard_pair(self, case):
        same_segment, backbone = case

        def builder(shard=None):
            env = ACEEnvironment(
                seed=3, shard=shard,
                net_kwargs={"lan_latency": 0.0,
                            "backbone_latency": backbone},
            )
            env.add_workstation("alpha", monitors=False)
            env.add_workstation(
                "beta", segment="lan" if same_segment else "b",
                monitors=False,
            )
            return env

        sim = ShardedSimulator(builder, n_shards=2, host_to_shard=_pair_map,
                               mode="local")
        if same_segment:
            with pytest.raises(SimulationError,
                               match="zero inter-shard lookahead"):
                sim.start()
        else:
            with sim:
                assert sim.lookahead == pytest.approx(backbone)
                assert sim.lookahead_matrix[0][1] == pytest.approx(backbone)
                assert sim.lookahead_matrix[1][0] == pytest.approx(backbone)
