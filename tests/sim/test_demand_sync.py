"""Demand-driven conservative sync (E30): causality and equivalence.

The protocol's load-bearing promise: once the coordinator grants shard
``i`` a window up to ``g``, **no boundary message with a timestamp below
``g`` is ever delivered to ``i`` afterwards** — the window's contents
were complete at grant time.  The causality regression here instruments
the coordinator's dispatch path and checks that invariant message by
message on a real campus run; the equivalence tests pin the contract
(same merged trace as the single kernel) and the structural null-message
elimination.
"""

import functools

import pytest

from repro.env import build_campus, campus_shard_map
from repro.sim.parallel import ShardedSimulator
from repro.workloads import (
    PopulationProfile,
    collect_population,
    start_population,
)

REGIONS = 4
SEED = 11
PROFILE = PopulationProfile(n_users=40, duration=4.0, process="poisson")
BUILDER = functools.partial(build_campus, regions=REGIONS, seed=SEED)


def _instrument_grants(sim):
    """Wrap every shard handle's send() to watch window dispatches.

    Records, per shard, the highest horizon granted so far; any inbox
    message timestamped inside an *earlier* (already completed) granted
    window is a causality violation.  Local mode makes the check exact:
    send() executes the window synchronously, so by the next dispatch to
    the same shard the previous window has fully run.
    """
    granted = [0.0] * sim.n_shards
    violations = []
    for i, handle in enumerate(sim._handles):
        orig = handle.send

        def send(msg, i=i, orig=orig):
            if msg and msg[0] == "window":
                _, g, inbox = msg
                for m in inbox:
                    if m[1] < granted[i]:
                        violations.append(
                            (i, m[1], granted[i],
                             f"message kind {m[0]!r} for t={m[1]} delivered "
                             f"after shard {i} was granted {granted[i]}"))
                if g > granted[i]:
                    granted[i] = g
            orig(msg)

        handle.send = send
    return violations


def _run_campus(n_shards, *, instrument=False):
    shard_map = campus_shard_map(REGIONS, n_shards) if n_shards > 1 else None
    sim = ShardedSimulator(BUILDER, n_shards=n_shards,
                           host_to_shard=shard_map, mode="local", seed=SEED)
    with sim:
        violations = _instrument_grants(sim) if instrument else []
        sim.boot(settle=1.0)
        sim.spawn(start_population, profile=PROFILE)
        sim.run(sim.now + PROFILE.duration + 2.0)
        results = sim.collect(collect_population)
        counters = sim.counters()
        report = sim.sync_report()
        trace_hash = sim.merged_trace().hash()
    ops = sum(r["ops"] for r in results)
    return ops, counters, report, trace_hash, violations


class TestCausality:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_no_message_lands_inside_granted_window(self, n_shards):
        ops, counters, report, _, violations = _run_campus(
            n_shards, instrument=True)
        assert ops > 0
        assert counters["boundary.msgs_out"] > 0, "nothing crossed shards"
        assert counters["sync.grants"] > 0
        assert not violations, violations[:5]


class TestEquivalence:
    def test_demand_matches_lockstep_and_single_kernel(self):
        ops1, _, _, hash1, _ = _run_campus(1)
        ops2, counters2, _, hash2, _ = _run_campus(2)
        assert ops1 > 0
        assert ops1 == ops2
        assert hash1 == hash2
        # demand-driven dispatch is null-free by construction: every grant
        # delivers an event, so no shard is dispatched once per pass
        assert counters2["sync.null_messages"] == 0
        assert counters2["sync.lookahead_stalls"] == 0
        assert counters2["sync.grants"] < 2 * counters2["sync.rounds"]

    def test_empty_shards_see_only_boot_grants(self):
        """8 shards over 4 regions: odd shards own nothing.  Beyond the
        boot sequence's own timers (one grant), they are never
        dispatched, and the run still matches the single kernel."""
        ops1, _, _, hash1, _ = _run_campus(1)
        ops8, counters8, report8, hash8, _ = _run_campus(8)
        assert ops8 == ops1
        assert hash8 == hash1
        assert counters8["boundary.msgs_out"] > 0
        for i, shard in enumerate(report8["per_shard"]):
            if i % 2 == 1:
                assert shard["grants"] <= 2, f"empty shard {i} kept drawing"
            else:
                assert shard["grants"] > 20 * 2

    def test_width_histograms_count_every_grant(self):
        _, _, report, _, _ = _run_campus(2)
        for shard in report["per_shard"]:
            assert shard["window_width"]["count"] == shard["grants"]
            assert shard["window_width"]["p95"] > 0.0
        assert sum(s["grants"] for s in report["per_shard"]) \
            == report["grants"]


class TestProtocolSelection:
    def test_unknown_sync_rejected(self):
        """There is one protocol and no kwarg that names another."""
        with pytest.raises(TypeError):
            ShardedSimulator(BUILDER, n_shards=1, mode="local",
                             sync="lockstep")
