"""ProfileScope: kernel counter deltas, registry views, cProfile plumbing."""

from repro.obs import KERNEL_COUNTERS, MetricsRegistry, ProfileScope
from repro.sim import Simulator


def _spin(sim, n=50):
    def worker():
        for _ in range(n):
            yield sim.timeout(0)
        return n

    assert sim.run_process(worker()) == n


def test_scope_captures_counter_deltas():
    sim = Simulator()
    _spin(sim)  # work before the scope must not leak into the deltas
    with ProfileScope("region", sim=sim, profile=False) as scope:
        _spin(sim, n=30)

    assert set(KERNEL_COUNTERS) <= set(scope.counters)
    # 30 timeouts + the worker's bootstrap resume + its completion event.
    assert scope.counters["events_delivered"] == 32
    assert scope.counters["ready_hits"] > 0
    assert scope.wall_s > 0
    assert scope.sim_s == 0.0  # zero-delay work never advances the clock
    assert scope.events_per_s > 0


def test_scope_registers_metrics_view():
    sim = Simulator()
    registry = MetricsRegistry()
    with ProfileScope("boot", sim=sim, registry=registry, profile=False):
        _spin(sim, n=5)
    snap = registry.snapshot(prefix="profile.boot.")
    assert snap["profile.boot.events_delivered"] == 7  # boot + 5 + completion
    assert "profile.boot.wall_s" in snap


def test_scope_without_sim_measures_wall_only():
    with ProfileScope("plain", profile=False) as scope:
        sum(range(1000))
    assert scope.wall_s > 0
    assert scope.counters == {}
    assert scope.events_per_s == 0.0
    assert scope.summary() == {"wall_s": scope.wall_s, "sim_s": 0.0}


def test_profiled_scope_reports_hot_functions():
    sim = Simulator()
    with ProfileScope("hot", sim=sim) as scope:
        _spin(sim, n=200)
    rows = scope.top_functions(5)
    assert len(rows) == 5
    location, calls, tottime, cumtime = rows[0]
    assert calls > 0 and cumtime >= tottime >= 0
    # The kernel's delivery machinery must show up in a scheduler-bound loop.
    assert any("kernel.py" in row[0] for row in scope.top_functions(25))
    table = scope.stats_table(5)
    assert "function calls" in table


def test_unprofiled_scope_has_no_stats():
    with ProfileScope("quiet", profile=False) as scope:
        pass
    assert scope.top_functions() == []
    assert "disabled" in scope.stats_table()
