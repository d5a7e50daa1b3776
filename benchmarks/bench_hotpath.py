"""E24 — hot-path performance: the kernel scheduler (tracked).

Every experiment in this reproduction runs on the `repro.sim` event
kernel.  E24 pins its scheduling to a machine-readable baseline:

* **kernel microbench** — five scheduler-bound scenarios (zero-delay event
  churn, process chains over already-processed events, an interrupt storm,
  a process spawn storm, processes waking on fresh timeouts), each with a
  heap of pending heartbeat-style timers as ballast (that is what a real
  environment's heap looks like — E18 runs thousands of
  leases/heartbeats), measured in delivered events per wall second via :class:`repro.obs.ProfileScope`.  These rows are
  informational: host-speed regressions are ``python3 -m bench``'s job
  (``ops_per_host_s``, ``sim.events_per_host_s``, ``sim.heap_push_share``).
* **Scenario-1 macro run** — the §7.1 new-user story end to end, with the
  kernel counters showing the ready queues carried the run.

The report is ``BENCH_E24.json``.  The regression guard
(``benchmarks/conftest.py:record``) holds Scenario 1's and the timer-wake
row's kernel counters equal to the committed baseline: they are exact per
seed, where host rates are not.

Set ``ACE_BENCH_SHORT=1`` for a CI-sized run.
"""

import os

from repro.env.scenarios import scenario_1_new_user, standard_environment
from repro.metrics import ResultTable
from repro.obs import ProfileScope
from repro.sim import Interrupt, Simulator
from repro.sim.kernel import NORMAL

from benchmarks.conftest import record

SHORT = bool(os.environ.get("ACE_BENCH_SHORT"))
BALLAST = 1000 if SHORT else 4000
REPEATS = 2 if SHORT else 3
SIZES = {
    "event_churn": 20_000 if SHORT else 200_000,
    "process_chain": 6_000 if SHORT else 60_000,
    "interrupt_storm": 4_000 if SHORT else 30_000,
    "spawn_storm": 5_000 if SHORT else 50_000,
    "timer_wake": 20_000 if SHORT else 200_000,
}
#: processes sharing the timer-wake row's wakes, each with its own period
SLEEPERS = 10


# ---------------------------------------------------------------------------
# Kernel microbench scenarios
# ---------------------------------------------------------------------------

def _ballasted() -> Simulator:
    """A simulator with a realistic heap of far-future timers pending."""
    sim = Simulator()
    for i in range(BALLAST):
        sim.timeout(1e6 + i)
    return sim


def _scn_event_churn() -> ProfileScope:
    """Zero-delay trigger/deliver cycles through callbacks — the pattern
    queue hand-offs and notification fan-outs produce."""
    n = SIZES["event_churn"]
    sim = _ballasted()
    count = [0]

    def relight(_ev):
        count[0] += 1
        if count[0] < n:
            sim.event().succeed(1, priority=NORMAL).callbacks.append(relight)

    sim.event().succeed(0).callbacks.append(relight)
    with ProfileScope("event_churn", sim=sim, profile=False) as scope:
        sim.run(until=0.0)
    assert count[0] == n
    return scope


def _scn_process_chain() -> ProfileScope:
    """Short-lived processes yielding already-processed events and
    zero-delay timeouts — the resume-record hot case."""
    n = SIZES["process_chain"]
    sim = _ballasted()

    def link(depth):
        ev = sim.event()
        ev.succeed(depth)
        got = yield ev          # triggered, delivered while we wait
        yield sim.timeout(0)    # zero-delay timeout
        return got

    def driver():
        for i in range(n):
            yield sim.process(link(i))
        return n

    with ProfileScope("process_chain", sim=sim, profile=False) as scope:
        assert sim.run_process(driver()) == n
    return scope


def _scn_interrupt_storm() -> ProfileScope:
    """One long sleeper interrupted over and over — the kick case."""
    n = SIZES["interrupt_storm"]
    sim = _ballasted()

    def sleeper():
        hits = 0
        while True:
            try:
                yield sim.timeout(10.0)
            except Interrupt:
                hits += 1
                if hits >= n:
                    return hits

    def poker(target):
        for _ in range(n):
            target.interrupt("poke")
            yield sim.timeout(0)

    target = sim.process(sleeper())
    sim.process(poker(target))

    def waiter():
        return (yield target)

    with ProfileScope("interrupt_storm", sim=sim, profile=False) as scope:
        assert sim.run_process(waiter()) == n
    return scope


def _scn_spawn_storm() -> ProfileScope:
    """Spawn-and-join of trivial processes — the bootstrap case."""
    n = SIZES["spawn_storm"]
    sim = _ballasted()

    def leaf(i):
        return i
        yield  # pragma: no cover - makes it a generator

    def driver():
        for i in range(n):
            yield sim.process(leaf(i))
        return n

    with ProfileScope("spawn_storm", sim=sim, profile=False) as scope:
        assert sim.run_process(driver()) == n
    return scope


def _scn_timer_wake() -> ProfileScope:
    """Processes each looping on ``yield sim.timeout(d)`` — every wake a
    fresh timer through the heap: the pattern behind most of a campus
    run's events (transmit, latency and work delays)."""
    n = SIZES["timer_wake"]
    sim = _ballasted()

    def sleeper(period):
        for _ in range(n // SLEEPERS):
            yield sim.timeout(period)

    for i in range(SLEEPERS):
        sim.process(sleeper(1e-3 * (i + 1)))
    with ProfileScope("timer_wake", sim=sim, profile=False) as scope:
        sim.run(until=1e5)   # the ballast lies beyond
    return scope


_KERNEL_SCENARIOS = {
    "event_churn": _scn_event_churn,
    "process_chain": _scn_process_chain,
    "interrupt_storm": _scn_interrupt_storm,
    "spawn_storm": _scn_spawn_storm,
    "timer_wake": _scn_timer_wake,
}


def run_kernel_microbench() -> dict:
    """Best-of-``REPEATS`` events/sec per scenario."""
    results: dict = {"scenarios": {}, "counters": {}}
    total_ev, total_s = 0, 0.0
    for name, scenario in _KERNEL_SCENARIOS.items():
        best = max((scenario() for _ in range(REPEATS)),
                   key=lambda scope: scope.events_per_s)
        # Only the ballast and genuinely delayed timers touch the heap.
        assert best.counters["heap_pushes"] <= BALLAST + 1 + SIZES[name]
        results["scenarios"][name] = {"events_per_s": round(best.events_per_s)}
        results["counters"][name] = dict(best.counters)
        total_ev += best.counters["events_delivered"]
        total_s += best.wall_s
    results["aggregate"] = {"events_per_s": round(total_ev / total_s)}
    return results


# ---------------------------------------------------------------------------
# Scenario-1 macro run
# ---------------------------------------------------------------------------

def run_scenario1() -> ProfileScope:
    env = standard_environment(seed=224).boot()
    with ProfileScope("scenario1", sim=env.sim, profile=False) as scope:
        result = env.run(scenario_1_new_user(env))
    assert result["workspace"]
    return scope


def run_scenario1_macro() -> dict:
    best = min((run_scenario1() for _ in range(REPEATS)), key=lambda s: s.wall_s)
    assert best.counters["ready_hits"] > 0
    return {
        "sim_s": round(best.sim_s, 6),
        "wall_s": round(best.wall_s, 4),
        "counters": dict(best.counters),
    }


# ---------------------------------------------------------------------------
# The experiment
# ---------------------------------------------------------------------------

def test_e24_hotpath(benchmark, table_printer):
    def run():
        return {
            "experiment": "E24",
            "short": SHORT,
            "kernel": run_kernel_microbench(),
            "scenario1": run_scenario1_macro(),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)

    kt = table_printer(ResultTable(
        f"E24: kernel microbench (ballast={BALLAST}, best of {REPEATS})",
        ["scenario", "events_per_s"],
    ))
    for name, row in report["kernel"]["scenarios"].items():
        kt.add(name, row["events_per_s"])
    kt.add("aggregate", report["kernel"]["aggregate"]["events_per_s"])

    s1 = report["scenario1"]
    st = table_printer(ResultTable(
        "E24: Scenario 1 macro run (wall s)",
        ["wall_s", "heap_pushes", "ready_hits"],
    ))
    st.add(s1["wall_s"], s1["counters"]["heap_pushes"],
           s1["counters"]["ready_hits"])

    # Perf-regression guard: kernel counts are exact per seed.
    record(report, equal=["scenario1.counters.*", "kernel.counters.timer_wake.*"])
