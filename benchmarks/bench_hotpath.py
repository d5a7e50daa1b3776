"""E24 — hot-path performance: kernel scheduler + codec fast lane (tracked).

The two loops every experiment in this reproduction runs on are the
`repro.sim` event kernel and the `repro.lang` command codec.  E24 pins
their performance to a machine-readable baseline:

* **kernel microbench** — four scheduler-bound scenarios (zero-delay event
  churn, process chains over already-processed events, an interrupt storm,
  a process spawn storm), each with a heap of pending heartbeat-style
  timers as ballast (that is what a real environment's heap looks like —
  E18 runs thousands of leases/heartbeats), measured in delivered events
  per wall second via :class:`repro.obs.ProfileScope`.  These rows are
  informational: host-speed regressions are ``python3 -m bench``'s job
  (``ops_per_host_s``, ``sim.events_per_host_s``, ``sim.heap_push_share``).
* **codec sweep** — E1's flat-form command lines and the two flat-vector
  lines the ledger workloads send most (a class-lookup reply, a
  replication batch) through the full tokenizer/parser vs the fast-lane
  ``parse_command``, plus an array-form call to show the fallback costs
  nothing it didn't already cost.
* **Scenario-1 macro run** — the §7.1 new-user story end to end, with the
  kernel counters showing the ready queues carried the run.

The report is ``BENCH_E24.json``.  The regression guard
(``benchmarks/conftest.py:record``) compares the measured codec *speedup
ratio* against the committed baseline — ratios are machine-independent,
absolute rates are not — and flags a drop of more than 20%.

Set ``ACE_BENCH_SHORT=1`` for a CI-sized run.
"""

import os
import time

from repro.env.scenarios import scenario_1_new_user, standard_environment
from repro.lang import ACECmdLine
from repro.lang.parser import _parse_fast, parse_command, parse_command_full
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
}

#: acceptance target (ISSUE 4); the committed baseline must clear it, and
#: it doubles as the in-test floor
PARSE_SPEEDUP_MIN = 2.0


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


_KERNEL_SCENARIOS = {
    "event_churn": _scn_event_churn,
    "process_chain": _scn_process_chain,
    "interrupt_storm": _scn_interrupt_storm,
    "spawn_storm": _scn_spawn_storm,
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
# Codec sweep (E1's workload)
# ---------------------------------------------------------------------------

#: (name, command, lane): ``flat`` calls make up the aggregate the CI guard
#: tracks (scalar values only, the set the committed baseline has always
#: had); ``vector`` calls must take the fast lane too; ``full`` is the
#: fast lane declining.
CODEC_CALLS = [
    ("power-toggle", ACECmdLine("power", state="on"), "flat"),
    ("ptz-set-position", ACECmdLine("setPosition", x=1.25, y=2.5, z=0.75), "flat"),
    ("asd-register",
     ACECmdLine("register", name="camera.hawk", host="podium", port=10234,
                room="hawk", cls="ACEService/Device/PTZCamera/VCC4"),
     "flat"),
    ("asd-lookup-reply",  # room_planes: one per op
     ACECmdLine("cmdOk", cmd="lookup", count=1,
                services=("hrm.infra|infra|10000|machineroom|ACEService/HRM",),
                ttl=2.5031200000000107),
     "vector"),
    ("store-replicate-batch",  # store_mix: 0.3 per op
     ACECmdLine("psReplicateBatch",
                entries=("/bench/c0/o31|v=0|696@ps1-1|0",
                         "/bench/c7/o2|v=12|697@ps1-1|0",
                         "/bench/c19/o60|v=3|698@ps1-1|0"),
                o_seq=387),
     "vector"),
    ("calibration-matrix",
     ACECmdLine("calibrate", m=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
     "full"),  # array form: fast lane must fall back, not win
]


def _parse_rate(fn, text: str, n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn(text)
    return n / (time.perf_counter() - t0)


def run_codec_sweep() -> dict:
    n = 2_000 if SHORT else 20_000
    results: dict = {"calls": {}}
    flat_full = flat_fast = 0.0
    flat_count = 0
    for name, command, lane in CODEC_CALLS:
        text = command.to_string()
        assert parse_command(text) == parse_command_full(text) == command
        assert (_parse_fast(text) is None) == (lane == "full"), name
        full_best = max(_parse_rate(parse_command_full, text, n) for _ in range(REPEATS))
        fast_best = max(_parse_rate(parse_command, text, n) for _ in range(REPEATS))
        results["calls"][name] = {
            "lane": lane,
            "full_per_s": round(full_best),
            "fast_per_s": round(fast_best),
            "speedup": round(fast_best / full_best, 3),
        }
        if lane == "flat":
            flat_full += 1.0 / full_best
            flat_fast += 1.0 / fast_best
            flat_count += 1
    results["flat_aggregate"] = {
        "full_per_s": round(flat_count / flat_full),
        "fast_per_s": round(flat_count / flat_fast),
        "speedup": round(flat_full / flat_fast, 3),
    }
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
            "targets": {"parse_speedup_min": PARSE_SPEEDUP_MIN},
            "kernel": run_kernel_microbench(),
            "codec": run_codec_sweep(),
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

    ct = table_printer(ResultTable(
        "E24: codec, full parser vs fast lane",
        ["call", "full_per_s", "fast_per_s", "speedup"],
    ))
    for name, row in report["codec"]["calls"].items():
        ct.add(name, row["full_per_s"], row["fast_per_s"], f'{row["speedup"]:.2f}x')
    flat = report["codec"]["flat_aggregate"]
    ct.add("flat aggregate", flat["full_per_s"], flat["fast_per_s"],
           f'{flat["speedup"]:.2f}x')

    s1 = report["scenario1"]
    st = table_printer(ResultTable(
        "E24: Scenario 1 macro run (wall s)",
        ["wall_s", "heap_pushes", "ready_hits"],
    ))
    st.add(s1["wall_s"], s1["counters"]["heap_pushes"],
           s1["counters"]["ready_hits"])

    assert flat["speedup"] >= PARSE_SPEEDUP_MIN, (
        f"codec fast lane only {flat['speedup']:.2f}x (floor {PARSE_SPEEDUP_MIN}x)")
    for name, row in report["codec"]["calls"].items():
        if row["lane"] == "vector":
            assert row["speedup"] >= PARSE_SPEEDUP_MIN, (
                f"{name}: flat vector only {row['speedup']:.2f}x on the fast lane")
    # The array-form call must not regress: the fallback adds one failed
    # regex match, so parity within noise.
    vec = report["codec"]["calls"]["calibration-matrix"]
    assert vec["speedup"] > 0.7, f"fallback regressed arrays: {vec}"

    # Perf-regression guard against the committed trajectory.
    record(report, drops=["codec.flat_aggregate.speedup"])
