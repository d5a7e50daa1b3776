"""E21 — chaos experiment: gray failure vs the resilient RPC layer.

The paper's reliability machinery (§5.2–5.3: leases, restart manager,
replicated store) recovers from *clean* failures — crashes, partitions.
This experiment injects the failures that machinery cannot see:

* a **flaky link** silently eating most messages between the clients and
  the primary service (TCP stalls; nothing ever refuses);
* a **degraded host** 100000x slower than normal (still renewing its
  leases, still registered, still "up");
* an overlapping **host crash** of the secondary, the one clean failure,
  to force both paths bad at once.

The same closed-loop workload runs twice: with the resilient RPC layer
(deadlines + retries + circuit breakers: ``client.call`` under a
``CallPolicy``) and with the naive pre-policy client (``policy=None``, no
deadline).  Recovery shape is asserted, not just plotted: availability
dips then returns, breakers trip and shed load, no resilient caller is
ever stuck past its deadline budget, and p99 stays bounded — while naive
callers hang indefinitely.

Set ``ACE_BENCH_SHORT=1`` to run a smaller population (CI smoke).
"""

import os

from repro.core import ACEDaemon
from repro.core.policy import CallPolicy
from repro.env import ACEEnvironment
from repro.faults import ChaosController, FaultPlan
from repro.lang import ArgSpec, ArgType, CommandSemantics
from repro.metrics import ResultTable
from repro.workloads import run_chaos_workload

SHORT = bool(os.environ.get("ACE_BENCH_SHORT"))
N_CLIENTS = 4 if SHORT else 8

POLICY = CallPolicy(
    deadline=1.0, attempt_timeout=0.4, max_attempts=2,
    backoff_base=0.05, backoff_max=0.2, backoff_jitter=0.5,
    breaker_threshold=3, breaker_reset=2.0,
)

#: fault schedule offsets (seconds after the controller starts)
FLAKY_AT, FLAKY_DURATION = 5.0, 10.0
CRASH_AT, CRASH_RESTART_AFTER = 10.0, 8.0
DEGRADE_AT, DEGRADE_DURATION = 20.0, 8.0
RUN_DURATION, GRACE = 35.0, 5.0


class ChaosEchoDaemon(ACEDaemon):
    """Minimal target service: one cheap ``echo`` command."""

    service_type = "ChaosEcho"

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define("echo", ArgSpec("text", ArgType.STRING))

    def cmd_echo(self, request) -> dict:
        return {"text": request.command.str("text"), "by": self.name}


def build(seed):
    env = ACEEnvironment(seed=seed, lease_duration=10.0)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    svc1 = env.add_host("svc1", room="lab")
    svc2 = env.add_host("svc2", room="lab")
    env.add_host("users", room="lab")
    primary = env.add_daemon(ChaosEchoDaemon(env.ctx, "echo.svc1", svc1, room="lab"))
    secondary = env.add_daemon(ChaosEchoDaemon(env.ctx, "echo.svc2", svc2, room="lab"))
    env.boot()
    env.run_for(1.0)
    return env, primary, secondary


def chaos_run(seed, resilient):
    """One full fault schedule under the chosen client mode."""
    env, primary, secondary = build(seed)

    def relaunch_secondary():
        env.add_daemon(ChaosEchoDaemon(
            env.ctx, "echo.svc2b", env.net.host("svc2"),
            room="lab", port=secondary.address.port,
        ))

    plan = (
        FaultPlan()
        .flaky_link("users", "svc1", at=FLAKY_AT, duration=FLAKY_DURATION,
                    peak_loss=0.95, profile="constant")
        .crash_host("svc2", at=CRASH_AT, restart_after=CRASH_RESTART_AFTER,
                    relaunch=relaunch_secondary)
        .degrade_host("svc1", at=DEGRADE_AT, duration=DEGRADE_DURATION,
                      latency_mult=1e5)
    )
    t0 = env.sim.now
    ChaosController(env.net, plan).start()
    result = run_chaos_workload(
        env,
        n_clients=N_CLIENTS,
        duration=RUN_DURATION,
        primary=primary.address,
        secondary=secondary.address,
        policy=POLICY,
        resilient=resilient,
        think_time=0.2,
        client_host_name="users",
        grace=GRACE,
    )
    return env, result, t0


def phase_windows(t0):
    return [
        ("baseline", t0, t0 + FLAKY_AT),
        ("flaky link", t0 + FLAKY_AT, t0 + CRASH_AT),
        ("flaky + crash", t0 + CRASH_AT, t0 + FLAKY_AT + FLAKY_DURATION),
        ("healed", t0 + FLAKY_AT + FLAKY_DURATION, t0 + DEGRADE_AT),
        ("degraded host", t0 + DEGRADE_AT, t0 + DEGRADE_AT + DEGRADE_DURATION),
        ("recovered", t0 + DEGRADE_AT + DEGRADE_DURATION, t0 + RUN_DURATION),
    ]


def test_e21_gray_failure_recovery(benchmark, table_printer):
    """Resilient mode: availability dips under injected gray failure and
    returns after heal; breakers shed load; every call stays bounded."""
    env, result, t0 = benchmark.pedantic(
        lambda: chaos_run(seed=210, resilient=True), rounds=1, iterations=1)
    stats = env.ctx.resilience.stats

    table = table_printer(ResultTable(
        "E21: availability timeline under chaos (resilient clients)",
        ["phase", "availability", "delivered"],
    ))
    for label, a, b in phase_windows(t0):
        table.add(label, round(result.availability_between(a, b), 3),
                  result.delivered_between(a, b))
    counters = table_printer(ResultTable(
        "E21: resilient RPC layer counters", ["counter", "value"],
    ))
    for key, value in stats.snapshot().items():
        counters.add(key, value)
    counters.add("hung callers at end", result.hung)
    counters.add("p99 latency (s)", round(result.latency_percentile(99), 3))
    counters.add("max latency (s)", round(result.max_elapsed, 3))

    # No caller hangs, and nothing runs past the two-target deadline budget.
    assert result.hung == 0
    assert result.max_elapsed <= 2 * POLICY.deadline * 1.2

    # Recovery shape: dip while both targets are broken, then back up.
    pre = result.availability_between(t0, t0 + FLAKY_AT)
    dip = result.availability_between(t0 + CRASH_AT, t0 + FLAKY_AT + FLAKY_DURATION)
    # Settled part of the heal window: secondary restarted (t0+18) and the
    # primary's breaker has had its half-open probe re-close it.
    healed = result.availability_between(t0 + CRASH_AT + CRASH_RESTART_AFTER, t0 + DEGRADE_AT)
    recovered = result.availability_between(
        t0 + DEGRADE_AT + DEGRADE_DURATION + 2.0, t0 + RUN_DURATION
    )
    assert pre >= 0.95
    assert dip <= 0.5 < pre
    assert healed >= 0.9
    assert recovered >= 0.9

    # Service continues through the gray degrade via breaker-shed failover.
    assert result.delivered_between(t0 + DEGRADE_AT, t0 + DEGRADE_AT + DEGRADE_DURATION) > 0

    # The layer earned its keep: deadlines fired, retries ran, breakers
    # tripped, shed load, and re-closed on heal.
    assert stats.deadline_expired > 0
    assert stats.retries > 0
    assert stats.breaker_trips >= 1
    assert stats.breaker_rejected > 0
    assert stats.breaker_resets >= 1


def test_e21_resilient_vs_naive(benchmark, table_printer):
    """Ablation: the same chaos schedule against naive no-deadline clients.
    Naive callers hang on the flaky link and stall through the degrade;
    resilient callers stay bounded and keep delivering."""

    def run():
        _, naive, nt0 = chaos_run(seed=211, resilient=False)
        env, resilient, rt0 = chaos_run(seed=211, resilient=True)
        return env, naive, nt0, resilient, rt0

    env, naive, nt0, resilient, rt0 = benchmark.pedantic(run, rounds=1, iterations=1)

    table = table_printer(ResultTable(
        "E21: resilient vs naive clients under the same chaos schedule",
        ["metric", "resilient", "naive"],
    ))
    degrade_r = resilient.delivered_between(
        rt0 + DEGRADE_AT, rt0 + DEGRADE_AT + DEGRADE_DURATION)
    degrade_n = naive.delivered_between(
        nt0 + DEGRADE_AT, nt0 + DEGRADE_AT + DEGRADE_DURATION)
    gray_r = resilient.delivered_between(rt0 + FLAKY_AT, rt0 + RUN_DURATION)
    gray_n = naive.delivered_between(nt0 + FLAKY_AT, nt0 + RUN_DURATION)
    table.add("calls completed", resilient.completed, naive.completed)
    table.add("delivered after faults begin", gray_r, gray_n)
    table.add("delivered during degraded host", degrade_r, degrade_n)
    table.add("hung callers at end", resilient.hung, naive.hung)
    table.add("p99 latency (s)",
              round(resilient.latency_percentile(99), 3),
              "unbounded" if naive.hung else round(naive.latency_percentile(99), 3))
    table.add("max latency (s)",
              round(resilient.max_elapsed, 3),
              "unbounded" if naive.hung else round(naive.max_elapsed, 3))

    # Naive callers hang without a deadline; resilient callers never do.
    assert naive.hung > 0
    assert resilient.hung == 0
    # Bounded vs unbounded tail under gray failure.
    assert resilient.max_elapsed <= 2 * POLICY.deadline * 1.2
    # The resilient population keeps delivering while faults are active.
    assert gray_r > gray_n
    assert degrade_r > degrade_n
    assert resilient.delivered > naive.delivered
