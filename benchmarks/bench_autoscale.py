"""E28 — closed-loop autoscaling under a flash crowd (tracked).

One seeded store workload, run three ways on the DES clock:

* **static** — a fixed single-group store rides out a flash crowd
  (client count jumps ~7x, think time drops 10x).  The spike p95 must
  degrade to at least 4x the pre-spike baseline: this is the failure
  mode the controller exists for.
* **autoscaled** — the same workload with ``env.enable_autoscaling()``
  driving ``add_store_group`` from the windowed mean control-queue wait.  By
  the back half of the spike the controller must hold p95 within 2x of
  the pre-spike baseline, and every scaling decision must replay
  bit-identically through the pure engine
  (``replay_decisions(rules, daemon.samples)``).
* **chaos** — the autoscaled run with a replica of the newest
  controller-added group crashed mid-spike.  The controller must keep
  ticking, the supervisor must restart the replica, and no acknowledged
  write may be lost.

The report is ``BENCH_E28.json``, with the full decision log beside it
in ``decision-log.json`` (the CI artifact operators diff when a rollout
changes scaling behaviour).  Its guard (``benchmarks/conftest.py:record``)
flags a recovered p95 more than 20% over the committed baseline or a
drifted decision-id sequence (the controller is deterministic: same
seed, same decisions).  ``ACE_BENCH_SHORT=1`` shrinks the phases.
"""

import os

from repro.control import ScalingRule, replay_decisions
from repro.env import ACEEnvironment
from repro.metrics import ResultTable
from repro.store.client import StoreUnavailable

from benchmarks.conftest import record, write_artifact

SHORT = bool(os.environ.get("ACE_BENCH_SHORT"))
WARM_S = 4.0 if SHORT else 6.0       # pre-spike baseline window
SPIKE_S = 14.0 if SHORT else 22.0    # flash-crowd window
BASE_CLIENTS, BASE_THINK = 4, 0.10
SPIKE_CLIENTS, SPIKE_THINK = 20, 0.02
INTERVAL = 0.5                       # control + telemetry interval (sim-s)


#: the bench policy: one rule, store groups driven by control-queue
#: backlog.  Deliberately aggressive cooldowns so the controller
#: converges within the spike; down_cooldown parks the drain far past
#: the measurement horizon.
RULES = (
    ScalingRule(
        "store-backlog", signal="queue_wait_s", resource="store_groups",
        high=0.0006, low=0.00005, min_level=1, max_level=4,
        up_cooldown=1.5, down_cooldown=120.0, sustain=INTERVAL,
    ),
)


def p95(values):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]


def build_env(seed):
    env = ACEEnvironment(seed=seed, lease_duration=4.0)
    env.add_infrastructure()
    env.add_persistent_store(replicas=2, groups=1)
    env.boot()
    env.enable_supervision(
        suspicion_window=2.5, check_interval=0.25, checkpoint_interval=1.0
    )
    return env


def store_load(env, samples, failures, *, n_clients, duration, think, tag):
    """N closed-loop writers against the sharded store; every ack is
    appended to ``samples`` as ``(t_done, latency_s)``."""
    host = env.daemons["asd"].host
    stop_at = env.sim.now + duration

    def one_client(index):
        sc = env.store_client(host, principal=f"{tag}-{index}")
        n = 0
        while env.sim.now < stop_at:
            t0 = env.sim.now
            try:
                yield from sc.put(f"/load/{tag}/{index}/k{n % 13}", {"v": str(n)})
                samples.append((env.sim.now, env.sim.now - t0))
            except StoreUnavailable:
                failures.append((env.sim.now, f"{tag}-{index}"))
            yield env.sim.timeout(think)
            n += 1

    return [
        env.sim.process(one_client(i), name=f"load-{tag}-{i}")
        for i in range(n_clients)
    ]


def run_flash_crowd(seed, *, autoscale: bool, chaos: bool = False) -> dict:
    env = build_env(seed)
    if autoscale:
        env.enable_autoscaling(interval=INTERVAL, rules=list(RULES))

    samples, failures = [], []
    store_load(env, samples, failures, n_clients=BASE_CLIENTS,
               duration=WARM_S + SPIKE_S, think=BASE_THINK, tag="base")
    env.run_for(WARM_S)
    spike_at = env.sim.now
    baseline_p95 = p95([lat for _, lat in samples])

    store_load(env, samples, failures, n_clients=SPIKE_CLIENTS,
               duration=SPIKE_S, think=SPIKE_THINK, tag="crowd")
    if chaos:
        # Let the controller add its first group, then crash one of the
        # replicas it just minted — mid-spike, mid-rebalance.
        while len(env._store_groups) < 2 and env.sim.now < spike_at + SPIKE_S:
            env.run_for(0.25)
        victim = env._store_groups[-1][-1]
        victim.kill()
        env.run_for(spike_at + SPIKE_S - env.sim.now + 2.0)
        reincarnation = env.daemons.get(victim.name)
        chaos_report = {
            "victim": victim.name,
            "crashed_at": round(victim.host.sim.now, 3),
            "restarted": bool(reincarnation is not None
                              and reincarnation is not victim
                              and reincarnation.running),
        }
    else:
        env.run_for(SPIKE_S + 2.0)
        chaos_report = None

    spike = [(t, lat) for t, lat in samples if t > spike_at]
    recovered_from = spike_at + SPIKE_S / 2.0
    recovered = [lat for t, lat in spike if t >= recovered_from]
    out = {
        "acks": len(samples),
        "failed_calls": len(failures),
        "baseline_p95_ms": round(baseline_p95 * 1e3, 3),
        "spike_p95_ms": round(p95([lat for _, lat in spike]) * 1e3, 3),
        "recovered_p95_ms": round(p95(recovered) * 1e3, 3),
        "store_groups": len(env._store_groups),
    }
    out["spike_ratio"] = round(out["spike_p95_ms"] / out["baseline_p95_ms"], 2)
    out["recovered_ratio"] = round(
        out["recovered_p95_ms"] / out["baseline_p95_ms"], 2
    )
    if chaos_report:
        out["chaos"] = chaos_report
    if autoscale:
        daemon = env.daemons["autoscaler"]
        out["decision_log"] = [dict(entry) for entry in daemon.decision_log]
        out["ticks"] = len(daemon.samples)
        # Replay equivalence: the recorded sample stream through a fresh
        # pure engine must reproduce the live decision ids exactly.
        replayed = [d.decision_id for d in replay_decisions(RULES, daemon.samples)]
        out["replayed_ids"] = replayed
        out["live_ids"] = [entry["id"] for entry in daemon.decision_log]
        # A mid-spike crash perturbs rebalance timing, not decisions.
        assert out["replayed_ids"] == out["live_ids"], (
            "live decisions diverge from pure-engine replay")
    return out


def test_e28_autoscale(benchmark, table_printer):
    def run():
        return {
            "experiment": "E28",
            "short": SHORT,
            "interval_s": INTERVAL,
            "static": run_flash_crowd(seed=83, autoscale=False),
            "autoscaled": run_flash_crowd(seed=83, autoscale=True),
            "chaos": run_flash_crowd(seed=83, autoscale=True, chaos=True),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    static, auto, chaos = report["static"], report["autoscaled"], report["chaos"]

    table = table_printer(ResultTable(
        f"E28: flash crowd {BASE_CLIENTS}->{BASE_CLIENTS + SPIKE_CLIENTS} "
        f"clients (control every {INTERVAL:.1f} sim-s)",
        ["run", "acks", "base_p95_ms", "spike_p95_ms", "recovered_p95_ms",
         "ratio", "groups", "decisions"],
    ))
    for name, row in (("static", static), ("autoscaled", auto), ("chaos", chaos)):
        table.add(
            name, row["acks"], f"{row['baseline_p95_ms']:.2f}",
            f"{row['spike_p95_ms']:.2f}", f"{row['recovered_p95_ms']:.2f}",
            f"{row['recovered_ratio']:.1f}x", row["store_groups"],
            len(row.get("decision_log", [])) or "-",
        )

    # The flash crowd is a real incident for the static config...
    assert static["store_groups"] == 1
    assert static["recovered_ratio"] >= 4.0, (
        f"static config only degraded {static['recovered_ratio']:.1f}x — "
        "the spike is not stressful enough to prove anything")
    # ...and the controller rides it out within 2x of baseline.
    assert auto["store_groups"] > 1, "controller never scaled up"
    assert auto["recovered_ratio"] <= 2.0, (
        f"autoscaled recovered p95 is {auto['recovered_ratio']:.1f}x "
        "baseline (bound: 2x)")
    assert auto["failed_calls"] == 0 and static["failed_calls"] == 0

    # Chaos variant: a crashed controller-minted replica is restarted,
    # nothing acknowledged is lost, and the controller still converges.
    assert chaos["chaos"]["restarted"], "supervisor never restarted the victim"
    assert chaos["failed_calls"] == 0
    assert chaos["store_groups"] > 1
    assert chaos["recovered_ratio"] <= 2.0 * 1.5, (
        f"chaos recovered p95 is {chaos['recovered_ratio']:.1f}x baseline")

    record(report, grows=["autoscaled.recovered_p95_ms"],
           equal=["autoscaled.live_ids"])
    write_artifact("decision-log.json", {
        run_name: report[run_name].get("decision_log", [])
        for run_name in ("autoscaled", "chaos")})
