"""E22 — tracing overhead + "who ate the latency" (repro.obs).

Three claims:

* **overhead** — full causal tracing (context injection on every command,
  client/server span per hop, per-daemon metrics) adds <5% to mean command
  latency on the E1-style echo workload, and sampling brings the recording
  cost down further without touching the sim-time cost;
* **completeness** — one Ch. 7 scenario run yields one root span whose
  tree covers the entire administrative fan-out (GUI → AUD, GUI → WSS →
  SAL → SRM → HAL → app boot), deterministically per seed;
* **attribution** — under an E21-style gray fault the critical path
  carries the retry/breaker annotations, i.e. the trace *names* the hop
  that ate the latency.

Set ``ACE_BENCH_SHORT=1`` for a CI-sized run.  The scenario span tree +
critical-path table is written as ``critical_path_s1.txt`` to
``ACE_BENCH_ARTIFACT_DIR`` (CI uploads it as a build artifact).
"""

import os
import time

from repro.core.policy import CallPolicy
from repro.env import ACEEnvironment
from repro.env.scenarios import scenario_1_new_user, standard_environment
from repro.faults import ChaosController, FaultPlan
from repro.lang import ACECmdLine
from repro.metrics import ResultTable
from repro.obs import critical_path, critical_path_rows
from repro.workloads import closed_loop_clients
from benchmarks.conftest import write_artifact
from tests.core.conftest import EchoDaemon

SHORT = bool(os.environ.get("ACE_BENCH_SHORT"))
N_CLIENTS = 2 if SHORT else 4
DURATION = 2.0 if SHORT else 10.0


def build_echo_env(seed=220):
    env = ACEEnvironment(seed=seed)
    env.add_infrastructure("infra", with_wss=False, with_idmon=False)
    host = env.add_workstation("srv", room="lab", bogomips=800.0, monitors=False)
    echo = EchoDaemon(env.ctx, "echo", host, room="lab")
    env.add_daemon(echo)
    env.boot()
    return env, echo


def run_workload(mode, seed=220):
    """One E1-style closed-loop run; returns (summary, spans, wall_s, env)."""
    env, echo = build_echo_env(seed=seed)
    if mode == "disabled":
        env.obs.tracer.enabled = False
    elif mode == "sampled":
        env.obs.set_sampling(0.1)
    walltime = time.perf_counter()
    recorder = closed_loop_clients(
        env,
        n_clients=N_CLIENTS,
        duration=DURATION,
        target=echo.address,
        make_command=lambda i, it: ACECmdLine("echo", text=f"c{i}.{it}"),
        think_time=0.01,
        trace_name="load",  # begin_trace is a no-op when disabled/unsampled
    )
    walltime = time.perf_counter() - walltime
    return recorder.summary(), len(env.obs.tracer.spans), walltime, env


def test_e22_tracing_overhead(benchmark, table_printer):
    table = table_printer(ResultTable(
        f"E22: tracing overhead on the echo workload "
        f"({N_CLIENTS} clients, {DURATION:.0f} s sim)",
        ["mode", "requests", "mean_ms", "p95_ms", "spans", "wall_s"],
    ))

    def run():
        return {mode: run_workload(mode)[:3] for mode in ("disabled", "full", "sampled")}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    for mode, (summary, spans, wall) in results.items():
        table.add(mode, summary.count, round(summary.mean * 1e3, 4),
                  round(summary.p95 * 1e3, 4), spans, round(wall, 2))

    off, full, sampled = (results[m][0] for m in ("disabled", "full", "sampled"))
    overhead = (full.mean - off.mean) / off.mean
    table.add("overhead full vs disabled", f"{overhead * 100:+.2f}%", "", "", "", "")
    # The headline claim: full tracing costs <5% mean latency.
    assert overhead < 0.05, f"tracing overhead {overhead:.2%} >= 5%"
    # Tracing must not shed throughput either.
    assert full.count > off.count * 0.95
    # Sampling keeps only ~10% of root traces' span trees.
    assert results["sampled"][1] < results["full"][1] * 0.35
    # Disabled mode records nothing at all.
    assert results["disabled"][1] == 0


def test_e22_metrics_registry_reflects_workload(table_printer):
    summary, _, _, env = run_workload("full")
    snap = env.obs.metrics.snapshot()
    table = table_printer(ResultTable(
        "E22: per-daemon metrics registry (echo daemon excerpt)",
        ["metric", "value"],
    ))
    for key in (
        "daemon.echo.cmd.echo",
        "daemon.echo.queue_wait_s.p95",
        "daemon.echo.service_time_s.count",
        "daemon.echo.service_time_s.mean",
        "rpc.calls",
    ):
        table.add(key, snap.get(key, "missing"))
    # Every served command shows up in the verb counter and the histograms.
    assert snap["daemon.echo.cmd.echo"] == summary.count
    assert snap["daemon.echo.service_time_s.count"] >= summary.count
    # The RPC layer's stats are folded in as the rpc.* view.
    assert "rpc.calls" in snap


def test_e22_scenario_1_critical_path(benchmark, table_printer):
    """The §7.1 story, fully traced: one root, the whole fan-out, and the
    critical-path table naming who ate the 100+ ms."""

    def run():
        env = standard_environment(seed=221).boot()
        result = env.run(scenario_1_new_user(env))
        tree = env.obs.tracer.tree(result["trace_id"])
        return result, tree

    result, tree = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result["workspace"]
    assert len(tree.roots) == 1
    hops = tree.hops()
    assert hops[0] == "scenario1:new-user"
    assert hops.index("serve:addUser") < hops.index("serve:ensureDefaultWorkspace")
    assert tree.depth() >= 4

    table = table_printer(ResultTable(
        "E22: scenario 1 critical path (who ate the latency)",
        ["hop", "source", "total_ms", "self_ms", "annotations"],
    ))
    rows = critical_path_rows(tree)
    for hop, source, total, self_ms, notes in rows:
        table.add(hop, source, round(total, 3), round(self_ms, 3), notes[:60])
    # Self-times along the path partition the root's duration.
    path = critical_path(tree)
    assert sum(h.self_time for h in path) <= tree.root.duration + 1e-9
    # The longest pole is the workspace placement, not the AUD insert.
    assert any("ensureDefaultWorkspace" in r[0] for r in rows)

    write_artifact("critical_path_s1.txt",
                   tree.render() + "\n\n" + table.render() + "\n")


def test_e22_critical_path_under_faults(benchmark, table_printer):
    """E21-style gray failure: a flaky client↔service link makes the RPC
    layer retry — and the trace's critical path says so explicitly."""
    policy = CallPolicy(deadline=8.0, attempt_timeout=0.4, max_attempts=5,
                        backoff_base=0.05, backoff_max=0.2, breaker_threshold=0)

    def run():
        env, echo = build_echo_env(seed=222)
        plan = FaultPlan().flaky_link(
            "infra", "srv", at=0.5, duration=20.0, peak_loss=0.85,
            profile="constant",
        )
        ChaosController(env.net, plan).start()
        env.run_for(1.0)
        client = env.client(env.net.host("infra"), principal="prober")
        retried = []

        def probe(n):
            for i in range(n):
                root = client.begin_trace("probe", i=i)
                status = "ok"
                try:
                    yield from client.call(
                        echo.address, ACECmdLine("echo", text=f"p{i}"), policy=policy)
                except Exception:
                    status = "failed"
                finally:
                    client.end_trace(root, status=status)
                if root is not None:
                    spans = env.obs.tracer.spans_for(root.trace_id)
                    rpc = [s for s in spans if s.name == "rpc:echo"]
                    if rpc and rpc[0].annotations.get("retries", 0) > 0:
                        retried.append(root.trace_id)
                yield env.sim.timeout(0.2)

        env.sim.run_process(probe(8 if SHORT else 20), timeout=300.0)
        return env, retried

    env, retried = benchmark.pedantic(run, rounds=1, iterations=1)
    assert retried, "no probe was retried under 85% loss — fault injection broken?"
    tree = env.obs.tracer.tree(retried[0])
    rows = critical_path_rows(tree)
    table = table_printer(ResultTable(
        "E22: critical path of one retried probe under a flaky link",
        ["hop", "source", "total_ms", "self_ms", "annotations"],
    ))
    for hop, source, total, self_ms, notes in rows:
        table.add(hop, source, round(total, 3), round(self_ms, 3), notes[:70])
    rpc_row = next(r for r in rows if r[0] == "rpc:echo")
    # The retry/breaker story is in the annotations, on the critical path.
    assert "retries=" in rpc_row[4] and "attempts=" in rpc_row[4]
    assert not rpc_row[4].startswith("retries=0")
