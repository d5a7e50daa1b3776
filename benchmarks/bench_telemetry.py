"""E27 — cluster telemetry plane (tracked).

Three claims, measured in deterministic sim time:

* **overhead** — the same seeded closed-loop echo workload (the E21/E23
  shape) runs with the telemetry plane off and on; the telemetry-on mean
  client latency may exceed the off run by at most 1%.  In the DES the
  plane's pushes ride their own daemons and connections, so the workload
  path should be untouched — the guard catches anyone later threading
  telemetry work into the request path.
* **detection** — a mid-run gray failure (95% loss on the client-service
  link, everything else healthy) must trip the ``rpc-availability``
  burn-rate alert within two push intervals of the bad counters landing
  at the aggregator.
* **wire silence** — with telemetry off the span stream is byte-identical
  run-to-run, and its sha256 is recorded in ``BENCH_E27.json``; the guard
  flags a hash drift vs the committed baseline (the telemetry-off wire
  must stay exactly as it was before E27).

The report is ``BENCH_E27.json``.  Its guard
(``benchmarks/conftest.py:record``) also flags telemetry-on mean latency
more than 20% over the committed baseline.  ``ACE_BENCH_SHORT=1`` shrinks
the workloads.
"""

import hashlib
import os

from repro.env import ACEEnvironment
from repro.faults.controller import ChaosController
from repro.faults.plan import FaultPlan
from repro.lang import ACECmdLine
from repro.metrics import ResultTable
from repro.obs import span_to_wire
from repro.workloads import closed_loop_clients

from benchmarks.conftest import record
from tests.core.conftest import EchoDaemon

SHORT = bool(os.environ.get("ACE_BENCH_SHORT"))
DURATION = 8.0 if SHORT else 16.0
N_CLIENTS = 4 if SHORT else 8
THINK_TIME = 0.05
INTERVAL = 0.5  # telemetry push interval (sim-s)


def build_env(seed, *, telemetry: bool):
    env = ACEEnvironment(seed=seed, lease_duration=4.0)
    env.add_infrastructure()
    lab = env.add_workstation("lab1", room="lab", monitors=False)
    env.add_daemon(EchoDaemon(env.ctx, "echo", lab, room="lab"))
    env.boot()
    if telemetry:
        env.enable_telemetry(interval=INTERVAL)
    return env


def run_workload(seed, *, telemetry: bool) -> dict:
    """One seeded closed-loop echo run; returns latency digest + hash."""
    env = build_env(seed, telemetry=telemetry)
    recorder = closed_loop_clients(
        env,
        n_clients=N_CLIENTS,
        duration=DURATION,
        target=env.daemons["echo"].address,
        make_command=lambda i, n: ACECmdLine("echo", text=f"e{i}-{n}"),
        think_time=THINK_TIME,
        trace_name="e27",
    )
    env.run_for(DURATION + 2.0)
    digest = hashlib.sha256()
    for span in env.obs.tracer.spans:
        digest.update(span_to_wire(span).encode())
        digest.update(b"\n")
    s = recorder.summary()
    out = {
        "calls": s.count,
        "mean_s": s.mean,
        "p50_s": s.p50,
        "p99_s": s.p99,
        "wire_hash": digest.hexdigest(),
        "spans": len(env.obs.tracer.spans),
    }
    if telemetry:
        out["pushes"] = int(env.obs.metrics.counter("telemetry.pushes").value)
        out["rows"] = int(env.obs.metrics.counter("telemetry.rows").value)
        out["series"] = len(env.daemons["telemetry"].series)
    return out


def run_detection(seed) -> dict:
    """Gray failure mid-workload: measure landing→alert latency."""
    env = build_env(seed, telemetry=True)
    aggregator = env.daemons["telemetry"]
    closed_loop_clients(
        env,
        n_clients=N_CLIENTS,
        duration=DURATION,
        target=env.daemons["echo"].address,
        make_command=lambda i, n: ACECmdLine("echo", text=f"g{i}-{n}"),
        think_time=THINK_TIME,
        client_host_name="infra",
    )
    env.run_for(2.0)  # healthy warm-up
    ChaosController(
        env.net,
        FaultPlan().flaky_link("infra", "lab1", at=0.1, duration=4.0,
                               peak_loss=0.95, profile="constant"),
        daemons=env.daemons,
    ).start()
    injected = env.sim.now + 0.1
    t_landed = t_alert = None
    for _ in range(int(8.0 / 0.05)):
        env.run_for(0.05)
        if t_landed is None and aggregator.rollup_counter(
            "failures", service="rpc"
        ) > 0:
            t_landed = env.sim.now
        if aggregator.alerts:
            t_alert = aggregator.alerts[0]["time"]
            break
    return {
        "injected_at": round(injected, 3),
        "landed_at": round(t_landed, 3) if t_landed else None,
        "alert_at": round(t_alert, 3) if t_alert else None,
        "detection_s": (
            round(t_alert - t_landed, 3)
            if t_alert is not None and t_landed is not None else None
        ),
        "slo": aggregator.alerts[0]["slo"] if aggregator.alerts else None,
        "interval_s": INTERVAL,
    }


def test_e27_telemetry(benchmark, table_printer):
    def run():
        off = run_workload(seed=77, telemetry=False)
        off_again = run_workload(seed=77, telemetry=False)
        on = run_workload(seed=77, telemetry=True)
        overhead_pct = (
            (on["mean_s"] - off["mean_s"]) / off["mean_s"] * 100.0
            if off["mean_s"] else 0.0
        )
        return {
            "experiment": "E27",
            "short": SHORT,
            "interval_s": INTERVAL,
            "telemetry_off": off,
            "telemetry_off_repeat_hash": off_again["wire_hash"],
            "telemetry_on": on,
            "overhead_pct": round(overhead_pct, 4),
            "detection": run_detection(seed=78),
        }

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    off, on = report["telemetry_off"], report["telemetry_on"]
    det = report["detection"]

    table = table_printer(ResultTable(
        f"E27: telemetry overhead + detection ({N_CLIENTS} clients, "
        f"push every {INTERVAL:.1f} sim-s)",
        ["run", "calls", "mean_ms", "p99_ms", "pushes", "series"],
    ))
    table.add("telemetry off", off["calls"], f"{off['mean_s'] * 1e3:.3f}",
              f"{off['p99_s'] * 1e3:.3f}", "-", "-")
    table.add("telemetry on", on["calls"], f"{on['mean_s'] * 1e3:.3f}",
              f"{on['p99_s'] * 1e3:.3f}", on["pushes"], on["series"])
    detection_table = table_printer(ResultTable(
        "E27: gray-failure alert detection",
        ["slo", "injected_at", "landed_at", "alert_at", "detection_s"],
    ))
    detection_table.add(det["slo"], det["injected_at"], det["landed_at"],
                        det["alert_at"], det["detection_s"])

    # Same workload, same seed: telemetry must not touch the request path.
    assert on["calls"] == off["calls"]
    assert report["overhead_pct"] <= 1.0, (
        f"telemetry-on mean latency is {report['overhead_pct']:.2f}% over "
        f"the off run (budget: 1%)")
    assert on["pushes"] > 0 and on["series"] > 0

    # Telemetry-off wire is deterministic run-to-run.
    assert off["wire_hash"] == report["telemetry_off_repeat_hash"]

    # Gray failure detection within two push intervals of the counters
    # landing at the aggregator.
    assert det["detection_s"] is not None, "alert never fired"
    assert det["detection_s"] <= 2 * INTERVAL, (
        f"detection took {det['detection_s']:.2f}s "
        f"(bound: {2 * INTERVAL:.2f}s)")
    assert det["slo"] == "rpc-availability"

    record(report, grows=["telemetry_on.mean_s"],
           equal=["telemetry_off.wire_hash"])
