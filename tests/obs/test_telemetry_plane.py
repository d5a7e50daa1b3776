"""E27 cluster telemetry plane: aggregation, restart seams, SLO alerts,
and chaos survival.

The aggregator is deliberately just another daemon: it registers with the
ASD, its state is soft (publishers resync after it restarts), and the PR 6
supervision plane restarts it like anything else.  These tests drive the
whole loop — per-daemon registry scopes → delta pushes → exact cluster
rollups → burn-rate alerts — inside the deterministic simulation.
"""

import json

import pytest

from repro.core import CallPolicy
from repro.env import ACEEnvironment
from repro.faults.controller import ChaosController
from repro.faults.plan import FaultPlan
from repro.lang import ACECmdLine
from repro.lang.command import is_ok
from repro.obs.cluster import ClusterSnapshot, decode_scopes
from tests.core.conftest import EchoDaemon

INTERVAL = 0.5
SUSPICION = 2.5


def build(seed=11, *, supervision=False, interval=INTERVAL, store=False):
    env = ACEEnvironment(seed=seed, lease_duration=4.0)
    env.add_infrastructure()
    if store:
        env.add_directory_watcher()
        env.add_persistent_store(replicas=2)
    lab = env.add_workstation("lab1", room="lab", monitors=False)
    env.add_daemon(EchoDaemon(env.ctx, "echo", lab, room="lab"))
    env.boot()
    supervisors = None
    if supervision:
        supervisors = env.enable_supervision(
            suspicion_window=SUSPICION, check_interval=0.25,
            checkpoint_interval=1.0,
        )
    aggregator = env.enable_telemetry(interval=interval)
    return env, aggregator, supervisors


def echo_burst(env, n=40, *, verb="echo", delay=0.0):
    client = env.client(env.net.host("lab1"), principal="probe")
    target = env.daemons["echo"].address

    def flow():
        for i in range(n):
            if verb == "slowEcho":
                cmd = ACECmdLine("slowEcho", text=f"m{i}", delay=delay)
            else:
                cmd = ACECmdLine("echo", text=f"m{i}")
            reply = yield from client.call(target, cmd, CallPolicy())
            assert is_ok(reply)

    env.run(flow())


def test_push_aggregation_matches_local_registry():
    env, aggregator, _ = build()
    echo_burst(env, 40)
    env.run_for(3 * INTERVAL)  # let the deltas land

    keys = {k[0] for k in aggregator.series}
    assert {"echo", "asd", "rpc", f"telem.lab1", "telemetry"} <= keys

    # The aggregated echo series equals the local registry exactly.
    local = env.obs.metrics.counter("daemon.echo.cmd.echo").value
    assert local == 40
    assert aggregator.rollup_counter("cmd.echo", service="echo") == local
    merged = aggregator.rollup_histogram("service_time_s", service="echo")
    local_hist = env.obs.metrics.histogram("daemon.echo.service_time_s")
    assert merged.count == local_hist.count
    assert merged.counts == list(local_hist.counts)

    # Everything is fresh (the MODE_SAME heartbeat covers idle scopes).
    assert all(aggregator.fresh(key) for key in aggregator.series)
    assert env.obs.metrics.counter("telemetry.pushes").value > 0


def test_scrape_returns_full_snapshots():
    env, aggregator, _ = build()
    echo_burst(env, 10)
    env.run_for(2 * INTERVAL)
    publisher = env.daemons["telem.lab1"]
    client = env.client(env.net.host("lab1"), principal="probe")
    reply = env.run(client.call(publisher.address, ACECmdLine("obsScrape")))
    assert is_ok(reply)
    decoded = decode_scopes(reply.get("scopes"))
    by_service = {snap.service: (mode, snap) for mode, snap in decoded}
    mode, echo_scope = by_service["echo"]
    assert mode == "full"
    assert echo_scope.counters["cmd.echo"] == 10


def test_incarnation_seam_survives_restart():
    """Satellite 3: a supervised restart starts a *new* series — the old
    incarnation's numbers freeze, the new one starts near zero."""
    env, aggregator, supervisors = build(supervision=True)
    echo_burst(env, 30)
    env.run_for(3 * INTERVAL)

    corpse = env.daemons["echo"]
    old_keys = {k for k in aggregator.series if k[0] == "echo"}
    assert old_keys == {("echo", f"lab1:{corpse.port}", 0)}
    frozen = aggregator.rollup_counter("cmd.echo", service="echo")
    assert frozen == 30

    corpse.kill()
    env.run_for(SUSPICION + 3.0)
    reborn = env.daemons["echo"]
    assert reborn is not corpse and reborn.incarnation == 1

    echo_burst(env, 5)
    env.run_for(3 * INTERVAL)

    echo_series = {k: s for k, s in aggregator.series.items() if k[0] == "echo"}
    incs = sorted(k[2] for k in echo_series)
    assert incs == [0, 1]
    by_inc = {k[2]: s for k, s in echo_series.items()}
    # Old series is frozen exactly where it died; new one holds only the
    # post-restart traffic even though the underlying registry counter
    # kept counting across the restart.
    assert by_inc[0].counters["cmd.echo"] == 30
    assert by_inc[1].counters["cmd.echo"] == 5
    assert env.obs.metrics.counter("daemon.echo.cmd.echo").value == 35
    # Only the live incarnation stays fresh.
    (old_key,) = [k for k in echo_series if k[2] == 0]
    (new_key,) = [k for k in echo_series if k[2] == 1]
    assert aggregator.fresh(new_key)
    assert supervisors["lab1"].restarts >= 1


def inject_gray_failure(env, *, duration=4.0, peak_loss=0.95):
    """Clients on infra hammer echo on lab1 across a 95%-lossy link: the
    shared RPC stats' ``failures`` counter spikes while everything else
    keeps working — the classic gray failure."""
    from repro.core.client import CallError

    plan = FaultPlan().flaky_link(  # offsets are relative to start()
        "infra", "lab1", at=0.1, duration=duration,
        peak_loss=peak_loss, profile="constant",
    )
    ChaosController(env.net, plan, daemons=env.daemons).start()
    client = env.client(env.net.host("infra"), principal="probe")
    target = env.daemons["echo"].address

    def flow():
        for i in range(200):
            try:
                yield from client.call(
                    target, ACECmdLine("echo", text=f"g{i}"), CallPolicy()
                )
            except CallError:
                pass
            yield env.sim.timeout(0.05)

    env.sim.process(flow(), name="gray-clients")


def test_slo_alert_fires_within_two_intervals():
    """E27 acceptance: the burn-rate alert trips within two scrape
    intervals of the bad counters *landing at the aggregator*."""
    env, aggregator, _ = build()
    echo_burst(env, 10)
    env.run_for(2 * INTERVAL)
    assert not aggregator.alerts

    inject_gray_failure(env)
    t_landed = fired_at = None
    for _ in range(80):
        env.run_for(0.1)
        if t_landed is None and aggregator.rollup_counter(
            "failures", service="rpc"
        ) > 0:
            t_landed = env.sim.now
        if fired_at is None and aggregator.alerts:
            fired_at = aggregator.alerts[0]["time"]
            break
    assert t_landed is not None, "failures never reached the aggregator"
    assert fired_at is not None, "no alert fired"
    assert fired_at <= t_landed + 2 * INTERVAL

    alert = aggregator.alerts[0]
    assert alert["slo"] == "rpc-availability"
    assert alert["severity"] == "page"
    assert alert["burn_long"] > 5.0 and alert["burn_short"] > 5.0
    assert env.obs.metrics.counter("telemetry.alerts").value >= 1
    row = next(r for r in aggregator.slo_engine.status_rows()
               if r["slo"] == "rpc-availability")
    assert row["fired"] >= 1


def test_alert_routes_through_notification_plane():
    """obsAlert is a real command: addNotification watchers hear it."""
    env, aggregator, _ = build()
    # The listener rides the aggregator's own host so alert delivery does
    # not cross the injected-lossy link.
    listener = EchoDaemon(
        env.ctx, "listener", env.net.host("infra"), room="machineroom"
    )
    env.add_daemon(listener)  # post-boot add_daemon starts it
    env.run_for(0.5)
    client = env.client(env.net.host("infra"), principal="probe")
    reply = env.run(client.call(
        aggregator.address,
        ACECmdLine("addNotification", cmd="obsAlert", listener="listener",
                   host=listener.host.name, port=listener.port,
                   callback="onEchoSeen"),
    ))
    assert is_ok(reply)

    inject_gray_failure(env)
    env.run_for(10 * INTERVAL)
    assert aggregator.alerts
    assert listener.seen_notifications, "listener never heard the obsAlert"


def test_aggregator_chaos_partition_and_kill():
    """Satellite 4 chaos drill: partition the aggregator away, kill it,
    let supervision restart it; publishers resync and freshness recovers
    to within one scrape window."""
    env, aggregator, supervisors = build(seed=13, supervision=True, store=True)
    echo_burst(env, 20)
    env.run_for(3 * INTERVAL)
    assert all(aggregator.fresh(key) for key in aggregator.series)

    hosts = sorted(env.net.hosts)
    others = [h for h in hosts if h != "infra"]
    plan = (  # offsets are relative to start()
        FaultPlan()
        .partition([["infra"], others], at=0.5, heal_after=2.0)
        .kill_daemon("telemetry", at=1.0)
    )
    ChaosController(env.net, plan, daemons=env.daemons).start()
    env.run_for(SUSPICION + 6.0)

    reborn = env.daemons["telemetry"]
    assert reborn is not aggregator and reborn.running
    assert reborn.incarnation >= 1
    assert supervisors["infra"].restarts >= 1

    # Drive fresh traffic and give the plane two intervals to resync.
    echo_burst(env, 10)
    env.run_for(4 * INTERVAL)

    pubs = [d for n, d in env.daemons.items() if n.startswith("telem.")]
    assert sum(p.resyncs for p in pubs) >= 1, "no publisher resynced"
    # The reborn aggregator rebuilt the series map and it is fresh again:
    # every publisher pushed within the stale window (1.5 intervals).
    keys = {k[0] for k in reborn.series}
    assert "echo" in keys and "rpc" in keys
    now = env.sim.now
    for host, at in reborn.last_push.items():
        assert now - at <= reborn.stale_after, (host, now - at)
    # And the data survived end-to-end: total echo traffic re-aggregated.
    assert reborn.rollup_counter("cmd.echo", service="echo") == 30


def test_telemetry_plane_is_deterministic_and_trace_silent():
    """Same seed ⇒ identical aggregated state; and the plane's own
    traffic never shows up in the span stream (the tracing wire is
    byte-identical with telemetry on)."""
    import hashlib

    from repro.obs import span_to_wire

    def fingerprint():
        env, aggregator, _ = build(seed=29)
        echo_burst(env, 25)
        env.run_for(4 * INTERVAL)
        digest = hashlib.sha256()
        for span in env.obs.tracer.spans:
            digest.update(span_to_wire(span).encode())
        series = {
            key: sorted(snap.counters.items())
            for key, snap in aggregator.series.items()
        }
        return digest.hexdigest(), len(env.obs.tracer.spans), series, env.obs.tracer.spans

    h1, n1, s1, spans1 = fingerprint()
    h2, n2, s2, _ = fingerprint()
    assert (h1, n1) == (h2, n2)
    assert s1 == s2
    sources = {span.source for span in spans1}
    assert not {s for s in sources if s.startswith("telem") or s == "telemetry"}


def test_cluster_snapshot_shape(tmp_path):
    env, aggregator, _ = build(store=True, supervision=True)
    echo_burst(env, 20)
    env.run_for(3 * INTERVAL)

    snap = ClusterSnapshot.capture(aggregator, topk=3)
    data = json.loads(snap.to_json())
    assert data["series"] == len(aggregator.series) > 0
    services = {d["service"] for d in data["daemons"]}
    assert {"echo", "asd", "ps1", "ps2"} <= services
    assert all(d["fresh"] for d in data["daemons"])
    assert "service_time_s" in data["rollups"]
    assert data["rollups"]["service_time_s"]["count"] > 0
    assert {s["slo"] for s in data["slos"]} == {
        "rpc-availability", "service-latency", "store-replication",
        "recovery-mttr",
    }
    assert data["breakers"]  # rpc scope contributed breaker gauges
    assert data["topology"]["store_groups"]
    rendered = snap.render()
    assert "cluster daemons" in rendered and "SLO burn" in rendered


def test_status_cli_writes_artifact(tmp_path, capsys):
    from repro.obs.status import main

    out = tmp_path / "snap.json"
    assert main(["--duration", "3", "--seed", "5", "--json", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "cluster daemons" in printed
    data = json.loads(out.read_text())
    assert data["series"] > 0 and data["daemons"]
