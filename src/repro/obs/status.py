"""``python -m repro.obs.status`` — live cluster status from the E27
telemetry plane.

Builds a representative environment (infrastructure + replicated store +
echo service), enables supervision and telemetry, drives a short
closed-loop workload, then renders the aggregator's
:class:`~repro.obs.cluster.ClusterSnapshot`: live daemons with
incarnations and freshness, exact cross-daemon latency rollups, SLO
burn, top-k slow operations with exemplar trace ids, breaker states, and
the store topology.  ``--json PATH`` additionally writes the snapshot as
JSON (the CI artifact).  ``--shards N`` switches to the E29 sharded-campus
demo and renders per-shard sync/boundary counters instead.

An existing environment can do the same programmatically::

    aggregator = env.enable_telemetry()
    env.run_for(5.0)
    snapshot = ClusterSnapshot.capture(aggregator)
    print(snapshot.render())
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics


def _make_echo_daemon(ctx, name, host, room):
    from repro.core.daemon import ACEDaemon

    class StatusEchoDaemon(ACEDaemon):
        """Minimal demo service the status workload calls."""

        service_type = "Echo"

        def build_semantics(self, sem: CommandSemantics) -> None:
            sem.define("echo", ArgSpec("text", ArgType.STRING))

        def cmd_echo(self, request):
            return {"text": request.command.str("text"), "by": self.name}

    return StatusEchoDaemon(ctx, name, host, room=room)


def build_demo_environment(seed: int = 7, *, interval: float = 1.0,
                           control: bool = False):
    """The demo cluster the CLI (and the CI smoke job) drives."""
    from repro.env import ACEEnvironment

    env = ACEEnvironment(seed=seed, lease_duration=4.0)
    env.add_infrastructure()
    env.add_directory_watcher()
    env.add_persistent_store(replicas=2)
    lab = env.add_workstation("lab1", room="lab", monitors=False)
    env.add_daemon(_make_echo_daemon(env.ctx, "echo", lab, "lab"))
    env.boot()
    env.enable_supervision(
        suspicion_window=3.0, check_interval=0.5, checkpoint_interval=1.0
    )
    env.enable_telemetry(interval=interval)
    if control:
        env.enable_autoscaling(interval=interval, latency_service="echo")
    return env


def render_control(control: dict) -> str:
    """Terminal tables for the E28 controller's :meth:`snapshot`."""
    from repro.metrics import ResultTable

    out = []
    rules = ResultTable(
        f"autoscaler rules (interval={control['interval']:g}s, "
        f"ticks={control['ticks']}, executed={control['executed']})",
        ["rule", "signal", "resource", "band", "bounds", "actions", "cooldown"],
    )
    for row in control["rules"]:
        rules.add(
            row["rule"], row["signal"], row["resource"],
            f"{row['low']:g}..{row['high']:g}",
            f"{row['min']}..{row['max']}", row["actions"],
            f"{row['cooldown_remaining']:g}s",
        )
    out.append(rules.render())

    decisions = ResultTable(
        "recent scaling decisions",
        ["id", "resource", "dir", "level", "at", "status"],
    )
    for d in control["decisions"]:
        decisions.add(
            d["id"], d["resource"], "up" if d["direction"] > 0 else "down",
            f"{d['from_level']}->{d['to_level']}", f"{d['at']:.2f}s",
            d["status"],
        )
    out.append(decisions.render())

    blocked = control["blocked"]
    out.append(
        "blocked: "
        + "  ".join(f"{k}={blocked[k]}" for k in sorted(blocked))
    )
    if control["alerts"]:
        alerts = ResultTable(
            "alerts seen", ["slo", "severity", "kind", "received"]
        )
        for alert in control["alerts"]:
            alerts.add(
                alert.get("slo", "?"), alert.get("severity", "?"),
                alert.get("kind", "-"), f"{alert['received_at']:.2f}s",
            )
        out.append(alerts.render())
    return "\n\n".join(out)


def run_sharded_demo(seed: int = 29, *, n_shards: int = 2, users: int = 120,
                     duration: float = 6.0, regions: int = 4) -> dict:
    """Small sharded campus run (E29/E30, local mode); returns the report
    dict, including the coordinator's :meth:`sync_report`."""
    import functools

    from repro.env import build_campus, campus_shard_map
    from repro.sim.parallel import ShardedSimulator
    from repro.workloads import (
        PopulationProfile, collect_population, start_population,
    )

    profile = PopulationProfile(n_users=users, duration=duration,
                                process="poisson")
    builder = functools.partial(build_campus, regions=regions, seed=seed)
    shard_map = campus_shard_map(regions, n_shards) if n_shards > 1 else None
    sim = ShardedSimulator(builder, n_shards=n_shards,
                           host_to_shard=shard_map, mode="local", seed=seed)
    with sim:
        sim.boot(settle=2.0)
        sim.spawn(start_population, profile=profile)
        sim.run(sim.now + duration + 3.0)
        results = sim.collect(collect_population)
        return {
            "n_shards": n_shards,
            "regions": regions,
            "users": users,
            "sim_s": sim.now,
            "ops": sum(r["ops"] for r in results),
            "errors": sum(r["errors"] for r in results),
            "counters": sim.counters(),
            "shards": sim.shard_reports(),
            "sync": sim.sync_report(),
            "merged_trace_sha256": sim.merged_trace().hash(),
        }


def render_sharding(report: dict) -> str:
    """Terminal tables for a :func:`run_sharded_demo` report."""
    from repro.metrics import ResultTable

    sync = report.get("sync", {})
    table = ResultTable(
        f"sharded kernel: {report['users']} users / "
        f"{report['regions']} regions on {report['n_shards']} shard(s), "
        f"{report['ops']} ops",
        ["shard", "events", "cpu_s", "grants", "width_p50", "width_p95",
         "stalls", "boundary_out", "bytes_out", "trace_recs"],
    )
    per_shard = sync.get("per_shard", [{}] * len(report["shards"]))
    for i, shard in enumerate(report["shards"]):
        boundary = shard.get("boundary", {})
        width = per_shard[i].get("window_width", {})
        table.add(
            i, int(shard["kernel"]["events_delivered"]),
            round(shard["cpu_s"], 3),
            per_shard[i].get("grants", shard["windows"]),
            f"{width.get('p50', 0.0):.4g}s",
            f"{width.get('p95', 0.0):.4g}s",
            shard["lookahead_stalls"],
            boundary.get("boundary_msgs_out", 0),
            boundary.get("boundary_bytes_out", 0),
            shard["trace_records"],
        )
    counters = report["counters"]
    totals = "  ".join(
        f"{key}={int(counters[key])}"
        for key in ("events_delivered", "sync.rounds", "sync.grants",
                    "sync.null_messages", "sync.payload_free_grants",
                    "sync.lookahead_stalls", "boundary.msgs_out")
        if key in counters
    )
    return (table.render()
            + f"\ntotals: {totals}"
            + f"\nmerged trace sha256: {report['merged_trace_sha256'][:16]}…")


def _echo_workload(env, *, duration: float, n_clients: int) -> None:
    from repro.workloads import closed_loop_clients

    closed_loop_clients(
        env,
        n_clients=n_clients,
        duration=duration,
        target=env.daemons["echo"].address,
        make_command=lambda i, n: ACECmdLine("echo", text=f"status-{i}-{n}"),
        think_time=0.05,
        trace_name="status",
    )
    env.run_for(duration + 2.0)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.status",
        description="render a live ClusterSnapshot from the telemetry plane",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--duration", type=float, default=8.0,
                        help="workload length, sim-seconds")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--interval", type=float, default=1.0,
                        help="telemetry push interval, sim-seconds")
    parser.add_argument("--topk", type=int, default=5)
    parser.add_argument("--control", action="store_true",
                        help="enable the E28 autoscaler and show its rules, "
                             "recent decisions, and cooldown state")
    parser.add_argument("--shards", type=int, default=0, metavar="N",
                        help="run the sharded-campus demo (E29/E30) on N "
                             "kernel shards instead of the telemetry demo, "
                             "and show per-shard sync/boundary counters")
    parser.add_argument("--json", metavar="PATH",
                        help="also write the snapshot as JSON")
    args = parser.parse_args(argv)

    if args.shards:
        import json as _json

        report = run_sharded_demo(args.seed, n_shards=args.shards,
                                  duration=args.duration)
        print(render_sharding(report))
        if args.json:
            with open(args.json, "w") as fh:
                _json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"\nshard report written to {args.json}")
        return 0

    from repro.obs.cluster import ClusterSnapshot

    env = build_demo_environment(args.seed, interval=args.interval,
                                 control=args.control)
    _echo_workload(env, duration=args.duration, n_clients=args.clients)

    snapshot = ClusterSnapshot.capture(env.daemons["telemetry"], topk=args.topk)
    print(snapshot.render())
    if args.control:
        control = env.daemons["autoscaler"].snapshot(topk=args.topk)
        snapshot.data["control"] = control
        print("\n" + render_control(control))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(snapshot.to_json())
            fh.write("\n")
        print(f"\nsnapshot written to {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
