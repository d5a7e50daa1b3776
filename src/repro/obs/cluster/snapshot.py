"""`ClusterSnapshot` — the programmatic operator view of a live ACE.

Captured in-process from a
:class:`~repro.obs.cluster.aggregator.TelemetryAggregatorDaemon`, it is
the structured answer to "what is the cluster doing right now": live
daemons with address/incarnation/freshness, per-address breaker states,
exact cross-daemon latency rollups, SLO burn, top-k slow operations with
exemplar trace ids, and the data-plane topology (shard map, store
groups, supervisors) when the environment wired a provider in.

``to_json()`` is the CI artifact; :meth:`tables` renders the same data
as the ``python -m repro.obs.status`` terminal surface.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from repro.metrics import ResultTable

#: numeric breaker-state encoding used by the rpc telemetry scope
BREAKER_LEVELS = {"closed": 0, "half-open": 1, "open": 2}
_BREAKER_NAMES = {v: k for k, v in BREAKER_LEVELS.items()}


class ClusterSnapshot:
    """A frozen, JSON-able view of the aggregated cluster state."""

    def __init__(self, data: dict):
        self.data = data

    @classmethod
    def capture(cls, aggregator, *, topk: int = 5) -> "ClusterSnapshot":
        now = aggregator.ctx.sim.now
        daemons: List[dict] = []
        breakers: Dict[str, str] = {}
        for key in sorted(aggregator.series):
            service, address, incarnation = key
            snap = aggregator.series[key]
            if service == "rpc":
                for name, level in sorted(snap.gauges.items()):
                    if name.startswith("breaker."):
                        breakers[name[len("breaker."):]] = _BREAKER_NAMES.get(
                            int(level), str(level)
                        )
                continue
            commands = sum(
                v for n, v in snap.counters.items() if n.startswith("cmd.")
            )
            service_time = snap.histograms.get("service_time_s")
            daemons.append({
                "service": service,
                "address": address,
                "incarnation": incarnation,
                "fresh": aggregator.fresh(key),
                "age_s": round(now - aggregator.last_seen.get(key, now), 3),
                "queue_depth": snap.gauges.get("queue_depth", 0.0),
                "commands": commands,
                "lease_renewals": snap.counters.get("lease_renewals", 0),
                "p99_s": service_time.percentile(0.99) if service_time else None,
            })
        rollups = {}
        for name in aggregator.histogram_names():
            merged = aggregator.rollup_histogram(name)
            if merged is None or merged.count == 0:
                continue
            exemplar = merged.slowest_exemplar()
            rollups[name] = {
                "count": merged.count,
                "mean": merged.mean,
                "p50": merged.percentile(0.50),
                "p95": merged.percentile(0.95),
                "p99": merged.percentile(0.99),
                "max": merged.maximum,
                "exemplar": exemplar[0] if exemplar else "",
            }
        topology = (
            aggregator.topology_provider()
            if aggregator.topology_provider is not None else {}
        )
        return cls({
            "captured_at": now,
            "series": len(aggregator.series),
            "publishers": {
                host: str(addr) for host, addr in sorted(aggregator.publishers.items())
            },
            "daemons": daemons,
            "breakers": breakers,
            "rollups": rollups,
            "slos": aggregator.slo_engine.status_rows(),
            "alerts": list(aggregator.alerts),
            "top_slow": aggregator.top_slow(k=topk),
            "topology": topology,
        })

    def __getitem__(self, key):
        return self.data[key]

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.data, indent=indent, sort_keys=True)

    # ------------------------------------------------------------------
    # Terminal rendering (the status CLI surface)
    # ------------------------------------------------------------------
    def tables(self) -> List[ResultTable]:
        out: List[ResultTable] = []

        daemons = ResultTable(
            f"cluster daemons @ t={self.data['captured_at']:.2f}s "
            f"({self.data['series']} series)",
            ["service", "address", "inc", "fresh", "queue", "cmds", "p99_s"],
        )
        for row in self.data["daemons"]:
            daemons.add(
                row["service"], row["address"], row["incarnation"],
                "yes" if row["fresh"] else f"stale {row['age_s']:.1f}s",
                int(row["queue_depth"]), row["commands"],
                f"{row['p99_s']:.4f}" if row["p99_s"] is not None else "-",
            )
        out.append(daemons)

        if self.data["rollups"]:
            rollups = ResultTable(
                "cluster rollups (exact cross-daemon merge)",
                ["metric", "count", "mean", "p50", "p95", "p99", "exemplar"],
            )
            for name, r in sorted(self.data["rollups"].items()):
                rollups.add(
                    name, r["count"], f"{r['mean']:.5f}", f"{r['p50']:.5f}",
                    f"{r['p95']:.5f}", f"{r['p99']:.5f}", r["exemplar"] or "-",
                )
            out.append(rollups)

        slos = ResultTable(
            "SLO burn", ["slo", "kind", "objective", "burn_long",
                         "burn_short", "alerting", "fired"],
        )
        for row in self.data["slos"]:
            slos.add(
                row["slo"], row["kind"], row["objective"], row["burn_long"],
                row["burn_short"], "ALERT" if row["alerting"] else "ok",
                row["fired"],
            )
        out.append(slos)

        if self.data["top_slow"]:
            top = ResultTable(
                "top slow operations (service_time_s p99)",
                ["service", "address", "inc", "p99_s", "trace"],
            )
            for row in self.data["top_slow"]:
                top.add(
                    row["service"], row["address"], row["incarnation"],
                    f"{row['p99']:.4f}", row["exemplar"] or "-",
                )
            out.append(top)

        if self.data["breakers"]:
            breakers = ResultTable("circuit breakers", ["address", "state"])
            for address, state in sorted(self.data["breakers"].items()):
                breakers.add(address, state)
            out.append(breakers)
        return out

    def render(self) -> str:
        return "\n\n".join(table.render() for table in self.tables())
