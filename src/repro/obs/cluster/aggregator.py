"""The cluster telemetry aggregator daemon (E27 tentpole).

An ordinary :class:`~repro.core.daemon.ACEDaemon`: it listens on the
well-known telemetry port, registers with the ASD, and is supervisable by
the PR 6 recovery plane (state is soft — after a restart every publisher
gets ``resync=1`` on its next push and re-sends full snapshots, so the
blind spot is bounded by one push interval).

State is the series map ``(service, address, incarnation) ->
ScopeSnapshot``, fed by ``obsPush`` deltas.  On top of it:

* **rollups** — exact cross-daemon histogram merges (identical bounds,
  summed buckets) for cluster p50/p95/p99, with trace-exemplar ids
  surviving the merge so "p99 spiked" links to a concrete span tree;
* **SLO engine** — burn-rate evaluation each tick; alerts are recorded,
  counted, and re-emitted as self-executed ``obsAlert`` commands, so the
  existing notification plane (``addNotification obsAlert ...``) fans
  them out to any listener daemon.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.client import CallError
from repro.core.daemon import ACEDaemon, Request
from repro.lang import ArgSpec, ArgType, CommandSemantics
from repro.net import Address
from repro.obs.cluster.merge import (
    MODE_DELTA,
    MODE_SAME,
    HistogramData,
    MergeError,
    ScopeSnapshot,
    decode_scopes,
    merge_histograms,
)
from repro.obs.cluster.alerts import alert_to_command
from repro.obs.cluster.slo import SLOEngine, SLOSpec, split_histogram

#: a series is fresh while its last push is under this many intervals old
STALE_FACTOR = 1.5


class TelemetryAggregatorDaemon(ACEDaemon):
    """Collects per-daemon metric scopes into cluster-wide rollups."""

    service_type = "TelemetryAggregator"

    def __init__(self, ctx, name, host, *, interval: float = 1.0,
                 slos: Tuple[SLOSpec, ...] = (), topology_provider=None,
                 **kwargs):
        kwargs.setdefault("authorize_commands", False)  # infrastructure plane
        super().__init__(ctx, name, host, **kwargs)
        self.interval = interval
        self.stale_after = STALE_FACTOR * interval
        self.slo_engine = SLOEngine(slos)
        #: (service, address, incarnation) -> latest merged snapshot
        self.series: Dict[Tuple[str, str, int], ScopeSnapshot] = {}
        self.last_seen: Dict[Tuple[str, str, int], float] = {}
        #: publisher host name -> publisher address
        self.publishers: Dict[str, Address] = {}
        self._pub_seq: Dict[str, int] = {}
        self.alerts: List[dict] = []
        #: optional in-process callable returning topology facts (shard
        #: map, store groups, supervisors) for ClusterSnapshot
        self.topology_provider = topology_provider
        metrics = ctx.obs.metrics
        self._m_pushes = metrics.counter("telemetry.pushes")
        self._m_rows = metrics.counter("telemetry.rows")
        self._m_resyncs = metrics.counter("telemetry.resyncs")
        self._m_alerts = metrics.counter("telemetry.alerts")
        self._m_series = metrics.gauge("telemetry.series")

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "obsPush",
            ArgSpec("host", ArgType.STRING),
            ArgSpec("port", ArgType.INTEGER),
            ArgSpec("seq", ArgType.INTEGER),
            ArgSpec("scopes", ArgType.VECTOR),
            description="delta-encoded metric scope push from a publisher",
        )
        sem.define(
            "obsAlert",
            ArgSpec("slo", ArgType.STRING),
            ArgSpec("severity", ArgType.STRING),
            ArgSpec("burn_long", ArgType.NUMBER),
            ArgSpec("burn_short", ArgType.NUMBER),
            # E28: escaped kind|objective|long_window|short_window record
            # (repro.obs.cluster.alerts); optional so pre-E28 alert forms
            # still validate and old listeners ignore it.
            ArgSpec("detail", ArgType.STRING, required=False, default=""),
            description="SLO burn-rate alert (watch via addNotification)",
        )

    def on_started(self) -> None:
        self._spawn(self._eval_loop(), "slo")

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _apply(self, decoded, now: float) -> int:
        """Apply decoded (mode, snapshot) pairs; returns resync flag."""
        resync = 0
        for mode, snap in decoded:
            if mode == MODE_SAME:
                if snap.key in self.series:
                    self.last_seen[snap.key] = now
                else:
                    resync = 1
                continue
            if mode == MODE_DELTA:
                current = self.series.get(snap.key)
                if current is None:
                    # We never saw this series' base (restart / missed
                    # pushes): ask the publisher to start over with fulls.
                    resync = 1
                    continue
                current.apply(snap)
            else:
                self.series[snap.key] = snap.copy()
            self.last_seen[snap.key] = now
        self._m_series.set(len(self.series))
        return resync

    def cmd_obsPush(self, request: Request) -> dict:
        cmd = request.command
        host, port, seq = cmd.str("host"), cmd.int("port"), cmd.int("seq")
        now = self.ctx.sim.now
        self.publishers[host] = Address(host, port)
        expected = self._pub_seq.get(host)
        if expected is not None and seq <= expected:
            return {"resync": 0, "dup": 1}  # replayed push; already applied
        try:
            decoded = decode_scopes(cmd.get("scopes") or ())
        except (MergeError, ValueError) as exc:
            return {"resync": 1, "error": str(exc)}
        resync = self._apply(decoded, now)
        if expected is not None and seq != expected + 1:
            resync = 1  # gap: deltas were lost in between
        self._pub_seq[host] = seq
        self._m_pushes.inc()
        self._m_rows.inc(len(cmd.get("scopes") or ()))
        if resync:
            self._m_resyncs.inc()
        return {"resync": resync}

    def forget_host(self, host: str) -> None:
        """Drop a departed host's publisher and every series published
        from it (the telemetry plane calls this when the host's publisher
        leaves)."""
        self.publishers.pop(host, None)
        self._pub_seq.pop(host, None)
        prefix = f"{host}:"
        for key in [key for key in self.series if key[1].startswith(prefix)]:
            del self.series[key]
            self.last_seen.pop(key, None)
        self._m_series.set(len(self.series))

    # ------------------------------------------------------------------
    # Rollups
    # ------------------------------------------------------------------
    def fresh(self, key: Tuple[str, str, int]) -> bool:
        return (
            self.ctx.sim.now - self.last_seen.get(key, -1e18) <= self.stale_after
        )

    def rollup_histogram(
        self, metric: str, service: str = ""
    ) -> Optional[HistogramData]:
        """Exact cluster-wide merge of ``metric`` over matching series."""
        parts = [
            snap.histograms[metric]
            for key, snap in self.series.items()
            if metric in snap.histograms
            and (not service or key[0] == service
                 or key[0].startswith(service + "."))
        ]
        return merge_histograms(parts)

    def rollup_counter(self, name: str, service: str = "") -> float:
        return sum(
            snap.counters[name]
            for key, snap in self.series.items()
            if name in snap.counters
            and (not service or key[0] == service
                 or key[0].startswith(service + "."))
        )

    def histogram_names(self) -> List[str]:
        names = set()
        for snap in self.series.values():
            names.update(snap.histograms)
        return sorted(names)

    def top_slow(self, metric: str = "service_time_s", k: int = 5) -> List[dict]:
        """Per-service p99 of ``metric``, slowest first, with the exemplar
        trace id from the highest occupied bucket."""
        rows = []
        for key, snap in self.series.items():
            hist = snap.histograms.get(metric)
            if hist is None or hist.count == 0:
                continue
            exemplar = hist.slowest_exemplar()
            rows.append({
                "service": key[0], "address": key[1], "incarnation": key[2],
                "count": hist.count, "p50": hist.percentile(0.50),
                "p99": hist.percentile(0.99), "max": hist.maximum,
                "exemplar": exemplar[0] if exemplar else "",
            })
        rows.sort(key=lambda r: (-r["p99"], -r["max"], r["service"]))
        return rows[:k]

    # ------------------------------------------------------------------
    # SLO evaluation
    # ------------------------------------------------------------------
    def _slo_totals(self, spec: SLOSpec) -> Tuple[float, float]:
        if spec.kind == "availability":
            return (
                self.rollup_counter(spec.good, spec.service),
                self.rollup_counter(spec.bad, spec.service),
            )
        if spec.kind == "rate":
            return 0.0, self.rollup_counter(spec.metric, spec.service)
        merged = self.rollup_histogram(spec.metric, spec.service)
        if merged is None:
            return 0.0, 0.0
        good, bad = split_histogram(merged.bounds, merged.counts, spec.threshold)
        return float(good), float(bad)

    def _eval_loop(self) -> Generator:
        sim = self.ctx.sim
        while self.running:
            yield sim.timeout(self.interval)
            if not self.running:
                return
            alerts = self.slo_engine.evaluate(sim.now, self._slo_totals)
            for alert in alerts:
                self.alerts.append(alert)
                self._m_alerts.inc()
                self.ctx.trace.emit(
                    sim.now, self.name, "slo-alert", slo=alert["slo"],
                    severity=alert["severity"],
                    burn_long=round(alert["burn_long"], 3),
                )
                # Route through the notification plane: executing our own
                # obsAlert fires addNotification watchers on the verb.
                try:
                    yield from self.self_execute(alert_to_command(alert))
                except CallError:
                    pass

    def cmd_obsAlert(self, request: Request) -> dict:
        # The alert event itself: state lives with the SLO engine; this
        # exists so the command validates, executes, and notifies.
        return {}
