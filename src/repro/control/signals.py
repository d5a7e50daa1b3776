"""Builds :class:`~repro.control.rules.ControlSample`\\ s from the live
telemetry aggregator.

The reader is the only stateful piece of the control pipeline's input
side: per-second rates need the previous counter totals, so the reader
remembers them between reads.  Everything it emits is a plain frozen
:class:`ControlSample`, which is what keeps the decision engine pure and
the whole pipeline replayable by the
:mod:`~repro.control.harness` rig.

Signals produced each read:

* ``p95_s`` — cluster p95 of the ``service_time_s`` rollup (optionally
  filtered to one service prefix);
* ``queue_depth`` — the deepest control-queue backlog across fresh
  daemon series;
* ``queue_wait_s`` — mean control-queue wait over the *last read
  window* (delta of the cluster ``queue_wait_s`` histogram between
  reads).  The pushed histograms are cumulative per incarnation, so a
  raw percentile would stay pinned at whatever an old overload burst
  left behind; the windowed mean rises with a building backlog and —
  unlike the point-in-time ``queue_depth`` gauge — decays as soon as
  the backlog drains, which is what makes it usable on *both* sides
  of a hysteresis band;
* ``breakers_open`` — circuit breakers currently open in the rpc scope;
* ``replication_drop_rate`` — per-second rate of the store plane's
  ``replication_lag_dropped`` counter;
* plus whatever the optional ``extra`` callable overlays (the
  autoscaler daemon injects alert-derived signals this way).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.control.rules import ControlSample
from repro.obs.cluster.snapshot import BREAKER_LEVELS

_OPEN_LEVEL = float(BREAKER_LEVELS["open"])


class SignalReader:
    """Turns aggregator state into one :class:`ControlSample` per read."""

    def __init__(
        self,
        aggregator_provider: Callable[[], object],
        capacity_provider: Callable[[], Dict[str, int]],
        *,
        latency_service: str = "",
        extra: Optional[Callable[[], Dict[str, float]]] = None,
    ):
        #: resolved per read so a supervisor-restarted aggregator (a new
        #: object under the same name) is picked up transparently
        self._aggregator = aggregator_provider
        self._capacity = capacity_provider
        self.latency_service = latency_service
        self.extra = extra
        self._prev_at: Optional[float] = None
        self._prev_counters: Dict[str, float] = {}

    def _rate(self, name: str, total: float, dt: float) -> float:
        prev = self._prev_counters.get(name, 0.0)
        self._prev_counters[name] = total
        if dt <= 0:
            return 0.0
        return max(0.0, total - prev) / dt

    def read(self) -> ControlSample:
        aggregator = self._aggregator()
        now = aggregator.ctx.sim.now
        dt = 0.0 if self._prev_at is None else now - self._prev_at
        self._prev_at = now

        signals: Dict[str, float] = {}
        merged = aggregator.rollup_histogram("service_time_s", self.latency_service)
        if merged is not None and merged.count:
            signals["p95_s"] = merged.percentile(0.95)

        waits = aggregator.rollup_histogram("queue_wait_s", self.latency_service)
        if waits is not None:
            # Windowed mean: cumulative totals differenced between reads
            # (deltas clamped at zero so an incarnation rebase reads as a
            # quiet window, not a negative wait).
            d_count = max(0.0, waits.count - self._prev_counters.get("qw.count", 0.0))
            d_sum = max(0.0, waits.total - self._prev_counters.get("qw.sum", 0.0))
            self._prev_counters["qw.count"] = float(waits.count)
            self._prev_counters["qw.sum"] = waits.total
            signals["queue_wait_s"] = d_sum / d_count if d_count else 0.0

        queue_depth = 0.0
        breakers_open = 0.0
        for key, snap in aggregator.series.items():
            if not aggregator.fresh(key):
                continue
            depth = snap.gauges.get("queue_depth")
            if depth is not None and depth > queue_depth:
                queue_depth = depth
            if key[0] == "rpc":
                breakers_open += sum(
                    1 for name, value in snap.gauges.items()
                    if name.startswith("breaker.") and value >= _OPEN_LEVEL
                )
        signals["queue_depth"] = queue_depth
        signals["breakers_open"] = breakers_open
        signals["replication_drop_rate"] = self._rate(
            "replication_lag_dropped",
            aggregator.rollup_counter("replication_lag_dropped", "store"),
            dt,
        )
        if self.extra is not None:
            signals.update(self.extra())
        return ControlSample(
            time=now, signals=signals, capacity=dict(self._capacity())
        )
