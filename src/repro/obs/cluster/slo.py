"""Declarative SLOs with multi-window burn-rate alerting.

An :class:`SLOSpec` names a good/bad event split over the aggregated
cluster series; the :class:`SLOEngine` samples cumulative totals each
evaluation tick and computes the *burn rate* — the observed bad fraction
divided by the error budget ``1 - objective`` — over a long and a short
window (the SRE multi-window pattern: the long window proves the burn is
sustained, the short window proves it is still happening, so alerts are
both fast and flap-resistant).  An alert fires on the closed-to-open
transition when both windows exceed ``burn_threshold``; it clears when
the short window drops back under.

Spec kinds:

* ``availability`` — ``good``/``bad`` are counter names summed over the
  matching series (e.g. RPC ``successes``/``failures``).
* ``latency`` — ``metric`` is a histogram; observations at or under
  ``threshold`` are good, above are bad.  ``threshold`` should sit on a
  bucket bound — bounds are explicit and registry-enforced, so the split
  is exact.  Also covers MTTR budgets (the ``recovery.mttr_ms``
  histogram).
* ``rate`` — ``metric`` is a counter whose per-second rate is budgeted
  at ``threshold``; burn = observed rate / budget (replication-lag
  drops, notification failures, ...).
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective over the aggregated cluster series."""

    name: str
    kind: str                      # availability | latency | rate
    objective: float = 0.99        # fraction of events that must be good
    #: series filter: exact service name, or a prefix matching
    #: ``<service>.<anything>`` (e.g. ``store`` matches ``store.ps1``);
    #: empty matches every series
    service: str = ""
    good: str = ""                 # availability: good-event counter
    bad: str = ""                  # availability: bad-event counter
    metric: str = ""               # latency histogram / rate counter
    threshold: float = 0.0         # latency split point / rate budget per s
    long_window: float = 60.0
    short_window: float = 5.0
    burn_threshold: float = 2.0
    severity: str = "page"

    def __post_init__(self):
        if self.kind not in ("availability", "latency", "rate"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.short_window >= self.long_window:
            raise ValueError("short_window must be below long_window")


def split_histogram(bounds: Tuple[float, ...], counts, threshold: float) -> Tuple[int, int]:
    """(good, bad) observation counts at an exact bucket-bound split."""
    idx = bisect_right(bounds, threshold)
    good = sum(counts[:idx])
    return good, sum(counts) - good


@dataclass
class SLOState:
    """Mutable evaluation state for one spec."""

    spec: SLOSpec
    #: (time, good_total, bad_total) cumulative samples, oldest first
    samples: Deque[Tuple[float, float, float]] = field(default_factory=deque)
    alerting: bool = False
    fired: int = 0
    burn_long: float = 0.0
    burn_short: float = 0.0
    last_alert_at: Optional[float] = None

    def _window_burn(self, now: float, window: float) -> float:
        if not self.samples:
            return 0.0
        newest = self.samples[-1]
        anchor = self.samples[0]
        for sample in self.samples:
            if sample[0] <= now - window:
                anchor = sample
            else:
                break
        dgood = newest[1] - anchor[1]
        dbad = newest[2] - anchor[2]
        if self.spec.kind == "rate":
            dt = max(newest[0] - anchor[0], 1e-9)
            return (dbad / dt) / self.spec.threshold if self.spec.threshold else 0.0
        total = dgood + dbad
        if total <= 0:
            return 0.0
        return (dbad / total) / (1.0 - self.spec.objective)

    def observe(self, now: float, good: float, bad: float) -> Optional[dict]:
        """Record a sample; returns an alert dict when one fires."""
        self.samples.append((now, good, bad))
        horizon = now - self.spec.long_window - 1e-9
        while len(self.samples) > 2 and self.samples[1][0] <= horizon:
            self.samples.popleft()
        self.burn_long = self._window_burn(now, self.spec.long_window)
        self.burn_short = self._window_burn(now, self.spec.short_window)
        over = (
            self.burn_long > self.spec.burn_threshold
            and self.burn_short > self.spec.burn_threshold
        )
        if over and not self.alerting:
            self.alerting = True
            self.fired += 1
            self.last_alert_at = now
            return {
                "slo": self.spec.name,
                "severity": self.spec.severity,
                "time": now,
                "burn_long": self.burn_long,
                "burn_short": self.burn_short,
                # E28: the controller-facing fields a listener needs to
                # tell a fast burn from a slow one (they ride the wire in
                # the obsAlert ``detail`` record — repro.obs.cluster.alerts)
                "kind": self.spec.kind,
                "objective": self.spec.objective,
                "long_window": self.spec.long_window,
                "short_window": self.spec.short_window,
            }
        if self.alerting and self.burn_short <= self.spec.burn_threshold:
            self.alerting = False
        return None


class SLOEngine:
    """Evaluates a set of specs against a totals reader each tick."""

    def __init__(self, specs):
        self.states: Dict[str, SLOState] = {}
        for spec in specs:
            if spec.name in self.states:
                raise ValueError(f"duplicate SLO name {spec.name!r}")
            self.states[spec.name] = SLOState(spec)

    def evaluate(
        self, now: float,
        totals: Callable[[SLOSpec], Tuple[float, float]],
    ) -> List[dict]:
        """One tick: sample ``totals(spec) -> (good, bad)`` cumulative
        counts for every spec; returns the alerts that fired."""
        alerts = []
        for state in self.states.values():
            good, bad = totals(state.spec)
            alert = state.observe(now, good, bad)
            if alert is not None:
                alerts.append(alert)
        return alerts

    def status_rows(self) -> List[dict]:
        return [
            {
                "slo": state.spec.name,
                "kind": state.spec.kind,
                "objective": state.spec.objective,
                "burn_long": round(state.burn_long, 3),
                "burn_short": round(state.burn_short, 3),
                "alerting": state.alerting,
                "fired": state.fired,
            }
            for state in self.states.values()
        ]


def default_slos(interval: float = 1.0) -> Tuple[SLOSpec, ...]:
    """The stock objectives ``env.enable_telemetry()`` installs.

    Windows are scaled to the push interval so a sustained gray failure
    trips its alert within two push intervals of the bad counters
    landing at the aggregator (the E27 acceptance bound).
    """
    return (
        SLOSpec(
            "rpc-availability", kind="availability", service="rpc",
            good="successes", bad="failures", objective=0.99,
            long_window=4.0 * interval, short_window=1.0 * interval,
            burn_threshold=5.0,
        ),
        SLOSpec(
            "service-latency", kind="latency", metric="service_time_s",
            objective=0.95, threshold=0.25,
            long_window=8.0 * interval, short_window=2.0 * interval,
            burn_threshold=4.0, severity="ticket",
        ),
        SLOSpec(
            "store-replication", kind="rate", service="store",
            metric="replication_lag_dropped", objective=0.99, threshold=2.0,
            long_window=8.0 * interval, short_window=2.0 * interval,
            burn_threshold=1.0, severity="ticket",
        ),
        SLOSpec(
            "recovery-mttr", kind="latency", service="recovery",
            metric="mttr_ms", objective=0.5, threshold=8000.0,
            long_window=16.0 * interval, short_window=4.0 * interval,
            burn_threshold=1.5, severity="ticket",
        ),
    )
