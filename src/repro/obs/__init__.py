"""`repro.obs` — end-to-end causal tracing + metrics (the observability
subsystem the paper's Network Logger story implies).

One :class:`Observability` hangs off every
:class:`~repro.core.context.DaemonContext`; it owns:

* the :class:`~repro.obs.tracer.Tracer` — causal spans propagated across
  every ACE command via a reserved ``o_tc`` argument, so one client
  request yields a span tree across ASD lookup, attach, dispatch,
  notifications, and store replication;
* the :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges,
  and fixed-bucket histograms every daemon feeds (commands by verb,
  queue wait vs service time, auth-cache hits, lease renewals), with the
  RPC layer's :class:`~repro.metrics.RpcStats` folded in as the ``rpc.*``
  view.

See README's "Observability" section and EXPERIMENTS.md E22.
"""

from repro.obs.context import TraceContext, extract, inject
from repro.obs.profiling import KERNEL_COUNTERS, ProfileScope
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_MAX_SERIES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import (
    CLIENT,
    INTERNAL,
    PRODUCER,
    SERVER,
    CriticalHop,
    Span,
    SpanTree,
    Tracer,
    critical_path,
    critical_path_rows,
    span_to_wire,
)

__all__ = [
    "CLIENT",
    "Counter",
    "CriticalHop",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_MAX_SERIES",
    "Gauge",
    "Histogram",
    "INTERNAL",
    "KERNEL_COUNTERS",
    "MetricsRegistry",
    "ProfileScope",
    "Observability",
    "PRODUCER",
    "SERVER",
    "Span",
    "SpanTree",
    "TelemetryScope",
    "TraceContext",
    "Tracer",
    "critical_path",
    "critical_path_rows",
    "extract",
    "inject",
    "span_to_wire",
]


class TelemetryScope:
    """One exportable slice of the shared metrics registry, tagged with
    the identity of the daemon (or plane) that feeds it.

    The registry itself stays environment-wide — instruments are shared
    objects on the hot path — so identity tagging happens here, at the
    export seam: a scope says "everything under ``prefix`` belongs to
    (service, address, incarnation), published from ``host``".  Daemons
    register one in their constructor; a reincarnation re-registers under
    the same (service, address) key with its bumped incarnation, which is
    how the telemetry plane keeps a restarted daemon from splicing its
    counters into the dead incarnation's series.

    ``provider`` (optional) overrides the prefix scan with a callable
    returning ``(counters, gauges, histograms)`` dicts directly — used for
    planes whose counters don't live under one registry prefix (e.g. the
    RPC layer's breakers).
    """

    __slots__ = ("service", "address", "host", "incarnation", "prefix", "provider")

    def __init__(self, service, address, host, incarnation=0, prefix="", provider=None):
        self.service = service
        self.address = str(address)
        self.host = host
        self.incarnation = incarnation
        self.prefix = prefix
        self.provider = provider

    @property
    def key(self):
        return (self.service, self.address)


class Observability:
    """Tracer + metrics registry for one simulated environment."""

    def __init__(self, sim, rng=None, *, trace_enabled: bool = True, sample_rate: float = 1.0):
        self.sim = sim
        sampler = rng.py("obs.sampler") if rng is not None else None
        self.tracer = Tracer(
            lambda: sim.now, enabled=trace_enabled, sample_rate=sample_rate, rng=sampler
        )
        self.metrics = MetricsRegistry()
        #: (service, address) -> TelemetryScope, insertion-ordered
        self.telemetry_scopes = {}

    def register_scope(
        self, service, address, host, *, incarnation=0, prefix="", provider=None
    ) -> "TelemetryScope":
        """Register (or replace, on reincarnation) a telemetry scope."""
        scope = TelemetryScope(
            service, address, host, incarnation=incarnation,
            prefix=prefix, provider=provider,
        )
        self.telemetry_scopes[scope.key] = scope
        return scope

    def scopes_on(self, host_name: str):
        """Every registered scope published from ``host_name``."""
        return [s for s in self.telemetry_scopes.values() if s.host == host_name]

    def set_sampling(self, sample_rate: float) -> None:
        self.tracer.sample_rate = sample_rate

    # -- ambient span (per sim process) --------------------------------
    # The kernel gives every Process an ``obs_context`` slot that child
    # processes inherit at spawn time; these helpers (and, inline, the
    # daemon's two request threads) read/write it, keeping the kernel
    # observability-agnostic.
    def ambient_span(self) -> "Span | None":
        proc = self.sim.active_process
        return proc.obs_context if proc is not None else None

    def set_ambient(self, span) -> "Span | None":
        """Install ``span`` as the current process's ambient span; returns
        the previous one so callers can restore it."""
        proc = self.sim.active_process
        if proc is None:
            return None
        previous = proc.obs_context
        proc.obs_context = span
        return previous
