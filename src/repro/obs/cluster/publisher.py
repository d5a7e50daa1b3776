"""Per-host telemetry publisher (delta push), and the telemetry plane that
places the aggregator and gives every host that runs daemons its publisher.

One :class:`TelemetryPublisherDaemon` runs on every host that runs
daemons.  On a jittered interval it captures the host's registered
telemetry scopes, rebases any scope whose incarnation changed (the
restart seam: the shared instruments never reset in-sim, so a fresh
series is current-minus-last-published-of-the-corpse), and pushes the
sparse delta vs the last *acknowledged* state to the aggregator.  The
aggregator replies ``resync=1`` when it cannot apply a delta (it
restarted, or missed pushes across a partition); the publisher then
forgets its ack state and the very next push carries full snapshots —
which bounds the post-failure blind spot to about one push interval.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.client import CallError
from repro.core.daemon import ACEDaemon
from repro.core.policy import CallPolicy
from repro.lang import ACECmdLine
from repro.net.address import WellKnownPorts
from repro.obs.cluster.aggregator import TelemetryAggregatorDaemon
from repro.obs.cluster.merge import (
    MODE_DELTA,
    MODE_FULL,
    MODE_SAME,
    ScopeSnapshot,
    encode_scope,
)
from repro.obs.cluster.slo import default_slos
from repro.obs.cluster.snapshot import BREAKER_LEVELS

#: push RPC budget: strictly best-effort, never longer than one interval,
#: breaker disabled so telemetry cannot poison the shared breaker table
def _push_policy(interval: float) -> CallPolicy:
    return CallPolicy(
        deadline=max(interval * 0.8, 0.2), attempt_timeout=max(interval * 0.4, 0.1),
        max_attempts=2, backoff_base=0.02, backoff_max=0.1, breaker_threshold=0,
    )


class TelemetryPublisherDaemon(ACEDaemon):
    """Pushes this host's telemetry scopes to the cluster aggregator."""

    service_type = "TelemetryPublisher"

    def __init__(self, ctx, name, host, *, interval: float = 1.0,
                 jitter: float = 0.2, **kwargs):
        kwargs.setdefault("authorize_commands", False)  # infrastructure plane
        super().__init__(ctx, name, host, **kwargs)
        self.interval = interval
        self.jitter = jitter
        self._push_rng = ctx.rng.py(f"telemetry.push.{host.name}")
        self._policy = _push_policy(interval)
        #: series key -> last snapshot the aggregator acknowledged
        self._acked: Dict[Tuple[str, str, int], ScopeSnapshot] = {}
        #: scope (service, address) -> (incarnation, base, last raw capture)
        self._bases: Dict[Tuple[str, str], Tuple[int, Optional[ScopeSnapshot], ScopeSnapshot]] = {}
        self._seq = 0
        self.pushes = 0
        self.push_failures = 0
        self.resyncs = 0
        ctx.obs.metrics.register_view(f"telemetry.pub.{host.name}", self.stats)

    def stats(self) -> dict:
        return {
            "pushes": self.pushes,
            "push_failures": self.push_failures,
            "resyncs": self.resyncs,
            "seq": self._seq,
        }

    def on_started(self) -> None:
        self._spawn(self._push_loop(), "push")

    # ------------------------------------------------------------------
    # Capture (with incarnation rebasing)
    # ------------------------------------------------------------------
    def _capture(self) -> List[ScopeSnapshot]:
        """Freeze every scope on this host, rebased per incarnation."""
        metrics = self.ctx.obs.metrics
        out: List[ScopeSnapshot] = []
        for scope in self.ctx.obs.scopes_on(self.host.name):
            raw = ScopeSnapshot.capture(scope, metrics)
            rec = self._bases.get(scope.key)
            if rec is None:
                base: Optional[ScopeSnapshot] = None
            elif rec[0] != scope.incarnation:
                # Restart seam: freeze the corpse's last published values
                # as the new incarnation's base, so the old series stops
                # here and the new one starts near zero.
                base = rec[2]
            else:
                base = rec[1]
            self._bases[scope.key] = (scope.incarnation, base, raw)
            out.append(raw.rebase(base) if base is not None else raw)
        return out

    # ------------------------------------------------------------------
    # Delta push loop
    # ------------------------------------------------------------------
    def _collect(self) -> Tuple[List[str], Dict[Tuple[str, str, int], ScopeSnapshot]]:
        rows: List[str] = []
        pending: Dict[Tuple[str, str, int], ScopeSnapshot] = {}
        for snap in self._capture():
            prev = self._acked.get(snap.key)
            if prev is None:
                rows.extend(encode_scope(snap, MODE_FULL))
            else:
                delta = snap.diff(prev)
                if delta is None:
                    # Header-only heartbeat keeps the series fresh at the
                    # aggregator without resending unchanged values.
                    rows.append(encode_scope(
                        ScopeSnapshot(snap.service, snap.address, snap.incarnation),
                        MODE_SAME,
                    )[0])
                    continue
                rows.extend(encode_scope(delta, MODE_DELTA))
            pending[snap.key] = snap
        return rows, pending

    def _push_loop(self) -> Generator:
        sim = self.ctx.sim
        while self.running:
            delay = self.interval
            if self.jitter > 0:
                delay *= 1.0 + self.jitter * (self._push_rng.random() - 0.5)
            yield sim.timeout(delay)
            target = self.ctx.telemetry_address
            if target is None or not self.running:
                continue
            rows, pending = self._collect()
            if not rows:
                continue
            self._seq += 1
            command = ACECmdLine(
                "obsPush", host=self.host.name, port=self.port,
                seq=self._seq, scopes=tuple(rows),
            )
            try:
                reply = yield from self.client.call(
                    target, command, policy=self._policy
                )
            except CallError:
                self.push_failures += 1
                continue
            self.pushes += 1
            if reply.int("resync", 0):
                # The aggregator lost (or never had) our series: forget
                # the ack state so the next push carries full snapshots.
                self._acked.clear()
                self.resyncs += 1
            else:
                self._acked.update(pending)


class TelemetryPlane:
    """The cluster telemetry plane as the environment's lifecycle sees it.

    Construction places one :class:`TelemetryAggregatorDaemon` (well-known
    telemetry port, ASD-registered, supervisable like any daemon,
    :func:`~repro.obs.cluster.slo.default_slos` scaled to the interval)
    and registers the RPC plane's scope on its host.  ``attach`` gives the
    host of every daemon that joins its publisher, which delta-pushes the
    host's metric scopes every ``interval`` seconds (jittered); ``detach``
    drops every scope at the leaving daemon's address, and the host's
    publisher leaves with the host's last other daemon, and the aggregator
    forgets the host's series once it has stopped.  Daemons join at boot
    ``tier``."""

    def __init__(self, env, *, interval: float, tier: int):
        self.env = env
        self.interval = interval
        self.tier = tier
        ctx = env.ctx
        # Placed from the topology, not from the daemons this environment
        # owns: every shard of a sharded run must name the same host.
        if ctx.asd_address is not None:
            host = env.net.host(ctx.asd_address.host)
        else:
            host = env.net.host(sorted(env.net.hosts)[0])
        self.aggregator = env.add_daemon(
            TelemetryAggregatorDaemon(
                ctx, "telemetry", host, port=WellKnownPorts.TELEMETRY,
                interval=interval, slos=default_slos(interval),
                topology_provider=self._topology,
            ),
            tier=tier,
        )
        ctx.telemetry_address = self.aggregator.address

        # The RPC plane's scope: breakers + RpcStats + client latency
        # histogram don't live under one registry prefix, so a provider
        # assembles them (published from the aggregator's host).
        resilience = ctx.resilience
        metrics = ctx.obs.metrics

        def rpc_provider():
            counters, gauges, histograms = metrics.export_scope("rpc.")
            counters.update(resilience.stats.snapshot())
            for address, state in resilience.breaker_states().items():
                gauges[f"breaker.{address}"] = float(BREAKER_LEVELS.get(state, 0))
            return counters, gauges, histograms

        ctx.obs.register_scope("rpc", "rpc:0", host.name, provider=rpc_provider)

    def attach(self, daemon: ACEDaemon) -> None:
        name = f"telem.{daemon.host.name}"
        if name not in self.env.daemons:
            self.env.add_daemon(
                TelemetryPublisherDaemon(
                    self.env.ctx, name, daemon.host, interval=self.interval,
                ),
                tier=self.tier,
            )

    def detach(self, daemon: ACEDaemon) -> None:
        obs = self.env.ctx.obs
        address = f"{daemon.host.name}:{daemon.port}"
        for key in [key for key in obs.telemetry_scopes if key[1] == address]:
            obs.telemetry_scopes.pop(key)
        host = daemon.host.name
        publisher = self.env.daemons.get(f"telem.{host}")
        if publisher is None or publisher is daemon:
            return
        if not any(d.host is daemon.host and d is not daemon and d is not publisher
                   for d in self.env.daemons.values()):
            stopped = self.env.remove_daemon(publisher)
            obs.metrics.unregister_view(f"telemetry.pub.{host}")
            # once it has stopped, so no push of its own lands afterwards
            stopped.callbacks.append(lambda _stopped: self.aggregator.forget_host(host))

    def _topology(self) -> dict:
        """Store groups, shard map and supervisors, as the aggregator
        reports them in a ``ClusterSnapshot``."""
        env = self.env
        info = {
            "store_groups": [[d.name for d in group] for group in env._store_groups],
            "supervisors": {
                host_name: supervisor.snapshot()
                for host_name, supervisor in sorted(env.ctx.supervisors.items())
            },
        }
        shard_map = env.ctx.store_route and env.ctx.store_route.shard_map
        if shard_map is not None:
            info["shard_map"] = {"groups": shard_map.groups, "epoch": shard_map.epoch}
        return info
