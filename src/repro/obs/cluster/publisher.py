"""Per-host telemetry publisher: delta push + scrape endpoint.

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

``obsScrape`` is the pull fallback: it returns full scope snapshots and
is side-effect free, so the aggregator can scrape hosts whose pushes
have gone stale without disturbing the delta stream.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.client import CallError, ServiceClient
from repro.core.daemon import ACEDaemon, Request
from repro.core.policy import CallPolicy
from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.obs.cluster.merge import (
    MODE_DELTA,
    MODE_FULL,
    MODE_SAME,
    ScopeSnapshot,
    encode_scope,
)

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
        self._client: Optional[ServiceClient] = None
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

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define(
            "obsScrape",
            description="pull full telemetry scope snapshots for this host",
        )

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

    def cmd_obsScrape(self, request: Request) -> dict:
        rows: List[str] = []
        for snap in self._capture():
            rows.extend(encode_scope(snap, MODE_FULL))
        if not rows:
            return {"count": 0}
        return {"count": len(rows), "scopes": tuple(rows)}

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
            if self._client is None:
                self._client = ServiceClient(
                    self.ctx, self.host, principal=self.name
                )
            self._seq += 1
            command = ACECmdLine(
                "obsPush", host=self.host.name, port=self.port,
                seq=self._seq, scopes=tuple(rows),
            )
            try:
                reply = yield from self._client.call(
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
