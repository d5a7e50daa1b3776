"""Resilient-RPC policy: deadlines, retries, and circuit breakers.

The paper's reliability story (§5.2–5.3, §8.1) covers *clean* failures —
crashed hosts are purged by leases and relaunched by the restart manager.
Gray failures (a host that got 100× slower, a link that drops most
messages) defeat that machinery because nothing ever *refuses*; calls just
hang.  This module is the client-side antidote, shared by every caller:

* :class:`CallPolicy` — per-call deadline, per-attempt timeout, and a
  jittered exponential-backoff retry budget;
* :class:`CircuitBreaker` — per-address closed → open → half-open state so
  callers stop hammering endpoints that keep failing;
* :class:`ResilienceRegistry` — the per-environment home of breakers,
  shared :class:`~repro.metrics.RpcStats` counters, and the last-known-good
  directory-lookup cache used when the ASD itself is unreachable.

:class:`CallError` is the one exception a :class:`ServiceClient` caller
handles.  Exactly ``CallError``: the service answered ``cmdFailed`` (never
retried or failed over; ``exc.reply`` set).  Its subclasses mean nobody
answered: :class:`TransportError` (retried, failed over, counted by the
breaker), :class:`DeadlineExceeded`, :class:`BreakerOpen`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.metrics import RpcStats


class CallError(Exception):
    """The service replied cmdFailed — or, as a subclass, nobody replied."""

    def __init__(self, message: str, reply: Optional[Any] = None):
        super().__init__(message)
        self.reply = reply


class TransportError(CallError):
    """Nobody answered: dial refused, channel lost, or a handshake or
    record check failed (the ``repro.net`` error is ``__cause__``)."""


class DeadlineExceeded(CallError):
    """The call (or one attempt of it) did not complete within its budget."""


class BreakerOpen(CallError):
    """The per-address circuit breaker is open; the call was not attempted."""


@dataclass(frozen=True)
class CallPolicy:
    """How hard to try: deadline, retry, and breaker knobs for one call.

    ``deadline`` bounds the whole call including retries and backoff;
    ``attempt_timeout`` bounds each individual connect+call+reply attempt.
    A ``breaker_threshold`` of 0 disables the circuit breaker (used during
    daemon startup, where many services race the ASD onto the network).
    """

    deadline: float = 5.0
    attempt_timeout: float = 2.0
    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_max: float = 1.0
    backoff_jitter: float = 0.5
    breaker_threshold: int = 5
    breaker_reset: float = 10.0

    def backoff_delay(self, attempt: int, rng: random.Random) -> float:
        """Jittered exponential backoff before retry number ``attempt`` (1-based)."""
        raw = min(self.backoff_base * (2 ** (attempt - 1)), self.backoff_max)
        if self.backoff_jitter > 0:
            raw *= 1.0 + self.backoff_jitter * (rng.random() - 0.5)
        return max(raw, 0.0)


#: breaker states
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-address failure gate: closed → open → half-open → closed.

    ``threshold`` consecutive transport failures open the breaker; while
    open, :meth:`allow` refuses instantly (callers shed load instead of
    burning their deadline on a dead endpoint).  After ``reset`` seconds a
    single half-open probe is let through: success re-closes the breaker,
    failure re-opens it for another ``reset`` period.
    """

    def __init__(self, threshold: int, reset: float):
        self.threshold = threshold
        self.reset = reset
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.trips = 0
        self._probe_inflight = False

    @property
    def enabled(self) -> bool:
        return self.threshold > 0

    def allow(self, now: float) -> bool:
        """May a call proceed at time ``now``?"""
        if not self.enabled or self.state == CLOSED:
            return True
        if self.state == OPEN:
            if now - self.opened_at >= self.reset:
                self.state = HALF_OPEN
                self._probe_inflight = True
                return True
            return False
        # HALF_OPEN: only the single probe already admitted may be in flight.
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def record_success(self) -> bool:
        """Returns True when this success re-closed an open breaker."""
        reset = self.state == HALF_OPEN
        self.state = CLOSED
        self.failures = 0
        self._probe_inflight = False
        return reset

    def record_failure(self, now: float) -> bool:
        """Returns True when this failure tripped the breaker open."""
        if not self.enabled:
            return False
        if self.state == HALF_OPEN:
            self.state = OPEN
            self.opened_at = now
            self._probe_inflight = False
            return False  # re-open, not a fresh trip
        self.failures += 1
        if self.state == CLOSED and self.failures >= self.threshold:
            self.state = OPEN
            self.opened_at = now
            self.trips += 1
            return True
        return False

    def force_close(self) -> None:
        """Force-close and zero the failure history — the endpoint was
        restarted, so whatever it did before says nothing about now."""
        self.state = CLOSED
        self.failures = 0
        self._probe_inflight = False


class ResilienceRegistry:
    """Per-environment shared state for the resilient RPC layer.

    One registry hangs off every :class:`~repro.core.context.DaemonContext`,
    so breakers and counters are shared by all clients in the environment —
    when one caller discovers an endpoint is dead, every caller stops
    hammering it.
    """

    def __init__(self):
        self.stats = RpcStats()
        self._breakers: Dict[Any, CircuitBreaker] = {}
        self._lookup_cache: Dict[Tuple, Tuple] = {}
        #: callables invoked with the restarted address by
        #: :meth:`notify_restart` — e.g. store replicas clearing their
        #: per-peer replication-lag cooldown for a reincarnated sibling
        self._restart_listeners: list = []

    def breaker(self, address: Any, policy: CallPolicy) -> CircuitBreaker:
        """The shared breaker for ``address`` (created on first use)."""
        breaker = self._breakers.get(address)
        if breaker is None:
            breaker = CircuitBreaker(policy.breaker_threshold, policy.breaker_reset)
            self._breakers[address] = breaker
        return breaker

    def suspect(self, address: Any) -> bool:
        """Has ``address`` failed a policy call since it last answered one?"""
        breaker = self._breakers.get(address)
        return breaker is not None and (breaker.state != CLOSED or breaker.failures > 0)

    def breaker_states(self) -> Dict[str, str]:
        """address -> state, for traces and experiment tables."""
        return {str(addr): b.state for addr, b in self._breakers.items()}

    def reset_address(self, address: Any) -> bool:
        """A daemon at ``address`` was restarted: force its breaker closed
        so callers probe the reincarnation immediately instead of waiting
        out a stale OPEN cooldown earned by the corpse.  Returns True when
        a breaker existed (and was reset)."""
        breaker = self._breakers.get(address)
        if breaker is None:
            return False
        breaker.force_close()
        return True

    def on_restart(self, listener) -> None:
        """Register a ``listener(address)`` called after a daemon restart."""
        self._restart_listeners.append(listener)

    def notify_restart(self, address: Any) -> None:
        """A daemon at ``address`` was reincarnated: close its breaker and
        fan the news out to every registered listener."""
        self.reset_address(address)
        for listener in list(self._restart_listeners):
            listener(address)

    # -- last-known-good directory records (ASD lookup fallback) -----------
    def remember_lookup(self, key: Tuple, records: Tuple) -> None:
        self._lookup_cache[key] = tuple(records)

    def recall_lookup(self, key: Tuple) -> Optional[Tuple]:
        return self._lookup_cache.get(key)
