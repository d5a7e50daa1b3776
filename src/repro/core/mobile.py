"""Mobile sockets (Chapter 9 future work).

The paper: "research and development of mobile sockets must be integrated
with the current ACE service infrastructure to handle downed ACE services
allowing clients to quickly resume their tasks with other service
instances and to ensure service mobility."

:class:`MobileServiceConnection` implements exactly that contract at the
client library level: it binds to a *service class* (or name) rather than
an address; when the current instance dies mid-call it re-resolves through
the ASD, reconnects to another live instance, replays the in-flight
command, and keeps going.  Commands must therefore be idempotent or
safely retryable — the same requirement real mobile-socket systems
impose.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.lang import ACECmdLine
from repro.net import Address
from repro.net.host import HostDownError

from repro.core.client import CallError, ServiceClient, ServiceConnection
from repro.services.asd import ServiceRecord, asd_lookup


class NoInstanceAvailable(Exception):
    """The ASD knows no (further) live instance of the bound service."""


class MobileServiceConnection:
    """A connection to *a service*, not to *an address*."""

    def __init__(
        self,
        client: ServiceClient,
        asd_address: Address,
        *,
        cls: Optional[str] = None,
        name: Optional[str] = None,
        room: Optional[str] = None,
        max_failovers: int = 5,
        call_timeout: float = 1.0,
    ):
        if cls is None and name is None:
            raise ValueError("bind by cls= and/or name=")
        self.client = client
        self.asd_address = asd_address
        self.cls = cls
        self.name = name
        self.room = room
        self.max_failovers = max_failovers
        #: a host can die *silently* (no RST on the simulated wire), so the
        #: mobile socket carries its own liveness deadline per call
        self.call_timeout = call_timeout
        self.current: Optional[ServiceRecord] = None
        self._conn: Optional[ServiceConnection] = None
        self._excluded: List[str] = []  # instances observed dead
        self.failovers = 0
        self.last_failover_time: Optional[float] = None

    # ------------------------------------------------------------------
    def _resolve(self) -> Generator:
        records = yield from asd_lookup(
            self.client, self.asd_address, cls=self.cls, name=self.name, room=self.room
        )
        candidates = [r for r in records if r.name not in self._excluded]
        if not candidates:
            # Everything we know is dead; maybe an excluded one recovered.
            self._excluded.clear()
            candidates = records
        if not candidates:
            raise NoInstanceAvailable(
                f"no live instance of cls={self.cls!r} name={self.name!r}"
            )
        return candidates[0]

    def connect(self) -> Generator:
        """Bind to the first live instance."""
        record = yield from self._resolve()
        self._conn = yield from self.client.connect(record.address)
        self.current = record
        return record

    def _failover(self) -> Generator:
        """Current instance is gone: exclude it, resolve another, reconnect."""
        t0 = self.client.ctx.sim.now
        if self.current is not None:
            self._excluded.append(self.current.name)
        if self._conn is not None:
            self._conn.close()
            self._conn = None
        attempts = 0
        while True:
            try:
                record = yield from self._resolve()
                self._conn = yield from self.client.connect(record.address)
                self.current = record
                break
            except CallError as exc:
                # The directory may briefly list an instance that just died
                # (lease not yet expired): exclude and try the next one.
                attempts += 1
                record = locals().get("record")
                if record is not None and record.name not in self._excluded:
                    self._excluded.append(record.name)
                if attempts > self.max_failovers:
                    raise NoInstanceAvailable(f"failover exhausted: {exc}")
                yield self.client.ctx.sim.timeout(0.05 * attempts)
        self.failovers += 1
        self.last_failover_time = self.client.ctx.sim.now - t0
        self.client.ctx.trace.emit(
            self.client.ctx.sim.now, "mobile-socket", "failover",
            to=self.current.name, took=round(self.last_failover_time, 6),
        )

    # ------------------------------------------------------------------
    def _timed_call(self, command: ACECmdLine, check: bool) -> Generator:
        """One attempt, racing the reply against the liveness deadline.

        Returns ``(ok, reply_or_None)``; ``ok=False`` means the instance is
        presumed dead (timeout or transport failure).  Semantic failures
        (cmdFailed replies) raise through unchanged.
        """
        sim = self.client.ctx.sim
        proc = sim.process(self._conn.call(command, check=check), name="mobile-call")
        deadline = sim.timeout(self.call_timeout)
        try:
            yield sim.any_of([proc, deadline])
        except Exception:
            pass  # the call failed before the deadline; inspect proc below
        if proc.triggered:
            if proc.ok:
                return True, proc.value
            proc.defuse()
            exc = proc.value
            if isinstance(exc, CallError) and exc.reply is not None:
                raise exc  # semantic failure: not retryable
            if isinstance(exc, (CallError, HostDownError)):
                return False, None
            raise exc
        # Timeout won: the reply never came; abandon the stuck call.
        proc.defuse()
        proc.interrupt("mobile-socket timeout")
        return False, None

    def call(self, command: ACECmdLine, check: bool = True) -> Generator:
        """Issue a command, transparently failing over as needed."""
        if self._conn is None:
            yield from self.connect()
        for _ in range(self.max_failovers + 1):
            ok, reply = yield from self._timed_call(command, check)
            if ok:
                return reply
            yield from self._failover()
        raise NoInstanceAvailable(f"{command.name!r} failed after retries")

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
