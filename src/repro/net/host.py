"""Simulated hosts: CPU, memory, disk, load accounting, crash/restart.

A host is where ACE daemons run.  Its CPU is a :class:`repro.sim.Resource`
with one slot per core; daemon work is expressed in *bogomips-seconds* (the
unit the paper's HRM reports, §4.1) so a 400-bogomips host takes twice as
long as an 800-bogomips one for the same work, and contention queues up
naturally.  Utilization is tracked with an exponentially-decayed busy-time
window so the HRM/SRM (§4.1–4.2) can report meaningful load figures.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.sim import Resource, Simulator


class HostDownError(Exception):
    """Raised when code touches a crashed host."""

    def __init__(self, host: str):
        super().__init__(f"host {host!r} is down")
        self.host = host


class Host:
    """A machine in the ACE network."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        *,
        bogomips: float = 800.0,
        cores: int = 1,
        memory_mb: float = 512.0,
        disk_mb: float = 20_000.0,
        room: str = "",
        segment: str = "lan",
    ):
        if bogomips <= 0:
            raise ValueError(f"bogomips must be positive, got {bogomips}")
        self.sim = sim
        self.name = name
        self.bogomips = bogomips
        self.cores = cores
        self.room = room
        self.segment = segment
        self.cpu = Resource(sim, capacity=cores, name=f"{name}.cpu")
        #: free memory and disk the HRM reports (§4.1); nothing allocates them
        self.memory_mb = memory_mb
        self.disk_mb = disk_mb
        self._up = True
        self._busy_accum = 0.0
        self._busy_mark: Optional[float] = None
        self._window_start = 0.0
        self._epoch = 0  # bumped on each crash so stale work notices
        #: what runs here (daemons, apps), in start order: a crash kills them
        self.residents: Dict[Any, None] = {}
        # Gray-failure degradation: >1 means this host's NIC/stack is slower.
        self.latency_mult = 1.0
        self.bandwidth_mult = 1.0

    # -- liveness ----------------------------------------------------------
    @property
    def up(self) -> bool:
        return self._up

    @property
    def epoch(self) -> int:
        return self._epoch

    def crash(self) -> None:
        """Take the host down and ``kill()`` what runs on it, in start
        order; the network drops its traffic, and its streams die with it."""
        self._up = False
        self._epoch += 1
        for resident in list(self.residents):
            resident.kill()

    def restart(self) -> None:
        """Bring a crashed host back, empty: only a relaunch starts daemons."""
        self._up = True
        self._busy_accum = 0.0
        self._busy_mark = None
        self._window_start = self.sim.now
        self.restore_performance()

    def check_up(self) -> None:
        if not self._up:
            raise HostDownError(self.name)

    # -- gray failure (degraded host) --------------------------------------
    @property
    def degraded(self) -> bool:
        return self.latency_mult != 1.0 or self.bandwidth_mult != 1.0

    def degrade(self, latency_mult: float = 1.0, bandwidth_mult: float = 1.0) -> None:
        """Make this host's networking slow without taking it down — the
        gray-failure mode leases and restart managers cannot see.

        Multipliers scale *time*: ``latency_mult=10`` means every message
        touching this host takes 10× the path latency; ``bandwidth_mult=4``
        means sends from it serialize 4× slower.
        """
        if latency_mult <= 0 or bandwidth_mult <= 0:
            raise ValueError("degradation multipliers must be positive")
        self.latency_mult = latency_mult
        self.bandwidth_mult = bandwidth_mult

    def restore_performance(self) -> None:
        self.latency_mult = 1.0
        self.bandwidth_mult = 1.0

    # -- CPU work ----------------------------------------------------------
    def execute(self, bogomips_seconds: float) -> Generator:
        """Process generator: occupy a core for the given amount of work.

        ``bogomips_seconds`` is work normalized to a 1-bogomips machine;
        wall time on this host is ``work / bogomips``.
        """
        if not self._up:
            raise HostDownError(self.name)
        epoch = self._epoch
        cpu = self.cpu
        req = cpu.try_acquire()
        if req is None:
            req = cpu.request()
            try:
                yield req
            except BaseException:
                # Interrupted in the run queue: give the place (or a slot
                # granted but not yet delivered) back, or the core is lost.
                cpu.release(req)
                raise
        try:
            if not self._up:
                raise HostDownError(self.name)
            duration = bogomips_seconds / self.bogomips
            # Busy time runs while at least one slot is held (this one is).
            if self._busy_mark is None:
                self._busy_mark = self.sim.now
            yield self.sim.timeout(duration)
            if not self._up or self._epoch != epoch:
                raise HostDownError(self.name)
        finally:
            # Busy time ends when the last held slot (this one) drains.
            if self._busy_mark is not None and len(cpu._users) <= 1:
                self._busy_accum += self.sim.now - self._busy_mark
                self._busy_mark = None
            cpu.release(req)

    # -- load accounting -----------------------------------------------------
    def utilization(self) -> float:
        """Fraction of time at least one core was busy since the last reset."""
        end = self.sim.now
        window = end - self._window_start
        if window <= 0:
            return 0.0
        busy = self._busy_accum
        if self._busy_mark is not None:
            busy += end - self._busy_mark
        return min(1.0, busy / window)

    def reset_utilization(self) -> None:
        self._busy_accum = 0.0
        self._window_start = self.sim.now
        if self._busy_mark is not None:
            self._busy_mark = self.sim.now

    def run_queue_length(self) -> int:
        """Processes waiting for a core (the classic Unix load signal)."""
        return self.cpu.queued

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "up" if self._up else "DOWN"
        return f"<Host {self.name} {self.bogomips:.0f}bmips x{self.cores} {state}>"
