"""HRM — Host Resource Monitor (§4.1).

One per host; reports that host's CPU load, speed (bogomips), run-queue
length, memory and disk.  Two access styles, per the paper: query
(``getResources``) or push via the inherent notification mechanism —
the HRM executes a ``sample`` command on itself every interval, so any
service that registered ``addNotification cmd=sample ...`` receives
periodic load reports.
"""

from __future__ import annotations

from typing import Generator

from repro.lang import ArgSpec, ArgType, CommandSemantics
from repro.core.daemon import ACEDaemon, Request


class HostResourceMonitorDaemon(ACEDaemon):
    """Reports this host's load/capacity (§4.1)."""

    service_type = "HRM"

    def __init__(self, ctx, name, host, *, sample_interval: float = 5.0, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.sample_interval = sample_interval
        self._last_sample: dict = {}

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define("getResources", description="current host load/capacity figures")
        sem.define(
            "sample",
            ArgSpec("auto", ArgType.INTEGER, required=False, default=0),
            description="take a load sample (self-issued periodically)",
        )

    def on_started(self) -> None:
        self._spawn(self._sample_loop(), "sampler")

    def _measure(self) -> dict:
        host = self.host
        return {
            "host": host.name,
            "bogomips": float(host.bogomips),
            "cores": host.cores,
            "cpu_load": round(host.utilization(), 6),
            "run_queue": host.run_queue_length(),
            "mem_free_mb": round(host.memory_mb, 3),
            "disk_free_mb": round(host.disk_mb, 3),
        }

    def _sample_loop(self) -> Generator:
        """Periodically run our own ``sample`` command *through the normal
        dispatch path* so notification listeners fire (§4.1's push mode)."""
        from repro.lang import ACECmdLine
        from repro.core.daemon import Request as Req

        while self.running:
            yield self.ctx.sim.timeout(self.sample_interval)
            if not self.running:
                return
            request = Req(
                command=ACECmdLine("sample", auto=1),
                principal=self.name,
                received_at=self.ctx.sim.now,
            )
            slot = self.ctx.sim.event()
            try:
                yield self._control_queue.put((request, slot))
                yield slot
            except Exception:
                return

    def cmd_sample(self, request: Request) -> dict:
        self._last_sample = self._measure()
        self.host.reset_utilization()  # windowed utilization per sample
        return dict(self._last_sample)

    def cmd_getResources(self, request: Request) -> dict:
        return self._measure()
