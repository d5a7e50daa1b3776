"""SRM — System Resource Monitor (§4.2, Fig. 11).

Aggregates every HRM in the environment (discovered through the ASD by
class ``HRM``) into a system-wide view, and answers placement questions:
``selectHost`` returns the machine "most suitable (has the most free
resources)" for running an application — the policy the SAL consults in
Scenario 1.

Scoring: lower is better; ``run_queue`` dominates (a queued CPU means work
waits), then utilization, then *negative* speed so faster idle machines win
ties.  ``selectHost`` takes optional minimum memory/disk requirements.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.lang import ACECmdLine, ArgSpec, ArgType, CommandSemantics
from repro.core.client import CallError
from repro.core.daemon import ACEDaemon, Request, ServiceError
from repro.core.policy import CallPolicy
from repro.services.asd import asd_lookup


class SystemResourceMonitorDaemon(ACEDaemon):
    """System-wide resource view + host selection (§4.2, Fig. 11)."""

    service_type = "SRM"

    def __init__(self, ctx, name, host, *, poll_interval: float = 5.0, **kwargs):
        super().__init__(ctx, name, host, **kwargs)
        self.poll_interval = poll_interval
        #: a host that has not answered by the next poll is dropped
        self._poll_policy = CallPolicy(deadline=poll_interval, attempt_timeout=poll_interval,
                                       max_attempts=1, breaker_threshold=0)
        #: host name -> latest HRM report
        self.reports: Dict[str, dict] = {}
        self._report_times: Dict[str, float] = {}

    def build_semantics(self, sem: CommandSemantics) -> None:
        sem.define("getSystemResources", description="all known host reports")
        sem.define(
            "selectHost",
            ArgSpec("min_mem_mb", ArgType.NUMBER, required=False, default=0.0),
            ArgSpec("min_disk_mb", ArgType.NUMBER, required=False, default=0.0),
            ArgSpec("exclude", ArgType.STRING, required=False, default=""),
            description="pick the least-loaded suitable host (Fig. 11)",
        )

    def on_started(self) -> None:
        self._spawn(self._poll_loop(), "poller")

    # ------------------------------------------------------------------
    def _poll_loop(self) -> Generator:
        while self.running:
            try:
                yield from self._poll_once()
            except Exception:
                pass
            yield self.ctx.sim.timeout(self.poll_interval)

    def _poll_once(self) -> Generator:
        """"Regular communications ... with all the HRMs" (§7.1)."""
        if self.ctx.asd_address is None:
            return
        try:
            hrms = yield from asd_lookup(self.client, self.ctx.asd_address, cls="HRM")
        except CallError:
            return
        for record in hrms:
            try:
                reply = yield from self.client.call(
                    record.address, ACECmdLine("getResources"), self._poll_policy
                )
            except CallError:
                self.reports.pop(record.host, None)
                continue
            self.reports[reply.str("host")] = {
                "bogomips": reply.float("bogomips"),
                "cores": reply.int("cores"),
                "cpu_load": reply.float("cpu_load"),
                "run_queue": reply.int("run_queue"),
                "mem_free_mb": reply.float("mem_free_mb"),
                "disk_free_mb": reply.float("disk_free_mb"),
            }
            self._report_times[reply.str("host")] = self.ctx.sim.now

    @staticmethod
    def score(report: dict) -> float:
        """Lower = more suitable."""
        return (
            report["run_queue"] * 10.0
            + report["cpu_load"]
            - report["bogomips"] / 1e6
        )

    def choose(
        self,
        min_mem_mb: float = 0.0,
        min_disk_mb: float = 0.0,
        exclude: Optional[List[str]] = None,
    ) -> Optional[str]:
        exclude = set(exclude or ())
        candidates = [
            (self.score(rep), host)
            for host, rep in sorted(self.reports.items())
            if host not in exclude
            and rep["mem_free_mb"] >= min_mem_mb
            and rep["disk_free_mb"] >= min_disk_mb
        ]
        if not candidates:
            return None
        return min(candidates)[1]

    # ------------------------------------------------------------------
    def cmd_getSystemResources(self, request: Request) -> dict:
        result: dict = {"count": len(self.reports)}
        if self.reports:
            result["hosts"] = tuple(
                f"{host}|{rep['bogomips']}|{rep['cpu_load']}|{rep['run_queue']}"
                f"|{rep['mem_free_mb']}|{rep['disk_free_mb']}"
                for host, rep in sorted(self.reports.items())
            )
        return result

    def cmd_selectHost(self, request: Request) -> dict:
        cmd = request.command
        exclude = [h for h in cmd.str("exclude", "").split(",") if h]
        choice = self.choose(
            cmd.float("min_mem_mb", 0.0), cmd.float("min_disk_mb", 0.0), exclude
        )
        if choice is None:
            raise ServiceError("no suitable host available")
        return {"host": choice, "score": float(self.score(self.reports[choice]))}
